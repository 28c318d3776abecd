#!/usr/bin/env python3
"""Outside-in benchmark of the paper system.

Run from the repository root::

    python3 perfbench/run.py --workload content_grid --seed 1 --seconds 40 --trace 0

``--trace 0`` runs untraced passes for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and two traced passes
and reports the per-layer metrics (see ``perfbench/README.md``). Every
pass is checked; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is 1 when a check failed, 2 when the program cannot be found. Times are
reported in reference seconds (see ``calibrate.py``), the wall-clock
figures beside them. The run re-executes itself with ``PYTHONHASHSEED``
and the numeric libraries' thread counts pinned (see ``PINNED_ENV``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
#: Calibration slices taken before and after each set-up.
SETUP_SLICES = 10
#: Python randomizes string hashing per process, and the program sums
#: floats in set order (``generalized_jaccard_similarity`` iterates
#: ``u.keys() | v.keys()``), so GJS scores -- and, through ties, APs --
#: differ between processes unless the hash seed is fixed. The run pins
#: it so AP digests can be compared with the recorded reference, and runs
#: numpy's BLAS on one thread: the workloads are serial, and spare BLAS
#: threads on a few shared cores would measure the scheduler.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

BAG_MEASURES = ("CS", "JS", "GJS")
GRAPH_MEASURES = ("CoS", "VS", "NS")
STAGES = ("fit", "profiles", "rank")

clock = time.perf_counter


# -- helpers ---------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; median for q=50)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_reference_seconds(metrics: dict, scale: float) -> dict[str, tuple[float, str]]:
    """Times (s, ms) times ``scale``, rates (1/s) divided by it."""
    factor = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    return {name: (value * factor.get(unit, 1.0), unit) for name, (value, unit) in metrics.items()}


# -- output checks -----------------------------------------------------------------


class Checker:
    """Counts failed cells/operations and keeps the AP digests per cell.

    A cell's digest is compared with the reference recorded for this
    workload, seed and size under the current ``PROFILE_PROTOCOL_VERSION``
    when there is one, and otherwise with the first pass of this run.
    """

    def __init__(self, digest, users, reference: dict[str, str]):
        self.digest = digest
        self.users = sorted(users)
        self.expected = dict(reference)
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.messages: list[str] = []

    def check(self, result) -> None:
        failures = list(result.failures)
        for label, cell in sorted(result.cells.items()):
            problems = []
            if sorted(cell.per_user_ap) != self.users:
                problems.append(
                    f"APs for {len(cell.per_user_ap)} users, expected {len(self.users)}"
                )
            bad = [ap for ap in cell.per_user_ap.values() if not (0.0 <= ap <= 1.0)]
            if bad:
                problems.append(f"AP outside [0, 1]: {bad[:3]}")
            digest = self.digest(cell.per_user_ap)
            expected = self.expected.setdefault(label, digest)
            if digest != expected:
                problems.append(f"AP digest {digest} != reference {expected}")
            self.seen[label] = digest
            failures += [f"{label}: {p}" for p in problems]
        self.fail(result.attempted, failures)

    def fail(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.messages += failures

    @property
    def failed(self) -> int:
        return min(len(self.messages), self.attempted)


def load_reference(workload: str, seed: int, size) -> dict[str, str]:
    from repro.core.stages import PROFILE_PROTOCOL_VERSION

    if not REFERENCE.is_file():
        return {}
    data = json.loads(REFERENCE.read_text())
    if data.get("protocol_version") != PROFILE_PROTOCOL_VERSION or data.get("size") != repr(size):
        return {}
    return data.get("digests", {}).get(f"{workload}/{seed}", {})


def record_reference(workload: str, seed: int, size, digests: dict[str, str]) -> None:
    from repro.core.stages import PROFILE_PROTOCOL_VERSION

    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if data.get("protocol_version") != PROFILE_PROTOCOL_VERSION or data.get("size") != repr(size):
        data = {"protocol_version": PROFILE_PROTOCOL_VERSION, "size": repr(size), "digests": {}}
    data["digests"][f"{workload}/{seed}"] = dict(sorted(digests.items()))
    data["digests"] = dict(sorted(data["digests"].items()))
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


# -- metrics -----------------------------------------------------------------------


def end_to_end(stream: bool, passes: list, setup_s: float,
               scales: list[float]) -> dict[str, tuple[float, str]]:
    """Medians over the run's passes; latencies over its operations.

    ``scales`` holds each pass's reference seconds per wall second (all
    1.0 for the wall-clock figures); ``setup_s`` is already scaled.

    Every pass repeats the same operations in the same order, so each
    operation's latency is its median over the passes: on a shared host
    contention slows a few operations of a pass at random, and a pooled
    percentile that falls between two models' operations would follow
    which of them it hit.
    """
    from repro.eval.metrics import map_over_users

    cells = [cell for p in passes for cell in p.cells.values()]

    def per_op(seconds_of) -> list[float]:
        scaled = [[s * f for s in seconds_of(p)] for p, f in zip(passes, scales)]
        return [statistics.median(op) for op in zip(*scaled)]

    updates = per_op(lambda p: p.update_seconds)
    ranks = per_op(lambda p: p.rank_seconds)
    if stream:
        # TTime = fit + streamed updates, ETime = re-ranks (per pass).
        ttime = [sum(c.training_seconds for c in p.cells.values()) + sum(p.update_seconds)
                 for p in passes]
        etime = [sum(p.rank_seconds) for p in passes]
    else:
        ttime = [sum(c.training_seconds for c in p.cells.values()) for p in passes]
        etime = [sum(c.testing_seconds for c in p.cells.values()) for p in passes]

    def median(values: list[float]) -> float:
        return statistics.median(v * f for v, f in zip(values, scales))

    return {
        "setup_s": (setup_s, "s"),
        "sweep_s": (median([p.seconds for p in passes]), "s"),
        "ttime_s": (median(ttime), "s"),
        "etime_s": (median(etime), "s"),
        "map": (statistics.fmean(map_over_users(c.per_user_ap) for c in cells), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "update_p50_ms": (percentile(updates, 50) * 1e3, "ms"),
        "update_p90_ms": (percentile(updates, 90) * 1e3, "ms"),
        "rank_p50_ms": (percentile(ranks, 50) * 1e3, "ms"),
        "rank_p90_ms": (percentile(ranks, 90) * 1e3, "ms"),
    }


def counts(tracer) -> dict[str, tuple[int, int]]:
    """Every kernel's (calls, items): must repeat exactly between passes."""
    table = {"/".join(key): (k.calls, k.items) for key, k in tracer.kernels.items()}
    table["spans"] = (len(tracer.spans), 0)
    return table


def per_layer(tracer, inputs, timings, traced_s: float, untraced_s: float):
    """Per-layer metrics of one traced pass (see README for the map)."""
    from workloads import CONTENT_MODELS, TOPIC_MODELS

    kernels = tracer.kernels

    def busy(*prefix: str) -> float:
        return sum(k.busy for key, k in kernels.items() if key[: len(prefix)] == prefix)

    def calls(*prefix: str) -> int:
        return sum(k.calls for key, k in kernels.items() if key[: len(prefix)] == prefix)

    def items(*prefix: str) -> int:
        return sum(k.items for key, k in kernels.items() if key[: len(prefix)] == prefix)

    stage: dict[tuple[str, str], float] = {}
    runner_self = 0.0
    for span in tracer.spans:
        if span.name.startswith("core."):
            family = tracer.attr(span, "model") or ""
            name = span.name[len("core."):]
            stage[(name, "")] = stage.get((name, ""), 0.0) + span.self_time
            stage[(name, family)] = stage.get((name, family), 0.0) + span.self_time
        elif span.name == "bench.pass":
            # The pass minus its cell spans: runner and executor overhead.
            runner_self += span.self_time
    generate = statistics.median(t["generate"] for t in timings)
    hits, misses = calls("core", "prepare", "hit"), calls("core", "prepare", "miss")

    m: dict[str, tuple[float, str]] = {
        "twitter.generate_s": (generate, "s"),
        "twitter.groups_s": (statistics.median(t["groups"] for t in timings), "s"),
        "twitter.tweets_per_s": (rate(len(inputs.dataset.tweets), generate), "1/s"),
        "text.fit_s": (sum(s.duration for s in tracer.spans if s.name == "text.fit"), "s"),
        "text.docs_per_s": (rate(calls("text", "to_doc"), busy("text", "to_doc")), "1/s"),
        "text.docs": (calls("text", "to_doc"), "count"),
        "core.prepare_s": (stage.get(("prepare", ""), 0.0), "s"),
        "core.prepare.hits": (hits, "count"),
        "core.prepare.hit_ratio": (rate(hits, hits + misses), "ratio"),
    }
    for name in STAGES:
        m[f"core.{name}_s"] = (stage.get((name, ""), 0.0), "s")
        for family in CONTENT_MODELS + TOPIC_MODELS:
            m[f"core.{name}_s.{family}"] = (stage.get((name, family), 0.0), "s")
    m["models.topic.busy_s"] = (busy("topic"), "s")
    for family in TOPIC_MODELS:
        m[f"models.topic.gibbs_steps_per_s.{family}"] = (
            rate(items("topic", "fit", family), busy("topic", "fit", family)), "1/s")
        m[f"models.topic.foldin_docs_per_s.{family}"] = (
            rate(calls("topic", "represent", family), busy("topic", "represent", family)), "1/s")
    m["models.topic.foldin_calls"] = (calls("topic", "represent"), "count")
    m["models.bag.busy_s"] = (busy("bag"), "s")
    m["models.bag.represent_docs_per_s"] = (
        rate(calls("bag", "represent"), busy("bag", "represent")), "1/s")
    for measure in BAG_MEASURES:
        m[f"models.similarity.pairs_per_s.{measure}"] = (
            rate(calls("bag", "score", measure), busy("bag", "score", measure)), "1/s")
    m["models.graph.busy_s"] = (busy("graph"), "s")
    m["models.graph.represent_docs_per_s"] = (
        rate(calls("graph", "represent"), busy("graph", "represent")), "1/s")
    m["models.graph.merge_docs_per_s"] = (
        rate(items("graph", "update"), busy("graph", "update")), "1/s")
    for measure in GRAPH_MEASURES:
        m[f"models.graph.pairs_per_s.{measure}"] = (
            rate(calls("graph", "score", measure), busy("graph", "score", measure)), "1/s")
    m["models.scored_pairs"] = (
        sum(k.calls for key, k in kernels.items() if key[1] == "score"), "count")
    m["experiments.self_s"] = (runner_self, "s")
    m["bench.traced_pass_s"] = (traced_s, "s")
    m["bench.trace_overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    return m


# -- the run -------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None,
        record: bool = False, log=print) -> dict:
    """One benchmark run; logs every metric and returns the result object.

    Calibration slices run around every set-up and inside every untraced
    pass; each set-up and pass is scaled to reference seconds by its own
    slices, the per-layer figures by all slices of the run.
    """
    import workloads as wl
    from calibrate import Slices
    from spans import Tracer

    workload = wl.WORKLOADS[workload_name]
    size = size if size is not None else wl.FULL

    # Untimed warm-up at toy size: imports, first-call set-up, allocator.
    workload.run(wl.setup(seed, wl.TOY))

    timings = []
    setups = []
    setup_slices = []
    chosen = set()
    for _ in range(SETUP_REPEATS):
        setup_slices.append(Slices())
        setup_slices[-1].take(SETUP_SLICES)
        started = clock()
        inputs = wl.setup(seed, size)
        setups.append(clock() - started)
        setup_slices[-1].take(SETUP_SLICES)
        timings.append(inputs.timings)
        chosen.add(inputs.users)

    checker = Checker(wl.ap_digest, inputs.users, load_reference(workload_name, seed, size))
    if len(chosen) > 1:
        checker.fail(0, ["set-up chose different users on the same seed"])
    passes = []
    tracers = []
    started = clock()
    while True:  # untraced passes; never start one that would end after --seconds
        passes.append(workload.run(inputs))
        checker.check(passes[-1])
        if trace or clock() - started + passes[-1].seconds > seconds:
            break
    if trace:
        for index in (1, 2):
            tracers.append(Tracer(run=f"{workload_name}-seed{seed}-pass{index}"))
            passes.append(workload.run(inputs, tracers[-1]))
            checker.check(passes[-1])
    run_slices = Slices()
    for slices in setup_slices + [p.slices for p in passes]:
        run_slices.seconds += slices.seconds
    if workload.stream:
        checker.fail(0, wl.batch_profile_failures(workload, inputs, passes[0]))
    for message in checker.messages:
        log(f"FAILED {message}", file=sys.stderr)
    correct = not checker.messages

    if trace:
        first, second = (counts(t) for t in tracers)
        if first != second:
            correct = False
            diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
            log(f"FAILED counts differ between traced passes: {diff}", file=sys.stderr)
        traced_s = statistics.median(p.seconds for p in passes[-2:])
        raw = per_layer(tracers[0], inputs, timings, traced_s, passes[0].seconds)
        metrics = in_reference_seconds(raw, run_slices.scale())
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload_name}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload_name, "seed": seed, "untraced_s": passes[0].seconds,
             "passes": [t.to_dict() for t in tracers]}))
    else:
        raw = end_to_end(workload.stream, passes, statistics.median(setups),
                         [1.0] * len(passes))
        setup_s = statistics.median(t * s.scale() for t, s in zip(setups, setup_slices))
        metrics = end_to_end(workload.stream, passes, setup_s,
                             [p.slices.scale() for p in passes])
    infinite = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if infinite:
        correct = False
        log(f"FAILED metrics not finite: {infinite}", file=sys.stderr)
    if record and correct:
        record_reference(workload_name, seed, size, checker.seen)
    for name, (value, unit) in metrics.items():
        wall = f" (wall {raw[name][0]!r} {unit})" if unit in ("s", "ms", "1/s") else ""
        log(f"{name}: {value!r} {unit}{wall}")
    log(f"host speed: {run_slices.scale()!r} reference s per wall s "
        f"({len(passes)} passes, {len(run_slices.seconds)} calibration slices)")
    log(f"operations: {checker.failed} failed of {checker.attempted} attempted")
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("content_grid", "profile_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's AP digests as the reference for its seed")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        argv = sys.argv[1:] if argv is None else argv
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), record=args.record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
