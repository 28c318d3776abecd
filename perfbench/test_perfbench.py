"""Toy-size self-test of the benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("text.docs", "models.topic.foldin_calls", "models.scored_pairs", "core.prepare.hits")


def quiet(*args, **kwargs) -> None:
    return None


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_is_correct_and_reports_every_metric(workload, trace):
    result = bench.run(workload, seed=3, seconds=0, trace=trace, size=wl.TOY, log=quiet)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_counts_repeat_between_runs():
    first, second = (
        bench.run("content_grid", seed=5, seconds=0, trace=True, size=wl.TOY, log=quiet)
        for _ in range(2)
    )
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name]


def test_profile_stream_counts_one_update_and_one_rank_per_chunk():
    inputs = wl.setup(4, wl.TOY)
    result = wl.WORKLOADS["profile_stream"].run(inputs)
    assert not result.failures
    assert len(result.update_seconds) == len(result.rank_seconds) == result.attempted // 2
    assert not wl.batch_profile_failures(wl.WORKLOADS["profile_stream"], inputs, result)


def test_sweep_times_one_update_and_one_rank_per_user_and_cell():
    rank = wl.RankingRecommender.rank
    result = wl.WORKLOADS["content_grid"].run(wl.setup(4, wl.TOY))
    users = sum(len(cell.per_user_ap) for cell in result.cells.values())
    assert len(result.update_seconds) == len(result.rank_seconds) == users > 0
    assert wl.RankingRecommender.rank is rank


def test_self_time_excludes_children_and_text_kernels():
    tracer = Tracer(run="t")
    tokenize = tracer.kernel(lambda: sum(range(20000)), ("text", "to_doc", ""), exclusive=True)
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
        tokenize()
    text = tracer.kernels[("text", "to_doc", "")]
    assert text.calls == 1
    assert outer.self_time == pytest.approx(outer.duration - inner.duration - text.busy)
    assert inner.parent == outer.id and inner.run == outer.run == "t"


def test_reference_seconds_scale_times_and_rates_only():
    metrics = {"a": (2.0, "s"), "b": (4.0, "ms"), "c": (10.0, "1/s"), "d": (3.0, "count")}
    assert bench.in_reference_seconds(metrics, 0.5) == {
        "a": (1.0, "s"), "b": (2.0, "ms"), "c": (20.0, "1/s"), "d": (3.0, "count")
    }


def test_untraced_passes_carry_calibration_slices_traced_do_not():
    inputs = wl.setup(4, wl.TOY)
    sweep = wl.WORKLOADS["content_grid"].run(inputs)
    stream = wl.WORKLOADS["profile_stream"].run(inputs)
    traced = wl.WORKLOADS["content_grid"].run(inputs, Tracer(run="t"))
    assert len(sweep.slices.seconds) == len(sweep.cells)
    assert len(stream.slices.seconds) == len(stream.cells) * len(inputs.users)
    assert not traced.slices.seconds
    assert sweep.slices.scale() > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "content_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
