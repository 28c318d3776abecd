"""The two workloads: seeded inputs, one pass each, and the wrappers
that let the traced run see inside them.

Every workload drives the paper system through its public functions
only, as a plain ``repro sweep`` does: ``generate_dataset`` and
``select_user_groups`` make the inputs, a fresh ``ExperimentPipeline``
(``telemetry=None``) runs each pass, and the two sweep workloads go
through ``SweepRunner`` with its default serial executor. The one
exception is ``profile_stream``, which re-ranks a user's candidates the
way ``rank_users`` does and so needs the pipeline's preprocessing
context and document accessor (``_context_for`` / ``_doc``).
"""

from __future__ import annotations

import hashlib
import time
import traceback
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from calibrate import Slices
from repro.core.documents import DocumentFactory
from repro.core.pipeline import ExperimentPipeline
from repro.core.recommender import RankingRecommender
from repro.core.sources import RepresentationSource
from repro.core.stages import canonical_params
from repro.eval.metrics import average_precision
from repro.experiments.configs import ModelConfig
from repro.experiments.replay import profile_digest
from repro.experiments.runner import SweepRunner
from repro.experiments.standard import bench_grid, fast_grid
from repro.models.bag import BagModel
from repro.models.graph import GraphModel
from repro.models.topic.base import TopicModel
from repro.twitter.dataset import DatasetConfig, generate_dataset, select_user_groups
from repro.twitter.entities import UserType
from repro.twitter.language import default_inventory

from spans import Tracer

clock = time.perf_counter

CONTENT_MODELS = ("TN", "CN", "TNG", "CNG")
#: The topic families the workloads run (profile_stream's LDA).
TOPIC_MODELS = ("LDA",)
STREAM_MODELS = ("TN", "TNG", "LDA")


@dataclass(frozen=True)
class Size:
    """Input size. For each test-candidate count in ``candidates``,
    ``users`` eligible users with that count are evaluated (nearest count
    if too few; seeded tie-break), so every seed gives the same mix of
    per-user work."""

    n_users: int = 240
    n_ticks: int = 40
    group_size: int = 12
    min_retweets: int = 5
    users: int = 28
    candidates: tuple[int, ...] = (10, 15)
    max_train_docs: int = 8
    #: ProfileState.update calls per user on profile_stream: the user's
    #: tweets in fold order, cut into this many nearly equal chunks (so
    #: every seed makes the same number of updates and re-ranks).
    chunks: int = 4


FULL = Size()
TOY = Size(n_users=16, n_ticks=40, group_size=3, min_retweets=3, users=2,
           candidates=(5, 10), max_train_docs=6, chunks=2)


@dataclass
class Inputs:
    seed: int
    size: Size
    dataset: object
    groups: dict[UserType, list[int]]
    users: tuple[int, ...]
    #: Seconds spent in each setup step (twitter.generate / twitter.groups).
    timings: dict[str, float]


def setup(seed: int, size: Size) -> Inputs:
    """Dataset + user groups + pipeline construction, from the seed alone."""
    started = clock()
    dataset = generate_dataset(
        DatasetConfig(n_users=size.n_users, n_ticks=size.n_ticks, seed=seed),
        inventory=default_inventory(),
    )
    generated = clock()
    groups = select_user_groups(
        dataset, group_size=size.group_size, min_retweets=size.min_retweets
    )
    grouped = clock()
    pipeline = ExperimentPipeline(
        dataset, seed=seed, max_train_docs_per_user=size.max_train_docs
    )
    members = sorted({uid for group in groups.values() for uid in group})
    eligible = pipeline.eligible_users(members)
    tie_break = dict(zip(eligible, np.random.default_rng(seed).random(len(eligible))))
    counts = {uid: len(pipeline.split_for(uid).test_set) for uid in eligible}
    chosen: set[int] = set()
    for target in size.candidates:
        pool = sorted(
            (uid for uid in eligible if uid not in chosen),
            key=lambda uid: (abs(counts[uid] - target), tie_break[uid]),
        )
        chosen.update(pool[: size.users])
    return Inputs(
        seed=seed,
        size=size,
        dataset=dataset,
        groups={g: [u for u in members if u in chosen] for g, members in groups.items()},
        users=tuple(sorted(chosen)),
        timings={"generate": generated - started, "groups": grouped - generated},
    )


def new_pipeline(inputs: Inputs) -> ExperimentPipeline:
    return ExperimentPipeline(
        inputs.dataset, seed=inputs.seed, max_train_docs_per_user=inputs.size.max_train_docs
    )


# -- one pass ------------------------------------------------------------------


@dataclass
class Cell:
    """One (configuration, source) evaluation and its per-user APs."""

    model: str
    per_user_ap: dict[int, float] = field(default_factory=dict)
    training_seconds: float = 0.0
    testing_seconds: float = 0.0
    profiles_seconds: float = 0.0


@dataclass
class PassResult:
    #: Wall seconds of the pass, calibration slices taken out.
    seconds: float
    cells: dict[str, Cell]
    #: Cells (or streamed operations) expected, and what went wrong.
    attempted: int
    failures: list[str]
    #: One sample per profile update / user re-rank (untraced passes).
    update_seconds: list[float] = field(default_factory=list)
    rank_seconds: list[float] = field(default_factory=list)
    #: Final streamed profile digest per (cell, user) -- profile_stream.
    profiles: dict[tuple[str, int], str] = field(default_factory=dict)
    #: Fitted models per cell, for the batch-profile check.
    fitted: dict[str, object] = field(default_factory=dict)
    #: Calibration slices taken inside the pass (untraced passes).
    slices: Slices = field(default_factory=Slices)


def cell_label(model: str, params: dict) -> str:
    return f"{model} {canonical_params(params)}"


def ap_digest(per_user_ap: dict[int, float]) -> str:
    payload = repr(sorted(per_user_ap.items()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """Which configurations run on which source, and how.

    ``every_config`` takes every ``bench_grid`` configuration of the
    models, otherwise their ``fast_grid`` pick; ``stream`` runs
    :func:`stream_pass` instead of a sweep.
    """

    name: str
    source: RepresentationSource
    models: tuple[str, ...]
    every_config: bool = False
    stream: bool = False

    def configs(self, seed: int) -> list[ModelConfig]:
        if self.every_config:
            grid = bench_grid(seed=seed).all_configurations()
            configs = [c for m in self.models for c in grid[m]]
        else:
            picks = {c.model: c for c in fast_grid(seed=seed)}
            configs = [picks[m] for m in self.models]
        return [
            c for c in configs
            if not (c.uses_rocchio and not self.source.has_negative_examples)
        ]

    def run(self, inputs: Inputs, tracer: Tracer | None = None) -> PassResult:
        runner = stream_pass if self.stream else sweep_pass
        if tracer is None:
            return runner(self, inputs, None)
        with tracer.span("bench.pass", workload=self.name):
            instrument_text(tracer)
            try:
                return runner(self, inputs, tracer)
            finally:
                tracer.restore()


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("content_grid", RepresentationSource.TR, CONTENT_MODELS, every_config=True),
        Workload("profile_stream", RepresentationSource.R, STREAM_MODELS, stream=True),
    )
}


def sweep_pass(workload: Workload, inputs: Inputs, tracer: Tracer | None) -> PassResult:
    configs = workload.configs(inputs.seed)
    updates: list[float] = []
    ranks: list[float] = []
    slices = Slices()
    started = clock()
    pipeline = new_pipeline(inputs)
    if tracer is not None:
        instrument_pipeline(tracer, pipeline)
        configs = [instrument_config(tracer, c) for c in configs]
    else:
        configs = [timed_config(c, updates, slices) for c in configs]
    with timed_ranks(ranks) if tracer is None else nullcontext():
        result = SweepRunner(pipeline, inputs.groups).run(configs, [workload.source])
    seconds = clock() - started - slices.total

    cells: dict[str, Cell] = {}
    for row in result.rows:
        cell = cells.setdefault(
            cell_label(row.model, row.params),
            Cell(row.model, {}, row.training_seconds, row.testing_seconds,
                 row.phase_seconds.get("profiles", 0.0)),
        )
        cell.per_user_ap.update(row.per_user_ap)
    failures = [
        f"{cell_label(f.model, f.params)}: {f.failure.error}: {f.failure.message}"
        for f in result.failures
    ]
    expected = {cell_label(c.model, c.params) for c in configs}
    failed = {cell_label(f.model, f.params) for f in result.failures}
    failures += [f"{label}: no result" for label in sorted(expected - failed - set(cells))]
    return PassResult(seconds, cells, len(expected), failures, updates, ranks, slices=slices)


def stream_pass(workload: Workload, inputs: Inputs, tracer: Tracer | None) -> PassResult:
    """Per user: one update per chunk of tweets, each followed by a re-rank.

    Untraced, a calibration slice runs before each user's operations.
    """
    configs = workload.configs(inputs.seed)
    updates: list[float] = []
    ranks: list[float] = []
    cells: dict[str, Cell] = {}
    states: dict[tuple[str, int], object] = {}
    fitted_models: dict[str, object] = {}
    failures: list[str] = []
    attempted = 0
    slices = Slices()

    started = clock()
    pipeline = new_pipeline(inputs)
    if tracer is not None:
        instrument_pipeline(tracer, pipeline)
    users = tuple(pipeline.eligible_users(inputs.users))
    context = pipeline._context_for(users)
    for config in configs:
        label = cell_label(config.model, config.params)
        model = config.build()
        if hasattr(model, "deterministic_inference"):
            model.deterministic_inference = True
        cell = cells[label] = Cell(config.model)
        with _maybe_span(tracer, "bench.model", model=config.model):
            if tracer is not None:
                instrument_model(tracer, model)
            corpus = pipeline.prepare_corpus(workload.source, users)
            fit_started = clock()
            fitted = fitted_models[label] = pipeline.fit_model(model, corpus)
            cell.training_seconds = clock() - fit_started
            for uid in users:
                if tracer is None:
                    slices.take()
                docs, labels, keys = pipeline.profile_inputs(fitted, uid)
                split = pipeline.split_for(uid)
                candidates = list(split.test_set)
                candidate_docs = [pipeline._doc(t, context) for t in candidates]
                order = sorted(range(len(keys)), key=keys.__getitem__)
                state = model.init_profile()
                ranking = None
                parts = max(min(inputs.size.chunks, len(order)), 1)
                for part in range(parts):
                    picked = order[part * len(order) // parts : (part + 1) * len(order) // parts]
                    attempted += 2
                    try:
                        t0 = clock()
                        with _maybe_span(tracer, "core.profiles"):
                            state.update(
                                [docs[i] for i in picked],
                                labels=[labels[i] for i in picked] if labels is not None else None,
                                keys=[keys[i] for i in picked],
                            )
                        t1 = clock()
                        with _maybe_span(tracer, "core.rank"):
                            ranking = fitted.recommender.rank(state.value(), candidate_docs)
                        t2 = clock()
                    except Exception:
                        failures.append(f"{label} user {uid}: {traceback.format_exc()}")
                        break
                    updates.append(t1 - t0)
                    ranks.append(t2 - t1)
                if ranking is None:
                    continue
                relevant = split.relevant_ids
                flags = [candidates[item.position].tweet_id in relevant for item in ranking]
                cell.per_user_ap[uid] = average_precision(flags)
                states[(label, uid)] = state
    seconds = clock() - started - slices.total
    profiles = {key: profile_digest(state.value()) for key, state in states.items()}
    return PassResult(
        seconds, cells, attempted, failures, updates, ranks, profiles, fitted_models, slices
    )


def batch_profile_failures(
    workload: Workload, inputs: Inputs, result: PassResult
) -> list[str]:
    """Streamed final profiles against a batch ``build_profiles`` (untimed)."""
    pipeline = new_pipeline(inputs)
    failures = []
    for label, fitted in result.fitted.items():
        batch = pipeline.build_profiles(fitted)
        for uid, profile in sorted(batch.profiles.items()):
            streamed = result.profiles.get((label, uid))
            if streamed != profile_digest(profile):
                failures.append(
                    f"{label} user {uid}: streamed profile {streamed} != batch "
                    f"{profile_digest(profile)}"
                )
    return failures


# -- per-operation timing of the untraced sweeps --------------------------------


def _timed(fn: Callable, seconds: list[float]) -> Callable:
    def wrapper(*args, **kwargs):
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append(clock() - started)

    return wrapper


def timed_config(config: ModelConfig, seconds: list[float], slices: Slices) -> ModelConfig:
    """The same configuration; each profile-state ``update`` (one per user
    in ``build_profiles``) appends its duration to ``seconds``, and each
    build first takes a calibration slice (the runner builds the model
    outside the cell's training and testing time)."""

    def factory():
        slices.take()
        model = config.build()
        init_profile = model.init_profile

        def timed_init():
            state = init_profile()
            state.update = _timed(state.update, seconds)
            return state

        model.init_profile = timed_init
        return model

    return ModelConfig(model=config.model, params=config.params, factory=factory)


@contextmanager
def timed_ranks(seconds: list[float]) -> Iterator[None]:
    """Each ``RankingRecommender.rank`` (one per user in ``rank_users``)
    appends its duration to ``seconds`` while the block runs."""
    original = RankingRecommender.rank
    RankingRecommender.rank = _timed(original, seconds)
    try:
        yield
    finally:
        RankingRecommender.rank = original


# -- wrappers for the traced run ----------------------------------------------


def _maybe_span(tracer: Tracer | None, name: str, **attrs: object):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def instrument_text(tracer: Tracer) -> None:
    """``text`` layer: stop-word fit as a span, tokenization as a kernel."""
    tracer.patch(DocumentFactory, "fit", lambda fn: tracer.spanned(fn, "text.fit"))
    tracer.patch(
        DocumentFactory, "to_doc",
        lambda fn: tracer.kernel(fn, ("text", "to_doc", ""), exclusive=True),
    )


def instrument_pipeline(tracer: Tracer, pipeline: ExperimentPipeline) -> None:
    """``core`` stages as spans; ``evaluate`` is the ``experiments.cell`` span."""
    seen: set[str] = set()

    def prepare(fn: Callable) -> Callable:
        def wrapper(source, users):
            key = pipeline.corpus_key(source, tuple(users))
            tracer.count(("core", "prepare", "hit" if key in seen else "miss"))
            seen.add(key)
            with tracer.span("core.prepare"):
                return fn(source, users)

        return wrapper

    def evaluate(fn: Callable) -> Callable:
        def wrapper(model, source, user_ids):
            with tracer.span("experiments.cell", model=model.name):
                return fn(model, source, user_ids)

        return wrapper

    tracer.patch(pipeline, "prepare_corpus", prepare)
    tracer.patch(pipeline, "evaluate", evaluate)
    for method, name in (
        ("fit_model", "core.fit"),
        ("build_profiles", "core.profiles"),
        ("rank_users", "core.rank"),
    ):
        tracer.patch(pipeline, method, lambda fn, name=name: tracer.spanned(fn, name))


def model_layer(model: object) -> str:
    if isinstance(model, TopicModel):
        return "topic"
    if isinstance(model, BagModel):
        return "bag"
    if isinstance(model, GraphModel):
        return "graph"
    return "other"


def instrument_model(tracer: Tracer, model) -> None:
    """Kernel counters on one model instance and its profile states."""
    layer = model_layer(model)
    family = model.name
    measure = getattr(getattr(model, "similarity", None), "value", "dense")

    def gibbs_steps(corpus: Sequence, user_ids=None) -> int:
        return sum(len(doc.tokens) for doc in corpus) * model.iterations

    fit_items = gibbs_steps if layer == "topic" else (lambda corpus, user_ids=None: len(corpus))
    tracer.patch(model, "fit", lambda fn: tracer.kernel(fn, (layer, "fit", family), fit_items))
    tracer.patch(model, "represent", lambda fn: tracer.kernel(fn, (layer, "represent", family)))
    tracer.patch(model, "score", lambda fn: tracer.kernel(fn, (layer, "score", measure)))

    def init_profile(fn: Callable) -> Callable:
        def wrapper():
            state = fn()
            state.update = tracer.kernel(
                state.update, (layer, "update", family),
                lambda docs, labels=None, keys=None: len(docs),
            )
            return state

        return wrapper

    tracer.patch(model, "init_profile", init_profile)


def instrument_config(tracer: Tracer, config: ModelConfig) -> ModelConfig:
    """The same configuration, building models with kernel counters."""

    def factory():
        model = config.build()
        instrument_model(tracer, model)
        return model

    return ModelConfig(model=config.model, params=config.params, factory=factory)
