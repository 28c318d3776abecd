"""Exactness of the batched fold-in and the lean Gibbs kernels.

The kernels in :mod:`repro.models.topic.gibbs` consume every random draw
in the order the original per-token loops did and keep their float
arithmetic, so fitted topics, folded-in mixtures and the shared RNG's
end state are bit-identical to the per-document implementation they
replaced. ``GOLDEN`` pins the digests that implementation produced for a
fixed corpus; every path through the new code must reproduce them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.replay import profile_digest
from repro.models.base import TextDoc
from repro.models.topic import gibbs
from repro.models.topic.hdp import HdpModel
from repro.models.topic.hlda import HldaModel
from repro.models.topic.labels import LabelExtractor
from repro.models.topic.lda import LdaModel
from repro.models.topic.llda import LabeledLdaModel


def docs_from(texts: list[str]) -> list[TextDoc]:
    return [TextDoc.from_tokens(tuple(t.split())) for t in texts]


CORPUS = docs_from([
    "star planet orbit star moon #space",
    "orbit moon star planet telescope comet #space",
    "planet star orbit",
    "bread flour oven bread yeast #baking",
    "yeast oven bread flour butter sugar salt water #baking",
    "flour bread",
    "goal match team score goal #sport",
    "team match referee goal penalty win lose draw score #sport",
    "match",
    "star bread goal moon oven team",
    "comet telescope sky night star moon planet orbit galaxy nebula dust",
    "#space #baking #sport",
])

#: Mixed lengths, an empty document, an all-OOV document, partly OOV and
#: repeated documents -- every branch of the fold-in call sites.
PROBES = docs_from([
    "star moon orbit planet comet telescope sky night galaxy nebula dust star moon",
    "bread",
    "",
    "zebra quokka axolotl",
    "goal team zebra match",
    "flour yeast oven",
    "bread",
    "team match referee goal penalty win lose draw score goal team match",
    "",
    "star bread goal",
])

MODELS = {
    "LDA": lambda: LdaModel(n_topics=12, pooling="NP", iterations=12, infer_iterations=6, seed=7),
    "LDA150": lambda: LdaModel(
        n_topics=150, pooling="NP", iterations=4, infer_iterations=3, seed=8
    ),
    "LLDA": lambda: LabeledLdaModel(
        n_latent_topics=3, pooling="NP", iterations=12, infer_iterations=6, seed=7,
        label_extractor=LabelExtractor(min_hashtag_count=2),
    ),
    "HDP": lambda: HdpModel(
        initial_topics=4, pooling="NP", iterations=10, infer_iterations=6, seed=7
    ),
    "HLDA": lambda: HldaModel(levels=3, pooling="NP", iterations=8, infer_iterations=6, seed=7),
}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=float)
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def rng_digest(model) -> str:
    return hashlib.sha256(repr(model._rng.bit_generator.state).encode()).hexdigest()[:16]


def topics(model) -> np.ndarray:
    return model._node_phi if isinstance(model, HldaModel) else model.phi


def fitted(name: str, deterministic: bool):
    model = MODELS[name]().fit(CORPUS)
    model.deterministic_inference = deterministic
    return model


def fingerprint(name: str, deterministic: bool, represent) -> tuple[str, str, str, str]:
    """(phi, post-fit RNG, thetas, end RNG) digests of one fold-in path."""
    model = fitted(name, deterministic)
    phi, fit_state = digest([topics(model)]), rng_digest(model)
    thetas = represent(model, PROBES)
    return phi, fit_state, digest(thetas), rng_digest(model)


def one_by_one(model, docs):
    return [model.represent(doc) for doc in docs]


def all_at_once(model, docs):
    return model.represent_many(docs)


#: ``fingerprint(name, deterministic, one_by_one)`` as recorded from the
#: per-document fold-in loops and per-token training loops these kernels
#: replaced.
GOLDEN = {
    ("LDA", False): (
        "283f6bda17c9124a", "4814a8987d4a0388",
        "bb6582523789c053", "2441727beb8a5fb4",
    ),
    ("LDA", True): (
        "283f6bda17c9124a", "4814a8987d4a0388",
        "492eace6d0011040", "4814a8987d4a0388",
    ),
    ("LDA150", False): (
        "0080fb38ccd8ac02", "2fe131f700370d64",
        "637f8d1c7b0415d6", "9f31e5c43d8f5938",
    ),
    ("LDA150", True): (
        "0080fb38ccd8ac02", "2fe131f700370d64",
        "cd71f0e491140bf8", "2fe131f700370d64",
    ),
    ("LLDA", False): (
        "8329b2f767eab2a8", "4814a8987d4a0388",
        "55643887c1f4404e", "2441727beb8a5fb4",
    ),
    ("LLDA", True): (
        "8329b2f767eab2a8", "4814a8987d4a0388",
        "96784b5efe0d762f", "4814a8987d4a0388",
    ),
    ("HDP", False): (
        "741416e89578d528", "66ef38f891fd9109",
        "2b5d8ffd2b6a149e", "531905f654d6baaf",
    ),
    ("HDP", True): (
        "741416e89578d528", "66ef38f891fd9109",
        "1c854837ab69ae95", "66ef38f891fd9109",
    ),
    ("HLDA", False): (
        "f85582d7903c8b9b", "ccc5b8c94c15c005",
        "cf56113f52c3853a", "d4c1c28a13955ec6",
    ),
    ("HLDA", True): (
        "f85582d7903c8b9b", "ccc5b8c94c15c005",
        "3db41936b4829e5d", "ccc5b8c94c15c005",
    ),
}

CASES = sorted(GOLDEN)


def case_id(case) -> str:
    name, deterministic = case
    return f"{name}-{'deterministic' if deterministic else 'shared-rng'}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
@pytest.mark.parametrize(
    "represent", [one_by_one, all_at_once], ids=["represent", "represent_many"]
)
def test_fit_and_fold_in_reproduce_the_golden_digests(case, represent):
    assert fingerprint(*case, represent) == GOLDEN[case]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_chunked_profile_updates_equal_a_batch_build(case):
    keys = [(tick, 500 + tick) for tick in range(len(PROBES))]
    labels = [tick % 2 for tick in range(len(PROBES))]
    batch = fitted(*case).init_profile().update(PROBES, labels=labels, keys=keys)
    streamed = fitted(*case).init_profile()
    for start, stop in [(0, 1), (1, 4), (4, 5), (5, 10)]:
        streamed.update(PROBES[start:stop], labels=labels[start:stop], keys=keys[start:stop])
    assert profile_digest(streamed.value()) == profile_digest(batch.value())
    assert [profile_digest(t) for _, t, _ in streamed._entries] == [
        profile_digest(t) for _, t, _ in batch._entries
    ]


def test_represent_many_of_nothing_draws_nothing():
    model = fitted("LDA", False)
    before = rng_digest(model)
    assert model.represent_many([]) == []
    assert rng_digest(model) == before


# -- the kernels against the per-token loops they replace ---------------------

ONE_MINUS_ULP = float(np.nextafter(1.0, 0.0))


#: Draws :func:`loop_index` had to clamp since the list was last cleared.
CLAMPED: list[int] = []


def loop_index(weights: np.ndarray, rng) -> int:
    """The original inverse-CDF draw, clamped like the kernels."""
    index = int(np.searchsorted(np.cumsum(weights), rng.random() * float(weights.sum())))
    if index == len(weights):
        CLAMPED.append(index)
    return min(index, len(weights) - 1)


def loop_fold_in(columns, prior, iterations, rngs) -> np.ndarray:
    rows = []
    for column, rng in zip(columns, rngs):
        k, n = column.shape
        n_dk = np.zeros(k)
        z = rng.integers(k, size=n)
        for topic in z:
            n_dk[topic] += 1
        for _ in range(iterations):
            for i in range(n):
                n_dk[z[i]] -= 1
                z[i] = loop_index((n_dk + prior) * column[:, i], rng)
                n_dk[z[i]] += 1
        rows.append(n_dk)
    return np.array(rows)


def loop_sweep(docs, assignments, n_dk, n_wk, n_k, alpha, beta, rng, allowed=None):
    v_beta = n_wk.shape[0] * beta
    for d, doc in enumerate(docs):
        z = assignments[d]
        choices = np.arange(len(n_k)) if allowed is None else allowed[d]
        for i, w in enumerate(doc):
            topic = z[i]
            n_dk[d, topic] -= 1
            n_wk[w, topic] -= 1
            n_k[topic] -= 1
            weights = (
                (n_dk[d, choices] + alpha) * (n_wk[w, choices] + beta) / (n_k[choices] + v_beta)
            )
            topic = choices[loop_index(weights, rng)]
            z[i] = topic
            n_dk[d, topic] += 1
            n_wk[w, topic] += 1
            n_k[topic] += 1


class NearOne:
    """Generator stub: real draws, but every other uniform is one ulp below 1.

    The pattern follows the position in the stream, so bulk and one-at-a-
    time callers see the same values.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._drawn = 0

    def integers(self, high, size=None):
        return self._rng.integers(high, size=size)

    def random(self, size=None):
        n = 1 if size is None else size
        uniforms = self._rng.random(n)
        uniforms[(self._drawn + np.arange(n)) % 2 == 0] = ONE_MINUS_ULP
        self._drawn += n
        return float(uniforms[0]) if size is None else uniforms


@pytest.mark.parametrize("k", [2, 9, 130])
@pytest.mark.parametrize("n_docs", [1, 2, 3, 7])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-rng", "per-doc-rng"])
def test_fold_in_matches_the_per_document_loop(k, n_docs, shared):
    data = np.random.default_rng(k * 100 + n_docs)
    columns = [data.random((k, int(n))) for n in data.integers(1, 12, size=n_docs)]
    prior = data.random(k) + 0.01 if k == 9 else 0.5

    def generators():
        if shared:
            return [np.random.default_rng(5)] * n_docs
        return [np.random.default_rng(5 + d) for d in range(n_docs)]

    batched_rngs, loop_rngs = generators(), generators()
    batched = gibbs.fold_in(columns, prior, 4, batched_rngs)
    assert batched.tobytes() == loop_fold_in(columns, prior, 4, loop_rngs).tobytes()
    assert [r.bit_generator.state for r in batched_rngs] == [
        r.bit_generator.state for r in loop_rngs
    ]


def test_fold_in_blocks_take_the_same_draws(monkeypatch):
    data = np.random.default_rng(11)
    columns = [data.random((6, int(n))) for n in data.integers(1, 9, size=13)]
    whole = gibbs.fold_in(columns, 0.4, 3, [np.random.default_rng(2)] * 13)
    monkeypatch.setattr(gibbs, "_BLOCK", 4)
    blocked = gibbs.fold_in(columns, 0.4, 3, [np.random.default_rng(2)] * 13)
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("labeled", [False, True])
def test_lda_sweep_matches_the_per_token_loop(labeled):
    data = np.random.default_rng(3)
    k, vocab = 11, 30
    docs = [list(data.integers(vocab, size=int(n))) for n in data.integers(0, 15, size=9)]
    allowed = [np.sort(data.choice(k, size=4, replace=False)) for _ in docs] if labeled else None

    def state():
        z = [
            (allowed[d] if labeled else np.arange(k))[np.arange(len(doc)) % 4]
            for d, doc in enumerate(docs)
        ]
        n_dk, n_wk, n_k = np.zeros((len(docs), k)), np.zeros((vocab, k)), np.zeros(k)
        for d, doc in enumerate(docs):
            for w, topic in zip(doc, z[d]):
                n_dk[d, topic] += 1
                n_wk[w, topic] += 1
                n_k[topic] += 1
        return z, n_dk, n_wk, n_k, np.random.default_rng(9)

    kernel, loop = state(), state()
    for _ in range(3):
        gibbs.lda_sweep(docs, *kernel[:4], 0.7, 0.05, kernel[4], allowed)
        loop_sweep(docs, *loop[:4], 0.7, 0.05, loop[4], allowed)
    for ours, theirs in zip(kernel[1:4], loop[1:4]):
        assert ours.tobytes() == theirs.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(kernel[0], loop[0]))
    assert kernel[4].bit_generator.state == loop[4].bit_generator.state


def test_sample_index_clamps_a_draw_past_the_last_cumulative_weight():
    # A pairwise total times one-minus-an-ulp can exceed the sequential
    # cumulative sum; searchsorted then returns len(weights).
    data = np.random.default_rng(0)
    overflowing = 0
    for _ in range(200):
        weights = data.random(40)
        if ONE_MINUS_ULP * float(weights.sum()) > np.cumsum(weights)[-1]:
            overflowing += 1
            assert gibbs.sample_index(weights, NearOne(0)) == len(weights) - 1
    assert overflowing > 0


@pytest.mark.parametrize("n_docs", [1, 6], ids=["scalar-steps", "batched-steps"])
def test_fold_in_clamps_like_the_loop_on_near_one_draws(n_docs):
    data = np.random.default_rng(1)
    columns = [data.random((40, int(n))) for n in data.integers(3, 9, size=n_docs)]
    CLAMPED.clear()
    expected = loop_fold_in(columns, 0.5, 3, [NearOne(3)] * n_docs)
    assert CLAMPED
    assert gibbs.fold_in(columns, 0.5, 3, [NearOne(3)] * n_docs).tobytes() == expected.tobytes()


def test_lda_sweep_clamps_like_the_loop_on_near_one_draws():
    data = np.random.default_rng(2)
    k, vocab = 40, 25
    docs = [list(data.integers(vocab, size=8)) for _ in range(6)]

    def state():
        z = [np.arange(len(doc)) * 5 % k for doc in docs]
        n_dk, n_wk, n_k = np.zeros((len(docs), k)), np.zeros((vocab, k)), np.zeros(k)
        for d, doc in enumerate(docs):
            for w, topic in zip(doc, z[d]):
                n_dk[d, topic] += 1
                n_wk[w, topic] += 1
                n_k[topic] += 1
        return z, n_dk, n_wk, n_k

    kernel, loop = state(), state()
    kernel_rng, loop_rng = NearOne(4), NearOne(4)
    CLAMPED.clear()
    for _ in range(3):
        gibbs.lda_sweep(docs, *kernel, 1.25, 0.1, kernel_rng)
        loop_sweep(docs, *loop, 1.25, 0.1, loop_rng)
    assert CLAMPED
    for ours, theirs in zip(kernel[1:], loop[1:]):
        assert ours.tobytes() == theirs.tobytes()
