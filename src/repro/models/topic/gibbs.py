"""Numerical kernels shared by the Gibbs samplers.

All the collapsed Gibbs samplers in this package need the same two
primitives: drawing from an unnormalised discrete distribution, and
sampling the number of occupied tables in a Chinese Restaurant Process
(used by HDP's table-count resampling). Two kernels build on the first:
:func:`lda_sweep`, one training sweep of (labeled) LDA, and
:func:`fold_in`, batched fold-in of unseen documents against frozen
topics (LDA, LLDA, HDP and HLDA inference).

Both kernels are *exact*: they take every random draw in the order a
per-token loop over :func:`sample_index` would, and evaluate the same
float expressions in the same order, so their results are bit-identical
to that loop's. The speed comes from drawing uniforms in bulk, writing
into preallocated buffers, calling ``ndarray`` methods and ufuncs
directly rather than through numpy's Python-level wrappers, and -- for
fold-in -- stepping every document at one token position together.

The module also defines the samplers' per-iteration progress protocol:
a training loop calls :func:`notify_iteration` once per sweep, and any
installed :data:`IterationHook` receives a :class:`GibbsIteration`
record (iteration number, total, optional corpus log-likelihood). The
telemetry layer uses this to stream sampler convergence without the
models knowing anything about tracing.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.obs.resources import read_rss_bytes

__all__ = [
    "GibbsIteration",
    "IterationHook",
    "notify_iteration",
    "fold_in",
    "lda_sweep",
    "sample_index",
    "sample_crp_tables",
]

_add = np.add
_multiply = np.multiply
_divide = np.divide
_reduce = np.add.reduce
_accumulate = np.add.accumulate  # what ndarray.cumsum runs, with less call overhead

#: Fold-in steps a token position of fewer active documents than this
#: one document at a time: one batched step costs about as much as three
#: scalar ones.
_BATCH_MIN = 3
#: Fold-in runs at most this many documents together, which bounds its
#: padded buffers (documents x longest document x topics).
_BLOCK = 256


@dataclass(frozen=True)
class GibbsIteration:
    """One completed training sweep of a sampler (or EM) loop."""

    model: str
    iteration: int  # 1-based
    total: int
    log_likelihood: float | None = None
    #: Resident set size right after the sweep; None when no hook was
    #: installed (the read is skipped) or no RSS source exists.
    rss_bytes: int | None = None


#: Observer of sampler progress; see :func:`notify_iteration`.
IterationHook = Callable[[GibbsIteration], None]


def notify_iteration(
    hook: IterationHook | None,
    model: str,
    iteration: int,
    total: int,
    log_likelihood: float | None = None,
) -> None:
    """Deliver one :class:`GibbsIteration` to ``hook`` if one is set.

    The RSS read happens only when a hook is installed, so untraced
    training loops pay nothing for the memory dimension.
    """
    if hook is not None:
        hook(GibbsIteration(
            model=model,
            iteration=iteration,
            total=total,
            log_likelihood=log_likelihood,
            rss_bytes=read_rss_bytes(),
        ))


def sample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index proportionally to non-negative ``weights``.

    Falls back to a uniform draw when all weights are zero (which can
    happen transiently in sparse samplers) rather than crashing the
    chain.
    """
    total = _reduce(weights)
    if not 0.0 < total < np.inf:
        return int(rng.integers(len(weights)))
    # Inverse-CDF sampling on the cumulative sum: one uniform draw, one
    # searchsorted. ``total`` is a pairwise sum and the cumulative sum a
    # sequential one, so a draw within a few ulps of 1 can land past the
    # last entry; it belongs to the last index.
    index = int(_accumulate(weights).searchsorted(rng.random() * total))
    return min(index, len(weights) - 1)


def lda_sweep(
    docs: list[list[int]],
    assignments: list[np.ndarray],
    doc_topic: np.ndarray,
    word_topic: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
    allowed: list[np.ndarray] | None = None,
) -> None:
    """One collapsed-Gibbs training sweep of LDA, updating counts in place.

    Token ``i`` of document ``d`` moves to topic ``k`` with probability
    proportional to ``((n_dk + α)·(n_kw + β)) / (n_k + Vβ)``, its own
    count excluded. ``word_topic`` is word-major (V x K) so a word's
    counts are one contiguous row. With ``allowed``, document ``d`` may
    only use the topics ``allowed[d]`` (Labeled LDA). The sweep draws
    one uniform per token, all at once, which matches a per-token
    :func:`sample_index` draw for draw because ``α, β > 0`` make every
    weight positive.
    """
    v_beta = word_topic.shape[0] * beta
    uniforms = rng.random(sum(map(len, docs)))
    position = 0
    for d, doc in enumerate(docs):
        counts = doc_topic[d]
        z = assignments[d]
        choices = allowed[d] if allowed is not None else None
        width = len(choices) if choices is not None else len(topic_totals)
        weights = np.empty(width)
        other = np.empty(width)
        last = width - 1
        for i, w in enumerate(doc):
            topic = z[i]
            word = word_topic[w]
            counts[topic] -= 1
            word[topic] -= 1
            topic_totals[topic] -= 1
            if choices is None:
                _add(counts, alpha, out=weights)
                _add(word, beta, out=other)
                _multiply(weights, other, out=weights)
                _add(topic_totals, v_beta, out=other)
            else:
                counts.take(choices, out=weights)
                _add(weights, alpha, out=weights)
                word.take(choices, out=other)
                _add(other, beta, out=other)
                _multiply(weights, other, out=weights)
                topic_totals.take(choices, out=other)
                _add(other, v_beta, out=other)
            _divide(weights, other, out=weights)
            target = uniforms[position] * _reduce(weights)
            position += 1
            index = _accumulate(weights, out=other).searchsorted(target)
            if index > last:
                index = last
            topic = index if choices is None else choices[index]
            z[i] = topic
            counts[topic] += 1
            word[topic] += 1
            topic_totals[topic] += 1


def fold_in(
    columns: list[np.ndarray],
    prior: float | np.ndarray,
    iterations: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Fold ``D`` documents into frozen topics; returns D x K topic counts.

    ``columns[d]`` is the K x n_d matrix of document ``d``'s token
    likelihoods under each topic (``phi[:, doc]``, ``n_d >= 1``);
    ``prior`` is the strictly positive document-topic prior, a scalar
    or a K-vector. Each sweep moves every token to topic ``k`` with
    probability proportional to ``(n_dk + prior_k) · columns[d][k, i]``.

    Document ``d`` takes ``integers(K, n_d)`` initial topics and then
    ``random(iterations · n_d)`` uniforms from ``rngs[d]``, documents in
    input order, so a shared generator advances exactly as under one
    :func:`sample_index` loop per document. The documents are then
    stepped together, longest first: at token position ``i`` every
    document longer than ``i`` takes its step at once. Each row's sums
    are the same pairwise and sequential sums the loop computes, and
    ``(cumsum < u·total).sum()`` is ``searchsorted(u·total)``, so the
    counts are bit-identical to the loop's.
    """
    n_docs = len(columns)
    if n_docs > _BLOCK:
        # Blocks in input order take the same draws in the same order.
        return np.vstack([
            fold_in(columns[start:start + _BLOCK], prior, iterations, rngs[start:start + _BLOCK])
            for start in range(0, n_docs, _BLOCK)
        ])
    k = columns[0].shape[0]
    lengths = [column.shape[1] for column in columns]
    draws = [
        (rng.integers(k, size=n), rng.random(iterations * n).reshape(iterations, n))
        for n, rng in zip(lengths, rngs)
    ]
    order = sorted(range(n_docs), key=lambda d: -lengths[d])
    sizes = [lengths[d] for d in order]
    longest = sizes[0]
    # Row r of the padded buffers is document order[r].
    cols = np.zeros((n_docs, longest, k))
    z = np.zeros((n_docs, longest), dtype=np.intp)
    uniforms = np.zeros((n_docs, iterations, longest))
    counts = np.zeros((n_docs, k))
    for r, d in enumerate(order):
        n = sizes[r]
        cols[r, :n] = columns[d].T
        z[r, :n], uniforms[r, :, :n] = draws[d]
        counts[r] = np.bincount(z[r, :n], minlength=k)
    # Positions below ``batched`` have at least _BATCH_MIN active rows;
    # the rows that run past it finish their tokens one at a time.
    batched = sizes[_BATCH_MIN - 1] if n_docs >= _BATCH_MIN else 0
    active = (np.array(sizes)[:, None] > np.arange(batched)).sum(axis=0).tolist()
    flat = counts.reshape(-1)
    offsets = np.arange(n_docs) * k
    weights = np.empty((n_docs, k))
    cumulative = np.empty((n_docs, k))
    last = k - 1
    for iteration in range(iterations):
        for i in range(batched):
            m = active[i]
            w = weights[:m]
            slots = offsets[:m]
            flat[slots + z[:m, i]] -= 1.0
            _add(counts[:m], prior, out=w)
            _multiply(w, cols[:m, i], out=w)
            targets = uniforms[:m, iteration, i] * _reduce(w, 1)
            below = _accumulate(w, 1, None, cumulative[:m]) < targets[:, None]
            topics = np.minimum(below.sum(axis=1), last)
            z[:m, i] = topics
            flat[slots + topics] += 1.0
        w = weights[0]
        running = cumulative[0]
        for r in range(min(n_docs, _BATCH_MIN - 1)):
            row, zr, cr = counts[r], z[r], cols[r]
            ur = uniforms[r, iteration]
            for i in range(batched, sizes[r]):
                topic = zr[i]
                row[topic] -= 1.0
                _add(row, prior, out=w)
                _multiply(w, cr[i], out=w)
                topic = _accumulate(w, out=running).searchsorted(ur[i] * _reduce(w))
                if topic > last:
                    topic = last
                zr[i] = topic
                row[topic] += 1.0
    result = np.empty_like(counts)
    result[order] = counts
    return result


def sample_crp_tables(n_customers: int, concentration: float, rng: np.random.Generator) -> int:
    """Sample the table count for ``n_customers`` in a CRP.

    In a Chinese Restaurant Process with concentration ``a``, customer
    ``i`` (1-based) opens a new table with probability ``a / (a + i - 1)``.
    The sum of those Bernoulli draws is the Antoniak-distributed number of
    occupied tables; HDP resamples its per-document table counts this way.
    """
    if n_customers <= 0:
        return 0
    if concentration <= 0.0:
        return 1
    i = np.arange(n_customers, dtype=float)
    probs = concentration / (concentration + i)
    return int((rng.random(n_customers) < probs).sum())
