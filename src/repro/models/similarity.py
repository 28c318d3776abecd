"""Similarity measures for sparse bag-model vectors.

The paper's three measures (Section 3.2):

* **CS**  -- cosine similarity;
* **JS**  -- Jaccard similarity over the supports (presence/absence);
* **GJS** -- generalized Jaccard: ``sum(min) / sum(max)`` over weights.

All three operate on sparse ``dict[str, float]`` vectors and return a
value in ``[0, 1]`` for non-negative weights. Two empty vectors are
defined to have similarity 0, matching the "no shared evidence" reading
used throughout the evaluation.

Each measure has one kernel, ``*_many(u, vs)``, that scores a batch of
candidates against one user vector and does the per-user work (norm,
support set, sign check) once. The pairwise functions are that kernel on
a one-element batch.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping, Sequence

from repro.errors import ValidationError

__all__ = [
    "VectorSimilarity",
    "cosine_similarity",
    "cosine_similarity_many",
    "jaccard_similarity",
    "jaccard_similarity_many",
    "generalized_jaccard_similarity",
    "generalized_jaccard_similarity_many",
    "vector_similarity_function",
    "vector_similarity_many_function",
]

SparseVector = Mapping[str, float]


class VectorSimilarity(str, enum.Enum):
    """Bag-model similarity measures."""

    COSINE = "CS"
    JACCARD = "JS"
    GENERALIZED_JACCARD = "GJS"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def cosine_similarity_many(u: SparseVector, vs: Sequence[SparseVector]) -> list[float]:
    """Cosine of ``u`` with each of ``vs``; ``u``'s norm is computed once.

    Per pair, the dot product runs over the smaller vector's entries
    (``u``'s when the lengths tie) and is divided by the product of the
    two norms.
    """
    if not u:
        return [0.0] * len(vs)
    n_u = len(u)
    norm_u = math.sqrt(sum(w * w for w in u.values()))
    scores: list[float] = []
    for v in vs:
        if not v:
            scores.append(0.0)
            continue
        if len(v) < n_u:
            dot = sum(w * u[g] for g, w in v.items() if g in u)
        else:
            dot = sum(w * v[g] for g, w in u.items() if g in v)
        if dot == 0.0:
            scores.append(0.0)
            continue
        norm_v = math.sqrt(sum(w * w for w in v.values()))
        if norm_u == 0.0 or norm_v == 0.0:
            scores.append(0.0)
        else:
            scores.append(dot / (norm_u * norm_v))
    return scores


def jaccard_similarity_many(u: SparseVector, vs: Sequence[SparseVector]) -> list[float]:
    """Set Jaccard of ``u``'s non-zero support with each of ``vs``'s."""
    support_u = {g for g, w in u.items() if w != 0.0}
    scores: list[float] = []
    for v in vs:
        support_v = {g for g, w in v.items() if w != 0.0}
        if not support_u and not support_v:
            scores.append(0.0)
            continue
        shared = len(support_u & support_v)
        scores.append(shared / (len(support_u) + len(support_v) - shared))
    return scores


def _check_non_negative(vector: SparseVector) -> None:
    for w in vector.values():
        if w < 0.0:
            raise ValidationError("generalized Jaccard requires non-negative weights")


def generalized_jaccard_similarity_many(
    u: SparseVector, vs: Sequence[SparseVector]
) -> list[float]:
    """Weighted Jaccard of ``u`` with each of ``vs``.

    ``sum_k min(u_k, v_k) / sum_k max(u_k, v_k)``, summed over
    ``u.keys() | v.keys()`` in set order. Defined for non-negative
    weights; raises :class:`ValidationError` on negative inputs, for
    which min/max lose their overlap semantics (the paper never combines
    GJS with signed Rocchio vectors). ``u`` is sign-checked once.
    """
    if not vs:
        return []
    _check_non_negative(u)
    u_keys = u.keys()
    u_get = u.get
    scores: list[float] = []
    for v in vs:
        _check_non_negative(v)
        v_get = v.get
        num = 0.0
        den = 0.0
        for g in u_keys | v.keys():
            wu = u_get(g, 0.0)
            wv = v_get(g, 0.0)
            if wv < wu:
                num += wv
                den += wu
            else:
                num += wu
                den += wv
        scores.append(0.0 if den == 0.0 else num / den)
    return scores


def cosine_similarity(u: SparseVector, v: SparseVector) -> float:
    """Cosine of the angle between two sparse vectors."""
    return cosine_similarity_many(u, [v])[0]


def jaccard_similarity(u: SparseVector, v: SparseVector) -> float:
    """Set Jaccard over the non-zero supports of the two vectors."""
    return jaccard_similarity_many(u, [v])[0]


def generalized_jaccard_similarity(u: SparseVector, v: SparseVector) -> float:
    """Weighted Jaccard: ``sum_k min(u_k, v_k) / sum_k max(u_k, v_k)``."""
    return generalized_jaccard_similarity_many(u, [v])[0]


SimilarityMany = Callable[[SparseVector, Sequence[SparseVector]], list[float]]

_KERNELS: dict[VectorSimilarity, SimilarityMany] = {
    VectorSimilarity.COSINE: cosine_similarity_many,
    VectorSimilarity.JACCARD: jaccard_similarity_many,
    VectorSimilarity.GENERALIZED_JACCARD: generalized_jaccard_similarity_many,
}

_FUNCTIONS: dict[VectorSimilarity, Callable[[SparseVector, SparseVector], float]] = {
    VectorSimilarity.COSINE: cosine_similarity,
    VectorSimilarity.JACCARD: jaccard_similarity,
    VectorSimilarity.GENERALIZED_JACCARD: generalized_jaccard_similarity,
}


def vector_similarity_function(
    measure: VectorSimilarity,
) -> Callable[[SparseVector, SparseVector], float]:
    """Look up the pairwise form of a similarity measure."""
    return _FUNCTIONS[measure]


def vector_similarity_many_function(measure: VectorSimilarity) -> SimilarityMany:
    """Look up the batched kernel of a similarity measure."""
    return _KERNELS[measure]
