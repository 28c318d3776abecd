"""Weighting schemes for the bag (vector space) models.

The paper's three schemes (Section 3.2, "Bag Models"):

* **BF**     -- boolean frequency: 1 if the n-gram occurs, else 0;
* **TF**     -- term frequency normalised by document length:
  ``f_j / N_d``;
* **TF-IDF** -- TF discounted by inverse document frequency:
  ``TF * log(|D| / (df_j + 1))`` (floored at 0; see :class:`IdfTable`).

Vectors are sparse ``dict[str, float]`` mappings -- tweets have a handful
of n-grams, so dense vectors would waste both memory and time.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from collections.abc import Iterable, Sequence

from repro.errors import NotFittedError

__all__ = ["WeightingScheme", "IdfTable", "bf_vector", "tf_vector", "tf_idf_vector"]


class WeightingScheme(str, enum.Enum):
    """The three bag-model weighting schemes."""

    BF = "BF"
    TF = "TF"
    TF_IDF = "TF-IDF"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class IdfTable:
    """Inverse document frequencies learned from a training corpus.

    ``idf(t) = log(|D| / (df(t) + 1))`` as in the paper, floored at 0: a
    term in every training document would get ``log(|D| / (|D| + 1)) < 0``,
    a negative weight that carries no evidence and that generalized
    Jaccard rejects, so it weighs 0 instead. Unseen n-grams get
    ``log(|D| / 1)``, the maximum IDF, which is the natural limit of the
    same formula at ``df = 0``. :meth:`fit` tabulates every seen term's
    IDF, so weighting a document is one lookup per n-gram.
    """

    def __init__(self) -> None:
        self._n_docs: int | None = None
        self._idf: dict[str, float] = {}
        self._unseen = 0.0

    def fit(self, documents: Iterable[Iterable[str]]) -> "IdfTable":
        """Count document frequencies over n-gram streams."""
        df: Counter[str] = Counter()
        n_docs = 0
        for grams in documents:
            df.update(set(grams))
            n_docs += 1
        self._n_docs = n_docs
        self._idf = {g: max(math.log(n_docs / (d + 1)), 0.0) for g, d in df.items()}
        self._unseen = math.log(n_docs) if n_docs else 0.0
        return self

    @property
    def n_docs(self) -> int:
        if self._n_docs is None:
            raise NotFittedError("IdfTable.fit was never called")
        return self._n_docs

    def lookup(self) -> tuple[dict[str, float], float]:
        """The fitted ``{term: idf}`` table and the unseen-term IDF."""
        if self._n_docs is None:
            raise NotFittedError("IdfTable.fit was never called")
        return self._idf, self._unseen

    def idf(self, gram: str) -> float:
        table, unseen = self.lookup()
        return table.get(gram, unseen)

    def __contains__(self, gram: str) -> bool:
        return gram in self._idf


def bf_vector(grams: Sequence[str]) -> dict[str, float]:
    """Boolean-frequency sparse vector."""
    return {g: 1.0 for g in grams}


def tf_vector(grams: Sequence[str]) -> dict[str, float]:
    """Length-normalised term-frequency sparse vector."""
    total = len(grams)
    if total == 0:
        return {}
    counts = Counter(grams)
    return {g: c / total for g, c in counts.items()}


def tf_idf_vector(grams: Sequence[str], idf_table: IdfTable) -> dict[str, float]:
    """TF-IDF sparse vector using a fitted :class:`IdfTable`."""
    table, unseen = idf_table.lookup()
    idf = table.get
    return {g: w * idf(g, unseen) for g, w in tf_vector(grams).items()}
