"""Exactness of the batched bag and graph scoring kernels.

Every similarity measure has one kernel that scores a batch of candidates
against one user model (``*_many``); the pairwise functions and
``RepresentationModel.score`` are that kernel applied to a one-element
batch. The kernels hoist per-user work (norms, support sets, sign checks)
out of the candidate loop but keep the float operations of the pairwise
definitions they replaced, in the same order, so scores are bit-identical.

``GOLDEN`` pins the score, profile and graph digests that the pairwise
implementation produced for a fixed corpus. GJS sums over
``u.keys() | v.keys()`` in set order, which follows the per-process hash
seed, so the digests are computed in a child process with
``PYTHONHASHSEED=0``. Regenerate them with
``PYTHONHASHSEED=0 PYTHONPATH=src python tests/models/test_score_parity.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, NotFittedError, ValidationError
from repro.experiments.replay import profile_digest
from repro.models.aggregation import AggregationFunction
from repro.models.bag import CharacterNGramModel, TokenNGramModel
from repro.models.base import TextDoc
from repro.models.graph import (
    CharacterNGramGraphModel,
    GraphSimilarity,
    NGramGraph,
    TokenNGramGraphModel,
    containment_similarity,
    containment_similarity_many,
    normalized_value_similarity,
    normalized_value_similarity_many,
    value_similarity,
    value_similarity_many,
)
from repro.models.similarity import (
    VectorSimilarity,
    cosine_similarity,
    cosine_similarity_many,
    generalized_jaccard_similarity,
    generalized_jaccard_similarity_many,
    jaccard_similarity,
    jaccard_similarity_many,
)
from repro.models.weighting import IdfTable, WeightingScheme, tf_idf_vector, tf_vector

ROOT = Path(__file__).resolve().parents[2]


def docs_from(texts: list[str]) -> list[TextDoc]:
    return [TextDoc.from_tokens(tuple(t.split())) for t in texts]


#: Training corpus: no n-gram occurs in every document, so every IDF is
#: positive and the goldens do not depend on the IDF floor.
CORPUS = docs_from([
    "star planet orbit star moon space",
    "orbit moon star planet telescope comet space",
    "planet star orbit",
    "bread flour oven bread yeast baking",
    "yeast oven bread flour butter sugar salt water baking",
    "flour bread",
    "goal match team score goal sport",
    "team match referee goal penalty win lose draw score sport",
    "match",
    "star bread goal moon oven team",
    "comet telescope sky night star moon planet orbit galaxy nebula dust",
    "space baking sport",
])

#: The user's history (labels feed Rocchio and the graph positives).
USER_DOCS = [CORPUS[i] for i in (0, 1, 3, 6, 10, 2, 9)]
USER_LABELS = [1, 1, 0, 1, 1, 0, 1]

#: Empty, one-word, repeated-word, unseen and longer-than-profile
#: candidates -- every branch of the kernels.
CANDIDATES = docs_from([
    "star moon orbit",
    "",
    "bread",
    "goal goal goal goal",
    "zebra quokka axolotl",
    "team match referee goal penalty win lose draw score goal team match star moon orbit "
    "planet comet telescope sky night galaxy nebula dust bread flour oven yeast butter",
    "planet star orbit",
    "star planet orbit star moon space",
    "flour yeast oven sugar",
    "sky",
])


def bag_models():
    """Every TN/CN configuration the paper's validity matrix allows."""
    for cls, ns in ((TokenNGramModel, (1, 2)), (CharacterNGramModel, (3,))):
        for n in ns:
            for weighting in WeightingScheme:
                for aggregation in AggregationFunction:
                    for similarity in VectorSimilarity:
                        try:
                            yield cls(n, weighting, aggregation, similarity)
                        except ConfigurationError:
                            continue


def graph_models():
    for cls, ns in ((TokenNGramGraphModel, (1, 2, 3)), (CharacterNGramGraphModel, (2, 4))):
        for n in ns:
            for similarity in GraphSimilarity:
                yield cls(n, similarity)


def label(model) -> str:
    return "/".join(str(v) for v in model.describe().values())


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()[:16]


def graph_payload(graph: NGramGraph) -> list:
    """Edges in stored order with exact weights (order feeds VS/NS sums)."""
    return [(edge, w.hex()) for edge, w in graph.edges()]


def score_digests(batched: bool) -> dict[str, str]:
    """Digests of every model's scores, profiles and graph merges.

    ``batched`` scores each user's candidates with one ``score_many``
    call instead of one ``score`` call per candidate.
    """
    out: dict[str, str] = {}
    for model in [*bag_models(), *graph_models()]:
        model.fit(CORPUS)
        user = model.build_user_model(USER_DOCS, labels=USER_LABELS)
        reps = model.represent_many(CANDIDATES)
        if batched:
            scores = model.score_many(user, reps)
        else:
            scores = [model.score(user, rep) for rep in reps]
        out[f"score/{label(model)}"] = digest([float(s).hex() for s in scores])
    for model in graph_models():
        if model.similarity is not GraphSimilarity.VALUE:
            continue
        state = model.init_profile().update(USER_DOCS, labels=USER_LABELS)
        weights = [0.5, 1.0, 0.0, 0.25, 2.0, 1.0, 0.125]
        out[f"value/{label(model)}"] = digest(graph_payload(state.value()))
        out[f"decayed/{label(model)}"] = digest(
            graph_payload(state.decayed(lambda key: weights[key]))
        )
        graphs = model.represent_many(USER_DOCS)
        out[f"graphs/{label(model)}"] = digest([graph_payload(g) for g in graphs])
        out[f"merge_all/{label(model)}"] = digest(graph_payload(NGramGraph.merge_all(graphs)))
    return out


GOLDEN: dict[str, str] = {
    "decayed/CNG/2/VS": "dfefb36b2645cde8",
    "decayed/CNG/4/VS": "c92f96baa21dd410",
    "decayed/TNG/1/VS": "dc0a25eb8866eab2",
    "decayed/TNG/2/VS": "9a2f66de1552ef8c",
    "decayed/TNG/3/VS": "203e9ebe106409ea",
    "graphs/CNG/2/VS": "ac554337afbdd5b7",
    "graphs/CNG/4/VS": "1756dcbabfe629e2",
    "graphs/TNG/1/VS": "eb89f63afd96c92f",
    "graphs/TNG/2/VS": "a5c9920ebbe5e92e",
    "graphs/TNG/3/VS": "6d0fa8ef8f49591e",
    "merge_all/CNG/2/VS": "2369f201002cc4f6",
    "merge_all/CNG/4/VS": "2fdf423058dc5b92",
    "merge_all/TNG/1/VS": "6564f73add03cb90",
    "merge_all/TNG/2/VS": "a01e7e9652a6748c",
    "merge_all/TNG/3/VS": "0a9524e39c4fb719",
    "score/CN/3/BF/sum/CS": "83a2b8e154c1ef01",
    "score/CN/3/BF/sum/JS": "b0c0b714f7d7cc96",
    "score/CN/3/TF/centroid/CS": "210b4af6c28b7bb0",
    "score/CN/3/TF/centroid/GJS": "913f3922069a3fd6",
    "score/CN/3/TF/rocchio/CS": "9ad5900e726a4778",
    "score/CN/3/TF/sum/CS": "5b2881b3c34c4fa8",
    "score/CN/3/TF/sum/GJS": "7384098dd899e2fc",
    "score/CNG/2/CoS": "6583f9e2b1bd504c",
    "score/CNG/2/NS": "e6990f6271096316",
    "score/CNG/2/VS": "02729745f84fb48b",
    "score/CNG/4/CoS": "8b4c8bd090314a1a",
    "score/CNG/4/NS": "0e4d537a6ab314c6",
    "score/CNG/4/VS": "94ca13e3b49b34e0",
    "score/TN/1/BF/sum/CS": "217c386f3247cbbf",
    "score/TN/1/BF/sum/JS": "f37afee0ba095a6b",
    "score/TN/1/TF-IDF/centroid/CS": "a4a0c2903f682ac3",
    "score/TN/1/TF-IDF/centroid/GJS": "584dcc1a622ce4b3",
    "score/TN/1/TF-IDF/rocchio/CS": "248b6d7ace144a3a",
    "score/TN/1/TF-IDF/sum/CS": "0e74f21718378f74",
    "score/TN/1/TF-IDF/sum/GJS": "199745604d352e10",
    "score/TN/1/TF/centroid/CS": "6262fa556c7c7f0f",
    "score/TN/1/TF/centroid/GJS": "a03981f18643c747",
    "score/TN/1/TF/rocchio/CS": "619d055bda71ff32",
    "score/TN/1/TF/sum/CS": "4e955b1214f8facb",
    "score/TN/1/TF/sum/GJS": "0b907bc6ce39d836",
    "score/TN/2/BF/sum/CS": "6b5c480866894aa1",
    "score/TN/2/BF/sum/JS": "7835d1158bbbe4c2",
    "score/TN/2/TF-IDF/centroid/CS": "8106b44b10e95fe7",
    "score/TN/2/TF-IDF/centroid/GJS": "ec63269a12328ef0",
    "score/TN/2/TF-IDF/rocchio/CS": "912ec7f1002eca40",
    "score/TN/2/TF-IDF/sum/CS": "47304d5bbbe3fd7f",
    "score/TN/2/TF-IDF/sum/GJS": "e324b9d91011fe49",
    "score/TN/2/TF/centroid/CS": "34ce3a8ce270b7f6",
    "score/TN/2/TF/centroid/GJS": "09f8cf7862fc9c9b",
    "score/TN/2/TF/rocchio/CS": "6a71629c0d33c0ba",
    "score/TN/2/TF/sum/CS": "119cacac79078f9f",
    "score/TN/2/TF/sum/GJS": "78611cb071776242",
    "score/TNG/1/CoS": "7e40f0b4be1590ef",
    "score/TNG/1/NS": "24dbee6317141cd0",
    "score/TNG/1/VS": "2bf35d6be5e3267b",
    "score/TNG/2/CoS": "20f835f994320a82",
    "score/TNG/2/NS": "5bf8304295a278f9",
    "score/TNG/2/VS": "d3a8a034534286c5",
    "score/TNG/3/CoS": "34b7f8ccc4646f62",
    "score/TNG/3/NS": "362ba3dfb3d87bc8",
    "score/TNG/3/VS": "93639bc774af8156",
    "value/CNG/2/VS": "ed89af6dda3bad63",
    "value/CNG/4/VS": "82caca30ccda23a4",
    "value/TNG/1/VS": "4df848de79a7a886",
    "value/TNG/2/VS": "b5362da169e77d95",
    "value/TNG/3/VS": "ebb018a1c7d8e3c9",
}


@pytest.mark.parametrize("batched", [False, True], ids=["score", "score_many"])
def test_digests_match_the_pairwise_implementation(batched):
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, __file__] + (["--batched"] if batched else [])
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == GOLDEN


# -- the pairwise definitions the kernels replaced, verbatim ------------------


def ref_cosine(u, v):
    if not u or not v:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(w * v[g] for g, w in u.items() if g in v)
    if dot == 0.0:
        return 0.0
    norm_u = math.sqrt(sum(w * w for w in u.values()))
    norm_v = math.sqrt(sum(w * w for w in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


def ref_jaccard(u, v):
    support_u = {g for g, w in u.items() if w != 0.0}
    support_v = {g for g, w in v.items() if w != 0.0}
    if not support_u and not support_v:
        return 0.0
    union = len(support_u | support_v)
    return len(support_u & support_v) / union


def ref_generalized_jaccard(u, v):
    num = 0.0
    den = 0.0
    for g in u.keys() | v.keys():
        wu = u.get(g, 0.0)
        wv = v.get(g, 0.0)
        if wu < 0.0 or wv < 0.0:
            raise ValidationError("generalized Jaccard requires non-negative weights")
        num += min(wu, wv)
        den += max(wu, wv)
    if den == 0.0:
        return 0.0
    return num / den


def ref_containment(g1, g2):
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    small, large = (g1, g2) if len(g1) <= len(g2) else (g2, g1)
    shared = sum(1 for edge, _ in small.edges() if edge in large)
    return shared / len(small)


def _ref_value_total(g1, g2):
    small, large = (g1, g2) if len(g1) <= len(g2) else (g2, g1)
    total = 0.0
    for (a, b), w_small in small.edges():
        w_large = large.weight(a, b)
        if w_large > 0.0 and w_small > 0.0:
            total += min(w_small, w_large) / max(w_small, w_large)
    return total


def ref_value(g1, g2):
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    return _ref_value_total(g1, g2) / max(len(g1), len(g2))


def ref_normalized_value(g1, g2):
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    return _ref_value_total(g1, g2) / min(len(g1), len(g2))


def ref_from_ngrams(grams, window):
    edges = {}
    for i, gram in enumerate(grams):
        for j in range(i + 1, min(i + window + 1, len(grams))):
            key = (gram, grams[j]) if gram <= grams[j] else (grams[j], gram)
            edges[key] = edges.get(key, 0.0) + 1.0
    return list(edges.items())


def bits(values) -> list[str]:
    """Exact float identity, -0.0 included."""
    return [float(x).hex() for x in values]


# -- kernels == pairwise definitions, bitwise ----------------------------------

#: Weights drawn from a few exact values (ties, zeros) or any finite float.
weights = st.sampled_from([0.0, 0.25, 1.0, 2.0]) | st.floats(0.0, 10.0)
vectors = st.dictionaries(st.sampled_from("abcdefgh"), weights, max_size=8)
batches = st.lists(vectors, max_size=6)

VECTOR_KERNELS = [
    (cosine_similarity_many, cosine_similarity, ref_cosine),
    (jaccard_similarity_many, jaccard_similarity, ref_jaccard),
    (generalized_jaccard_similarity_many, generalized_jaccard_similarity,
     ref_generalized_jaccard),
]


@pytest.mark.parametrize(
    "many, pairwise, reference", VECTOR_KERNELS, ids=["CS", "JS", "GJS"]
)
@given(user=vectors, candidates=batches)
def test_vector_kernels_equal_the_pairwise_definitions(many, pairwise, reference, user, candidates):
    expected = bits(reference(user, v) for v in candidates)
    assert bits(many(user, candidates)) == expected
    assert bits(pairwise(user, v) for v in candidates) == expected


@pytest.mark.parametrize("similarity", list(VectorSimilarity))
def test_bag_score_many_equals_score_on_edge_cases(similarity):
    model = TokenNGramModel(1, "BF" if similarity is VectorSimilarity.JACCARD else "TF",
                            "sum", similarity)
    user = {"a": 1.0, "b": 1.0}
    candidates = [{}, {"a": 1.0, "b": 1.0}, {"b": 1.0, "a": 1.0},
                  {g: 1.0 for g in "abcdefgh"}, {"z": 1.0}]
    expected = bits(model.score(user, v) for v in candidates)
    assert bits(model.score_many(user, candidates)) == expected
    assert bits(model.score_many({}, candidates)) == bits(model.score({}, v) for v in candidates)
    assert model.score_many(user, []) == []


@pytest.mark.parametrize("side", ["user", "candidate"])
def test_negative_weight_raises_on_both_gjs_paths(side):
    model = TokenNGramModel(1, "TF", "sum", "GJS")
    good, bad = {"a": 0.5, "b": 0.5}, {"a": 0.5, "b": -0.5}
    user, candidate = (bad, good) if side == "user" else (good, bad)
    with pytest.raises(ValidationError):
        model.score(user, candidate)
    with pytest.raises(ValidationError):
        model.score_many(user, [good, candidate])
    with pytest.raises(ValidationError):
        generalized_jaccard_similarity(user, candidate)


def canonical(edge: tuple[str, str]) -> tuple[str, str]:
    a, b = edge
    return (a, b) if a <= b else (b, a)


edge_maps = st.dictionaries(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")).map(canonical),
    weights, max_size=10,
)
graphs = edge_maps.map(NGramGraph)

GRAPH_KERNELS = [
    (containment_similarity_many, containment_similarity, ref_containment),
    (value_similarity_many, value_similarity, ref_value),
    (normalized_value_similarity_many, normalized_value_similarity, ref_normalized_value),
]


@pytest.mark.parametrize(
    "many, pairwise, reference", GRAPH_KERNELS, ids=["CoS", "VS", "NS"]
)
@given(user=graphs, candidates=st.lists(graphs, max_size=6))
def test_graph_kernels_equal_the_pairwise_definitions(many, pairwise, reference, user, candidates):
    expected = bits(reference(user, g) for g in candidates)
    assert bits(many(user, candidates)) == expected
    assert bits(pairwise(user, g) for g in candidates) == expected


@pytest.mark.parametrize("similarity", list(GraphSimilarity))
def test_graph_score_many_equals_score_on_edge_cases(similarity):
    model = TokenNGramGraphModel(2, similarity)
    user = model.build_user_model(docs_from(["a b c d", "c d e"]))
    candidates = model.represent_many(docs_from(
        ["", "a b", "a b c d", "x y z", "a b c d e f g h a b c d e f g h"]
    ))
    expected = bits(model.score(user, g) for g in candidates)
    assert bits(model.score_many(user, candidates)) == expected
    empty = NGramGraph()
    assert bits(model.score_many(empty, candidates)) == bits(
        model.score(empty, g) for g in candidates
    )


# -- n-gram graph construction and merges ---------------------------------------


@given(
    grams=st.lists(st.sampled_from(["a", "b", "c", "ab", "ba"]), max_size=12),
    window=st.integers(1, 15),
)
def test_from_ngrams_equals_the_per_pair_loop(grams, window):
    assert list(NGramGraph.from_ngrams(grams, window).edges()) == ref_from_ngrams(grams, window)


def test_from_ngrams_edge_cases():
    assert list(NGramGraph.from_ngrams(["x", "x", "x"], 5).edges()) == [(("x", "x"), 3.0)]
    assert list(NGramGraph.from_ngrams(["b", "a"], 10).edges()) == [(("a", "b"), 1.0)]
    assert len(NGramGraph.from_ngrams(["solo"], 3)) == 0
    for window in (0, -1):
        with pytest.raises(ValidationError):
            NGramGraph.from_ngrams(["a", "b"], window)


def test_updated_and_merge_all_leave_their_inputs_alone():
    g1 = NGramGraph({("a", "b"): 2.0})
    g2 = NGramGraph({("a", "b"): 4.0, ("c", "d"): 1.0})
    before = [list(g.edges()) for g in (g1, g2)]
    g1.updated(g2, 0.5)
    merged = NGramGraph.merge_all([g1, g2])
    assert [list(g.edges()) for g in (g1, g2)] == before
    merged.updated(g1, 1.0)
    assert [list(g.edges()) for g in (g1, g2)] == before


STREAM = docs_from([
    "a b c d", "c d e", "a b a b", "e f g", "b c", "a", "f g h i j", "c d e",
])


def one_hot(index):
    return lambda key: 1.0 if key == index else 0.0


@pytest.mark.parametrize("cls", [TokenNGramGraphModel, CharacterNGramGraphModel])
def test_in_place_profile_merge_does_not_alias(cls):
    model = cls(2)
    state = model.init_profile().update(STREAM[:3])
    snapshot = state.value()
    frozen = list(snapshot.edges())
    state.update(STREAM[3:])
    assert list(snapshot.edges()) == frozen
    later = state.value()
    assert profile_digest(later) != profile_digest(snapshot)
    later_edges = list(later.edges())
    state.value()._edges.clear()
    assert list(state.value().edges()) == later_edges
    for i, doc in enumerate(STREAM):
        # A one-hot decay replays exactly the retained entry graph.
        assert list(state.decayed(one_hot(i)).edges()) == list(model.represent(doc).edges())


@pytest.mark.parametrize("cls", [TokenNGramGraphModel, CharacterNGramGraphModel])
def test_chunked_graph_updates_equal_the_batch_build(cls):
    model = cls(3)
    batch = model.build_user_model(STREAM)
    state = model.init_profile()
    for start in range(0, len(STREAM), 3):
        state.update(STREAM[start:start + 3])
    assert profile_digest(state.value()) == profile_digest(batch)
    assert list(state.value().edges()) == list(batch.edges())
    assert list(state.decayed(lambda key: 1.0).edges()) == list(batch.edges())
    merged = NGramGraph.merge_all(model.represent_many(STREAM))
    assert list(merged.edges()) == list(batch.edges())


# -- TF-IDF lookup table --------------------------------------------------------

gram_docs = st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), max_size=8)


def ref_idf(corpus, gram):
    n = len(corpus)
    if n == 0:
        return 0.0
    df = sum(1 for doc in corpus if gram in doc)
    return max(math.log(n / (df + 1)), 0.0)


@given(corpus=gram_docs, grams=st.lists(st.sampled_from("abcdefxyz"), max_size=8))
def test_tf_idf_table_equals_per_gram_idf(corpus, grams):
    table = IdfTable().fit(corpus)
    vector = tf_idf_vector(grams, table)
    assert bits(vector.values()) == bits(
        w * table.idf(g) for g, w in tf_vector(grams).items()
    )
    assert bits(table.idf(g) for g in "abcdefxyz") == bits(ref_idf(corpus, g) for g in "abcdefxyz")


def test_tf_idf_table_edge_cases():
    assert tf_idf_vector(["a", "b"], IdfTable().fit([])) == {"a": 0.0, "b": 0.0}
    with pytest.raises(NotFittedError):
        tf_idf_vector(["a"], IdfTable())
    table = IdfTable().fit([["a"], ["b"], ["b"]])
    assert tf_idf_vector(["zzz"], table) == {"zzz": math.log(3)}
    table.fit([["c"], ["c"], ["d"], ["e"]])
    # A re-fit replaces the table: "a" is unseen now, "c" is in 2 of 4.
    assert table.idf("a") == math.log(4)
    assert tf_idf_vector(["c", "a"], table) == {
        "c": 0.5 * math.log(4 / 3), "a": 0.5 * math.log(4),
    }


if __name__ == "__main__":
    print(json.dumps(score_digests(batched="--batched" in sys.argv), indent=4, sort_keys=True))
