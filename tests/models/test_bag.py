"""Tests for the TN and CN bag models."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.models.aggregation import AggregationFunction
from repro.models.bag import CharacterNGramModel, TokenNGramModel
from repro.models.base import TextDoc
from repro.models.similarity import VectorSimilarity
from repro.models.weighting import WeightingScheme


def doc(text: str) -> TextDoc:
    return TextDoc.from_tokens(tuple(text.split()))


class TestConfigurationValidity:
    """The paper's invalid-combination matrix (Section 4)."""

    def test_js_requires_bf(self):
        with pytest.raises(ConfigurationError):
            TokenNGramModel(n=1, weighting="TF", aggregation="sum", similarity="JS")

    def test_gjs_rejects_bf(self):
        with pytest.raises(ConfigurationError):
            TokenNGramModel(n=1, weighting="BF", aggregation="sum", similarity="GJS")

    def test_cn_rejects_tf_idf(self):
        with pytest.raises(ConfigurationError):
            CharacterNGramModel(n=2, weighting="TF-IDF")

    def test_tn_allows_tf_idf(self):
        TokenNGramModel(n=1, weighting="TF-IDF")

    def test_bf_requires_sum(self):
        with pytest.raises(ConfigurationError):
            TokenNGramModel(n=1, weighting="BF", aggregation="centroid", similarity="CS")

    def test_rocchio_requires_cosine(self):
        with pytest.raises(ConfigurationError):
            TokenNGramModel(n=1, weighting="TF", aggregation="rocchio", similarity="GJS")

    def test_rocchio_rejects_bf(self):
        with pytest.raises(ConfigurationError):
            TokenNGramModel(n=1, weighting="BF", aggregation="rocchio", similarity="CS")

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            TokenNGramModel(n=0)

    def test_accepts_enum_and_string(self):
        a = TokenNGramModel(n=1, weighting=WeightingScheme.TF)
        b = TokenNGramModel(n=1, weighting="TF")
        assert a.weighting is b.weighting


class TestRepresent:
    def test_tn_unigram_tf(self):
        model = TokenNGramModel(n=1, weighting="TF")
        vec = model.represent(doc("a a b"))
        assert math.isclose(vec["a"], 2 / 3)
        assert math.isclose(vec["b"], 1 / 3)

    def test_tn_bigrams(self):
        model = TokenNGramModel(n=2, weighting="BF", aggregation="sum")
        vec = model.represent(doc("bob sues jim"))
        assert set(vec) == {"bob sues", "sues jim"}

    def test_cn_char_grams(self):
        model = CharacterNGramModel(n=2, weighting="BF", aggregation="sum")
        vec = model.represent(TextDoc(text="abc", tokens=("abc",)))
        assert set(vec) == {"ab", "bc"}

    def test_tf_idf_requires_fit(self):
        model = TokenNGramModel(n=1, weighting="TF-IDF")
        with pytest.raises(NotFittedError):
            model.represent(doc("hello"))

    def test_tf_idf_downweights_common_terms(self, tiny_corpus):
        model = TokenNGramModel(n=1, weighting="TF-IDF").fit(tiny_corpus)
        vec = model.represent(doc("the rallies"))
        assert vec["rallies"] > vec["the"]


class TestUserModel:
    def test_sum_aggregation(self):
        model = TokenNGramModel(n=1, weighting="BF", aggregation="sum", similarity="CS")
        um = model.build_user_model([doc("a b"), doc("a c")])
        assert um == {"a": 2.0, "b": 1.0, "c": 1.0}

    def test_rocchio_uses_labels(self):
        model = TokenNGramModel(n=1, weighting="TF", aggregation="rocchio")
        um = model.build_user_model([doc("good"), doc("bad")], labels=[1, 0])
        assert um["good"] > 0 > um["bad"]

    def test_rocchio_without_labels_raises(self):
        model = TokenNGramModel(n=1, weighting="TF", aggregation="rocchio")
        with pytest.raises(ConfigurationError):
            model.build_user_model([doc("x")])


class TestScoring:
    def test_relevant_doc_scores_higher(self, tiny_corpus):
        model = TokenNGramModel(n=1, weighting="TF").fit(tiny_corpus)
        um = model.build_user_model([doc("cats dogs pets"), doc("cat mat")])
        on_topic = model.score(um, model.represent(doc("cats and dogs")))
        off_topic = model.score(um, model.represent(doc("stock market ticker")))
        assert on_topic > off_topic

    def test_jaccard_path(self):
        model = TokenNGramModel(n=1, weighting="BF", aggregation="sum", similarity="JS")
        um = model.build_user_model([doc("a b")])
        assert math.isclose(model.score(um, model.represent(doc("b c"))), 1 / 3)

    def test_tf_idf_gjs_scores_a_term_in_every_training_document(self):
        # "news" is in every document; an unfloored IDF made its weight
        # negative and GJS raised for this paper-valid configuration.
        model = TokenNGramModel(1, weighting="TF-IDF", aggregation="centroid", similarity="GJS")
        corpus = [doc("news today rain"), doc("news sports win"), doc("news election vote")]
        model.fit(corpus)
        um = model.build_user_model(corpus[:2])
        score = model.score(um, model.represent(doc("news rain win")))
        assert 0.0 < score <= 1.0
        assert model.score_many(um, [model.represent(doc("news"))]) == [0.0]

    def test_describe_lists_configuration(self):
        model = TokenNGramModel(
            n=2, weighting="TF", aggregation="centroid", similarity="GJS"
        )
        info = model.describe()
        assert info == {
            "model": "TN", "n": 2, "weighting": "TF",
            "aggregation": "centroid", "similarity": "GJS",
        }

    def test_fit_returns_self(self, tiny_corpus):
        model = TokenNGramModel(n=1, weighting="TF")
        assert model.fit(tiny_corpus) is model


class TestCharacterModelNoise:
    def test_misspelling_still_matches(self):
        # The character model's raison d'etre (Challenge C2).
        model = CharacterNGramModel(n=2, weighting="TF")
        um = model.build_user_model([TextDoc(text="tweet storm", tokens=("tweet", "storm"))])
        clean = model.score(um, model.represent(TextDoc("tweet", ("tweet",))))
        typo = model.score(um, model.represent(TextDoc("twete", ("twete",))))
        other = model.score(um, model.represent(TextDoc("zzzz", ("zzzz",))))
        assert typo > other
        assert clean >= typo
