"""Tests for BF / TF / TF-IDF weighting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NotFittedError
from repro.models.weighting import IdfTable, bf_vector, tf_idf_vector, tf_vector


class TestBooleanFrequency:
    def test_binary_weights(self):
        vec = bf_vector(["a", "b", "a"])
        assert vec == {"a": 1.0, "b": 1.0}

    def test_empty(self):
        assert bf_vector([]) == {}


class TestTermFrequency:
    def test_normalised_by_length(self):
        vec = tf_vector(["a", "a", "b", "c"])
        assert vec == {"a": 0.5, "b": 0.25, "c": 0.25}

    def test_weights_sum_to_one(self):
        vec = tf_vector(["x", "y", "y", "z"])
        assert math.isclose(sum(sorted(vec.values())), 1.0)

    def test_empty(self):
        assert tf_vector([]) == {}

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=20))
    def test_sum_is_one_property(self, grams):
        assert math.isclose(sum(sorted(tf_vector(grams).values())), 1.0)


class TestIdfTable:
    @pytest.fixture()
    def table(self) -> IdfTable:
        return IdfTable().fit([["a", "b"], ["a", "c"], ["a"], ["d"]])

    def test_paper_formula(self, table):
        # idf(t) = log(|D| / (df(t) + 1)); "a" occurs in 3 of 4 docs.
        assert math.isclose(table.idf("a"), math.log(4 / 4))
        assert math.isclose(table.idf("b"), math.log(4 / 2))

    def test_unseen_gets_max_idf(self, table):
        assert math.isclose(table.idf("zzz"), math.log(4 / 1))

    def test_rare_weighs_more_than_common(self, table):
        assert table.idf("b") > table.idf("a")

    def test_df_counts_documents_not_occurrences(self):
        table = IdfTable().fit([["a", "a", "a"], ["b"]])
        assert math.isclose(table.idf("a"), math.log(2 / 2))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            IdfTable().idf("a")
        with pytest.raises(NotFittedError):
            _ = IdfTable().n_docs

    def test_n_docs(self, table):
        assert table.n_docs == 4

    def test_contains(self, table):
        assert "a" in table
        assert "zzz" not in table

    def test_empty_corpus_idf_zero(self):
        table = IdfTable().fit([])
        assert table.idf("anything") == 0.0

    def test_term_in_every_document_is_floored_at_zero(self):
        # log(3 / (3 + 1)) < 0: such a term carries no evidence, so 0.
        table = IdfTable().fit([["news", "a"], ["news", "b"], ["news", "c"]])
        assert table.idf("news") == 0.0
        assert tf_idf_vector(["news", "a"], table)["news"] == 0.0
        assert math.isclose(table.idf("a"), math.log(3 / 2))


class TestTfIdf:
    def test_combines_tf_and_idf(self):
        table = IdfTable().fit([["a"], ["b"], ["b"]])
        vec = tf_idf_vector(["a", "b"], table)
        assert math.isclose(vec["a"], 0.5 * math.log(3 / 2))
        assert math.isclose(vec["b"], 0.5 * math.log(3 / 3))

    def test_empty_document(self):
        table = IdfTable().fit([["a"]])
        assert tf_idf_vector([], table) == {}
