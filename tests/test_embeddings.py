"""Vector table loading, mention vectors, binning, epsilon tuning."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scriptmap.embeddings import (
    BIN_HIGH,
    BIN_LOW,
    BIN_MID,
    DEFAULT_EPSILON_GRID,
    DiscretizationConfig,
    EmbeddingFormatError,
    cosine,
    discretize,
    load_embeddings,
    mention_vector,
)


def table_of(**vectors):
    """Build a table from keyword vectors, bypassing the text format."""
    from scriptmap.embeddings import EmbeddingTable

    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        dimension=dim, vectors={w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()}
    )


class TestLoad:
    def test_two_entries_three_dims(self):
        table = load_embeddings("2 3\ncake 1 0 0\nmix 0 1 0\n")
        assert table.dimension == 3
        assert len(table) == 2
        assert np.array_equal(table.lookup("cake"), [1.0, 0.0, 0.0])

    def test_short_vector_rejected_with_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings("2 3\ncake 1 0 0\nmix 0 1\n")

    def test_duplicate_keeps_first_and_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_embeddings("2 2\ncake 1 0\ncake 0 1\n")
        assert np.array_equal(table.lookup("cake"), [1.0, 0.0])
        assert any("cake" in r.message for r in caplog.records)

    def test_count_mismatch_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_embeddings("5 2\ncake 1 0\n")
        assert len(table) == 1
        assert any("5" in r.message for r in caplog.records)

    def test_bad_float_rejected(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings("1 2\ncake one 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [("1 3\nboil nan inf 1\n", 2), ("2 2\ncake 1 0\nboil 1 -inf\n", 3)],
    )
    def test_non_finite_value_rejected_with_line(self, text, line):
        with pytest.raises(EmbeddingFormatError, match=f"line {line}"):
            load_embeddings(text)

    def test_missing_header_rejected(self):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings("cake 1 0\n")

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings("1 0\ncake\n")

    def test_lookup_lowercases_first(self):
        table = load_embeddings("1 2\nanna 0.5 0.5\n")
        assert np.array_equal(table.lookup("Anna"), [0.5, 0.5])
        assert table.lookup("bob") is None
        assert "ANNA" in table
        assert "bob" not in table


class TestMentionVector:
    def test_verb_counted_twice(self):
        table = table_of(boil=[1.0, 0.0], water=[0.0, 1.0])
        got = mention_vector("boil", ["water"], table)
        assert np.array_equal(got, np.array([2.0, 1.0]) / 3.0)

    def test_unknown_context_words_skipped(self):
        table = table_of(boil=[1.0, 0.0], water=[0.0, 1.0])
        got = mention_vector("boil", ["zzz", "water"], table)
        assert np.array_equal(got, np.array([2.0, 1.0]) / 3.0)

    def test_unknown_verb_leaves_context_mean(self):
        table = table_of(water=[0.0, 1.0])
        assert np.array_equal(mention_vector("zzz", ["water"], table), [0.0, 1.0])

    def test_nothing_known_gives_absent(self):
        table = table_of(water=[0.0, 1.0])
        assert mention_vector("zzz", ["qqq"], table) is None
        assert mention_vector("zzz", [], table) is None

    @given(
        verb_known=st.booleans(),
        ctx=st.lists(st.sampled_from(["a", "b", "c", "zzz"]), max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_mean_with_doubled_verb(self, verb_known, ctx):
        table = table_of(v=[0.5, -0.25], a=[1.0, 0.0], b=[0.0, 1.0], c=[-1.0, 0.5])
        verb = "v" if verb_known else "zzz"
        rows = []
        if verb_known:
            rows += [table.lookup("v"), table.lookup("v")]
        rows += [table.lookup(w) for w in ctx if w != "zzz"]
        got = mention_vector(verb, ctx, table)
        if not rows:
            assert got is None
        else:
            assert np.allclose(got, np.mean(rows, axis=0), rtol=0, atol=1e-15)


class TestCosine:
    def test_reference_values(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        assert cosine(np.array([0.3, 0.4]), np.array([0.3, 0.4])) == pytest.approx(1.0)
        assert cosine(np.array([1.0, 2.0]), np.array([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(3))

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, u, v):
        got = cosine(np.array(u), np.array(v))
        assert -1.0 <= got <= 1.0


class TestDiscretize:
    def test_closed_middle_bin(self):
        cfg = DiscretizationConfig(epsilon=0.05)
        vec = np.array([-0.06, -0.05, 0.0, 0.05, 0.0501])
        assert discretize(vec, cfg) == (BIN_LOW, BIN_MID, BIN_MID, BIN_MID, BIN_HIGH)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            DiscretizationConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            DiscretizationConfig(epsilon=-0.1)

    def test_default_grid(self):
        assert DEFAULT_EPSILON_GRID == (0.01, 0.02, 0.05, 0.1, 0.2)

    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=6),
        st.sampled_from(DEFAULT_EPSILON_GRID),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_and_order_preserving(self, values, eps):
        cfg = DiscretizationConfig(epsilon=eps)
        bins = discretize(np.array(values), cfg)
        order = {BIN_LOW: 0, BIN_MID: 1, BIN_HIGH: 2}
        for x, b in zip(values, bins):
            assert b in order
            if x < -eps:
                assert b == BIN_LOW
            elif x > eps:
                assert b == BIN_HIGH
            else:
                assert b == BIN_MID
