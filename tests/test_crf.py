"""Sequence model inference against brute-force enumeration, plus training,
gradient correctness, and persistence.

The enumeration oracle scores every label sequence directly off the weight
vector through the public index accessors, so forward-backward and Viterbi
are checked against arithmetic they share nothing with.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import logging
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.special import logsumexp, softmax

from conftest import coded, encoded_weights
from scriptmap import crf
from scriptmap.embeddings import DiscretizationConfig
from scriptmap.crf import (
    CodedSequences,
    CrfModel,
    FeatureIndex,
    ModelFormatError,
    NumericError,
    TrainConfig,
    TrainingRecord,
    compile_sequences,
    index_features,
    load_model,
    objective_and_gradient,
    save_model,
    train,
    viterbi,
)

TOY_SEQS = [
    ([("p",), ("q",)], ["A", "B"]),
    ([("q",), ("p",)], ["B", "A"]),
]


def oracle_tables(model, obs):
    """Node, start, and transition score tables read straight off the weights."""
    idx = model.index
    L, T = idx.n_labels, len(obs)
    node = np.zeros((T, L))
    for t, item in enumerate(obs):
        for lab in range(L):
            s = 0.0
            for c, v in enumerate(item):
                j = idx.emission_index(c, v, lab)
                if j is not None:
                    s += float(model.weights[j])
            node[t, lab] = s
    start = np.zeros(L)
    trans = np.zeros((L, L))
    if idx.use_transitions:
        for b in range(L):
            start[b] = float(model.weights[idx.transition_index(idx.start_id, b)])
            for a in range(L):
                trans[a, b] = float(model.weights[idx.transition_index(a, b)])
    return node, start, trans


def enumerate_scores(model, obs):
    """Score of every label sequence, enumerated in lexicographic order."""
    node, start, trans = oracle_tables(model, obs)
    L, T = model.index.n_labels, len(obs)
    labs = np.stack(np.meshgrid(*[np.arange(L)] * T, indexing="ij"), axis=-1).reshape(-1, T)
    scores = node[np.arange(T), labs].sum(axis=1) + start[labs[:, 0]]
    if T > 1:
        scores = scores + trans[labs[:, :-1], labs[:, 1:]].sum(axis=1)
    return labs, scores


def enumerated_marginals(model, obs):
    """log Z, node marginals (T, L) and expected transitions (L+1, L), the
    summed edge marginals above the start row, by enumeration."""
    labs, scores = enumerate_scores(model, obs)
    log_z = float(logsumexp(scores))
    probs = np.exp(scores - log_z)
    L = model.index.n_labels
    node = np.stack([probs @ (labs == lab) for lab in range(L)], axis=1)
    expected = np.zeros((L + 1, L))
    for t in range(len(obs) - 1):
        np.add.at(expected, (labs[:, t], labs[:, t + 1]), probs)
    expected[L] = node[0]
    return log_z, node, expected


# the forward-backward recursions training runs, in probability and in log space
RECURSIONS = (crf._scaled_forward_backward, crf._log_space_forward_backward)


def batch_of_one(recursion, model, rows):
    """Node marginals (T, L), expected transitions (L+1, L) and log Z of the
    decode rows of one sequence, from a training recursion run on the batch
    that holds only that sequence."""
    node, trans = crf._decode_tables(model, rows)
    node_marg, expected, log_z = recursion(node[None], trans, (1,) * len(node) + (0,))
    return node_marg[0], expected, float(log_z[0])


def random_model(rng):
    """Random small model plus a decode sequence, OOV cells included."""
    L = int(rng.integers(2, 6))
    T = int(rng.integers(1, 7))
    n_cols = int(rng.integers(1, 4))
    use_transitions = bool(rng.integers(0, 2))
    labels = [f"L{i}" for i in range(L)]
    vocab = [[f"c{c}v{i}" for i in range(int(rng.integers(2, 4)))] for c in range(n_cols)]

    def sample_obs(length):
        return [
            tuple(vocab[c][int(rng.integers(0, len(vocab[c])))] for c in range(n_cols))
            for _ in range(length)
        ]

    seqs = [
        (obs, [labels[int(rng.integers(0, L))] for _ in obs])
        for obs in (sample_obs(int(rng.integers(1, 7))) for _ in range(3))
    ]
    index = index_features(coded(seqs), labels, use_transitions=use_transitions)
    model = CrfModel(index=index, weights=rng.normal(size=index.n_features))
    obs = sample_obs(T)
    # an unseen value must score zero; keep one non-OOV column alive so that
    # transition-free models cannot produce exact score ties
    if n_cols > 1 or use_transitions:
        obs[0] = ("oov",) + tuple(obs[0][1:])
    return model, obs


class TestInference:
    def test_overflowing_scores_are_rejected(self):
        # two finite emission weights of 1e308 on one token's row sum to inf,
        # with and without transitions
        seqs = [([("p", "u")], ["A"]), ([("q", "v")], ["B"])]
        for use_transitions in (True, False):
            index = index_features(coded(seqs), ["A", "B"], use_transitions=use_transitions)
            weights = np.zeros(index.n_features)
            a = index.label_id("A")
            weights[index.emission_index(0, "p", a)] = 1e308
            weights[index.emission_index(1, "u", a)] = 1e308
            data = compile_sequences(index, coded(seqs))
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericError, match="^non-finite objective or gradient$"):
                    objective_and_gradient(weights, index, data, l2=0.0)

    def test_edge_marginals_factorize_without_transitions(self):
        # with an all-zero transition matrix the positions are independent:
        # each node marginal is its own softmax, and the summed edge marginals
        # are the sums of outer products of neighbouring node marginals
        rng = np.random.default_rng(99)
        seqs = [([("a",), ("b",), ("a",)], ["X", "Y", "X"])]
        index = index_features(coded(seqs), ["X", "Y"], use_transitions=False)
        model = CrfModel(index=index, weights=rng.normal(size=index.n_features))
        obs = [("a",), ("b",), ("a",)]
        rows = reference_emission_rows(index, obs)
        node_ref = softmax(reference_node_scores(index, model.weights, obs), axis=1)
        L = index.n_labels
        for recursion in RECURSIONS:
            node, expected, _ = batch_of_one(recursion, model, rows)
            assert np.allclose(node, node_ref, atol=1e-12)
            edges = sum(np.outer(node[t], node[t + 1]) for t in range(len(obs) - 1))
            assert np.allclose(expected[:L], edges, atol=1e-12)
            assert np.allclose(expected[L], node[0], atol=1e-12)

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            model, obs = random_model(rng)
            labs, scores = enumerate_scores(model, obs)
            rows = reference_emission_rows(model.index, obs)
            ref_log_z = float(logsumexp(scores))
            for recursion in RECURSIONS:
                got_log_z = batch_of_one(recursion, model, rows)[2]
                assert abs(got_log_z - ref_log_z) <= 1e-10 * max(1.0, abs(ref_log_z))
            best = int(np.argmax(scores))
            expected = [model.labels[i] for i in labs[best]]
            got_labels, got_score = viterbi(model, rows)
            assert got_labels == expected
            assert got_score == pytest.approx(float(scores[best]), abs=1e-9)

    def test_marginals_match_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            model, obs = random_model(rng)
            _, node_ref, expected_ref = enumerated_marginals(model, obs)
            rows = reference_emission_rows(model.index, obs)
            for recursion in RECURSIONS:
                node, expected, _ = batch_of_one(recursion, model, rows)
                assert np.allclose(node, node_ref, atol=1e-9)
                assert np.allclose(expected, expected_ref, atol=1e-9)
                assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weights_decode_uniformly(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        rows = reference_emission_rows(index, [("p",), ("q",), ("p",)])
        for recursion in RECURSIONS:
            log_z = batch_of_one(recursion, model, rows)[2]
            assert log_z == pytest.approx(3 * math.log(2), abs=1e-12)
        labels, score = viterbi(model, rows)
        assert labels == ["A", "A", "A"]
        assert score == 0.0

    def test_viterbi_tie_breaks_at_each_backtrack_step(self):
        # two optimal paths; the documented rule picks the lowest label index
        # at the final position first, then follows the stored backpointers
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        weights = np.zeros(index.n_features)
        weights[index.transition_index(0, 1)] = 1.0  # A -> B
        weights[index.transition_index(1, 0)] = 1.0  # B -> A
        model = CrfModel(index=index, weights=weights)
        labels, score = viterbi(model, reference_emission_rows(index, [("p",), ("p",)]))
        assert labels == ["B", "A"]
        assert score == 1.0

    def test_unseen_values_contribute_zero_score(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        rng = np.random.default_rng(3)
        model = CrfModel(index=index, weights=rng.normal(size=index.n_features))
        # a one-token sequence scores its start plus its emission
        start = [float(model.weights[index.transition_index(index.start_id, b)]) for b in (0, 1)]
        emission = [float(model.weights[index.emission_index(0, "p", b)]) for b in (0, 1)]
        known = viterbi(model, reference_emission_rows(index, [("p",)]))[1]
        assert known == pytest.approx(max(s + e for s, e in zip(start, emission)), abs=1e-12)
        unseen = viterbi(model, reference_emission_rows(index, [("oov",)]))[1]
        assert unseen == pytest.approx(max(start), abs=1e-12)

    def test_empty_sequence_rejected(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        with pytest.raises(ValueError, match="^empty observation sequence$"):
            viterbi(model, np.zeros((0, 1), dtype=np.intp))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 0), (2,), (1, 2, 1)])
    def test_rows_of_another_shape_rejected(self, shape):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        assert index.n_columns == 1
        message = f"rows of shape {shape}, model expects 1 columns"
        with pytest.raises(ValueError, match=re.escape(message)):
            viterbi(model, np.zeros(shape, dtype=np.intp))

    @pytest.mark.parametrize(
        "rows",
        [[[-1]], [[-2]], [[3]], [[0], [2], [3]], np.array([[True], [False]]), [[1.0]]],
        ids=["-1", "-2", "K+1", "K+1 last", "bool", "float"],
    )
    def test_rows_of_other_ids_rejected(self, rows):
        # two blocks: the ids 0 and 1, and the zero row 2
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        model = CrfModel(index=index, weights=np.arange(index.n_features, dtype=float))
        assert index.n_blocks == 2
        with pytest.raises(ValueError, match=r"^rows must hold emission-block ids 0\.\.2$"):
            viterbi(model, np.asarray(rows))

    def test_string_observations_rejected(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        message = re.escape(
            "decoding reads a (T, C) integer array of emission-block rows, not a list:"
            " build it with features.story_decode_sequence"
        )
        with pytest.raises(TypeError, match=message):
            viterbi(model, [("p",), ("q",)])


class TestFeatureIndex:
    def test_reference_layout(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        assert index.labels == ("A", "B")
        assert index.columns == ({"p": 0, "q": 1},)
        assert index.transition_base == 4
        assert index.n_features == 10
        assert index.start_id == 2
        # emission block: base + label id
        assert index.emission_index(0, "p", 1) == 1
        assert index.emission_index(0, "zzz", 0) is None
        # transition block: row-major over (prev, next), start is row L
        assert index.transition_index(0, 0) == 4
        assert index.transition_index(1, 0) == 6
        assert index.transition_index(2, 1) == 9

    def test_no_transition_block_when_disabled(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"], use_transitions=False)
        assert index.n_features == 4
        assert index.transition_base is None
        assert not index.use_transitions
        assert index.transition_index(0, 1) is None

    def test_label_validation(self):
        with pytest.raises(ValueError):
            index_features(coded(TOY_SEQS), [])
        with pytest.raises(ValueError):
            index_features(coded(TOY_SEQS), ["A", "A"])
        with pytest.raises(ValueError):
            index_features(coded([([("p",)], ["C"])]), ["A", "B"])
        with pytest.raises(ValueError):
            index_features(coded([]), ["A", "B"])
        with pytest.raises(ValueError):
            index_features(coded([([("p",)], ["A", "B"])]), ["A", "B"])

    @pytest.mark.parametrize(
        "cells",
        [np.array([0, 1]), np.array([[0.0], [1.0]]), np.array([[0], [-1]]), np.array([[0], [2]])],
        ids=["one-dimensional", "float", "negative", "past-the-values"],
    )
    def test_cells_that_are_no_matrix_of_codes_rejected(self, cells):
        with pytest.raises(ValueError, match="^cells must be a matrix of codes of the values$"):
            CodedSequences(("p", "q"), cells, (2,), ("A", "B"))

    def test_value_with_two_codes_rejected(self):
        # two codes of "p" would give it two blocks in one column
        with pytest.raises(ValueError, match="^a value string holds two codes$"):
            CodedSequences(("p", "q", "p"), np.array([[0], [2]]), (2,), ("A", "B"))

    def test_sequences_without_observations_rejected(self):
        with pytest.raises(ValueError, match="^training set contains no observations$"):
            index_features(coded([([], []), ([], [])]), ["A", "B"])


class TestCompileSequences:
    @pytest.mark.parametrize(
        "sequences, message",
        [
            ([], "^empty training set$"),
            ([([("p",)], ["A", "B"])], "^observation/label length mismatch$"),
            ([([("p",)], ["C"])], r"^label 'C' not in label set \('A', 'B'\)$"),
        ],
        ids=["empty", "length-mismatch", "unknown-label"],
    )
    def test_rejected(self, sequences, message):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        with pytest.raises(ValueError, match=message):
            compile_sequences(index, coded(sequences))


class TestGradient:
    def test_reference_gradient_at_zero(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        obj, grad = objective_and_gradient(
            np.zeros(index.n_features), index, compile_sequences(index, coded(TOY_SEQS)), l2=0.0
        )
        assert obj == pytest.approx(-4 * math.log(2), abs=1e-12)
        # emissions: empirical 2 or 0 against expected 1 under the uniform model
        assert np.allclose(grad[:4], [1.0, -1.0, -1.0, 1.0], atol=1e-12)
        # transitions (A,A),(A,B),(B,A),(B,B) then start row
        assert np.allclose(grad[4:10], [-0.5, 0.5, 0.5, -0.5, 0.0, 0.0], atol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(123)
        seqs = [
            ([("p", "u"), ("q", "v"), ("p", "u")], ["A", "B", "C"]),
            ([("q", "u"), ("p", "v")], ["B", "A"]),
            ([("p", "v")], ["C"]),
        ]
        for use_transitions in (True, False):
            index = index_features(coded(seqs), ["A", "B", "C"], use_transitions=use_transitions)
            data = compile_sequences(index, coded(seqs))
            w = rng.normal(scale=0.5, size=index.n_features)
            _, grad = objective_and_gradient(w, index, data, l2=0.3)
            h = 1e-5
            worst = 0.0
            for j in range(index.n_features):
                e = np.zeros_like(w)
                e[j] = h
                hi, _ = objective_and_gradient(w + e, index, data, l2=0.3)
                lo, _ = objective_and_gradient(w - e, index, data, l2=0.3)
                fd = (hi - lo) / (2 * h)
                err = abs(fd - grad[j]) / max(1.0, abs(fd), abs(grad[j]))
                worst = max(worst, err)
            assert worst <= 1e-4

    def test_l2_term(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        data = compile_sequences(index, coded(TOY_SEQS))
        rng = np.random.default_rng(5)
        w = rng.normal(size=index.n_features)
        raw_obj, raw_grad = objective_and_gradient(w, index, data, l2=0.0)
        pen_obj, pen_grad = objective_and_gradient(w, index, data, l2=2.0)
        assert pen_obj == pytest.approx(raw_obj - float(np.dot(w, w)), abs=1e-10)
        assert np.allclose(pen_grad, raw_grad - 2.0 * w, atol=1e-12)

    def test_non_finite_weights_rejected(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        bad = np.full(index.n_features, np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError):
                data = compile_sequences(index, coded(TOY_SEQS))
                objective_and_gradient(bad, index, data, l2=1.0)


# --- the dict-walking kernel that the compiled one replaced, kept as the
# reference: a per-cell loop in log space, each sequence on its own ---

# The compiled kernel sums in its own order and, for training, runs the
# recursion in probability space, so it matches the reference within this
# tolerance, relative to max(1, |reference|). Over the 462 evaluations of
# TestCompiledKernelIsBitExact the worst were 3.4e-11 (objective) and 5.0e-10
# (gradient); that gradient cell is exactly 0 and the reference's is not.
KERNEL_TOLERANCE = 1e-9


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= KERNEL_TOLERANCE * np.maximum(1.0, np.abs(ref)))


def reference_node_scores(index, weights, obs):
    L = index.n_labels
    scores = np.zeros((len(obs), L))
    for t, item in enumerate(obs):
        for c, v in enumerate(item):
            base = index.emission_index(c, v, 0)
            if base is not None:
                scores[t] += weights[base : base + L]
    return scores


def reference_transitions(index, weights):
    L = index.n_labels
    if index.transition_base is None:
        return np.zeros((L + 1, L))
    tb = index.transition_base
    return weights[tb : tb + (L + 1) * L].reshape(L + 1, L)


def reference_forward(node, trans):
    T, L = node.shape
    alpha = np.empty((T, L))
    alpha[0] = trans[L] + node[0]
    for t in range(1, T):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + trans[:L], axis=0) + node[t]
    return alpha


def reference_backward(node, trans):
    T, L = node.shape
    beta = np.zeros((T, L))
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(trans[:L] + (node[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def reference_objective_and_gradient(weights, index, sequences, l2):
    L = index.n_labels
    trans = reference_transitions(index, weights)
    objective = 0.0
    grad = np.zeros_like(weights)
    for obs, seq_labels in sequences:
        y = [index.label_id(l) for l in seq_labels]
        node = reference_node_scores(index, weights, obs)
        alpha = reference_forward(node, trans)
        beta = reference_backward(node, trans)
        log_z = logsumexp(alpha[-1])
        node_marg = np.exp(alpha + beta - log_z)
        gold = trans[L, y[0]] + node[0, y[0]]
        for t in range(1, len(obs)):
            gold += trans[y[t - 1], y[t]] + node[t, y[t]]
        objective += gold - log_z
        for t, item in enumerate(obs):
            for c, v in enumerate(item):
                base = index.emission_index(c, v, 0)
                if base is not None:
                    grad[base + y[t]] += 1.0
                    grad[base : base + L] -= node_marg[t]
        if index.transition_base is not None:
            tb = index.transition_base
            start_off = tb + L * L
            grad[start_off + y[0]] += 1.0
            grad[start_off : start_off + L] -= node_marg[0]
            for t in range(1, len(obs)):
                grad[tb + y[t - 1] * L + y[t]] += 1.0
            if len(obs) > 1:
                expected = np.zeros((L, L))
                for t in range(len(obs) - 1):
                    expected += np.exp(
                        alpha[t][:, None] + trans[:L] + (node[t + 1] + beta[t + 1])[None, :] - log_z
                    )
                grad[tb : tb + L * L] -= expected.reshape(-1)
    objective -= 0.5 * l2 * float(np.dot(weights, weights))
    grad -= l2 * weights
    return float(objective), grad


def reference_gold_counts(index, sequences):
    """The empirical feature counts the per-cell loop adds up."""
    gold = np.zeros(index.n_features)
    for obs, seq_labels in sequences:
        y = [index.label_id(l) for l in seq_labels]
        for t, item in enumerate(obs):
            for c, v in enumerate(item):
                j = index.emission_index(c, v, y[t])
                if j is not None:
                    gold[j] += 1.0
        if index.use_transitions:
            gold[index.transition_index(index.start_id, y[0])] += 1.0
            for t in range(1, len(obs)):
                gold[index.transition_index(y[t - 1], y[t])] += 1.0
    return gold


# --- the string walk that the coded index replaced, kept as a reference:
# a block for each (column, value) pair in order of first appearance, token
# by token, and a row of blocks for each token ---


def reference_index_features(sequences, labels, use_transitions=True):
    columns = None
    n_blocks = 0
    for obs, _ in sequences:
        for item in obs:
            if columns is None:
                columns = tuple({} for _ in item)
            for column, v in zip(columns, item):
                if v not in column:
                    column[v] = n_blocks
                    n_blocks += 1
    return FeatureIndex(labels=tuple(labels), columns=columns, use_transitions=use_transitions)


def reference_emission_rows(index, obs):
    unseen = index.n_blocks
    rows = [[column.get(v, unseen) for column, v in zip(index.columns, item)] for item in obs]
    return np.array(rows, dtype=np.intp).reshape(len(obs), index.n_columns)


def assert_compiled_rows(data, rows):
    """Token n's column of block_counts counts each block of its emission-block
    row rows[n] below K once, and no other; a block belongs to one column of
    the index, so that fixes the row. The padding column holds no block."""
    K = data.block_counts.shape[0]
    expected = np.zeros((len(rows), K))
    token, column = np.nonzero(rows < K)
    np.add.at(expected, (token, rows[token, column]), 1.0)
    counts = data.block_counts.toarray()
    np.testing.assert_array_equal(counts[:, data.grid.ravel()[data.cell]].T, expected)
    assert not counts[:, -1].any()


def reference_viterbi(model, obs):
    node = reference_node_scores(model.index, model.weights, obs)
    trans = reference_transitions(model.index, model.weights)
    T, L = node.shape
    delta = np.empty((T, L))
    psi = np.zeros((T, L), dtype=np.int64)
    delta[0] = trans[L] + node[0]
    for t in range(1, T):
        candidates = delta[t - 1][:, None] + trans[:L]
        psi[t] = np.argmax(candidates, axis=0)
        delta[t] = candidates[psi[t], np.arange(L)] + node[t]
    path = [int(np.argmax(delta[T - 1]))]
    for t in range(T - 1, 0, -1):
        path.append(int(psi[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path], float(delta[T - 1, path[-1]])


def random_training_set(
    rng, n_labels, n_columns, max_length, n_sequences=None, use_transitions=None
):
    """Random sequences (1-4 unless n_sequences is given), a model with
    weights spread over eight orders of magnitude (so a reordered sum shows in
    the low bits), and a decode sequence with unseen values."""
    labels = [f"L{i}" for i in range(n_labels)]
    vocab = [[f"c{c}v{i}" for i in range(int(rng.integers(1, 4)))] for c in range(n_columns)]

    def sample_obs(length):
        return [
            tuple(vocab[c][int(rng.integers(0, len(vocab[c])))] for c in range(n_columns))
            for _ in range(length)
        ]

    if n_sequences is None:
        n_sequences = int(rng.integers(1, 5))
    lengths = rng.integers(1, max_length + 1, size=n_sequences)
    seqs = [
        (obs, [labels[int(rng.integers(0, n_labels))] for _ in obs])
        for obs in (sample_obs(int(n)) for n in lengths)
    ]
    if use_transitions is None:
        use_transitions = bool(rng.integers(0, 2))
    index = index_features(coded(seqs), labels, use_transitions=use_transitions)
    weights = rng.normal(size=index.n_features) * 10.0 ** rng.uniform(-4, 4, index.n_features)
    obs = [
        tuple(v if rng.random() < 0.7 else "unseen" for v in item)
        for item in sample_obs(int(rng.integers(1, max_length + 1)))
    ]
    return seqs, CrfModel(index=index, weights=weights), obs


# values the bin columns hold, a lemma, and "x" and "y", which several columns share
VALUES = st.sampled_from(["low", "mid", "high", "_", "boil", "x", "y"])


@st.composite
def string_sequences(draw):
    """1-4 sequences of 1-5 tokens over 1-5 columns, labeled A or B."""
    item = st.tuples(*[VALUES] * draw(st.integers(1, 5)))
    sequences = draw(st.lists(st.lists(item, min_size=1, max_size=5), min_size=1, max_size=4))
    return [(obs, [draw(st.sampled_from("AB")) for _ in obs]) for obs in sequences]


class TestCodedIndexMatchesStringWalk:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(seqs=string_sequences())
    def test_same_blocks_and_rows(self, seqs):
        index = index_features(coded(seqs), ["A", "B"])
        reference = reference_index_features(seqs, ["A", "B"])
        assert index.columns == reference.columns
        # each column's table in block order, as the string walk filled it
        assert [list(c.items()) for c in index.columns] == [
            list(c.items()) for c in reference.columns
        ]
        expected = np.concatenate([reference_emission_rows(reference, obs) for obs, _ in seqs])
        assert_compiled_rows(compile_sequences(index, coded(seqs)), expected)

    def test_a_value_shared_by_two_columns_takes_a_block_in_each(self):
        seqs = [([("x", "low"), ("low", "x")], ["A", "B"])]
        index = index_features(coded(seqs), ["A", "B"])
        assert index.columns == ({"x": 0, "low": 2}, {"low": 1, "x": 3})
        assert_compiled_rows(compile_sequences(index, coded(seqs)), np.array([[0, 1], [2, 3]]))

    def test_rows_of_another_index_map_unseen_values_to_the_zero_row(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        seqs = [([("q",), ("r",), ("p",)], ["A", "B", "A"])]
        rows = np.array([[1], [index.n_blocks], [0]])
        assert_compiled_rows(compile_sequences(index, coded(seqs)), rows)


# --- the np.unique forms that index_features and compile_sequences replaced,
# kept as a reference: sorted (column, value) pairs with their first cells
# and inverse, and the distinct rows of np.unique(rows, axis=0) ---


def reference_unique_index(sequences, labels, use_transitions=True):
    pairs, first = np.unique(sequences.pairs(), return_index=True)
    columns = tuple({} for _ in range(sequences.cells.shape[1]))
    for block, pair in enumerate(pairs[np.argsort(first)].tolist()):
        column, code = divmod(pair, len(sequences.values))
        columns[column][sequences.values[code]] = block
    return FeatureIndex(labels=tuple(labels), columns=columns, use_transitions=use_transitions)


def reference_unique_compile(index, sequences):
    L, K = index.n_labels, index.n_blocks
    labels = np.array([index.label_id(l) for l in sequences.labels], dtype=np.intp)
    lengths = np.array(sequences.lengths)
    starts = np.cumsum(lengths) - lengths
    pairs, pair_of_cell = np.unique(sequences.pairs(), return_inverse=True)
    V = len(sequences.values)
    blocks = [index.columns[c].get(sequences.values[v], K)
              for c, v in (divmod(pair, V) for pair in pairs.tolist())]
    rows = np.array(blocks, dtype=np.intp)[pair_of_cell].reshape(sequences.cells.shape)
    S, T = len(lengths), int(lengths.max())
    place = np.empty(S, dtype=np.intp)
    place[np.argsort(-lengths, kind="stable")] = np.arange(S)
    cell = np.repeat(place * T - starts, lengths) + np.arange(len(rows))
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    U = len(distinct)
    grid = np.full(S * T, U, dtype=np.intp)
    grid[cell] = inverse.ravel()
    row, column = np.nonzero(distinct < K)
    block_counts = csr_array((np.ones(len(row)), (distinct[row, column], row)), shape=(K, U + 1))
    gold = np.bincount((rows * L + labels[:, None]).ravel(), minlength=(K + 1) * L)[: K * L]
    if index.use_transitions:
        previous = np.empty_like(labels)
        previous[1:] = labels[:-1]
        previous[starts] = L
        gold = np.concatenate([gold, np.bincount(previous * L + labels, minlength=(L + 1) * L)])
    return dict(
        grid=grid.reshape(S, T),
        active=tuple(int((lengths > t).sum()) for t in range(T)) + (0,),
        cell=cell,
        tokens=np.bincount(inverse.ravel(), minlength=U + 1).astype(np.float64),
        block_counts=block_counts,
        gold=gold.astype(np.float64),
    )


def assert_matches_np_unique(index, data, sequences):
    """Every array of `data`, compiled from `sequences` with `index`, is the
    one the np.unique forms give, bit for bit."""
    want = reference_unique_compile(index, sequences)
    for name in ("grid", "cell", "tokens", "gold"):
        got = getattr(data, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name
    assert data.active == want["active"]
    counts, want_counts = data.block_counts, want["block_counts"]
    assert counts.shape == want_counts.shape and (counts != want_counts).nnz == 0
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(counts, name), getattr(want_counts, name)), name
    rows = data.row_blocks
    assert rows.format == "csr" and rows.has_sorted_indices
    assert rows.shape == want_counts.T.shape and (rows != want_counts.T).nnz == 0


@st.composite
def coded_sequences(draw):
    """1-4 sequences of 1-6 tokens over 1-5 columns of 1-8 value codes; the
    tokens repeat rows of a small pool, and a column may miss some codes."""
    C, V = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    row = st.lists(st.integers(0, V - 1), min_size=C, max_size=C)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    cells = [draw(st.sampled_from(pool)) for _ in range(sum(lengths))]
    return CodedSequences(
        values=tuple(f"v{i}" for i in range(V)),
        cells=np.array(cells, dtype=np.intp).reshape(len(cells), C),
        lengths=tuple(lengths),
        labels=tuple(draw(st.sampled_from("AB")) for _ in cells),
    )


class TestCompiledArraysMatchNpUnique:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(seqs=coded_sequences(), use_transitions=st.booleans())
    def test_every_array_is_the_np_unique_one(self, seqs, use_transitions):
        index = index_features(seqs, ["A", "B"], use_transitions)
        reference = reference_unique_index(seqs, ["A", "B"], use_transitions)
        assert [list(c.items()) for c in index.columns] == [
            list(c.items()) for c in reference.columns
        ]
        assert_matches_np_unique(index, compile_sequences(index, seqs), seqs)
        # with the index of the first sequence alone, the later ones hold
        # values the index never saw in their column
        n = seqs.lengths[0]
        first = CodedSequences(seqs.values, seqs.cells[:n], seqs.lengths[:1], seqs.labels[:n])
        only_first = index_features(first, ["A", "B"], use_transitions)
        assert_matches_np_unique(only_first, compile_sequences(only_first, seqs), seqs)

    def test_a_large_lemma_vocabulary_stays_within_the_bound(self):
        # shaped as features.esd_training_sequences codes ESDs: three lemma
        # columns holding 3 * N distinct lemmas, so V = 3 * N + 4 values, and
        # bin columns holding codes 0-3
        rng = np.random.default_rng(37)
        N, bins, L = 16_666, 20, 5
        C, V = 3 + bins, 3 * N + 4
        lemmas = (rng.permutation(3 * N) + 4).reshape(N, 3)
        lengths = (11,) * (N // 11) + (N % 11,)
        labels = [f"L{i}" for i in range(L)]
        seqs = CodedSequences(
            values=tuple(f"v{i}" for i in range(V)),
            cells=np.hstack([lemmas, rng.integers(0, 4, size=(N, bins))]),
            lengths=lengths,
            labels=tuple(labels[i] for i in rng.integers(0, L, size=N)),
        )
        index = index_features(seqs, labels)
        assert index.n_blocks > 3 * N
        tracemalloc.start()
        try:
            data = compile_sequences(index, seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bound compile_sequences states
        assert peak < 9 * C * V + 128 * N * C
        assert_matches_np_unique(index, data, seqs)


class TestCompiledKernelIsBitExact:
    """Decoding matches the per-cell loop bit for bit; the training objective
    and gradient, and the weights trained with them, within KERNEL_TOLERANCE."""

    # (labels, columns, longest sequence): one label with one token and more
    # than eight columns is where a numpy reduction would sum pairwise
    SHAPES = [(1, 9, 1), (1, 12, 4), (2, 1, 6), (3, 9, 3), (5, 4, 7), (20, 30, 5)]

    def cases(self):
        rng = np.random.default_rng(2026)
        for _ in range(25):
            for shape in self.SHAPES:
                yield random_training_set(rng, *shape)
        for _ in range(50):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 12)), int(rng.integers(1, 8)))
            yield random_training_set(rng, *shape)
        # batches of 12-40 sequences of 1-15 tokens, where lengths repeat and,
        # with few columns of few values, rows repeat too; nine labels and
        # more sum pairwise. At scales 1 and 0.01 the terms of a log-sum-exp
        # are alike, so their order shows; at 0.01 the maximum that log Z
        # adds back is too small to hide a last-bit change of the sum
        for use_transitions in (True, False):
            for labels in (1, 2, 5, 9, 20):
                shape = (labels, int(rng.integers(1, 5)), 15, int(rng.integers(12, 41)))
                seqs, model, obs = random_training_set(rng, *shape, use_transitions)
                yield seqs, model, obs
                for scale in (1.0, 0.01):
                    even = rng.normal(scale=scale, size=model.index.n_features)
                    yield seqs, CrfModel(index=model.index, weights=even), obs
        seqs, model, obs = random_training_set(rng, 4, 3, 15, 30, True)
        yield seqs, CrfModel(index=model.index, weights=np.zeros(model.index.n_features)), obs

    def test_objective_and_gradient_match_dict_walk(self):
        seen = set()
        for seqs, model, _ in self.cases():
            index = model.index
            seen.add(index.use_transitions)
            for l2 in (0.0, 0.7):
                obj, grad = objective_and_gradient(
                    model.weights, index, compile_sequences(index, coded(seqs)), l2
                )
                ref_obj, ref_grad = reference_objective_and_gradient(model.weights, index, seqs, l2)
                assert_close(obj, ref_obj)
                assert_close(grad, ref_grad)
        assert seen == {True, False}

    @pytest.mark.parametrize("use_transitions", [True, False])
    def test_padding_never_reaches_exp(self, use_transitions):
        # a one-token sequence among longer ones leaves padding in the batch;
        # at weights near -1e3, log Z is near -1e4 and exp(-log Z) overflows
        seqs = [
            ([("p", "u"), ("q", "v"), ("p", "u"), ("q", "u")], ["A", "B", "C", "A"]),
            ([("q", "u")], ["B"]),
            ([("p", "v"), ("q", "u"), ("q", "v")], ["C", "A", "B"]),
            ([("p", "u")], ["A"]),
        ]
        index = index_features(coded(seqs), ["A", "B", "C"], use_transitions=use_transitions)
        weights = -np.random.default_rng(8).uniform(900, 1100, index.n_features)
        data = compile_sequences(index, coded(seqs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj, grad = objective_and_gradient(weights, index, data, 0.7)
        ref_obj, ref_grad = reference_objective_and_gradient(weights, index, seqs, 0.7)
        assert_close(obj, ref_obj)
        assert_close(grad, ref_grad)

    def test_decoding_matches_dict_walk(self):
        seen = set()
        for _, model, obs in self.cases():
            seen.add(model.use_transitions)
            rows = reference_emission_rows(model.index, obs)
            assert viterbi(model, rows) == reference_viterbi(model, obs)
            node, trans = crf._decode_tables(model, rows)
            log_z = crf._forward_backward(node[None], trans, (1,) * len(node) + (0,))[2]
            ref_node = reference_node_scores(model.index, model.weights, obs)
            ref_trans = reference_transitions(model.index, model.weights)
            assert log_z[0] == logsumexp(reference_forward(ref_node, ref_trans)[-1])
        assert seen == {True, False}

    def test_trained_weights_match_dict_walk_training(self, monkeypatch):
        # train() with the reference kernel swapped in, compiled data ignored
        rng = np.random.default_rng(5)
        for shape in [(3, 6, 5), (1, 9, 2)]:
            seqs, model, obs = random_training_set(rng, *shape)
            labels = model.labels
            cfg = TrainConfig(max_iterations=30)
            compiled = train(coded(seqs), labels, cfg, model.use_transitions)
            with monkeypatch.context() as m:
                m.setattr(
                    crf,
                    "objective_and_gradient",
                    lambda w, index, data, l2: reference_objective_and_gradient(w, index, seqs, l2),
                )
                walked = train(coded(seqs), labels, cfg, model.use_transitions)
            assert_close(compiled.weights, walked.weights)
            for decoded in [obs, *(o for o, _ in seqs)]:
                rows = reference_emission_rows(model.index, decoded)
                assert viterbi(compiled, rows)[0] == viterbi(walked, rows)[0]


def ragged_batch(rng, use_transitions, scale=1.0):
    """12-40 sequences of 1-15 tokens over 5 labels, weights ~N(0, scale)."""
    seqs, model, _ = random_training_set(rng, 5, 3, 15, int(rng.integers(12, 41)), use_transitions)
    weights = rng.normal(scale=scale, size=model.index.n_features)
    return seqs, CrfModel(index=model.index, weights=weights)


class TestTrainingRecursion:
    def test_gold_counts_match_the_per_cell_loop(self):
        cases = [(seqs, model.index) for seqs, model, _ in TestCompiledKernelIsBitExact().cases()]
        # values the index never saw count for no feature
        cases.append(([([("q",), ("r",), ("p",)], ["A", "B", "A"])], index_features(
            coded(TOY_SEQS), ["A", "B"])))
        for seqs, index in cases:
            gold = compile_sequences(index, coded(seqs)).gold
            assert np.array_equal(gold, reference_gold_counts(index, seqs))

    @pytest.mark.parametrize("recursion", RECURSIONS)
    def test_ragged_batch_matches_one_sequence_inference(self, recursion):
        rng = np.random.default_rng(11)
        seqs, model = ragged_batch(rng, True)
        assert len(seqs) >= 12
        index, L = model.index, model.index.n_labels
        data = compile_sequences(index, coded(seqs))
        trans = reference_transitions(index, model.weights)
        (S, T), starts = data.grid.shape, np.cumsum([0] + [len(obs) for obs, _ in seqs])
        places = data.cell[starts[:-1]] // T  # the grid row of each sequence
        node = np.zeros((S, T, L))
        for (obs, _), row in zip(seqs, places):
            node[row, : len(obs)] = reference_node_scores(index, model.weights, obs)
        node_marg, expected, log_z = recursion(node, trans, data.active)
        edges = np.zeros((L, L))
        start = np.zeros(L)
        for (obs, _), row in zip(seqs, places):
            n, one = len(obs), node[row, : len(obs)]
            alpha, beta = reference_forward(one, trans), reference_backward(one, trans)
            one_log_z = logsumexp(alpha[-1])
            assert_close(log_z[row], one_log_z)
            one_node = np.exp(alpha + beta - one_log_z)
            assert_close(node_marg[row, :n], one_node)
            assert not node_marg[row, n:].any()
            after = one[1:] + beta[1:]
            edges += np.exp(alpha[:-1, :, None] + trans[:L] + after[:, None] - one_log_z).sum(axis=0)
            start += one_node[0]
        assert_close(expected, np.vstack([edges, start]))

    def test_without_transitions_is_a_per_cell_softmax(self):
        rng = np.random.default_rng(12)
        seqs, model = ragged_batch(rng, False, scale=3.0)
        index, w = model.index, model.weights
        objective, grad = 0.0, np.zeros_like(w)
        for obs, seq_labels in seqs:
            node = reference_node_scores(index, w, obs)
            probs = softmax(node, axis=1)
            for item, label, row, p in zip(obs, seq_labels, node, probs):
                y = index.label_id(label)
                objective += row[y] - logsumexp(row)
                for c, v in enumerate(item):
                    base = index.emission_index(c, v, 0)
                    grad[base + y] += 1.0
                    grad[base : base + index.n_labels] -= p
        got = objective_and_gradient(w, index, compile_sequences(index, coded(seqs)), 0.0)
        assert_close(got[0], objective)
        assert_close(got[1], grad)

    def test_transitions_past_the_scaled_spread_stay_finite(self):
        # the start puts all the probability on label 0, and every step out
        # of label 0 scores 1000 below the best step: in probability space
        # exp(trans - max) is 0 there, and so is the next normalizer. Such a
        # spread runs in log space
        rng = np.random.default_rng(13)
        seqs, model = ragged_batch(rng, True)
        index, weights, L = model.index, model.weights.copy(), model.index.n_labels
        trans = weights[index.transition_base :].reshape(L + 1, L)
        trans[:] = 0.0
        trans[0] = -500.0
        trans[1, 1] = 500.0
        trans[L] = -400.0
        trans[L, 0] = 400.0
        assert np.ptp(trans[:L]) > crf._SCALED_SPREAD
        data = compile_sequences(index, coded(seqs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj, grad = objective_and_gradient(weights, index, data, 0.7)
        assert np.isfinite(obj) and np.all(np.isfinite(grad))
        ref_obj, ref_grad = reference_objective_and_gradient(weights, index, seqs, 0.7)
        assert_close(obj, ref_obj)
        assert_close(grad, ref_grad)

    def test_evaluation_builds_no_column_by_row_by_label_array(self):
        # 60 sequences of 5-14 tokens over 120 columns of 40 values: nearly
        # every token is a distinct row, and a (C, U+1, L) gather of the
        # emission weights would take more than the bound below on its own
        rng = np.random.default_rng(32)
        C, V, L = 120, 40, 12
        lengths = tuple(int(n) for n in rng.integers(5, 15, size=60))
        labels = [f"L{i}" for i in range(L)]
        sequences = CodedSequences(
            values=tuple(f"v{i}" for i in range(V)),
            cells=rng.integers(0, V, size=(sum(lengths), C)),
            lengths=lengths,
            labels=tuple(labels[i] for i in rng.integers(0, L, size=sum(lengths))),
        )
        index = index_features(sequences, labels)
        data = compile_sequences(index, sequences)
        weights = rng.normal(size=index.n_features)
        objective_and_gradient(weights, index, data, 1.0)
        tracemalloc.start()
        try:
            objective_and_gradient(weights, index, data, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = data.block_counts.shape[1]  # U+1
        assert peak < C * rows * L * 8


class TestTraining:
    def test_fits_separable_toy(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        for obs, labels in TOY_SEQS:
            assert viterbi(model, reference_emission_rows(model.index, obs))[0] == labels

    def test_deterministic_weights(self):
        cfg = TrainConfig(l2=1.0, max_iterations=100)
        m1 = train(coded(TOY_SEQS), ["A", "B"], cfg)
        m2 = train(coded(TOY_SEQS), ["A", "B"], cfg)
        assert np.array_equal(m1.weights, m2.weights)

    def test_training_improves_objective(self):
        model = train(coded(TOY_SEQS), ["A", "B"], TrainConfig(l2=0.5))
        data = compile_sequences(model.index, coded(TOY_SEQS))
        at_zero, _ = objective_and_gradient(
            np.zeros(model.index.n_features), model.index, data, 0.5
        )
        trained, _ = objective_and_gradient(model.weights, model.index, data, 0.5)
        assert trained > at_zero

    def test_sequence_signal_needs_transitions(self):
        # all observations identical: only the chain can separate the labels
        seqs = [([("x",), ("x",)], ["A", "B"]) for _ in range(4)]
        with_chain = train(coded(seqs), ["A", "B"])
        rows = reference_emission_rows(with_chain.index, [("x",), ("x",)])
        assert viterbi(with_chain, rows)[0] == ["A", "B"]
        without = train(coded(seqs), ["A", "B"], use_transitions=False)
        pred = viterbi(without, rows)[0]
        assert pred[0] == pred[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(l2=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(max_iterations=0)

    def test_each_point_is_evaluated_once(self, monkeypatch):
        seqs = [
            ([("p", "u"), ("q", "v"), ("p", "u")], ["A", "B", "C"]),
            ([("q", "u"), ("p", "v")], ["B", "A"]),
            ([("p", "v")], ["C"]),
        ]
        evaluations, results = [], []
        evaluate, minimize = crf.objective_and_gradient, crf.minimize

        def counted(*args):
            evaluations.append(args[0].copy())
            return evaluate(*args)

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(crf, "objective_and_gradient", counted)
        monkeypatch.setattr(crf, "minimize", recorded)
        train(coded(seqs), ["A", "B", "C"])
        (result,) = results
        assert result.nit > 1
        # the trace of accepted iterates reads the objective L-BFGS-B reports
        # instead of repeating an evaluation
        assert len(evaluations) <= result.nfev

    def test_monotone_check_reads_the_start_and_each_accepted_iterate(self, monkeypatch):
        seqs = [
            ([("p", "u"), ("q", "v"), ("p", "u")], ["A", "B", "C"]),
            ([("q", "u"), ("p", "v")], ["B", "A"]),
            ([("p", "v")], ["C"]),
        ]
        traces, results = [], []
        check, minimize = crf._check_monotone, crf.minimize

        def captured(trace):
            traces.append(list(trace))
            return check(trace)

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(crf, "_check_monotone", captured)
        monkeypatch.setattr(crf, "minimize", recorded)
        cfg = TrainConfig()
        model = train(coded(seqs), ["A", "B", "C"], cfg)
        (trace,), (result,) = traces, results
        assert result.nit > 1
        assert len(trace) == result.nit + 1
        data = compile_sequences(model.index, coded(seqs))
        at_zero, _ = objective_and_gradient(
            np.zeros(model.index.n_features), model.index, data, cfg.l2
        )
        assert trace[0] == at_zero
        assert trace[-1] == -result.fun

    def test_training_record_reads_the_optimizer_result(self, monkeypatch):
        results, minimize = [], crf.minimize

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(crf, "minimize", recorded)
        model = train(coded(TOY_SEQS), ["A", "B"], TrainConfig(l2=0.5))
        (result,) = results
        data = compile_sequences(model.index, coded(TOY_SEQS))
        _, gradient = objective_and_gradient(model.weights, model.index, data, 0.5)
        assert model.training == TrainingRecord(
            nit=result.nit, nfev=result.nfev, status=0, message=result.message,
            gradient_max_norm=float(np.max(np.abs(gradient))), l2=0.5, sequences=2,
        )

    def test_non_convergence_is_reported(self, caplog):
        with caplog.at_level(logging.WARNING, logger="scriptmap.crf"):
            stopped = train(coded(TOY_SEQS), ["A", "B"], TrainConfig(max_iterations=1))
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "after 1 iterations" in record.getMessage()
        assert "ITERATIONS REACHED LIMIT" in record.getMessage()
        assert stopped.training.status == 1 and stopped.training.nit == 1
        assert "ITERATIONS REACHED LIMIT" in stopped.training.message
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="scriptmap.crf"):
            converged = train(coded(TOY_SEQS), ["A", "B"])
        assert caplog.records == []
        assert not np.array_equal(stopped.weights, converged.weights)

    def test_monotone_trace_guard(self):
        from scriptmap.crf import _check_monotone

        _check_monotone([-10.0, -5.0, -5.0, -4.9])
        with pytest.raises(NumericError):
            _check_monotone([-5.0, -10.0])


class TestPersistence:
    def roundtrip(self, model):
        return load_model(save_model(model))

    def test_bit_exact_weights(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        loaded = self.roundtrip(model)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.index == model.index
        rows = reference_emission_rows(model.index, [("p",), ("q",), ("oov",)])
        assert viterbi(loaded, rows) == viterbi(model, rows)

    def test_transition_free_round_trip(self):
        model = train(coded(TOY_SEQS), ["A", "B"], use_transitions=False)
        loaded = load_model(save_model(model))
        assert np.array_equal(loaded.weights, model.weights)
        assert not loaded.use_transitions

    def test_epsilon_round_trip(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        model.disc = DiscretizationConfig(epsilon=0.15)
        assert self.roundtrip(model).disc == DiscretizationConfig(epsilon=0.15)

    def test_format_3_layout(self):
        model = train(coded([([("p", "x"), ("q", "x")], ["A", "B"])]), ["A", "B"])
        payload = json.loads(save_model(model))
        assert payload["format_version"] == 3
        assert sorted(payload) == ["columns", "emissions", "epsilon", "format", "format_version",
                                   "labels", "training", "use_transitions", "weights"]
        # block order; each block's weight offset is its position times L
        assert payload["emissions"] == [[0, "p"], [1, "x"], [0, "q"]]
        # one base64 string of the little-endian float64 bytes, in feature order
        raw = base64.b64decode(payload["weights"], validate=True)
        assert struct.unpack(f"<{model.index.n_features}d", raw) == tuple(model.weights)
        assert payload["training"] == dataclasses.asdict(model.training)
        assert sorted(payload["training"]) == ["gradient_max_norm", "l2", "message", "nfev",
                                               "nit", "sequences", "status"]

    def test_special_weights_round_trip_bit_exactly(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        values = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.1]
        weights = np.resize(np.array(values), model.index.n_features)
        loaded = self.roundtrip(dataclasses.replace(model, weights=weights))
        assert loaded.weights.dtype == np.float64 and loaded.weights.flags.owndata
        assert loaded.weights.view(np.uint64).tolist() == weights.view(np.uint64).tolist()

    def test_training_record_round_trip(self):
        model = train(coded(TOY_SEQS), ["A", "B"], TrainConfig(l2=0.5))
        assert self.roundtrip(model).training == model.training

    def test_model_without_training_record_is_not_saved(self):
        index = index_features(coded(TOY_SEQS), ["A", "B"])
        with pytest.raises(ValueError, match="records how its model was trained"):
            save_model(CrfModel(index=index, weights=np.zeros(index.n_features)))

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_rejected(self, version):
        payload = json.loads(save_model(train(coded(TOY_SEQS), ["A", "B"])))
        payload["format_version"] = version
        with pytest.raises(ModelFormatError, match=f"unsupported model format version {version}"):
            load_model(json.dumps(payload))

    def test_corrupt_json_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model("{ not json")

    def test_foreign_payload_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelFormatError):
            load_model(json.dumps([1, 2, 3]))

    def test_wrong_version_rejected(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        payload = json.loads(save_model(model))
        payload["format_version"] = 999
        with pytest.raises(ModelFormatError):
            load_model(json.dumps(payload))

    def test_weight_count_mismatch_rejected(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        payload = json.loads(save_model(model))
        payload["weights"] = encoded_weights(model.weights[:-1])
        with pytest.raises(ModelFormatError, match="weight count 9 does not match feature count"):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda text, w: [repr(float(x)) for x in w], "'weights' must be a base64 string"),
            (lambda text, w: None, "'weights' must be a base64 string"),
            (lambda text, w: text[:3] + "*" + text[4:], "weights are not base64"),
            (lambda text, w: text[:3] + "\u00e9" + text[4:], "weights are not base64"),
            (lambda text, w: text[:-1], "weights are not base64: Incorrect padding"),
            (lambda text, w: base64.b64encode(base64.b64decode(text) + b"abc").decode(),
             "weights hold 83 bytes"),
            (lambda text, w: encoded_weights([math.nan, *w[1:]]), "non-finite weight"),
            (lambda text, w: encoded_weights([*w[:-1], -math.inf]), "non-finite weight"),
        ],
        ids=["v2_list", "null", "non_alphabet", "non_ascii", "bad_padding", "8k_plus_3_bytes",
             "nan", "minus_inf"],
    )
    def test_unreadable_weight_rejected(self, corrupt, message):
        model = train(coded(TOY_SEQS), ["A", "B"])
        payload = json.loads(save_model(model))
        payload["weights"] = corrupt(payload["weights"], model.weights)
        with pytest.raises(ModelFormatError, match=message):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("key", [*TrainingRecord.__dataclass_fields__, None])
    @pytest.mark.parametrize("how", ["missing", "mistyped"])
    def test_bad_training_record_rejected(self, key, how):
        payload = json.loads(save_model(train(coded(TOY_SEQS), ["A", "B"])))
        parent, key = (payload, "training") if key is None else (payload["training"], key)
        if how == "missing":
            del parent[key]
        else:
            # an integer where a string or float belongs, a string elsewhere
            parent[key] = 1 if isinstance(parent[key], (str, float)) else str(parent[key])
        with pytest.raises(ModelFormatError, match=f"'{key}'"):
            load_model(json.dumps(payload))

    def test_missing_key_rejected(self):
        model = train(coded(TOY_SEQS), ["A", "B"])
        payload = json.loads(save_model(model))
        del payload["labels"]
        with pytest.raises(ModelFormatError):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("columns", [2, 10**18])
    def test_column_without_emission_entries_rejected(self, columns):
        # every trained column holds a value, so a larger count is corrupt and
        # must not make the loader build one table per claimed column
        payload = json.loads(save_model(train(coded(TOY_SEQS), ["A", "B"])))
        payload["columns"] = columns
        with pytest.raises(ModelFormatError, match=f"cover 1 of {columns} columns"):
            load_model(json.dumps(payload))
