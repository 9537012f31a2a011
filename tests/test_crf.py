"""Sequence model inference against brute-force enumeration, plus training,
gradient correctness, and persistence.

The enumeration oracle scores every label sequence directly off the weight
vector through the public index accessors, so forward-backward and Viterbi
are checked against arithmetic they share nothing with.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from scriptmap import crf
from scriptmap.crf import (
    CrfModel,
    ModelFormatError,
    NumericError,
    TrainConfig,
    compile_sequences,
    index_features,
    load_model,
    log_partition,
    marginals,
    objective_and_gradient,
    save_model,
    sequence_score,
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
    index = index_features(seqs, labels, use_transitions=use_transitions)
    model = CrfModel(index=index, weights=rng.normal(size=index.n_features))
    obs = sample_obs(T)
    # an unseen value must score zero; keep one non-OOV column alive so that
    # transition-free models cannot produce exact score ties
    if n_cols > 1 or use_transitions:
        obs[0] = ("oov",) + tuple(obs[0][1:])
    return model, obs


class TestInference:
    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            model, obs = random_model(rng)
            labs, scores = enumerate_scores(model, obs)
            ref_log_z = float(logsumexp(scores))
            got_log_z = log_partition(model, obs)
            assert abs(got_log_z - ref_log_z) <= 1e-10 * max(1.0, abs(ref_log_z))
            best = int(np.argmax(scores))
            expected = [model.labels[i] for i in labs[best]]
            got_labels, got_score = viterbi(model, obs)
            assert got_labels == expected
            assert got_score == pytest.approx(float(scores[best]), abs=1e-9)
            row = int(rng.integers(0, len(labs)))
            named = [model.labels[i] for i in labs[row]]
            assert sequence_score(model, obs, named) == pytest.approx(
                float(scores[row]), abs=1e-9
            )

    def test_marginals_match_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            model, obs = random_model(rng)
            labs, scores = enumerate_scores(model, obs)
            probs = np.exp(scores - logsumexp(scores))
            T, L = len(obs), model.index.n_labels
            node_ref = np.zeros((T, L))
            for lab in range(L):
                node_ref[:, lab] = probs @ (labs == lab)
            edge_ref = np.zeros((max(T - 1, 0), L, L))
            for t in range(T - 1):
                for a in range(L):
                    for b in range(L):
                        mask = (labs[:, t] == a) & (labs[:, t + 1] == b)
                        edge_ref[t, a, b] = probs[mask].sum()
            node, edge = marginals(model, obs)
            assert np.allclose(node, node_ref, atol=1e-9)
            assert np.allclose(edge, edge_ref, atol=1e-9)
            assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)

    def test_edge_marginals_factorize_without_transitions(self):
        rng = np.random.default_rng(99)
        seqs = [([("a",), ("b",), ("a",)], ["X", "Y", "X"])]
        index = index_features(seqs, ["X", "Y"], use_transitions=False)
        model = CrfModel(index=index, weights=rng.normal(size=index.n_features))
        node, edge = marginals(model, [("a",), ("b",), ("a",)])
        for t in range(2):
            assert np.allclose(edge[t], np.outer(node[t], node[t + 1]), atol=1e-12)

    def test_zero_weights_decode_uniformly(self):
        index = index_features(TOY_SEQS, ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        obs = [("p",), ("q",), ("p",)]
        assert log_partition(model, obs) == pytest.approx(3 * math.log(2), abs=1e-12)
        labels, score = viterbi(model, obs)
        assert labels == ["A", "A", "A"]
        assert score == 0.0

    def test_viterbi_tie_breaks_at_each_backtrack_step(self):
        # two optimal paths; the documented rule picks the lowest label index
        # at the final position first, then follows the stored backpointers
        index = index_features(TOY_SEQS, ["A", "B"])
        weights = np.zeros(index.n_features)
        weights[index.transition_index(0, 1)] = 1.0  # A -> B
        weights[index.transition_index(1, 0)] = 1.0  # B -> A
        model = CrfModel(index=index, weights=weights)
        labels, score = viterbi(model, [("p",), ("p",)])
        assert labels == ["B", "A"]
        assert score == 1.0

    def test_unseen_values_contribute_zero_score(self):
        index = index_features(TOY_SEQS, ["A", "B"])
        rng = np.random.default_rng(3)
        model = CrfModel(index=index, weights=rng.normal(size=index.n_features))
        known = sequence_score(model, [("p",)], ["A"])
        start = float(model.weights[index.transition_index(index.start_id, 0)])
        emission = float(model.weights[index.emission_index(0, "p", 0)])
        assert known == pytest.approx(start + emission, abs=1e-12)
        assert sequence_score(model, [("oov",)], ["A"]) == pytest.approx(start, abs=1e-12)

    def test_empty_sequence_rejected(self):
        index = index_features(TOY_SEQS, ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        for fn in (log_partition, marginals):
            with pytest.raises(ValueError):
                fn(model, [])
        with pytest.raises(ValueError):
            viterbi(model, [])
        with pytest.raises(ValueError):
            sequence_score(model, [], [])

    def test_column_count_mismatch_rejected(self):
        index = index_features(TOY_SEQS, ["A", "B"])
        model = CrfModel(index=index, weights=np.zeros(index.n_features))
        with pytest.raises(ValueError):
            log_partition(model, [("p", "extra")])


class TestFeatureIndex:
    def test_reference_layout(self):
        index = index_features(TOY_SEQS, ["A", "B"])
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
        index = index_features(TOY_SEQS, ["A", "B"], use_transitions=False)
        assert index.n_features == 4
        assert index.transition_base is None
        assert not index.use_transitions
        assert index.transition_index(0, 1) is None

    def test_label_validation(self):
        with pytest.raises(ValueError):
            index_features(TOY_SEQS, [])
        with pytest.raises(ValueError):
            index_features(TOY_SEQS, ["A", "A"])
        with pytest.raises(ValueError):
            index_features([([("p",)], ["C"])], ["A", "B"])
        with pytest.raises(ValueError):
            index_features([], ["A", "B"])
        with pytest.raises(ValueError):
            index_features([([("p",)], ["A", "B"])], ["A", "B"])

    def test_ragged_observation_rejected(self):
        with pytest.raises(ValueError):
            index_features([([("p",), ("q", "r")], ["A", "B"])], ["A", "B"])


class TestGradient:
    def test_reference_gradient_at_zero(self):
        index = index_features(TOY_SEQS, ["A", "B"])
        obj, grad = objective_and_gradient(
            np.zeros(index.n_features), index, compile_sequences(index, TOY_SEQS), l2=0.0
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
            index = index_features(seqs, ["A", "B", "C"], use_transitions=use_transitions)
            data = compile_sequences(index, seqs)
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
        index = index_features(TOY_SEQS, ["A", "B"])
        data = compile_sequences(index, TOY_SEQS)
        rng = np.random.default_rng(5)
        w = rng.normal(size=index.n_features)
        raw_obj, raw_grad = objective_and_gradient(w, index, data, l2=0.0)
        pen_obj, pen_grad = objective_and_gradient(w, index, data, l2=2.0)
        assert pen_obj == pytest.approx(raw_obj - float(np.dot(w, w)), abs=1e-10)
        assert np.allclose(pen_grad, raw_grad - 2.0 * w, atol=1e-12)

    def test_non_finite_weights_rejected(self):
        index = index_features(TOY_SEQS, ["A", "B"])
        bad = np.full(index.n_features, np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError):
                objective_and_gradient(bad, index, compile_sequences(index, TOY_SEQS), l2=1.0)


# --- the dict-walking kernel that the compiled one replaced, kept as a
# bit-exact reference: same arithmetic, same order of every sum ---


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


def random_training_set(rng, n_labels, n_columns, max_length):
    """Random sequences, a model with weights spread over eight orders of
    magnitude (so a reordered sum shows in the low bits), and a decode
    sequence with unseen values."""
    labels = [f"L{i}" for i in range(n_labels)]
    vocab = [[f"c{c}v{i}" for i in range(int(rng.integers(1, 4)))] for c in range(n_columns)]

    def sample_obs(length):
        return [
            tuple(vocab[c][int(rng.integers(0, len(vocab[c])))] for c in range(n_columns))
            for _ in range(length)
        ]

    lengths = rng.integers(1, max_length + 1, size=int(rng.integers(1, 5)))
    seqs = [
        (obs, [labels[int(rng.integers(0, n_labels))] for _ in obs])
        for obs in (sample_obs(int(n)) for n in lengths)
    ]
    index = index_features(seqs, labels, use_transitions=bool(rng.integers(0, 2)))
    weights = rng.normal(size=index.n_features) * 10.0 ** rng.uniform(-4, 4, index.n_features)
    obs = [
        tuple(v if rng.random() < 0.7 else "unseen" for v in item)
        for item in sample_obs(int(rng.integers(1, max_length + 1)))
    ]
    return seqs, CrfModel(index=index, weights=weights), obs


class TestCompiledKernelIsBitExact:
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

    def test_objective_and_gradient_match_dict_walk(self):
        seen = set()
        for seqs, model, _ in self.cases():
            index = model.index
            seen.add(index.use_transitions)
            for l2 in (0.0, 0.7):
                obj, grad = objective_and_gradient(
                    model.weights, index, compile_sequences(index, seqs), l2
                )
                ref_obj, ref_grad = reference_objective_and_gradient(model.weights, index, seqs, l2)
                assert obj == ref_obj
                assert np.array_equal(grad, ref_grad)
        assert seen == {True, False}

    def test_decoding_matches_dict_walk(self):
        for _, model, obs in self.cases():
            assert viterbi(model, obs) == reference_viterbi(model, obs)
            node = reference_node_scores(model.index, model.weights, obs)
            trans = reference_transitions(model.index, model.weights)
            assert log_partition(model, obs) == float(logsumexp(reference_forward(node, trans)[-1]))

    def test_trained_weights_match_dict_walk_training(self, monkeypatch):
        # train() with the reference kernel swapped in, compiled data ignored
        rng = np.random.default_rng(5)
        for shape in [(3, 6, 5), (1, 9, 2)]:
            seqs, model, _ = random_training_set(rng, *shape)
            labels = model.labels
            compiled = train(seqs, labels, TrainConfig(max_iterations=30), model.use_transitions)
            with monkeypatch.context() as m:
                m.setattr(
                    crf,
                    "objective_and_gradient",
                    lambda w, index, data, l2: reference_objective_and_gradient(w, index, seqs, l2),
                )
                walked = train(seqs, labels, TrainConfig(max_iterations=30), model.use_transitions)
            assert np.array_equal(compiled.weights, walked.weights)


class TestTraining:
    def test_fits_separable_toy(self):
        model = train(TOY_SEQS, ["A", "B"])
        assert viterbi(model, [("p",), ("q",)])[0] == ["A", "B"]
        assert viterbi(model, [("q",), ("p",)])[0] == ["B", "A"]

    def test_deterministic_weights(self):
        cfg = TrainConfig(l2=1.0, max_iterations=100)
        m1 = train(TOY_SEQS, ["A", "B"], cfg)
        m2 = train(TOY_SEQS, ["A", "B"], cfg)
        assert np.array_equal(m1.weights, m2.weights)

    def test_training_improves_objective(self):
        model = train(TOY_SEQS, ["A", "B"], TrainConfig(l2=0.5))
        data = compile_sequences(model.index, TOY_SEQS)
        at_zero, _ = objective_and_gradient(
            np.zeros(model.index.n_features), model.index, data, 0.5
        )
        trained, _ = objective_and_gradient(model.weights, model.index, data, 0.5)
        assert trained > at_zero

    def test_sequence_signal_needs_transitions(self):
        # all observations identical: only the chain can separate the labels
        seqs = [([("x",), ("x",)], ["A", "B"]) for _ in range(4)]
        with_chain = train(seqs, ["A", "B"])
        assert viterbi(with_chain, [("x",), ("x",)])[0] == ["A", "B"]
        without = train(seqs, ["A", "B"], use_transitions=False)
        pred = viterbi(without, [("x",), ("x",)])[0]
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
        train(seqs, ["A", "B", "C"])
        (result,) = results
        assert result.nit > 1
        # the trace of accepted iterates and the optimizer's own first call
        # read the last evaluation instead of repeating it
        assert len(evaluations) <= result.nfev

    def test_non_convergence_is_reported(self, caplog):
        with caplog.at_level(logging.WARNING, logger="scriptmap.crf"):
            stopped = train(TOY_SEQS, ["A", "B"], TrainConfig(max_iterations=1))
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "after 1 iterations" in record.getMessage()
        assert "ITERATIONS REACHED LIMIT" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="scriptmap.crf"):
            converged = train(TOY_SEQS, ["A", "B"])
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
        model = train(TOY_SEQS, ["A", "B"])
        loaded = self.roundtrip(model)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.index == model.index
        obs = [("p",), ("q",), ("oov",)]
        assert viterbi(loaded, obs) == viterbi(model, obs)

    def test_transition_free_round_trip(self):
        model = train(TOY_SEQS, ["A", "B"], use_transitions=False)
        loaded = load_model(save_model(model))
        assert np.array_equal(loaded.weights, model.weights)
        assert not loaded.use_transitions

    def test_corrupt_json_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model("{ not json")

    def test_foreign_payload_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelFormatError):
            load_model(json.dumps([1, 2, 3]))

    def test_wrong_version_rejected(self):
        model = train(TOY_SEQS, ["A", "B"])
        payload = json.loads(save_model(model))
        payload["format_version"] = 999
        with pytest.raises(ModelFormatError):
            load_model(json.dumps(payload))

    def test_weight_count_mismatch_rejected(self):
        model = train(TOY_SEQS, ["A", "B"])
        payload = json.loads(save_model(model))
        payload["weights"] = payload["weights"][:-1]
        with pytest.raises(ModelFormatError):
            load_model(json.dumps(payload))

    def test_missing_key_rejected(self):
        model = train(TOY_SEQS, ["A", "B"])
        payload = json.loads(save_model(model))
        del payload["labels"]
        with pytest.raises(ModelFormatError):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("columns", [2, 10**18])
    def test_column_without_emission_entries_rejected(self, columns):
        # every trained column holds a value, so a larger count is corrupt and
        # must not make the loader build one table per claimed column
        payload = json.loads(save_model(train(TOY_SEQS, ["A", "B"])))
        payload["columns"] = columns
        with pytest.raises(ModelFormatError, match=f"cover 1 of {columns} columns"):
            load_model(json.dumps(payload))
