"""Linear-chain conditional random field over nominal observation columns.

The score of a label sequence y for an observation sequence x is::

    sum_t emission(x_t, y_t)  +  start(y_1) + sum_t transition(y_{t-1}, y_t)

Emission features are indicators over (column, value, label) triples, one per
value seen in training crossed with every label. Transition features cover
every ordered label pair plus a virtual start state; there is no stop state.
Setting use_transitions=False registers no transition features at all, which
reduces the model to independent per-position classification.

All inference runs in log space. Training maximizes the L2-penalized
conditional log-likelihood

    sum_i log p(y_i | x_i) - l2 * ||w||^2 / 2

with a quasi-Newton loop (L-BFGS-B); the gradient is empirical minus expected
feature counts minus l2 * w. Values never seen in training contribute zero
score at decode time. save_model returns a model file's text and load_model
parses it; weights survive the round trip bit-exactly, since each is written
through repr().

Training is compiled once. FeatureIndex keeps one value -> block-id table per
column, so compile_sequences turns every token into a row of C emission-block
ids, one table lookup per cell, and a training set becomes a (N, C) int
matrix; the emission weights are read as a (K+1, L) matrix of K blocks plus
one all-zero row K, which every value unseen in training maps to. Node scores
are then a gather of those rows summed over the columns, and the emission
gradient is one in-order scatter of +1 at the gold label and -marginal at
every label for each (token, column) cell. Decoding compiles its single
sequence the same way. Every sum adds its terms in the order of a plain
per-cell loop (columns left to right, then tokens and sequences in turn, each
cell's count before its marginal), and the log-sum-exp keeps scipy's
arithmetic, so trained weights are reproducible to the bit, not just close;
tests/test_crf.py holds that loop as the bit-exact reference. train evaluates
each point once: the trace of accepted iterates reads the last evaluation.
A stop at the iteration or evaluation limit is logged as a warning.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

logger = logging.getLogger(__name__)

Observation = tuple[str, ...]

MODEL_FORMAT = "scriptmap-crf"
MODEL_FORMAT_VERSION = 1


class NumericError(RuntimeError):
    """Raised when training or inference produces non-finite numbers or the
    optimizer's accepted iterates make the objective worse."""


class ModelFormatError(ValueError):
    """Raised when a model file is truncated, corrupt, or wrongly versioned."""


@dataclass
class TrainConfig:
    """Optimization settings.

    l2 is the coefficient of the ||w||^2 / 2 penalty. max_iterations caps the
    L-BFGS iterations. Training is deterministic, so there is no seed.
    """

    l2: float = 1.0
    max_iterations: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")


@dataclass(frozen=True)
class FeatureIndex:
    """Bijection between feature keys and weight positions 0..n_features-1.

    columns[c] maps each value seen in column c to its emission block; block
    ids count from 0 over all columns in first-appearance order. Block k holds
    the weights k*L .. k*L+L-1, one per label in label order. Transition
    weights, when present, follow the K blocks as a ((L+1) * L)-block in
    row-major order with the virtual start state as row L.
    """

    labels: tuple[str, ...]
    columns: tuple[dict[str, int], ...]
    use_transitions: bool

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def n_blocks(self) -> int:
        """K, the number of (column, value) emission blocks."""
        return sum(map(len, self.columns))

    @property
    def transition_base(self) -> int | None:
        return self.n_blocks * self.n_labels if self.use_transitions else None

    @property
    def n_features(self) -> int:
        return (self.n_blocks + (self.n_labels + 1) * self.use_transitions) * self.n_labels

    @property
    def start_id(self) -> int:
        """Row index of the virtual start state in the transition block."""
        return len(self.labels)

    def label_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in label set {self.labels}") from None

    def emission_index(self, column: int, value: str, label_id: int) -> int | None:
        block = self.columns[column].get(value)
        return None if block is None else block * self.n_labels + label_id

    def transition_index(self, prev_id: int, label_id: int) -> int | None:
        tb = self.transition_base
        return None if tb is None else tb + prev_id * self.n_labels + label_id


def index_features(
    sequences: Sequence[tuple[Sequence[Observation], Sequence[str]]],
    labels: Sequence[str],
    use_transitions: bool = True,
) -> FeatureIndex:
    """Register a block for every observed (column, value) pair."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("empty label set")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in label set {labels}")
    if not sequences:
        raise ValueError("empty training set")
    label_ids = {l: i for i, l in enumerate(labels)}
    columns: tuple[dict[str, int], ...] | None = None
    n_blocks = 0
    for obs, seq_labels in sequences:
        if len(obs) != len(seq_labels):
            raise ValueError(
                f"sequence has {len(obs)} observations but {len(seq_labels)} labels"
            )
        for label in seq_labels:
            if label not in label_ids:
                raise ValueError(f"training label {label!r} missing from label set")
        for item in obs:
            if columns is None:
                columns = tuple({} for _ in item)
            elif len(item) != len(columns):
                raise ValueError(
                    f"observation has {len(item)} columns, expected {len(columns)}"
                )
            for column, v in zip(columns, item):
                if v not in column:
                    column[v] = n_blocks
                    n_blocks += 1
    if columns is None:
        raise ValueError("training set contains no observations")
    return FeatureIndex(labels=labels, columns=columns, use_transitions=use_transitions)


@dataclass
class CrfModel:
    index: FeatureIndex
    weights: np.ndarray

    @property
    def labels(self) -> tuple[str, ...]:
        return self.index.labels

    @property
    def use_transitions(self) -> bool:
        return self.index.use_transitions


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, adding the terms strictly one after another.

    numpy adds whole slices in order when a slice holds more than one number;
    a reduction to one number per step would switch to pairwise summation,
    so that case accumulates instead.
    """
    if terms.size == len(terms) > 0:
        return np.add.accumulate(terms, axis=0)[-1]
    return terms.sum(axis=0)


def _emission_rows(index: FeatureIndex, obs: Sequence[Observation]) -> np.ndarray:
    """(T, C) emission block of every cell; unseen values get the zero row K."""
    unseen = index.n_blocks
    rows = []
    for item in obs:
        if len(item) != index.n_columns:
            raise ValueError(
                f"observation has {len(item)} columns, model expects {index.n_columns}"
            )
        rows.append([column.get(v, unseen) for column, v in zip(index.columns, item)])
    return np.array(rows, dtype=np.intp).reshape(len(obs), index.n_columns)


def _blocks(index: FeatureIndex, weights: np.ndarray) -> np.ndarray:
    """(K+1, L) emission weights, one row per (column, value) pair, then a zero row."""
    L = index.n_labels
    K = index.n_blocks
    blocks = np.zeros((K + 1, L))
    blocks[:K] = weights[: K * L].reshape(K, L)
    return blocks


def _node_scores(blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(T, L) emission scores: the rows of every token summed in column order."""
    return _ordered_sum(np.take(blocks, rows.T, axis=0))


def _transition_matrix(index: FeatureIndex, weights: np.ndarray) -> np.ndarray:
    """(L+1, L) score matrix; row L holds start scores. Zero when disabled."""
    L = index.n_labels
    tb = index.transition_base
    if tb is None:
        return np.zeros((L + 1, L))
    return weights[tb : tb + (L + 1) * L].reshape(L + 1, L)


def _logsumexp(a: np.ndarray, axis: int):
    """log(sum(exp(a))) along axis, with the largest terms split out.

    With m terms equal to the maximum a_max and r the sum of exp(a - a_max)
    over the rest, the result is log1p(r / m) + log(m) + a_max. This is the
    arithmetic of scipy.special.logsumexp (scipy 1.17) for finite input,
    without its per-call overhead, so partition values and trained weights are
    the same to the bit; non-finite input yields a non-finite result.
    """
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    shifted = a - a_max
    shifted[top] = -np.inf
    rest = np.exp(shifted).sum(axis=axis, keepdims=True)
    m = top.sum(axis=axis, keepdims=True, dtype=np.float64)
    rest = np.where(rest == 0, rest, rest / m)
    return np.squeeze(np.log1p(rest) + np.log(m) + a_max, axis=axis)[()]


def _forward(node: np.ndarray, trans: np.ndarray) -> np.ndarray:
    T, L = node.shape
    alpha = np.empty((T, L))
    alpha[0] = trans[L] + node[0]
    for t in range(1, T):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans[:L], axis=0) + node[t]
    return alpha


def _backward(node: np.ndarray, trans: np.ndarray) -> np.ndarray:
    T, L = node.shape
    beta = np.zeros((T, L))
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(trans[:L] + (node[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def _edge_terms(
    alpha: np.ndarray, beta: np.ndarray, node: np.ndarray, trans: np.ndarray, log_z: float
) -> np.ndarray:
    """(T-1, L, L) log edge marginals: cell (t, i, j) is log p(y_t = i, y_{t+1} = j)."""
    L = node.shape[1]
    return alpha[:-1, :, None] + trans[:L] + (node[1:] + beta[1:])[:, None, :] - log_z


def _require_nonempty(obs: Sequence[Observation]):
    if len(obs) == 0:
        raise ValueError("empty observation sequence")


def _decode_tables(model: CrfModel, obs: Sequence[Observation]) -> tuple[np.ndarray, np.ndarray]:
    """Node scores (T, L) and transition matrix (L+1, L) of one sequence."""
    _require_nonempty(obs)
    index = model.index
    node = _node_scores(_blocks(index, model.weights), _emission_rows(index, obs))
    return node, _transition_matrix(index, model.weights)


def sequence_score(model: CrfModel, obs: Sequence[Observation], labels: Sequence[str]) -> float:
    """Unnormalized log score of one labeling."""
    _require_nonempty(obs)
    if len(obs) != len(labels):
        raise ValueError("observation/label length mismatch")
    y = [model.index.label_id(l) for l in labels]
    node, trans = _decode_tables(model, obs)
    L = model.index.n_labels
    score = trans[L, y[0]] + node[0, y[0]]
    for t in range(1, len(obs)):
        score += trans[y[t - 1], y[t]] + node[t, y[t]]
    return float(score)


def log_partition(model: CrfModel, obs: Sequence[Observation]) -> float:
    """log of the summed exponentiated scores over all label sequences."""
    node, trans = _decode_tables(model, obs)
    value = float(_logsumexp(_forward(node, trans)[-1], axis=0))
    if not np.isfinite(value):
        raise NumericError(f"non-finite log partition: {value}")
    return value


def marginals(model: CrfModel, obs: Sequence[Observation]) -> tuple[np.ndarray, np.ndarray]:
    """Per-position label marginals (T, L) and edge marginals (T-1, L, L).

    Node rows sum to 1; edge cell (t, i, j) is p(y_t = i, y_{t+1} = j | x).
    """
    node, trans = _decode_tables(model, obs)
    alpha = _forward(node, trans)
    beta = _backward(node, trans)
    log_z = _logsumexp(alpha[-1], axis=0)
    node_marg = np.exp(alpha + beta - log_z)
    edge_marg = np.exp(_edge_terms(alpha, beta, node, trans, log_z))
    if not (np.all(np.isfinite(node_marg)) and np.all(np.isfinite(edge_marg))):
        raise NumericError("non-finite marginals")
    return node_marg, edge_marg


@dataclass(frozen=True)
class CompiledSequences:
    """Training sequences in the integer form objective_and_gradient reads.

    Tokens of all sequences are stacked in order; sequence i spans tokens
    bounds[i]:bounds[i+1]. scatter holds, for every (token, column) cell, the
    flat position in the (K+1, L) gradient buffer of its gold-label count
    followed by the L positions of its expected counts.
    """

    rows: np.ndarray  # (N, C) emission-block rows
    labels: np.ndarray  # (N,) gold label ids
    previous: np.ndarray  # (N,) label id before each token; L (start) at sequence starts
    bounds: tuple[int, ...]
    scatter: np.ndarray  # (N, C, L+1)


def compile_sequences(
    index: FeatureIndex,
    sequences: Sequence[tuple[Sequence[Observation], Sequence[str]]],
) -> CompiledSequences:
    """Turn labeled sequences into emission-block rows and label ids, once."""
    L = index.n_labels
    rows, labels, previous, bounds = [], [], [], [0]
    for obs, seq_labels in sequences:
        _require_nonempty(obs)
        if len(obs) != len(seq_labels):
            raise ValueError("observation/label length mismatch")
        y = [index.label_id(l) for l in seq_labels]
        rows.append(_emission_rows(index, obs))
        labels.extend(y)
        previous.extend([L, *y[:-1]])
        bounds.append(bounds[-1] + len(obs))
    rows = np.concatenate(rows) if rows else np.zeros((0, index.n_columns), dtype=np.intp)
    labels = np.array(labels, dtype=np.intp)
    scatter = np.empty(rows.shape + (L + 1,), dtype=np.intp)
    scatter[:, :, 0] = labels[:, None]
    scatter[:, :, 1:] = np.arange(L)
    scatter += rows[:, :, None] * L
    return CompiledSequences(
        rows=rows,
        labels=labels,
        previous=np.array(previous, dtype=np.intp),
        bounds=tuple(bounds),
        scatter=scatter,
    )


def objective_and_gradient(
    weights: np.ndarray,
    index: FeatureIndex,
    data: CompiledSequences,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Penalized log-likelihood and its gradient (both for maximization)."""
    L = index.n_labels
    K = index.n_blocks
    trans = _transition_matrix(index, weights)
    node = _node_scores(_blocks(index, weights), data.rows)
    y = data.labels
    steps = trans[data.previous, y] + node[np.arange(len(y)), y]
    node_marg = np.empty_like(node)
    objective = 0.0
    grad = np.zeros_like(weights)
    tb = index.transition_base
    for s, e in zip(data.bounds[:-1], data.bounds[1:]):
        alpha = _forward(node[s:e], trans)
        beta = _backward(node[s:e], trans)
        log_z = _logsumexp(alpha[-1], axis=0)
        node_marg[s:e] = np.exp(alpha + beta - log_z)
        objective += _ordered_sum(steps[s:e]) - log_z
        if tb is not None:
            start_off = tb + L * L
            grad[start_off + y[s]] += 1.0
            grad[start_off : start_off + L] -= node_marg[s]
            np.add.at(grad, tb + y[s : e - 1] * L + y[s + 1 : e], 1.0)
            if e - s > 1:
                expected = _ordered_sum(np.exp(_edge_terms(alpha, beta, node[s:e], trans, log_z)))
                grad[tb : tb + L * L] -= expected.reshape(-1)
    # per cell, +1 at the gold label then -marginal at every label; bincount
    # adds in array order, so each weight sees its terms in per-cell loop order
    cells = np.empty(data.scatter.shape)
    cells[:, :, 0] = 1.0
    np.negative(node_marg[:, None, :], out=cells[:, :, 1:])
    counts = np.bincount(data.scatter.ravel(), cells.ravel(), minlength=(K + 1) * L)
    grad[: K * L] = counts[: K * L]
    objective -= 0.5 * l2 * float(np.dot(weights, weights))
    grad -= l2 * weights
    if not np.isfinite(objective) or not np.all(np.isfinite(grad)):
        raise NumericError("non-finite objective or gradient")
    return float(objective), grad


def _check_monotone(trace: Sequence[float]):
    """Accepted iterates must not make the (maximized) objective worse."""
    for i in range(1, len(trace)):
        slack = 1e-9 * max(1.0, abs(trace[i - 1]))
        if trace[i] < trace[i - 1] - slack:
            raise NumericError(
                "training objective decreased across accepted iterations: "
                + ", ".join(f"{v:.10g}" for v in trace)
            )


def train(
    sequences: Sequence[tuple[Sequence[Observation], Sequence[str]]],
    labels: Sequence[str],
    cfg: TrainConfig | None = None,
    use_transitions: bool = True,
) -> CrfModel:
    """Fit weights by maximizing the penalized conditional log-likelihood.

    Deterministic: the same data and config produce bit-identical weights.
    Raises NumericError if the objective turns non-finite or an accepted
    iterate makes it worse.
    """
    cfg = cfg or TrainConfig()
    index = index_features(sequences, labels, use_transitions)
    data = compile_sequences(index, sequences)
    trace: list[float] = []
    last_w, last_value = None, None  # last point evaluated, its negated (objective, gradient)

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal last_w, last_value
        if last_w is None or not np.array_equal(w, last_w):
            obj, grad = objective_and_gradient(w, index, data, cfg.l2)
            last_w, last_value = w.copy(), (-obj, -grad)
        return last_value

    def record(w: np.ndarray):
        # L-BFGS-B evaluated the accepted iterate last, so this reads the cache
        trace.append(-negated(w)[0])

    w0 = np.zeros(index.n_features)
    record(w0)
    result = minimize(
        negated,
        w0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={
            "maxiter": cfg.max_iterations,
            "ftol": 1e-6,  # relative objective change at convergence
            "gtol": 1e-7,
        },
    )
    if result.status == 1:
        logger.warning(
            "CRF training stopped before convergence after %d iterations"
            " and %d objective evaluations: %s",
            result.nit,
            result.nfev,
            result.message,
        )
    _check_monotone(trace)
    weights = np.asarray(result.x, dtype=np.float64)
    if not np.all(np.isfinite(weights)):
        raise NumericError("non-finite weights after optimization")
    logger.info(
        "trained CRF: %d features, %d labels, %d iterations, objective %.6f",
        index.n_features,
        index.n_labels,
        result.nit,
        -result.fun,
    )
    return CrfModel(index=index, weights=weights)


def viterbi(model: CrfModel, obs: Sequence[Observation]) -> tuple[list[str], float]:
    """Highest-scoring labeling and its score.

    Ties break toward the lowest label index at every backtrack decision, so
    an all-zero model labels every position with the first label.
    """
    node, trans = _decode_tables(model, obs)
    T, L = node.shape
    delta = np.empty((T, L))
    psi = np.zeros((T, L), dtype=np.int64)
    delta[0] = trans[L] + node[0]
    for t in range(1, T):
        candidates = delta[t - 1][:, None] + trans[:L]
        psi[t] = np.argmax(candidates, axis=0)
        delta[t] = candidates[psi[t], np.arange(L)] + node[t]
    best_last = int(np.argmax(delta[T - 1]))
    path = [best_last]
    for t in range(T - 1, 0, -1):
        path.append(int(psi[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path], float(delta[T - 1, best_last])


def save_model(model: CrfModel) -> str:
    """The model as the text of a versioned JSON file, weights as decimal strings."""
    index = model.index
    L = index.n_labels
    blocks = [(c, v, k) for c, column in enumerate(index.columns) for v, k in column.items()]
    emissions = [[c, v, k * L] for c, v, k in sorted(blocks, key=lambda e: e[2])]
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "labels": list(index.labels),
        "columns": index.n_columns,
        "use_transitions": index.use_transitions,
        "emissions": emissions,
        "transition_base": index.transition_base,
        "weights": [repr(float(w)) for w in model.weights],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_label_list(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(isinstance(label, str) for label in value)
        and len(set(value)) == len(value)
    )


def _is_emission(entry) -> bool:
    """A saved [column, value, base] triple."""
    return (
        isinstance(entry, list)
        and len(entry) == 3
        and _is_count(entry[0])
        and isinstance(entry[1], str)
        and _is_count(entry[2])
    )


def _field(payload: dict, key: str, valid, expected: str):
    """payload[key] if `valid` accepts it; ModelFormatError otherwise."""
    if key not in payload:
        raise ModelFormatError(f"corrupt model file: no {key!r} entry")
    value = payload[key]
    if not valid(value):
        raise ModelFormatError(f"corrupt model file: {key!r} must be {expected}, got {value!r:.60}")
    return value


def load_model(text: str) -> CrfModel:
    """Inverse of save_model; weight round-trips are bit-exact."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ModelFormatError(f"corrupt model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a scriptmap CRF model file")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    labels = tuple(
        _field(payload, "labels", _is_label_list, "a non-empty list of distinct strings")
    )
    n_columns = _field(payload, "columns", _is_count, "a non-negative integer")
    use_transitions = _field(payload, "use_transitions", lambda v: isinstance(v, bool), "a boolean")
    emissions = _field(
        payload,
        "emissions",
        lambda v: isinstance(v, list) and all(map(_is_emission, v)),
        "a list of [column, value, base] entries",
    )
    transition_base = _field(
        payload, "transition_base", lambda v: v is None or _is_count(v), "an integer or null"
    )
    raw_weights = _field(payload, "weights", lambda v: isinstance(v, list), "a list")
    try:
        weights = np.array([float(w) for w in raw_weights], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model file: weight {exc}") from None
    L = len(labels)
    if not np.all(np.isfinite(weights)):
        raise ModelFormatError("non-finite weight")
    tables: dict[int, dict[str, int]] = {}
    for c, v, base in emissions:
        if not (0 <= c < n_columns):
            raise ModelFormatError(f"emission column {c} out of range")
        column = tables.setdefault(c, {})
        if v in column:
            raise ModelFormatError(f"duplicate emission entry for column {c}, value {v!r}")
        column[v] = base // L
    if {base for _, _, base in emissions} != set(range(0, L * len(emissions), L)):
        raise ModelFormatError("emission blocks are not contiguous")
    if len(tables) != n_columns:
        # every trained column holds a value; this also bounds the tables built
        raise ModelFormatError(f"emission entries cover {len(tables)} of {n_columns} columns")
    index = FeatureIndex(labels, tuple(tables[c] for c in range(n_columns)), use_transitions)
    if use_transitions:
        if transition_base != index.transition_base:
            raise ModelFormatError("transition block does not follow emission blocks")
    elif transition_base is not None:
        raise ModelFormatError("transition_base set on a transition-free model")
    if len(weights) != index.n_features:
        raise ModelFormatError(
            f"weight count {len(weights)} does not match feature count {index.n_features}"
        )
    return CrfModel(index=index, weights=weights)
