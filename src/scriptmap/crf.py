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
score at decode time.

A model also holds the binning (the threshold epsilon) that made its vector
columns, since it only fits observations binned the same way;
features.fit_crf records it, and decoding reads it from the model.
save_model returns a model file's text and load_model parses it. The file
(format version 2) holds the labels, epsilon, the emission blocks as
[column, value] pairs in block order, and the weights; the weight offsets of
the blocks and of the transitions follow from those. Weights survive the
round trip bit-exactly, since each is written through repr().

Training reads coded columns (CodedSequences), cells that index one
vocabulary of value strings. index_features blocks each (column, value) pair
in order of first appearance, row by row, and compile_sequences turns every
token into a row of C emission-block ids, each distinct pair looked up once;
the emission weights are read as a (K+1, L) matrix of K blocks plus one
all-zero row K, which every value unseen in training maps to. A compiled
training set holds three things:

- Its distinct rows. Node scores are a gather of block rows summed over the
  columns, once per distinct row, then indexed back: a row's sum does not
  depend on the other rows.
- An (S, T) grid of those scores, the sequences sorted by length, longest
  first. The forward-backward recursion runs each position once, over the
  sequences still active there, as one (n, L, L) log-sum-exp; log Z of all
  sequences comes from one call and the node marginals from one exp over the
  filled cells. Cells past a sequence's end stay zero and never reach exp.
  Each sequence's slice of a step reduces in the order its own (L, L) step
  would: forward over a leading axis, strictly in turn; backward over the
  last axis, pairwise. Without transitions every column of a step holds the
  same numbers, so one column is computed: forward sums it with
  np.add.accumulate, that same in-turn order, and backward reduces it as the
  full step reduces each row.
- An (N, C, L+1) scatter: the emission gradient is one in-order bincount of
  +1 at the gold label and -marginal at every label for each (token, column)
  cell.

The objective and the start-state and expected-transition counts are added per
sequence, in sequence order. Decoding reads the same (T, C) rows: viterbi and
the other one-sequence functions take rows the caller built already, such as
features.story_decode_sequence does through CrfModel.block_table, or string
observations, which only decoding takes; log_partition and marginals run the
batched recursion on one sequence. A model derives its (K+1, L) emission
matrix and each such value table once, at its first decode. Every sum adds
its terms in the order of a plain per-cell loop (columns left to right, then
tokens and sequences in turn, each cell's count before its marginal), and
the log-sum-exp keeps scipy's arithmetic, so trained weights are
reproducible to the bit, not just close; tests/test_crf.py holds that loop
as the bit-exact reference. train evaluates each point once and checks the
objective at the start and at each accepted iterate, as L-BFGS-B reports it
to the callback. A stop at the iteration or evaluation limit is logged as a
warning.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .embeddings import DiscretizationConfig

logger = logging.getLogger(__name__)

Observation = tuple[str, ...]
# A sequence to decode: string observations, or their (T, C) emission-block rows
Observations = Sequence[Observation] | np.ndarray

MODEL_FORMAT = "scriptmap-crf"
MODEL_FORMAT_VERSION = 2


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


@dataclass(frozen=True)
class CodedSequences:
    """Labeled training sequences as coded columns: the tokens of all
    sequences stacked in order, sequence i holding the next lengths[i].
    Cell (n, c) codes token n's value in column c as an index into `values`,
    which holds each value string once, so one value has one code in every
    column; labels[n] is token n's gold label."""

    values: tuple[str, ...]
    cells: np.ndarray  # (N, C) integer codes
    lengths: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.values)) != len(self.values):
            raise ValueError("a value string holds two codes")
        cells, codes = self.cells, range(len(self.values))
        if cells.ndim != 2 or cells.dtype.kind not in "iu" or not np.isin(cells, codes).all():
            raise ValueError("cells must be a matrix of codes of the values")
        if not (len(cells) == len(self.labels) == sum(self.lengths)):
            raise ValueError("observation/label length mismatch")

    def pairs(self) -> np.ndarray:
        """Every cell's (column, value) pair as the one integer c * V + code,
        V being the number of values, in row-major order."""
        return (self.cells + len(self.values) * np.arange(self.cells.shape[1])).ravel()


def index_features(
    sequences: CodedSequences,
    labels: Sequence[str],
    use_transitions: bool = True,
) -> FeatureIndex:
    """Register a block for every observed (column, value) pair, in order of
    its first appearance, reading the cells row by row."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("empty label set")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in label set {labels}")
    if not sequences.lengths:
        raise ValueError("empty training set")
    for label in dict.fromkeys(sequences.labels):
        if label not in labels:
            raise ValueError(f"training label {label!r} missing from label set")
    if not len(sequences.cells):
        raise ValueError("training set contains no observations")
    pairs, first = np.unique(sequences.pairs(), return_index=True)
    columns: tuple[dict[str, int], ...] = tuple({} for _ in range(sequences.cells.shape[1]))
    for block, pair in enumerate(pairs[np.argsort(first)].tolist()):
        column, code = divmod(pair, len(sequences.values))
        columns[column][sequences.values[code]] = block
    return FeatureIndex(labels=labels, columns=columns, use_transitions=use_transitions)


@dataclass
class CrfModel:
    """Weights over a feature index, and the binning of the vector columns of
    the observations it fits. train leaves the default binning;
    features.fit_crf records the one its sequences were made with. The index
    and weights do not change once a model is made, so the tables decoding
    derives from them are kept; the binning may change."""

    index: FeatureIndex
    weights: np.ndarray
    disc: DiscretizationConfig = DiscretizationConfig()
    _value_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.index.labels

    @property
    def use_transitions(self) -> bool:
        return self.index.use_transitions

    @cached_property
    def _emission_blocks(self) -> np.ndarray:
        return _blocks(self.index, self.weights)

    def block_table(self, values: tuple[str, ...]) -> np.ndarray:
        """(C, V) emission block of each of `values` in each column, the zero
        row K where the column never saw the value in training. Derived once
        per model and `values`."""
        table = self._value_tables.get(values)
        if table is None:
            unseen = self.index.n_blocks
            table = np.array(
                [[column.get(v, unseen) for v in values] for column in self.index.columns],
                dtype=np.intp,
            ).reshape(self.index.n_columns, len(values))
            self._value_tables[values] = table
        return table


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


def _logsumexp(a: np.ndarray, axis: int, ordered: bool = False):
    """log(sum(exp(a))) along axis, with the largest terms split out.

    With m terms equal to the maximum a_max and r the sum of exp(a - a_max)
    over the rest, the result is log1p(r / m) + log(m) + a_max. This is the
    arithmetic of scipy.special.logsumexp (scipy 1.17) for finite input,
    without its per-call overhead, so partition values and trained weights are
    the same to the bit; non-finite input yields a non-finite result. r is
    summed as numpy reduces `axis`, or strictly left to right if `ordered`,
    as numpy reduces a leading axis.
    """
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    shifted = a - a_max
    shifted[top] = -np.inf
    exps = np.exp(shifted)
    if ordered:
        rest = np.add.accumulate(exps, axis=axis).take([-1], axis=axis)
    else:
        rest = exps.sum(axis=axis, keepdims=True)
    m = top.sum(axis=axis, keepdims=True, dtype=np.float64)
    rest /= m
    return np.squeeze(np.log1p(rest) + np.log(m) + a_max, axis=axis)[()]


def _forward_backward(
    node: np.ndarray, trans: np.ndarray | None, active: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward and backward log scores (S, T, L) and log Z (S,) of a batch.

    node holds the (T, L) node scores of S sequences, longest first; active[t]
    counts the sequences longer than t, and active[T] is 0. Each position is
    computed once, for the sequences still active there; cells past a
    sequence's end stay zero. trans is the (L+1, L) transition matrix, or None
    for a model without transitions: then every column of a step's (L, L)
    terms is the same, so one column is computed, summed in the order the
    full step sums it.
    """
    S, T, L = node.shape
    alpha = np.zeros((S, T, L))
    beta = np.zeros((S, T, L))
    last = np.empty((S, L))  # alpha at each sequence's final position
    alpha[:, 0] = node[:, 0] if trans is None else trans[L] + node[:, 0]
    for t in range(T):
        n = active[t]
        if t:
            previous = alpha[:n, t - 1]
            if trans is None:
                alpha[:n, t] = _logsumexp(previous, axis=1, ordered=True)[:, None] + node[:n, t]
            else:
                alpha[:n, t] = _logsumexp(previous[:, :, None] + trans[:L], axis=1) + node[:n, t]
        # the sequences of length t + 1 end here
        last[active[t + 1] : n] = alpha[active[t + 1] : n, t]
    for t in range(T - 2, -1, -1):
        n = active[t + 1]
        following = node[:n, t + 1] + beta[:n, t + 1]
        if trans is None:
            beta[:n, t] = _logsumexp(following, axis=1)[:, None]
        else:
            beta[:n, t] = _logsumexp(trans[:L] + following[:, None, :], axis=2)
    return alpha, beta, _logsumexp(last, axis=1)


def _edge_terms(
    alpha: np.ndarray, beta: np.ndarray, node: np.ndarray, trans: np.ndarray, log_z: float
) -> np.ndarray:
    """(T-1, L, L) log edge marginals: cell (t, i, j) is log p(y_t = i, y_{t+1} = j)."""
    L = node.shape[1]
    return alpha[:-1, :, None] + trans[:L] + (node[1:] + beta[1:])[:, None, :] - log_z


def _require_nonempty(obs: Observations):
    if len(obs) == 0:
        raise ValueError("empty observation sequence")


def _decode_tables(model: CrfModel, obs: Observations) -> tuple[np.ndarray, np.ndarray]:
    """Node scores (T, L) and transition matrix (L+1, L) of one sequence."""
    _require_nonempty(obs)
    index = model.index
    if isinstance(obs, np.ndarray):
        if obs.ndim != 2 or obs.shape[1] != index.n_columns:
            raise ValueError(f"rows of shape {obs.shape}, model expects {index.n_columns} columns")
        rows = obs
    else:
        rows = _emission_rows(index, obs)
    node = _node_scores(model._emission_blocks, rows)
    return node, _transition_matrix(index, model.weights)


def _one_sequence(model: CrfModel, obs: Observations):
    """Node scores, transition matrix, alpha, beta and log Z of one sequence."""
    node, trans = _decode_tables(model, obs)
    chain = trans if model.use_transitions else None
    alpha, beta, log_z = _forward_backward(node[None], chain, (1,) * len(node) + (0,))
    return node, trans, alpha[0], beta[0], log_z[0]


def sequence_score(model: CrfModel, obs: Observations, labels: Sequence[str]) -> float:
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


def log_partition(model: CrfModel, obs: Observations) -> float:
    """log of the summed exponentiated scores over all label sequences."""
    value = float(_one_sequence(model, obs)[4])
    if not np.isfinite(value):
        raise NumericError(f"non-finite log partition: {value}")
    return value


def marginals(model: CrfModel, obs: Observations) -> tuple[np.ndarray, np.ndarray]:
    """Per-position label marginals (T, L) and edge marginals (T-1, L, L).

    Node rows sum to 1; edge cell (t, i, j) is p(y_t = i, y_{t+1} = j | x).
    """
    node, trans, alpha, beta, log_z = _one_sequence(model, obs)
    node_marg = np.exp(alpha + beta - log_z)
    edge_marg = np.exp(_edge_terms(alpha, beta, node, trans, log_z))
    if not (np.all(np.isfinite(node_marg)) and np.all(np.isfinite(edge_marg))):
        raise NumericError("non-finite marginals")
    return node_marg, edge_marg


@dataclass(frozen=True)
class CompiledSequences:
    """Training sequences in the integer form objective_and_gradient reads.

    Tokens of all sequences are stacked in order; sequence i spans tokens
    bounds[i]:bounds[i+1]. Node scores are gathered for the distinct emission
    rows only, then laid out on an (S, T) grid that holds the sequences
    sorted by length, longest first (stable): grid row place[i] holds
    sequence i, active[t] counts the sequences longer than t, and token n
    sits in the flat grid cell cell[n]. Padding cells read the last distinct
    row, which is all unseen values and so scores zero. scatter holds, for
    every (token, column) cell, the flat position in the (K+1, L) gradient
    buffer of its gold-label count followed by the L positions of its
    expected counts.
    """

    distinct: np.ndarray  # (U+1, C) distinct emission-block rows, then the padding row
    grid: np.ndarray  # (S, T) distinct row of every grid cell
    active: tuple[int, ...]  # (T+1,)
    place: tuple[int, ...]  # (S,)
    cell: np.ndarray  # (N,)
    labels: np.ndarray  # (N,) gold label ids
    previous: np.ndarray  # (N,) label id before each token; L (start) at sequence starts
    bounds: tuple[int, ...]
    scatter: np.ndarray  # (N, C, L+1)


def compile_sequences(index: FeatureIndex, sequences: CodedSequences) -> CompiledSequences:
    """Turn coded sequences into emission-block rows and label ids, once."""
    if not sequences.lengths:
        raise ValueError("empty training set")
    if 0 in sequences.lengths:
        raise ValueError("empty observation sequence")
    if sequences.cells.shape[1] != index.n_columns:
        raise ValueError(
            f"observation has {sequences.cells.shape[1]} columns, expected {index.n_columns}"
        )
    L = index.n_labels
    label_ids = {l: index.label_id(l) for l in dict.fromkeys(sequences.labels)}
    labels = np.array([label_ids[l] for l in sequences.labels], dtype=np.intp)
    lengths = np.array(sequences.lengths)
    bounds = (0, *np.cumsum(lengths).tolist())
    previous = np.empty_like(labels)
    previous[1:] = labels[:-1]
    previous[list(bounds[:-1])] = L
    # the block of each distinct (column, value) pair, gathered for every cell
    pairs, pair_of_cell = np.unique(sequences.pairs(), return_inverse=True)
    unseen, V = index.n_blocks, len(sequences.values)
    blocks = [index.columns[c].get(sequences.values[v], unseen)
              for c, v in (divmod(pair, V) for pair in pairs.tolist())]
    rows = np.array(blocks, dtype=np.intp)[pair_of_cell].reshape(sequences.cells.shape)
    S, T = len(lengths), int(lengths.max())
    place = np.empty(S, dtype=np.intp)
    place[np.argsort(-lengths, kind="stable")] = np.arange(S)
    cell = np.repeat(place * T - bounds[:-1], lengths) + np.arange(len(rows))
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    padding = np.full((1, index.n_columns), index.n_blocks, dtype=np.intp)
    grid = np.full(S * T, len(distinct), dtype=np.intp)
    grid[cell] = inverse
    scatter = np.empty(rows.shape + (L + 1,), dtype=np.intp)
    scatter[:, :, 0] = labels[:, None]
    scatter[:, :, 1:] = np.arange(L)
    scatter += rows[:, :, None] * L
    return CompiledSequences(
        distinct=np.concatenate([distinct, padding]),
        grid=grid.reshape(S, T),
        active=tuple(int((lengths > t).sum()) for t in range(T)) + (0,),
        place=tuple(place.tolist()),
        cell=cell,
        labels=labels,
        previous=previous,
        bounds=bounds,
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
    node = _node_scores(_blocks(index, weights), data.distinct)[data.grid]
    T = node.shape[1]
    y = data.labels
    filled = data.cell
    steps = trans[data.previous, y] + node.reshape(-1, L)[filled, y]
    alpha, beta, log_z = _forward_backward(
        node, trans if index.use_transitions else None, data.active
    )
    node_marg = np.exp(
        alpha.reshape(-1, L)[filled] + beta.reshape(-1, L)[filled] - log_z[filled // T, None]
    )
    objective = 0.0
    grad = np.zeros_like(weights)
    tb = index.transition_base
    for s, e, p in zip(data.bounds[:-1], data.bounds[1:], data.place):
        objective += _ordered_sum(steps[s:e]) - log_z[p]
        if tb is not None:
            start_off = tb + L * L
            grad[start_off + y[s]] += 1.0
            grad[start_off : start_off + L] -= node_marg[s]
            np.add.at(grad, tb + y[s : e - 1] * L + y[s + 1 : e], 1.0)
            if e - s > 1:
                edges = _edge_terms(
                    alpha[p, : e - s], beta[p, : e - s], node[p, : e - s], trans, log_z[p]
                )
                grad[tb : tb + L * L] -= _ordered_sum(np.exp(edges)).reshape(-1)
    # per cell, +1 at the gold label then -marginal at every label; bincount
    # adds in array order, so each weight sees its terms in per-cell loop order
    terms = np.empty((len(y), L + 1))
    terms[:, 0] = 1.0
    np.negative(node_marg, out=terms[:, 1:])
    cells = np.broadcast_to(terms[:, None, :], data.scatter.shape).ravel()
    counts = np.bincount(data.scatter.ravel(), cells, minlength=(K + 1) * L)
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
    sequences: CodedSequences,
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
    trace: list[float] = []  # the objective at the start, then at each accepted iterate

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        obj, grad = objective_and_gradient(w, index, data, cfg.l2)
        if not trace:  # L-BFGS-B evaluates its starting point first
            trace.append(obj)
        return -obj, -grad

    def record(intermediate_result):  # scipy passes the iterate's result to this name
        trace.append(-intermediate_result.fun)

    result = minimize(
        negated,
        np.zeros(index.n_features),
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


def viterbi(model: CrfModel, obs: Observations) -> tuple[list[str], float]:
    """Highest-scoring labeling and its score, of string observations or
    their (T, C) emission-block rows.

    Ties break toward the lowest label index at every backtrack decision, so
    an all-zero model labels every position with the first label.
    """
    node, trans = _decode_tables(model, obs)
    T, L = node.shape
    delta = np.empty((T, L))
    psi = np.zeros((T, L), dtype=np.int64)
    delta[0] = trans[L] + node[0]
    steps, columns = trans[:L], np.arange(L)
    for t in range(1, T):
        candidates = delta[t - 1][:, None] + steps
        psi[t] = best = candidates.argmax(axis=0)
        delta[t] = candidates[best, columns] + node[t]
    best_last = int(np.argmax(delta[T - 1]))
    path = [best_last]
    for t in range(T - 1, 0, -1):
        path.append(int(psi[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path], float(delta[T - 1, best_last])


def save_model(model: CrfModel) -> str:
    """The model as the text of a versioned JSON file, weights as decimal strings."""
    index = model.index
    blocks = [(k, c, v) for c, column in enumerate(index.columns) for v, k in column.items()]
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "labels": list(index.labels),
        "columns": index.n_columns,
        "use_transitions": index.use_transitions,
        "epsilon": model.disc.epsilon,
        "emissions": [[c, v] for _, c, v in sorted(blocks)],
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
    """A saved [column, value] pair."""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and _is_count(entry[0])
        and isinstance(entry[1], str)
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
    epsilon = _field(payload, "epsilon", lambda v: type(v) is float, "a decimal number")
    emissions = _field(
        payload,
        "emissions",
        lambda v: isinstance(v, list) and all(map(_is_emission, v)),
        "a list of [column, value] pairs",
    )
    raw_weights = _field(payload, "weights", lambda v: isinstance(v, list), "a list")
    try:
        weights = np.array([float(w) for w in raw_weights], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model file: weight {exc}") from None
    if not np.all(np.isfinite(weights)):
        raise ModelFormatError("non-finite weight")
    try:
        disc = DiscretizationConfig(epsilon)
    except ValueError as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from None
    tables: dict[int, dict[str, int]] = {}
    for block, (c, v) in enumerate(emissions):
        if not (0 <= c < n_columns):
            raise ModelFormatError(f"emission column {c} out of range")
        column = tables.setdefault(c, {})
        if v in column:
            raise ModelFormatError(f"duplicate emission entry for column {c}, value {v!r}")
        column[v] = block
    if len(tables) != n_columns:
        # every trained column holds a value; this also bounds the tables built
        raise ModelFormatError(f"emission entries cover {len(tables)} of {n_columns} columns")
    index = FeatureIndex(labels, tuple(tables[c] for c in range(n_columns)), use_transitions)
    if len(weights) != index.n_features:
        raise ModelFormatError(
            f"weight count {len(weights)} does not match feature count {index.n_features}"
        )
    return CrfModel(index=index, weights=weights, disc=disc)
