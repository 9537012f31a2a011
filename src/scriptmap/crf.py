"""Linear-chain conditional random field over nominal observation columns.

The score of a label sequence y for an observation sequence x is::

    sum_t emission(x_t, y_t)  +  start(y_1) + sum_t transition(y_{t-1}, y_t)

Emission features are indicators over (column, value, label) triples, one per
value seen in training crossed with every label. Transition features cover
every ordered label pair plus a virtual start state; there is no stop state.
Setting use_transitions=False registers no transition features at all, which
reduces the model to independent per-position classification.

Training maximizes the L2-penalized conditional log-likelihood

    sum_i log p(y_i | x_i) - l2 * ||w||^2 / 2

with a quasi-Newton loop (L-BFGS-B); the gradient is empirical minus expected
feature counts minus l2 * w. Values never seen in training contribute zero
score at decode time.

A model also holds the binning (the threshold epsilon) that made its vector
columns, since it only fits observations binned the same way;
features.fit_crf records it, and decoding reads it from the model.
save_model returns a model file's text and load_model parses it. The file
(format version 3) holds the labels, epsilon, the emission blocks as
[column, value] pairs in block order, the weights and how train fitted them
(a TrainingRecord); the weight offsets of the blocks and of the transitions
follow from those. The weights are one string, the base64 encoding of their
little-endian IEEE-754 float64 bytes in feature order, so they survive the
round trip bit-exactly and load in one decode, with no decimal parse.

Training reads coded columns (CodedSequences), cells that index one
vocabulary of value strings. index_features blocks each (column, value) pair
in order of first appearance, row by row, and compile_sequences turns every
token into a row of C emission-block ids, each distinct pair looked up once.
Neither sorts the pairs: a pair is the one integer c * V + code, which
indexes arrays of all C * V pairs (V values), so a scatter finds the pairs
that occur and the first cell of each. Only the token rows are sorted, once,
to find the distinct ones. Everything an evaluation of the objective does
not need the weights for is compiled once:

- the (K, U+1) block-by-row count B, a sparse matrix over the U distinct
  rows and a padding row that holds no block. With the emission weights read
  as a (K, L) matrix W, the node scores of every distinct row are the one
  product B^T W, read from B^T kept in CSR form; a value unseen in training
  holds no block and so scores zero. The expected emission counts are
  summed per distinct row, then spread to the blocks by one product with B;
- an (S, T) grid of those rows, the sequences sorted by length, longest
  first, with the padding row past each sequence's end;
- the token count of every distinct row;
- the empirical counts of every feature, integers and so exact.

With transitions, the forward-backward recursion runs in probability space,
each step normalized to sum 1 (Rabiner 1989, section V.A), over the
sequences still active at each position. It yields the node marginals and
the summed edge marginals from the same arrays, and log Z from the
normalizers. A transition block whose scores spread over more than 700
could underflow a step to zero; such an evaluation runs the recursion in log
space instead. Without transitions every position stands alone, and each
distinct row's marginals are one softmax. The recursion sums with numpy
reductions and einsum and the products with B run scipy's sparse kernels,
never BLAS, so the bits do not depend on the BLAS library or its threads;
they do follow numpy's SIMD kernels (exp and log among them).
tests/test_crf.py keeps a per-cell loop in log space as the reference,
which the kernel matches within 1e-9 relative to max(1, |reference|).

Decoding reads (T, C) rows of emission-block ids 0..K, such as
features.story_decode_sequence builds through CrfModel.block_table, and
only them. viterbi reads a (K+1, L) emission matrix whose row K, which every
unseen value maps to, is zero, and sums each token's rows in column order,
as the per-cell loop does, so it matches that loop to the bit. So does log
Z from the log-space recursion on decode rows: its log-sum-exp keeps
scipy's arithmetic and adds in the loop's order. A model derives its
emission matrix and each such value table once, at its first decode. train
evaluates each point once and checks the objective at the start and at each
accepted iterate, as L-BFGS-B reports it to the callback. A stop at the
iteration or evaluation limit is logged as a warning.
"""

from __future__ import annotations

import base64
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_array

from .embeddings import DiscretizationConfig

logger = logging.getLogger(__name__)

MODEL_FORMAT = "scriptmap-crf"
MODEL_FORMAT_VERSION = 3


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
class TrainingRecord:
    """How train fitted a model: L-BFGS-B's iteration count (nit), objective
    evaluations (nfev), exit status and message; gradient_max_norm, the
    largest |component| of the gradient at the final weights, which is the
    projected-gradient max-norm L-BFGS-B stops on, as the weights have no
    bounds; the l2 coefficient; and the number of training sequences. A model
    file records it; decoding does not read it."""

    nit: int
    nfev: int
    status: int
    message: str
    gradient_max_norm: float
    l2: float
    sequences: int


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
    its first appearance, reading the cells row by row. The first cell of
    every pair is found without a sort, in an array of all C * V pairs,
    8 * C * V bytes (see compile_sequences for its bound)."""
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
    pairs = sequences.pairs()
    # the first cell of each pair, then the pairs of the cells that are firsts
    first = np.full(sequences.cells.shape[1] * len(sequences.values), len(pairs))
    np.minimum.at(first, pairs, np.arange(len(pairs)))
    columns: tuple[dict[str, int], ...] = tuple({} for _ in range(sequences.cells.shape[1]))
    for block, pair in enumerate(pairs[first[pairs] == np.arange(len(pairs))].tolist()):
        column, code = divmod(pair, len(sequences.values))
        columns[column][sequences.values[code]] = block
    return FeatureIndex(labels=labels, columns=columns, use_transitions=use_transitions)


@dataclass
class CrfModel:
    """Weights over a feature index, and the binning of the vector columns of
    the observations it fits. train leaves the default binning;
    features.fit_crf records the one its sequences were made with. The index
    and weights do not change once a model is made, so the tables decoding
    derives from them are kept; the binning may change. `training` is how
    train fitted the weights; a model built by hand has none and cannot be
    saved."""

    index: FeatureIndex
    weights: np.ndarray
    disc: DiscretizationConfig = DiscretizationConfig()
    training: TrainingRecord | None = None
    _value_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.index.labels

    @property
    def use_transitions(self) -> bool:
        return self.index.use_transitions

    @cached_property
    def _emission_blocks(self) -> np.ndarray:
        """(K+1, L) emission weights, one row per block, then the zero row K."""
        L, K = self.index.n_labels, self.index.n_blocks
        blocks = np.zeros((K + 1, L))
        blocks[:K] = self.weights[: K * L].reshape(K, L)
        return blocks

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
    without its per-call overhead, so partition values are the same to the
    bit; non-finite input yields a non-finite result. r is summed as numpy
    reduces `axis`: strictly left to right unless it is the innermost axis.
    """
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    shifted = a - a_max
    shifted[top] = -np.inf
    rest = np.exp(shifted).sum(axis=axis, keepdims=True)
    m = top.sum(axis=axis, keepdims=True, dtype=np.float64)
    rest /= m
    return np.squeeze(np.log1p(rest) + np.log(m) + a_max, axis=axis)[()]


def _forward_backward(
    node: np.ndarray, trans: np.ndarray, active: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward and backward log scores (S, T, L) and log Z (S,) of a batch.

    node holds the (T, L) node scores of S sequences, longest first; active[t]
    counts the sequences longer than t, and active[T] is 0. Each position is
    computed once, for the sequences still active there; cells past a
    sequence's end stay zero. trans is the (L+1, L) transition matrix, all
    zero for a model without transitions.
    """
    S, T, L = node.shape
    alpha = np.zeros((S, T, L))
    beta = np.zeros((S, T, L))
    last = np.empty((S, L))  # alpha at each sequence's final position
    alpha[:, 0] = trans[L] + node[:, 0]
    for t in range(T):
        n = active[t]
        if t:
            previous = alpha[:n, t - 1]
            alpha[:n, t] = _logsumexp(previous[:, :, None] + trans[:L], axis=1) + node[:n, t]
        # the sequences of length t + 1 end here
        last[active[t + 1] : n] = alpha[active[t + 1] : n, t]
    for t in range(T - 2, -1, -1):
        n = active[t + 1]
        following = node[:n, t + 1] + beta[:n, t + 1]
        beta[:n, t] = _logsumexp(trans[:L] + following[:, None, :], axis=2)
    return alpha, beta, _logsumexp(last, axis=1)


def _edge_terms(
    before: np.ndarray, after: np.ndarray, trans: np.ndarray, log_z: np.ndarray
) -> np.ndarray:
    """(m, L, L) log edge marginals of m adjacent position pairs: cell (e, i, j)
    is log p(y_t = i, y_{t+1} = j) for the pair's forward scores before[e] at t,
    node plus backward scores after[e] at t+1, and log Z log_z[e]."""
    L = trans.shape[1]
    return before[:, :, None] + trans[:L] + after[:, None, :] - log_z[:, None, None]


def _decode_tables(model: CrfModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node scores (T, L) and transition matrix (L+1, L) of one sequence of
    (T, C) emission-block rows."""
    if not isinstance(rows, np.ndarray):
        raise TypeError(
            f"decoding reads a (T, C) integer array of emission-block rows, not a"
            f" {type(rows).__name__}: build it with features.story_decode_sequence"
        )
    if len(rows) == 0:
        raise ValueError("empty observation sequence")
    index = model.index
    if rows.ndim != 2 or rows.shape[1] != index.n_columns:
        raise ValueError(f"rows of shape {rows.shape}, model expects {index.n_columns} columns")
    if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() > index.n_blocks:
        raise ValueError(f"rows must hold emission-block ids 0..{index.n_blocks}")
    node = _node_scores(model._emission_blocks, rows)
    return node, _transition_matrix(index, model.weights)


@dataclass(frozen=True)
class CompiledSequences:
    """Training sequences in the integer form objective_and_gradient reads.

    block_counts is the (K, U+1) block-by-row count of the U distinct
    emission-block rows and a padding row U: entry (k, u) is 1 where distinct
    row u holds block k. The padding row holds no block, nor does a column
    whose value is unseen, so both score zero. row_blocks is the same count
    transposed, (U+1, K), in CSR form with each row's blocks in ascending
    order, built once: the node scores row_blocks @ W then add each row's
    blocks in block order, as B^T W does. Node scores are computed for
    the distinct rows only, then laid out on an (S, T) grid that holds the
    sequences sorted by length, longest first (stable): active[t] counts the
    sequences longer than t, and token n (tokens of all sequences stacked in
    order) sits in the flat grid cell cell[n]; cells past a sequence's end
    read the padding row. tokens[u] counts the tokens of distinct row u. gold
    holds the empirical count of every feature, which no weight changes.
    """

    grid: np.ndarray  # (S, T) distinct row of every grid cell
    active: tuple[int, ...]  # (T+1,)
    cell: np.ndarray  # (N,)
    tokens: np.ndarray  # (U+1,) float token count of every distinct row
    block_counts: csr_array  # (K, U+1)
    row_blocks: csr_array  # (U+1, K) block_counts.T, sorted indices
    gold: np.ndarray  # (n_features,) float feature counts of the gold labels


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) of non-negative integer
    rows: the distinct rows in lexicographic order and the position of each
    row among them. As big-endian bytes, such rows compare as byte strings in
    that order, so one stable argsort of the bytes and a comparison of
    neighbours find them."""
    keys = np.ascontiguousarray(rows, dtype=">i8").view(np.dtype((np.void, 8 * rows.shape[1])))
    order = np.argsort(keys.ravel(), kind="stable")
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def compile_sequences(index: FeatureIndex, sequences: CodedSequences) -> CompiledSequences:
    """Turn coded sequences into emission-block rows and gold counts, once.

    Nothing is sorted but the token rows, once, to find the distinct ones.
    The (column, value) pairs of the N * C cells are looked up through a
    mask of all C * V pairs, V being the number of values, and a block table
    as long: C * V bytes and 8 * C * V bytes. Only the table entries of the
    pairs that occur are written. For sequences from
    features.esd_training_sequences every value but the four bin values
    occurs in a lemma column, so V <= 3 * N + 4 and the two take under
    27 * N * C + 36 * C bytes, about three times the cells' own 8 * N * C.
    The call's memory peaks under 9 * C * V + 128 * N * C bytes
    (tests/test_crf.py checks it at V = 50 002).
    """
    if not sequences.lengths:
        raise ValueError("empty training set")
    if 0 in sequences.lengths:
        raise ValueError("empty observation sequence")
    if sequences.cells.shape[1] != index.n_columns:
        raise ValueError(
            f"observation has {sequences.cells.shape[1]} columns, expected {index.n_columns}"
        )
    L, K = index.n_labels, index.n_blocks
    label_ids = {l: index.label_id(l) for l in dict.fromkeys(sequences.labels)}
    labels = np.array([label_ids[l] for l in sequences.labels], dtype=np.intp)
    lengths = np.array(sequences.lengths)
    starts = np.cumsum(lengths) - lengths
    # the block of each distinct (column, value) pair, gathered for every cell
    V, pairs = len(sequences.values), sequences.pairs()
    present = np.zeros(index.n_columns * V, dtype=bool)
    present[pairs] = True
    seen = np.flatnonzero(present)
    block_of = np.empty(len(present), dtype=np.intp)  # read only where present
    block_of[seen] = [index.columns[c].get(sequences.values[v], K)
                      for c, v in (divmod(pair, V) for pair in seen.tolist())]
    rows = block_of[pairs].reshape(sequences.cells.shape)
    S, T = len(lengths), int(lengths.max())
    place = np.empty(S, dtype=np.intp)
    place[np.argsort(-lengths, kind="stable")] = np.arange(S)
    cell = np.repeat(place * T - starts, lengths) + np.arange(len(rows))
    distinct, inverse = _distinct_rows(rows)
    U = len(distinct)
    grid = np.full(S * T, U, dtype=np.intp)
    grid[cell] = inverse
    row, column = np.nonzero(distinct < K)
    block_counts = csr_array((np.ones(len(row)), (distinct[row, column], row)), shape=(K, U + 1))
    # the unseen block K takes no weights, so its counts are dropped
    gold = np.bincount((rows * L + labels[:, None]).ravel(), minlength=(K + 1) * L)[: K * L]
    if index.use_transitions:
        previous = np.empty_like(labels)
        previous[1:] = labels[:-1]
        previous[starts] = L  # the start state
        gold = np.concatenate([gold, np.bincount(previous * L + labels, minlength=(L + 1) * L)])
    row_blocks = csr_array(block_counts.T)
    row_blocks.sort_indices()
    return CompiledSequences(
        grid=grid.reshape(S, T),
        active=tuple(int((lengths > t).sum()) for t in range(T)) + (0,),
        cell=cell,
        tokens=np.bincount(inverse, minlength=U + 1).astype(np.float64),
        block_counts=block_counts,
        row_blocks=row_blocks,
        gold=gold.astype(np.float64),
    )


# Above this spread (max - min) of the L x L transition scores, a factor
# exp(trans - max) could underflow and a step's normalizer reach 0, so the
# objective runs the log-space recursion instead. At or below it every
# normalizer is at least exp(-spread) / L, a normal double.
_SCALED_SPREAD = 700.0


def _scaled_forward_backward(
    node: np.ndarray, trans: np.ndarray, active: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node marginals (S, T, L), expected transition counts (L+1, L) and log
    Z (S,) of a batch laid out as for _forward_backward, in probability space.

    The start scores are folded into position 0; then every position's node
    scores E_t = exp(node_t - max) and the steps M = exp(trans - max) are at
    most 1. Each forward vector is normalized by its sum c_t, and each
    backward vector by the c_t of the position after it, so the node marginal
    is the product of the two. log Z is the sum of log c_t and of the
    subtracted maxima. The backward loop adds up the edge marginals
    alpha_t(i) M_ij E_{t+1}(j) beta_{t+1}(j) / c_{t+1} from the same arrays.
    Cells past a sequence's end hold zero marginals.
    """
    S, T, L = node.shape
    top = trans[:L].max()
    steps = np.exp(trans[:L] - top)
    emit = node.copy()
    emit[:, 0] += trans[L]
    peaks = emit.max(axis=2)
    emit -= peaks[:, :, None]
    np.exp(emit, out=emit)
    alpha = np.zeros((S, T, L))
    scale = np.ones((S, T))
    for t in range(T):
        n = active[t]
        a = emit[:n, t]
        if t:
            a = np.einsum("si,ij->sj", alpha[:n, t - 1], steps) * a
        scale[:n, t] = a.sum(axis=1)
        alpha[:n, t] = a / scale[:n, t, None]
    beta = np.zeros((S, T, L))
    flows = np.zeros((L, L))  # sum of alpha_t(i) w_{t+1}(j); times M, the edge marginals
    for t in range(T - 1, -1, -1):
        n = active[t + 1]  # the sequences that go on past t
        beta[n : active[t], t] = 1.0
        if n:
            w = emit[:n, t + 1] * beta[:n, t + 1] / scale[:n, t + 1, None]
            beta[:n, t] = np.einsum("ij,sj->si", steps, w)
            flows += np.einsum("si,sj->ij", alpha[:n, t], w)
    node_marg = alpha * beta
    expected = np.vstack([steps * flows, node_marg[:, 0].sum(axis=0)])
    lengths = (np.asarray(active[:T]) > np.arange(S)[:, None]).sum(axis=1)
    log_z = np.log(scale).sum(axis=1) + peaks.sum(axis=1) + (lengths - 1) * top
    return node_marg, expected, log_z


def _log_space_forward_backward(
    node: np.ndarray, trans: np.ndarray, active: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What _scaled_forward_backward returns, from the log-space recursion,
    for a transition matrix of any spread."""
    S, T, L = node.shape
    alpha, beta, log_z = _forward_backward(node, trans, active)
    filled = np.asarray(active[:T]) > np.arange(S)[:, None]
    z = np.broadcast_to(log_z[:, None], (S, T))
    node_marg = np.zeros_like(node)
    node_marg[filled] = np.exp(alpha[filled] + beta[filled] - z[filled][:, None])
    pairs = filled[:, 1:]  # the cells followed by a cell of the same sequence
    after = node[:, 1:][pairs] + beta[:, 1:][pairs]
    edges = np.exp(_edge_terms(alpha[:, :-1][pairs], after, trans, z[:, 1:][pairs]))
    expected = np.concatenate([edges.sum(axis=0), node_marg[:, :1].sum(axis=0)])
    return node_marg, expected, log_z


def objective_and_gradient(
    weights: np.ndarray,
    index: FeatureIndex,
    data: CompiledSequences,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Penalized log-likelihood and its gradient (both for maximization)."""
    L, K = index.n_labels, index.n_blocks
    scores = data.row_blocks @ weights[: K * L].reshape(K, L)  # (U+1, L)
    expected = np.empty_like(weights)
    if index.use_transitions:
        trans = _transition_matrix(index, weights)
        spread = trans[:L].max() - trans[:L].min()
        # a NaN spread also takes the log-space recursion
        recursion = (
            _scaled_forward_backward if spread <= _SCALED_SPREAD else _log_space_forward_backward
        )
        node_marg, transitions, log_z = recursion(scores[data.grid], trans, data.active)
        expected[K * L :] = transitions.ravel()
        slots = (data.grid[:, :, None] * L + np.arange(L)).ravel()
        per_row = np.bincount(slots, node_marg.ravel(), minlength=scores.size).reshape(-1, L)
        log_z = log_z.sum()
    else:
        # every position on its own: each distinct row's softmax, once
        peaks = scores.max(axis=1)
        probs = np.exp(scores - peaks[:, None])
        totals = probs.sum(axis=1)
        per_row = probs * (data.tokens / totals)[:, None]
        log_z = (data.tokens * (np.log(totals) + peaks)).sum()
    expected[: K * L] = (data.block_counts @ per_row).ravel()
    objective = float((data.gold * weights).sum() - log_z)
    objective -= 0.5 * l2 * float(np.dot(weights, weights))
    grad = data.gold - expected - l2 * weights
    if not np.isfinite(objective) or not np.all(np.isfinite(grad)):
        raise NumericError("non-finite objective or gradient")
    return objective, grad


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
    training = TrainingRecord(
        nit=int(result.nit),
        nfev=int(result.nfev),
        status=int(result.status),
        message=str(result.message),
        gradient_max_norm=float(np.max(np.abs(result.jac))),
        l2=float(cfg.l2),
        sequences=len(sequences.lengths),
    )
    return CrfModel(index=index, weights=weights, training=training)


def viterbi(model: CrfModel, rows: np.ndarray) -> tuple[list[str], float]:
    """Highest-scoring labeling and its score, of (T, C) emission-block rows.

    Ties break toward the lowest label index at every backtrack decision, so
    an all-zero model labels every position with the first label.
    """
    node, trans = _decode_tables(model, rows)
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
    """The model as the text of a versioned JSON file, weights as base64
    little-endian float64. Raises ValueError for a model without a training
    record."""
    if model.training is None:
        raise ValueError("a model file records how its model was trained; this model has no record")
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
        "weights": base64.b64encode(model.weights.astype("<f8").tobytes()).decode("ascii"),
        "training": asdict(model.training),
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


def _is_non_negative_float(value) -> bool:
    return type(value) is float and math.isfinite(value) and value >= 0


# each TrainingRecord field: its check, and what the check expects
_TRAINING_FIELDS = {
    "nit": (_is_count, "a non-negative integer"),
    "nfev": (_is_count, "a non-negative integer"),
    "status": (_is_count, "a non-negative integer"),
    "message": (lambda v: isinstance(v, str), "a string"),
    "gradient_max_norm": (_is_non_negative_float, "a finite non-negative decimal number"),
    "l2": (_is_non_negative_float, "a finite non-negative decimal number"),
    "sequences": (_is_count, "a non-negative integer"),
}


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
    encoded = _field(payload, "weights", lambda v: isinstance(v, str), "a base64 string")
    try:
        data = base64.b64decode(encoded, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ModelFormatError(f"corrupt model file: weights are not base64: {exc}") from None
    if len(data) % 8:
        raise ModelFormatError(
            f"corrupt model file: weights hold {len(data)} bytes, not whole float64 values"
        )
    weights = np.frombuffer(data, "<f8").astype(np.float64)
    if not np.all(np.isfinite(weights)):
        raise ModelFormatError("non-finite weight")
    try:
        disc = DiscretizationConfig(epsilon)
    except ValueError as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from None
    record = _field(payload, "training", lambda v: isinstance(v, dict), "an object")
    training = TrainingRecord(
        **{key: _field(record, key, *check) for key, check in _TRAINING_FIELDS.items()}
    )
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
    return CrfModel(index=index, weights=weights, disc=disc, training=training)
