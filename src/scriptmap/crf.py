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
score at decode time. Weight vectors are preserved bit-exactly across
save/load by serializing each weight through repr().
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

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
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")


@dataclass(frozen=True)
class FeatureIndex:
    """Bijection between feature keys and weight positions 0..n_features-1.

    Emission weights for one (column, value) pair occupy a contiguous block of
    len(labels) positions, one per label in label order. Transition weights,
    when present, follow as a ((L+1) * L)-block in row-major order with the
    virtual start state as row L.
    """

    labels: tuple[str, ...]
    n_columns: int
    emission_base: dict[tuple[int, str], int]
    transition_base: int | None
    n_features: int

    @property
    def use_transitions(self) -> bool:
        return self.transition_base is not None

    @property
    def n_labels(self) -> int:
        return len(self.labels)

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
        base = self.emission_base.get((column, value))
        return None if base is None else base + label_id

    def transition_index(self, prev_id: int, label_id: int) -> int | None:
        if self.transition_base is None:
            return None
        return self.transition_base + prev_id * self.n_labels + label_id


def index_features(
    sequences: Sequence[tuple[Sequence[Observation], Sequence[str]]],
    labels: Sequence[str],
    use_transitions: bool = True,
) -> FeatureIndex:
    """Register features for every observed (column, value) and label pair."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("empty label set")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in label set {labels}")
    if not sequences:
        raise ValueError("empty training set")
    label_ids = {l: i for i, l in enumerate(labels)}
    n_columns = None
    emission_base: dict[tuple[int, str], int] = {}
    next_index = 0
    n_labels = len(labels)
    for obs, seq_labels in sequences:
        if len(obs) != len(seq_labels):
            raise ValueError(
                f"sequence has {len(obs)} observations but {len(seq_labels)} labels"
            )
        for label in seq_labels:
            if label not in label_ids:
                raise ValueError(f"training label {label!r} missing from label set")
        for item in obs:
            if n_columns is None:
                n_columns = len(item)
            elif len(item) != n_columns:
                raise ValueError(
                    f"observation has {len(item)} columns, expected {n_columns}"
                )
            for c, v in enumerate(item):
                key = (c, v)
                if key not in emission_base:
                    emission_base[key] = next_index
                    next_index += n_labels
    if n_columns is None:
        raise ValueError("training set contains no observations")
    transition_base = None
    if use_transitions:
        transition_base = next_index
        next_index += (n_labels + 1) * n_labels
    return FeatureIndex(
        labels=labels,
        n_columns=n_columns,
        emission_base=emission_base,
        transition_base=transition_base,
        n_features=next_index,
    )


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


def _node_scores(index: FeatureIndex, weights: np.ndarray, obs: Sequence[Observation]) -> np.ndarray:
    L = index.n_labels
    scores = np.zeros((len(obs), L))
    for t, item in enumerate(obs):
        if len(item) != index.n_columns:
            raise ValueError(
                f"observation has {len(item)} columns, model expects {index.n_columns}"
            )
        for c, v in enumerate(item):
            base = index.emission_base.get((c, v))
            if base is not None:
                scores[t] += weights[base : base + L]
    return scores


def _transition_matrix(index: FeatureIndex, weights: np.ndarray) -> np.ndarray:
    """(L+1, L) score matrix; row L holds start scores. Zero when disabled."""
    L = index.n_labels
    if index.transition_base is None:
        return np.zeros((L + 1, L))
    tb = index.transition_base
    return weights[tb : tb + (L + 1) * L].reshape(L + 1, L)


def _forward(node: np.ndarray, trans: np.ndarray) -> np.ndarray:
    T, L = node.shape
    alpha = np.empty((T, L))
    alpha[0] = trans[L] + node[0]
    for t in range(1, T):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + trans[:L], axis=0) + node[t]
    return alpha


def _backward(node: np.ndarray, trans: np.ndarray) -> np.ndarray:
    T, L = node.shape
    beta = np.zeros((T, L))
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(trans[:L] + (node[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def _require_nonempty(obs: Sequence[Observation]):
    if len(obs) == 0:
        raise ValueError("empty observation sequence")


def sequence_score(model: CrfModel, obs: Sequence[Observation], labels: Sequence[str]) -> float:
    """Unnormalized log score of one labeling."""
    _require_nonempty(obs)
    if len(obs) != len(labels):
        raise ValueError("observation/label length mismatch")
    index = model.index
    y = [index.label_id(l) for l in labels]
    node = _node_scores(index, model.weights, obs)
    trans = _transition_matrix(index, model.weights)
    L = index.n_labels
    score = trans[L, y[0]] + node[0, y[0]]
    for t in range(1, len(obs)):
        score += trans[y[t - 1], y[t]] + node[t, y[t]]
    return float(score)


def log_partition(model: CrfModel, obs: Sequence[Observation]) -> float:
    """log of the summed exponentiated scores over all label sequences."""
    _require_nonempty(obs)
    node = _node_scores(model.index, model.weights, obs)
    trans = _transition_matrix(model.index, model.weights)
    value = float(logsumexp(_forward(node, trans)[-1]))
    if not np.isfinite(value):
        raise NumericError(f"non-finite log partition: {value}")
    return value


def marginals(model: CrfModel, obs: Sequence[Observation]) -> tuple[np.ndarray, np.ndarray]:
    """Per-position label marginals (T, L) and edge marginals (T-1, L, L).

    Node rows sum to 1; edge cell (t, i, j) is p(y_t = i, y_{t+1} = j | x).
    """
    _require_nonempty(obs)
    index = model.index
    node = _node_scores(index, model.weights, obs)
    trans = _transition_matrix(index, model.weights)
    alpha = _forward(node, trans)
    beta = _backward(node, trans)
    log_z = logsumexp(alpha[-1])
    node_marg = np.exp(alpha + beta - log_z)
    T, L = node.shape
    edge_marg = np.empty((T - 1, L, L))
    for t in range(T - 1):
        edge_marg[t] = np.exp(
            alpha[t][:, None] + trans[:L] + (node[t + 1] + beta[t + 1])[None, :] - log_z
        )
    if not (np.all(np.isfinite(node_marg)) and np.all(np.isfinite(edge_marg))):
        raise NumericError("non-finite marginals")
    return node_marg, edge_marg


def objective_and_gradient(
    weights: np.ndarray,
    index: FeatureIndex,
    sequences: Sequence[tuple[Sequence[Observation], Sequence[str]]],
    l2: float,
) -> tuple[float, np.ndarray]:
    """Penalized log-likelihood and its gradient (both for maximization)."""
    L = index.n_labels
    trans = _transition_matrix(index, weights)
    objective = 0.0
    grad = np.zeros_like(weights)
    for obs, seq_labels in sequences:
        _require_nonempty(obs)
        y = [index.label_id(l) for l in seq_labels]
        node = _node_scores(index, weights, obs)
        alpha = _forward(node, trans)
        beta = _backward(node, trans)
        log_z = logsumexp(alpha[-1])
        node_marg = np.exp(alpha + beta - log_z)

        gold = trans[L, y[0]] + node[0, y[0]]
        for t in range(1, len(obs)):
            gold += trans[y[t - 1], y[t]] + node[t, y[t]]
        objective += gold - log_z

        for t, item in enumerate(obs):
            for c, v in enumerate(item):
                base = index.emission_base.get((c, v))
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
                        alpha[t][:, None]
                        + trans[:L]
                        + (node[t + 1] + beta[t + 1])[None, :]
                        - log_z
                    )
                grad[tb : tb + L * L] -= expected.reshape(-1)
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
    trace: list[float] = []

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        obj, grad = objective_and_gradient(w, index, sequences, cfg.l2)
        return -obj, -grad

    def record(w: np.ndarray):
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
    _require_nonempty(obs)
    index = model.index
    node = _node_scores(index, model.weights, obs)
    trans = _transition_matrix(index, model.weights)
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
    return [index.labels[i] for i in path], float(delta[T - 1, best_last])


def _dump(payload: dict, target: str | Path | IO[str]):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


def _load_json(source: str | Path | IO[str]) -> dict:
    try:
        if hasattr(source, "read"):
            return json.load(source)
        return json.loads(Path(source).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from None


def save_model(model: CrfModel, target: str | Path | IO[str]):
    """Write the model as versioned JSON with weights as decimal strings."""
    index = model.index
    emissions = sorted(
        ([c, v, base] for (c, v), base in index.emission_base.items()),
        key=lambda e: e[2],
    )
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
    _dump(payload, target)


def load_model(source: str | Path | IO[str]) -> CrfModel:
    """Inverse of save_model; weight round-trips are bit-exact."""
    payload = _load_json(source)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a scriptmap CRF model file")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    try:
        labels = tuple(payload["labels"])
        n_columns = int(payload["columns"])
        use_transitions = bool(payload["use_transitions"])
        emissions = [(int(c), str(v), int(base)) for c, v, base in payload["emissions"]]
        transition_base = payload["transition_base"]
        weights = np.array([float(w) for w in payload["weights"]], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from None
    L = len(labels)
    if L == 0:
        raise ModelFormatError("model has no labels")
    if not all(isinstance(label, str) for label in labels) or len(set(labels)) != L:
        raise ModelFormatError(f"labels must be distinct strings, got {list(labels)!r}")
    if not np.all(np.isfinite(weights)):
        raise ModelFormatError("non-finite weight")
    emission_base: dict[tuple[int, str], int] = {}
    for c, v, base in emissions:
        if not (0 <= c < n_columns):
            raise ModelFormatError(f"emission column {c} out of range")
        if (c, v) in emission_base:
            raise ModelFormatError(f"duplicate emission entry for column {c}, value {v!r}")
        emission_base[(c, v)] = base
    expected_bases = set(range(0, L * len(emission_base), L))
    if set(emission_base.values()) != expected_bases:
        raise ModelFormatError("emission blocks are not contiguous")
    n_features = L * len(emission_base)
    if use_transitions:
        if transition_base != n_features:
            raise ModelFormatError("transition block does not follow emission blocks")
        n_features += (L + 1) * L
    elif transition_base is not None:
        raise ModelFormatError("transition_base set on a transition-free model")
    if len(weights) != n_features:
        raise ModelFormatError(
            f"weight count {len(weights)} does not match feature count {n_features}"
        )
    index = FeatureIndex(
        labels=labels,
        n_columns=n_columns,
        emission_base=emission_base,
        transition_base=transition_base if use_transitions else None,
        n_features=n_features,
    )
    return CrfModel(index=index, weights=weights)
