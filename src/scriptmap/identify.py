"""Script-relevant verb identification with a gain-ratio decision tree.

Each labeled verb mention becomes a feature row over syntactic attributes
(auxiliary-ness, adverbial-clause government, object counts), a non-action
verb list, and, in scenario-specific mode, two script attributes derived from
the scenario's ESDs: whether the verb lemma occurs there, and a tf-idf score
summed over the verb and its dependents. Training keeps the four gold classes
(event plus the three non-script kinds); evaluation collapses predictions to
event vs non_script.

The tree is grown C4.5-style: the attribute with the highest gain ratio
splits a node, numeric attributes binarize at midpoints between consecutive
distinct values, nodes smaller than min_instances or without a positive-gain
attribute become leaves. Pessimistic error pruning then collapses subtrees
whose estimated error is no better than a leaf's, using the one-sided normal
upper bound on the training error rate at the configured confidence.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Mapping, Sequence

from scipy.stats import norm

from .corpus import (
    ABSENT,
    DOBJ_DEPRELS,
    EVENT,
    IOBJ_DEPRELS,
    NON_SCRIPT_KINDS,
    Story,
    VerbMention,
    collapse_label,
)
from .features import ScenarioStats, mention_tfidf

logger = logging.getLogger(__name__)

NOMINAL = "nominal"
NUMERIC = "numeric"

TREE_FORMAT = "scriptmap-tree"
TREE_FORMAT_VERSION = 1

_AUX_DEPRELS = frozenset({"aux", "auxpass", "aux:pass"})
_GAIN_EPS = 1e-12


class TreeFormatError(ValueError):
    """Raised when a tree file is truncated, corrupt, or wrongly versioned."""


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str  # NOMINAL or NUMERIC

    def __post_init__(self):
        if self.kind not in (NOMINAL, NUMERIC):
            raise ValueError(f"unknown attribute kind {self.kind!r}")


@dataclass(frozen=True)
class TreeConfig:
    """min_instances is the smallest node size still considered for a split
    (children may be smaller); confidence drives the pessimistic error bound;
    prune=False keeps the raw grown tree."""

    min_instances: int = 2
    confidence: float = 0.25
    prune: bool = True

    def __post_init__(self):
        if self.min_instances < 1:
            raise ValueError(f"min_instances must be positive, got {self.min_instances}")
        if not (0.0 < self.confidence < 0.5):
            raise ValueError(f"confidence must be in (0, 0.5), got {self.confidence}")


TreeRow = tuple[Mapping[str, object], str]


@dataclass(frozen=True)
class IdentifierRow:
    """Feature row for one verb mention. Script attributes are None in
    scenario-independent mode. class_label keeps the four training classes."""

    is_auxiliary: bool
    governs_adverbial_clause: bool
    n_direct_objects: int
    n_indirect_objects: int
    in_nonaction_list: bool
    lemma_in_scenario_esds: bool | None
    tfidf_score: float | None
    frame: str
    class_label: str


_BASE_ATTRIBUTES = (
    AttributeSpec("is_auxiliary", NOMINAL),
    AttributeSpec("governs_adverbial_clause", NOMINAL),
    AttributeSpec("n_direct_objects", NUMERIC),
    AttributeSpec("n_indirect_objects", NUMERIC),
    AttributeSpec("in_nonaction_list", NOMINAL),
)
_SCRIPT_ATTRIBUTES = (
    AttributeSpec("lemma_in_scenario_esds", NOMINAL),
    AttributeSpec("tfidf_score", NUMERIC),
)
_FRAME_ATTRIBUTE = (AttributeSpec("frame", NOMINAL),)

SCENARIO_SCHEMA = _BASE_ATTRIBUTES + _SCRIPT_ATTRIBUTES + _FRAME_ATTRIBUTE
INDEPENDENT_SCHEMA = _BASE_ATTRIBUTES + _FRAME_ATTRIBUTE


def row_schema(scenario_specific: bool) -> tuple[AttributeSpec, ...]:
    return SCENARIO_SCHEMA if scenario_specific else INDEPENDENT_SCHEMA


def _flag(value: bool) -> str:
    return "true" if value else "false"


def tree_row(row: IdentifierRow) -> TreeRow:
    """Canonical (attributes, class) pair; bools become nominal strings."""
    scenario_specific = row.lemma_in_scenario_esds is not None
    attrs: dict[str, object] = {
        "is_auxiliary": _flag(row.is_auxiliary),
        "governs_adverbial_clause": _flag(row.governs_adverbial_clause),
        "n_direct_objects": float(row.n_direct_objects),
        "n_indirect_objects": float(row.n_indirect_objects),
        "in_nonaction_list": _flag(row.in_nonaction_list),
        "frame": row.frame,
    }
    if scenario_specific:
        attrs["lemma_in_scenario_esds"] = _flag(bool(row.lemma_in_scenario_esds))
        attrs["tfidf_score"] = float(row.tfidf_score or 0.0)
    return attrs, row.class_label


def extract_row(
    mention: VerbMention,
    story: Story,
    stats: ScenarioStats | None,
    nonaction: frozenset[str],
) -> IdentifierRow:
    """Feature row for one mention; stats=None selects scenario-independent mode."""
    sentence = story.sentences[mention.sentence]
    verb = sentence[mention.token_index - 1]
    is_aux = verb.deprel in _AUX_DEPRELS or verb.pos.upper() in ("AUX", "MD")
    advcl = any(t.head == verb.index and t.deprel == "advcl" for t in sentence)
    n_dobj = sum(1 for t in sentence if t.head == verb.index and t.deprel in DOBJ_DEPRELS)
    n_iobj = sum(1 for t in sentence if t.head == verb.index and t.deprel in IOBJ_DEPRELS)
    gold = mention.gold_label
    class_label = gold if gold in NON_SCRIPT_KINDS else EVENT
    if stats is None:
        lemma_in, score = None, None
    else:
        lemma_in = mention.lemma in stats.verb_lemmas
        score = mention_tfidf(mention, stats)
    return IdentifierRow(
        is_auxiliary=is_aux,
        governs_adverbial_clause=advcl,
        n_direct_objects=n_dobj,
        n_indirect_objects=n_iobj,
        in_nonaction_list=mention.lemma in nonaction,
        lemma_in_scenario_esds=lemma_in,
        tfidf_score=score,
        frame=mention.frame or ABSENT,
        class_label=class_label,
    )


def story_rows(
    story: Story, stats: ScenarioStats | None, nonaction: frozenset[str]
) -> list[TreeRow]:
    """Tree rows of a story's mentions, in mention order; stats=None selects
    scenario-independent mode."""
    return [tree_row(extract_row(m, story, stats, nonaction)) for m in story.mentions]


def load_nonaction_list(source: str | Path | IO[str] | None = None) -> frozenset[str]:
    """Lemma set from a one-per-line file; '#' starts a comment. None loads
    the packaged default list."""
    if source is None:
        text = resources.files("scriptmap").joinpath("data/non_action_verbs.txt").read_text(
            encoding="utf-8"
        )
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lemmas = set()
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            lemmas.add(entry)
    return frozenset(lemmas)


# ---------------------------------------------------------------------------
# tree induction


@dataclass
class Leaf:
    counts: dict[str, int]
    majority: str


@dataclass
class Split:
    attribute: str
    kind: str
    threshold: float | None
    children: dict[str, "Leaf | Split"]
    majority_child: str
    counts: dict[str, int]


Node = Leaf | Split

_LE, _GT = "le", "gt"


@dataclass
class DecisionTree:
    schema: tuple[AttributeSpec, ...]
    root: Node
    config: TreeConfig


def _class_counts(rows: Sequence[TreeRow]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _, label in rows:
        counts[label] = counts.get(label, 0) + 1
    return counts


def _majority(counts: Mapping[str, int]) -> str:
    return min(counts, key=lambda c: (-counts[c], c))


def _entropy(sizes: Sequence[int]) -> float:
    total = sum(sizes)
    if total == 0:
        return 0.0
    h = 0.0
    for s in sizes:
        if s > 0:
            p = s / total
            h -= p * math.log2(p)
    return h


def _class_entropy(rows: Sequence[TreeRow]) -> float:
    return _entropy(list(_class_counts(rows).values()))


def _partition_gain(rows: Sequence[TreeRow], parts: Sequence[Sequence[TreeRow]]):
    n = len(rows)
    gain = _class_entropy(rows)
    for part in parts:
        gain -= (len(part) / n) * _class_entropy(part)
    split_info = _entropy([len(p) for p in parts])
    ratio = gain / split_info if split_info > 0 else 0.0
    return gain, split_info, ratio


def _nominal_partition(rows: Sequence[TreeRow], name: str) -> dict[str, list[TreeRow]]:
    parts: dict[str, list[TreeRow]] = {}
    for row in rows:
        parts.setdefault(str(row[0][name]), []).append(row)
    return {v: parts[v] for v in sorted(parts)}


def _numeric_thresholds(rows: Sequence[TreeRow], name: str) -> list[float]:
    values = sorted({float(row[0][name]) for row in rows})
    return [(a + b) / 2.0 for a, b in zip(values, values[1:])]


def _numeric_partition(
    rows: Sequence[TreeRow], name: str, threshold: float
) -> dict[str, list[TreeRow]]:
    le = [r for r in rows if float(r[0][name]) <= threshold]
    gt = [r for r in rows if float(r[0][name]) > threshold]
    return {_LE: le, _GT: gt}


def _best_split(rows: Sequence[TreeRow], spec: AttributeSpec):
    """(ratio, gain, threshold, partition) of the attribute's best split, or
    None when the attribute cannot partition the rows."""
    if spec.kind == NOMINAL:
        parts = _nominal_partition(rows, spec.name)
        if len(parts) < 2:
            return None
        gain, _, ratio = _partition_gain(rows, list(parts.values()))
        return ratio, gain, None, parts
    best = None
    for threshold in _numeric_thresholds(rows, spec.name):
        parts = _numeric_partition(rows, spec.name, threshold)
        gain, _, ratio = _partition_gain(rows, list(parts.values()))
        if best is None or ratio > best[0]:
            best = (ratio, gain, threshold, parts)
    return best


def gain_ratio(rows: Sequence[TreeRow], spec: AttributeSpec) -> float:
    """Information gain over split information, base-2 logs.

    Numeric attributes are evaluated at every midpoint between consecutive
    distinct values and the best ratio is returned. Attributes with zero
    split information (a single observed value) score 0.
    """
    if not rows:
        raise ValueError("gain_ratio of an empty row set")
    result = _best_split(rows, spec)
    return 0.0 if result is None else result[0]


def _grow(rows: Sequence[TreeRow], schema: Sequence[AttributeSpec], cfg: TreeConfig) -> Node:
    counts = _class_counts(rows)
    if len(counts) == 1 or len(rows) < cfg.min_instances:
        return Leaf(counts=counts, majority=_majority(counts))
    best = None
    best_spec = None
    for spec in schema:
        result = _best_split(rows, spec)
        if result is None or result[1] <= _GAIN_EPS:
            continue
        if best is None or result[0] > best[0]:
            best = result
            best_spec = spec
    if best is None:
        return Leaf(counts=counts, majority=_majority(counts))
    _, _, threshold, parts = best
    children = {
        value: _grow(part, schema, cfg) for value, part in parts.items() if part
    }
    majority_child = max(children, key=lambda v: (len(parts[v]), v))
    return Split(
        attribute=best_spec.name,
        kind=best_spec.kind,
        threshold=threshold,
        children=children,
        majority_child=majority_child,
        counts=counts,
    )


def _node_n(counts: Mapping[str, int]) -> int:
    return sum(counts.values())


def _upper_error_count(n: float, errors: float, z: float) -> float:
    """Pessimistic error count: n times the one-sided normal upper confidence
    bound on the observed error rate errors/n."""
    if n <= 0:
        return 0.0
    f = errors / n
    radicand = f / n - (f * f) / n + (z * z) / (4 * n * n)
    u = (f + (z * z) / (2 * n) + z * math.sqrt(radicand)) / (1 + (z * z) / n)
    return n * u


def node_error_estimate(node: Node, z: float) -> float:
    """Pessimistic error estimate of a subtree: the sum over its leaves."""
    if isinstance(node, Leaf):
        n = _node_n(node.counts)
        errors = n - node.counts.get(node.majority, 0)
        return _upper_error_count(n, errors, z)
    return sum(node_error_estimate(child, z) for child in node.children.values())


def tree_error_estimate(tree: DecisionTree) -> float:
    return node_error_estimate(tree.root, _z_score(tree.config.confidence))


def _z_score(confidence: float) -> float:
    return float(norm.ppf(1.0 - confidence))


def _prune(node: Node, z: float) -> Node:
    if isinstance(node, Leaf):
        return node
    node.children = {v: _prune(child, z) for v, child in node.children.items()}
    n = _node_n(node.counts)
    leaf_errors = n - node.counts.get(_majority(node.counts), 0)
    leaf_estimate = _upper_error_count(n, leaf_errors, z)
    subtree_estimate = node_error_estimate(node, z)
    if leaf_estimate <= subtree_estimate + 1e-10:
        return Leaf(counts=node.counts, majority=_majority(node.counts))
    return node


def train_tree(
    rows: Sequence[TreeRow],
    schema: Sequence[AttributeSpec],
    cfg: TreeConfig | None = None,
) -> DecisionTree:
    """Grow (and by default prune) a decision tree over `rows`.

    Single-class input yields a single-leaf tree. Attribute and threshold
    candidates are visited in schema order; gain-ratio ties keep the first.
    """
    cfg = cfg or TreeConfig()
    if not rows:
        raise ValueError("no training rows")
    schema = tuple(schema)
    names = [spec.name for spec in schema]
    if len(set(names)) != len(names):
        raise ValueError("duplicate attribute names in schema")
    for attrs, _ in rows:
        if set(attrs) != set(names):
            raise ValueError(
                f"row attributes {sorted(attrs)} do not match schema {sorted(names)}"
            )
    root = _grow(rows, schema, cfg)
    if cfg.prune:
        root = _prune(root, _z_score(cfg.confidence))
    return DecisionTree(schema=schema, root=root, config=cfg)


def classify(tree: DecisionTree, attrs: Mapping[str, object]) -> str:
    """Four-class prediction for one attribute mapping.

    Unknown nominal values route to the child with the largest training mass.
    A row whose attribute names do not match the tree's schema is an error.
    """
    names = {spec.name for spec in tree.schema}
    if set(attrs) != names:
        raise ValueError(
            f"row attributes {sorted(attrs)} do not match tree schema {sorted(names)}"
        )
    node = tree.root
    while isinstance(node, Split):
        if node.kind == NUMERIC:
            key = _LE if float(attrs[node.attribute]) <= node.threshold else _GT
        else:
            key = str(attrs[node.attribute])
        child = node.children.get(key)
        node = child if child is not None else node.children[node.majority_child]
    return node.majority


def classify_binary(tree: DecisionTree, attrs: Mapping[str, object]) -> str:
    """Collapse the four-class prediction to event / non_script."""
    return collapse_label(classify(tree, attrs))


# ---------------------------------------------------------------------------
# serialization


def _node_to_json(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"type": "leaf", "counts": node.counts, "majority": node.majority}
    return {
        "type": "split",
        "attribute": node.attribute,
        "kind": node.kind,
        "threshold": node.threshold,
        "children": {v: _node_to_json(c) for v, c in node.children.items()},
        "majority_child": node.majority_child,
        "counts": node.counts,
    }


def _node_from_json(payload: dict, kinds: Mapping[str, str]) -> Node:
    """Rebuild a subtree; `kinds` maps each schema attribute to its kind."""
    try:
        if payload["type"] == "leaf":
            counts = {str(k): int(v) for k, v in payload["counts"].items()}
            return Leaf(counts=counts, majority=str(payload["majority"]))
        if payload["type"] == "split":
            attribute, kind = str(payload["attribute"]), str(payload["kind"])
            if kinds.get(attribute) != kind:
                raise TreeFormatError(
                    f"split on {attribute!r} as {kind} does not match the schema"
                )
            children = {
                str(v): _node_from_json(c, kinds) for v, c in payload["children"].items()
            }
            if payload["majority_child"] not in children:
                raise TreeFormatError(
                    f"majority child {payload['majority_child']!r} missing"
                )
            threshold = payload["threshold"]
            if kind == NUMERIC and not (
                type(threshold) in (int, float)
                and math.isfinite(threshold)
                and set(children) == {_LE, _GT}
            ):
                raise TreeFormatError(
                    f"numeric split on {attribute!r} needs a finite threshold"
                    f" and children {_LE!r}/{_GT!r}"
                )
            if kind == NOMINAL and threshold is not None:
                raise TreeFormatError(f"nominal split on {attribute!r} has a threshold")
            return Split(
                attribute=attribute,
                kind=kind,
                threshold=None if threshold is None else float(threshold),
                children=children,
                majority_child=str(payload["majority_child"]),
                counts={str(k): int(v) for k, v in payload["counts"].items()},
            )
    except TreeFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise TreeFormatError(f"corrupt tree node: {exc}") from None
    raise TreeFormatError(f"unknown node type {payload.get('type')!r}")


def save_tree(tree: DecisionTree, target: str | Path | IO[str]):
    payload = {
        "format": TREE_FORMAT,
        "format_version": TREE_FORMAT_VERSION,
        "schema": [{"name": s.name, "kind": s.kind} for s in tree.schema],
        "config": {
            "min_instances": tree.config.min_instances,
            "confidence": tree.config.confidence,
            "prune": tree.config.prune,
        },
        "root": _node_to_json(tree.root),
    }
    text = json.dumps(payload, sort_keys=True, indent=1)
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


def load_tree(source: str | Path | IO[str]) -> DecisionTree:
    try:
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"corrupt tree file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != TREE_FORMAT:
        raise TreeFormatError("not a scriptmap tree file")
    if payload.get("format_version") != TREE_FORMAT_VERSION:
        raise TreeFormatError(
            f"unsupported tree format version {payload.get('format_version')!r}"
        )
    try:
        schema = tuple(
            AttributeSpec(name=str(s["name"]), kind=str(s["kind"]))
            for s in payload["schema"]
        )
        cfg_payload = payload["config"]
        cfg = TreeConfig(
            min_instances=int(cfg_payload["min_instances"]),
            confidence=float(cfg_payload["confidence"]),
            prune=bool(cfg_payload["prune"]),
        )
        root = _node_from_json(payload["root"], {a.name: a.kind for a in schema})
    except (KeyError, TypeError, ValueError) as exc:
        raise TreeFormatError(f"corrupt tree file: {exc}") from None
    return DecisionTree(schema=schema, root=root, config=cfg)
