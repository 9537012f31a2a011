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

Training works on one column table of the rows. At each node a numeric
attribute's rows are sorted once and every midpoint is scored in one sweep
of class counts (Quinlan's sorted threshold search), so a node costs
O(n log n) per attribute, not O(n^2). Growing and pruning keep an explicit
stack, and tree files list the nodes flat, so the depth of a tree is bounded
by neither the interpreter's recursion limit nor the JSON codec's. save_tree
returns a tree file's text and load_tree parses it; format version 2 is the
only one it reads.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Mapping, NamedTuple, Sequence

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
TREE_FORMAT_VERSION = 2

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


def load_nonaction_list(text: str | None = None) -> frozenset[str]:
    """Lemma set from the text of a one-per-line file; '#' starts a comment.
    None loads the packaged default list."""
    if text is None:
        text = resources.files("scriptmap").joinpath("data/non_action_verbs.txt").read_text(
            encoding="utf-8"
        )
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


class _Table(NamedTuple):
    """A training set by column: row i has the value columns[a][i] for the
    a-th schema attribute (a float for numeric attributes, a string for
    nominal ones) and the class labels[y[i]]. Class ids count from 0 in order
    of first appearance. Nodes hold row indices in ascending order, so a
    class's first row in a node or part is its smallest index there."""

    columns: list[list]
    y: list[int]
    labels: list[str]


def _column_table(rows: Sequence[TreeRow], schema: Sequence[AttributeSpec]) -> _Table:
    labels: dict[str, int] = {}
    y = [labels.setdefault(label, len(labels)) for _, label in rows]
    columns = []
    for spec in schema:
        if spec.kind == NUMERIC:
            column = [float(attrs[spec.name]) for attrs, _ in rows]
            # a NaN has no place in the sorted order the split search relies on,
            # and an infinite value can make a threshold no tree file can hold
            if not all(map(math.isfinite, column)):
                raise ValueError(f"numeric attribute {spec.name!r} has a non-finite value")
        else:
            column = [str(attrs[spec.name]) for attrs, _ in rows]
        columns.append(column)
    return _Table(columns, y, list(labels))


def _class_counts(table: _Table, idx: Sequence[int]) -> dict[str, int]:
    """Class counts of a node, in order of first appearance."""
    return {table.labels[c]: k for c, k in Counter(map(table.y.__getitem__, idx)).items()}


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


def _nominal_split(table: _Table, column: list, idx: Sequence[int], parent_h: float):
    """(ratio, gain, None) of the split by value, or None when the node holds
    a single value."""
    # (value, class) pairs count in order of first appearance, so each
    # value's class counts come out in the order its part first shows them
    by_value: dict[str, list[int]] = {}
    for (value, _), k in Counter(
        zip(map(column.__getitem__, idx), map(table.y.__getitem__, idx))
    ).items():
        by_value.setdefault(value, []).append(k)
    if len(by_value) < 2:
        return None
    n = len(idx)
    gain, sizes = parent_h, []
    for value in sorted(by_value):
        sizes.append(sum(by_value[value]))
        gain -= (sizes[-1] / n) * _entropy(by_value[value])
    split_info = _entropy(sizes)
    return (gain / split_info if split_info > 0 else 0.0), gain, None


def _part_entropy(counts: Sequence[int], first: Sequence[float]) -> float:
    """Class entropy of a part, summed over the classes in order of their
    first row in the part (first[c] is inf for a class the part lacks)."""
    return _entropy([counts[c] for c in sorted(range(len(counts)), key=first.__getitem__)])


def _prefix_entropies(table: _Table, column: list, order: Sequence[int]):
    """The runs of equal values along `order` as (values, sizes, entropies):
    sizes[r] and entropies[r] are the row count and class entropy of the
    first r runs together, for r = 0..len(values)."""
    counts, first = [0] * len(table.labels), [math.inf] * len(table.labels)
    values, sizes, entropies = [column[order[0]]], [0], [0.0]
    for size, i in enumerate(order):
        if column[i] != values[-1]:
            values.append(column[i])
            sizes.append(size)
            entropies.append(_part_entropy(counts, first))
        c = table.y[i]
        counts[c] += 1
        if i < first[c]:
            first[c] = i
    sizes.append(len(order))
    entropies.append(_part_entropy(counts, first))
    return values, sizes, entropies


def _numeric_split(table: _Table, column: list, idx: Sequence[int], parent_h: float):
    """(ratio, gain, threshold) of the best midpoint between consecutive
    distinct values, or None when the node holds a single value.

    The node's rows are sorted by value once. Class counts accumulated from
    either end give both parts of every midpoint; the le side is found by
    bisecting the values with the midpoint itself, which can round onto the
    upper value."""
    order = sorted(idx, key=column.__getitem__)
    if column[order[0]] == column[order[-1]]:
        return None
    values, n_le, h_le = _prefix_entropies(table, column, order)
    h_gt = _prefix_entropies(table, column, order[::-1])[2][::-1]  # values from r on
    n = len(idx)
    best = None
    for a, b in zip(values, values[1:]):
        threshold = (a + b) / 2.0
        r = bisect_right(values, threshold)
        k = n_le[r]
        gain = parent_h - (k / n) * h_le[r] - ((n - k) / n) * h_gt[r]
        split_info = _entropy([k, n - k])
        ratio = gain / split_info if split_info > 0 else 0.0
        if best is None or ratio > best[0]:
            best = (ratio, gain, threshold)
    return best


_SPLITTERS = {NOMINAL: _nominal_split, NUMERIC: _numeric_split}


def gain_ratio(rows: Sequence[TreeRow], spec: AttributeSpec) -> float:
    """Information gain over split information, base-2 logs.

    Numeric attributes are evaluated at every midpoint between consecutive
    distinct values and the best ratio is returned. Attributes with zero
    split information (a single observed value) score 0.
    """
    if not rows:
        raise ValueError("gain_ratio of an empty row set")
    table = _column_table(rows, [spec])
    idx = range(len(rows))
    parent_h = _entropy(list(_class_counts(table, idx).values()))
    result = _SPLITTERS[spec.kind](table, table.columns[0], idx, parent_h)
    return 0.0 if result is None else result[0]


def _split_node(
    table: _Table, schema: Sequence[AttributeSpec], cfg: TreeConfig, idx: list[int]
) -> tuple[Node, dict[str, list[int]]]:
    """The node for the rows `idx`; for a split, also each child's rows. The
    split's children dict already holds its keys, in order, mapped to None."""
    counts = _class_counts(table, idx)
    best = None
    if len(counts) > 1 and len(idx) >= cfg.min_instances:
        parent_h = _entropy(list(counts.values()))
        for a, spec in enumerate(schema):
            result = _SPLITTERS[spec.kind](table, table.columns[a], idx, parent_h)
            if result is None or result[1] <= _GAIN_EPS:
                continue
            if best is None or result[0] > best[0]:
                best = (*result, a)
    if best is None:
        return Leaf(counts=counts, majority=_majority(counts)), {}
    _, _, threshold, a = best
    spec, column = schema[a], table.columns[a]
    if spec.kind == NUMERIC:
        parts = {
            _LE: [i for i in idx if column[i] <= threshold],
            _GT: [i for i in idx if column[i] > threshold],
        }
    else:
        by_value: dict[str, list[int]] = {}
        for i in idx:
            by_value.setdefault(column[i], []).append(i)
        parts = {v: by_value[v] for v in sorted(by_value)}
    parts = {v: part for v, part in parts.items() if part}
    split = Split(
        attribute=spec.name,
        kind=spec.kind,
        threshold=threshold,
        children=dict.fromkeys(parts),
        majority_child=max(parts, key=lambda v: (len(parts[v]), v)),
        counts=counts,
    )
    return split, parts


def _grow(table: _Table, schema: Sequence[AttributeSpec], cfg: TreeConfig) -> Node:
    """Grow the tree on an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit."""
    top: dict[str, Node] = {}
    stack = [(list(range(len(table.y))), top, "root")]
    while stack:
        idx, slot, key = stack.pop()
        node, parts = _split_node(table, schema, cfg, idx)
        slot[key] = node
        stack.extend((part, node.children, value) for value, part in parts.items())
    return top["root"]


def _upper_error_count(n: float, errors: float, z: float) -> float:
    """Pessimistic error count: n times the one-sided normal upper confidence
    bound on the observed error rate errors/n."""
    if n <= 0:
        return 0.0
    f = errors / n
    radicand = f / n - (f * f) / n + (z * z) / (4 * n * n)
    u = (f + (z * z) / (2 * n) + z * math.sqrt(radicand)) / (1 + (z * z) / n)
    return n * u


def _leaf_estimate(leaf: Leaf, z: float) -> float:
    n = sum(leaf.counts.values())
    return _upper_error_count(n, n - leaf.counts.get(leaf.majority, 0), z)


def _splits_bottom_up(root: Node) -> list[Split]:
    """The split nodes of a subtree, each after all of its descendants."""
    splits, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            splits.append(node)
            stack.extend(node.children.values())
    splits.reverse()
    return splits


def node_error_estimate(node: Node, z: float) -> float:
    """Pessimistic error estimate of a subtree: the sum over its leaves."""
    estimates: dict[int, float] = {}

    def estimate(n: Node) -> float:
        if isinstance(n, Leaf):
            return _leaf_estimate(n, z)
        return estimates[id(n)]

    for split in _splits_bottom_up(node):
        estimates[id(split)] = sum(estimate(child) for child in split.children.values())
    return estimate(node)


def tree_error_estimate(tree: DecisionTree) -> float:
    return node_error_estimate(tree.root, _z_score(tree.config.confidence))


def _z_score(confidence: float) -> float:
    return float(norm.ppf(1.0 - confidence))


def _prune(root: Node, z: float) -> Node:
    """Collapse, bottom-up, every subtree whose pessimistic error estimate is
    no better than that of a leaf in its place. Each subtree's estimate is
    computed once and reused by its parent."""
    settled: dict[int, tuple[Node, float]] = {}

    def pruned(node: Node) -> tuple[Node, float]:
        if isinstance(node, Leaf):
            return node, _leaf_estimate(node, z)
        return settled[id(node)]

    for split in _splits_bottom_up(root):
        children = {v: pruned(child) for v, child in split.children.items()}
        split.children = {v: child for v, (child, _) in children.items()}
        subtree_estimate = sum(estimate for _, estimate in children.values())
        leaf = Leaf(counts=split.counts, majority=_majority(split.counts))
        leaf_estimate = _leaf_estimate(leaf, z)
        if leaf_estimate <= subtree_estimate + 1e-10:
            settled[id(split)] = leaf, leaf_estimate
        else:
            settled[id(split)] = split, subtree_estimate
    return pruned(root)[0]


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
    root = _grow(_column_table(rows, schema), schema, cfg)
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


def _flat_nodes(root: Node) -> list[dict]:
    """The tree as a pre-order list of node fields. A split lists its
    children in value order and names each by its list index."""
    nodes: list[dict] = []
    stack: list[tuple[Node, dict | None, str | None]] = [(root, None, None)]
    while stack:
        node, refs, value = stack.pop()
        if refs is not None:
            refs[value] = len(nodes)
        if isinstance(node, Leaf):
            nodes.append({"type": "leaf", "counts": node.counts, "majority": node.majority})
            continue
        children = sorted(node.children.items())
        child_refs = dict.fromkeys(v for v, _ in children)
        nodes.append({
            "type": "split",
            "attribute": node.attribute,
            "kind": node.kind,
            "threshold": node.threshold,
            "majority_child": node.majority_child,
            "counts": node.counts,
            "children": child_refs,
        })
        stack.extend((child, child_refs, v) for v, child in reversed(children))
    return nodes


def _node_from_json(
    payload: dict, kinds: Mapping[str, str], child: Callable[[object], Node]
) -> Node:
    """Rebuild one node; `kinds` maps each schema attribute to its kind and
    `child` turns a child reference into its already built node."""
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
            children = {str(v): child(ref) for v, ref in payload["children"].items()}
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
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise TreeFormatError(f"corrupt tree node: {exc}") from None
    raise TreeFormatError(f"unknown node type {payload.get('type')!r}")


def _tree_from_nodes(nodes: object, kinds: Mapping[str, str]) -> Node:
    """Build the tree of a pre-order node list, last node first. Every child
    index must name a later node, and every node but the root must be the
    child of exactly one split."""
    if not isinstance(nodes, list) or not nodes:
        raise TreeFormatError("a tree file needs a non-empty node list")
    built: list[Node | None] = [None] * len(nodes)
    reached = [True] + [False] * (len(nodes) - 1)

    def child(parent: int, ref: object) -> Node:
        if type(ref) is not int or not parent < ref < len(nodes):
            raise TreeFormatError(f"child index {ref!r} does not name a later node")
        if reached[ref]:
            raise TreeFormatError(f"node {ref} is reached twice")
        reached[ref] = True
        return built[ref]

    for i in reversed(range(len(nodes))):
        try:
            built[i] = _node_from_json(nodes[i], kinds, functools.partial(child, i))
        except TreeFormatError as exc:
            raise TreeFormatError(f"node {i}: {exc}") from None
    if not all(reached):
        raise TreeFormatError(f"node {reached.index(False)} is not reached from the root")
    return built[0]


def save_tree(tree: DecisionTree) -> str:
    """The text of a tree file (format version 2)."""
    payload = {
        "format": TREE_FORMAT,
        "format_version": TREE_FORMAT_VERSION,
        "schema": [{"name": s.name, "kind": s.kind} for s in tree.schema],
        "config": {
            "min_instances": tree.config.min_instances,
            "confidence": tree.config.confidence,
            "prune": tree.config.prune,
        },
        "nodes": _flat_nodes(tree.root),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def load_tree(text: str, expected: Sequence[AttributeSpec] | None = None) -> DecisionTree:
    """Parse the text of a tree file (format version 2). With `expected`, the
    tree's schema must hold those attributes."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TreeFormatError(f"corrupt tree file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != TREE_FORMAT:
        raise TreeFormatError("not a scriptmap tree file")
    version = payload.get("format_version")
    if version != TREE_FORMAT_VERSION:
        raise TreeFormatError(f"unsupported tree format version {version!r}")
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
        root = _tree_from_nodes(payload["nodes"], {a.name: a.kind for a in schema})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeFormatError(f"corrupt tree file: {exc}") from None
    if expected is not None and set(schema) != set(expected):
        raise TreeFormatError(f"tree schema {[a.name for a in schema]} does not match"
                              f" the rows' {[a.name for a in expected]}")
    return DecisionTree(schema=schema, root=root, config=cfg)
