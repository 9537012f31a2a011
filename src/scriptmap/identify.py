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

Rows are coded once (CodedRows): a row's value of an attribute becomes its
rank among the attribute's sorted distinct values, joined with the row's
class in one integer. An evaluation codes all of its run's rows into one
table and trains each fold's tree from a view of it, a list of row indices,
so no row is coded twice. A node summarizes each attribute by one C-level
count of its rows' codes, and both kinds of split are scored from that
summary alone (attribute-value-class counts, as in RainForest): a nominal
split reads each value's class counts, and a numeric attribute sorts the
summary once and scores every midpoint in one sweep of class counts from
either end (Quinlan's sorted threshold search). So a node costs one count
per attribute, plus Python work per distinct (value, class) pair rather than
per row. An attribute with a single value at a node is not searched below
it. Each entropy is summed where it is needed, without a memo: most class
counts a tree scores occur once, so a table of them would cost more to fill
than it saves. Growing and pruning keep an explicit stack, and tree files
list the nodes flat, so the depth of a tree is bounded by neither the
interpreter's recursion limit nor the JSON codec's. save_tree returns a tree
file's text and load_tree parses it; format version 2 is the only one it
reads.
"""

from __future__ import annotations

import copy
import functools
import json
import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from scipy.special import ndtri

from .corpus import (
    ABSENT,
    DOBJ_DEPRELS,
    EVENT,
    IOBJ_DEPRELS,
    NON_SCRIPT_KINDS,
    Story,
    VerbMention,
    collapse_label,
    split_lines,
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
    deprels = [t.deprel for t in sentence if t.head == verb.index]
    advcl = "advcl" in deprels
    n_dobj = sum(d in DOBJ_DEPRELS for d in deprels)
    n_iobj = sum(d in IOBJ_DEPRELS for d in deprels)
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
    for line in split_lines(text):
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


def _entropy(counts: Iterable[int], total: int) -> float:
    """The entropy, base 2, of positive class counts that sum to `total`,
    summed over the counts in the order given."""
    h = 0.0
    for s in counts:
        p = s / total
        h -= p * math.log2(p)
    return h


def _column_table(rows: Sequence[TreeRow], schema: Sequence[AttributeSpec]):
    """(codes, values, y, labels) of the rows, as CodedRows holds them."""
    labels: dict[str, int] = {}
    y = [labels.setdefault(label, len(labels)) for _, label in rows]
    n_classes = len(labels)
    codes, values = [], []
    for spec in schema:
        if spec.kind == NUMERIC:
            column = [float(attrs[spec.name]) for attrs, _ in rows]
            # a NaN has no place in the sorted order the split search relies on,
            # and an infinite value can make a threshold no tree file can hold
            if not all(map(math.isfinite, column)):
                raise ValueError(f"numeric attribute {spec.name!r} has a non-finite value")
        else:
            column = [str(attrs[spec.name]) for attrs, _ in rows]
        distinct = sorted(set(column))  # -0.0 and 0.0 share the rank of the first seen
        base = {v: r * n_classes for r, v in enumerate(distinct)}
        codes.append([base[v] + c for v, c in zip(column, y)])
        values.append(distinct)
    return codes, values, y, list(labels)


class CodedRows:
    """Tree rows coded once for a schema, or a view of some of them.

    CodedRows(rows, schema) checks each row's attribute names against the
    schema and codes the rows; subset(indices) is a view of the rows at
    those indices of the coded table, in that order, sharing its codes.
    Training on a view gives the tree that training on those rows, coded
    alone, gives.

    Coded row i has the class labels[y[i]] and, for the a-th schema
    attribute, the code codes[a][i] = rank * L + y[i]: rank is the place of
    the row's value among values[a], the attribute's sorted distinct values
    (floats for numeric attributes, strings for nominal ones), and
    L = len(labels). idx lists the view's rows in training order, and nodes
    keep that order, so a code's place in a node's Counter of codes orders
    it by its first row there. The split search orders classes by their
    first row in a node, never by id, and the sign of a zero moves no
    midpoint and no bisection, so a tree does not depend on what other rows
    the table holds."""

    def __init__(self, rows: Sequence[TreeRow], schema: Sequence[AttributeSpec]):
        self.schema = tuple(schema)
        names = [spec.name for spec in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        for attrs, _ in rows:
            if set(attrs) != set(names):
                raise ValueError(
                    f"row attributes {sorted(attrs)} do not match schema {sorted(names)}"
                )
        self.codes, self.values, self.y, self.labels = _column_table(rows, self.schema)
        self.idx: Sequence[int] = range(len(rows))

    def subset(self, indices: Iterable[int]) -> CodedRows:
        idx = list(indices)
        if idx and not (0 <= min(idx) and max(idx) < len(self.y)):
            raise IndexError(f"row indices outside the {len(self.y)} coded rows")
        view = copy.copy(self)
        view.idx = idx
        return view

    def __len__(self) -> int:
        return len(self.idx)

    def class_counts(self) -> dict[str, int]:
        """Class counts of the rows, in order of first appearance."""
        return _class_counts(self, self.idx)


def _class_counts(coded: CodedRows, idx: Sequence[int]) -> dict[str, int]:
    """Class counts of a node, in order of first appearance."""
    return {coded.labels[c]: k for c, k in Counter(map(coded.y.__getitem__, idx)).items()}


def _majority(counts: Mapping[str, int]) -> str:
    return min(counts, key=lambda c: (-counts[c], c))


def _nominal_split(coded: CodedRows, a: int, summary: Counter, n: int, parent_h: float):
    """(ratio, gain, None) of the split by value, or None when the node holds
    a single value. `summary` counts the node's codes of attribute a."""
    # codes count in order of first appearance, so each value's class counts
    # come out in the order its part first shows them
    n_classes = len(coded.labels)
    by_rank: dict[int, list[int]] = {}
    for code, k in summary.items():
        by_rank.setdefault(code // n_classes, []).append(k)
    if len(by_rank) < 2:
        return None
    gain, sizes = parent_h, []
    for rank in sorted(by_rank):
        sizes.append(sum(by_rank[rank]))
        gain -= (sizes[-1] / n) * _entropy(by_rank[rank], sizes[-1])
    split_info = _entropy(sizes, n)
    return (gain / split_info if split_info > 0 else 0.0), gain, None


def _run_entropies(n_classes: int, cells: Sequence[tuple[int, int, int]]):
    """The runs of `cells` as (ranks, sizes, entropies): a cell is (code,
    ordinal, count), a run is the cells of one rank, and sizes[r] and
    entropies[r] are the row count and class entropy of the first r runs
    together, for r = 0..len(ranks). A part sums its classes in order of
    their smallest ordinal, which is the order of their first rows. The sum
    is _entropy's, written inline because it runs at every run boundary."""
    tally, first, order = [0] * n_classes, [math.inf] * n_classes, []
    ranks, sizes, entropies, size = [cells[0][0] // n_classes], [0], [0.0], 0
    for code, ordinal, k in (*cells, (-1, 0, 0)):  # an empty cell of rank -1 ends the last run
        rank, c = divmod(code, n_classes)
        if rank != ranks[-1]:
            h = 0.0
            for s in map(tally.__getitem__, order):
                p = s / size
                h -= p * math.log2(p)
            ranks.append(rank)
            sizes.append(size)
            entropies.append(h)
        tally[c] += k
        size += k
        if ordinal < first[c]:
            if first[c] == math.inf:
                order.append(c)
            first[c] = ordinal
            order.sort(key=first.__getitem__)
    ranks.pop()  # the end cell's
    return ranks, sizes, entropies


def _numeric_split(coded: CodedRows, a: int, summary: Counter, n: int, parent_h: float):
    """(ratio, gain, threshold) of the best midpoint between consecutive
    distinct values, or None when the node holds a single value.

    The node's codes are sorted once. Class counts accumulated run by run
    from either end give both parts of every midpoint; the le side is found
    by bisecting the values with the midpoint itself, which can round onto
    the upper value."""
    n_classes = len(coded.labels)
    # (code, ordinal, count), where the ordinal is the code's place in summary
    cells = sorted(zip(summary, range(len(summary)), summary.values()))
    if cells[0][0] // n_classes == cells[-1][0] // n_classes:
        return None
    ranks, n_le, h_le = _run_entropies(n_classes, cells)
    h_gt = _run_entropies(n_classes, cells[::-1])[2][::-1]  # values from r on
    values = list(map(coded.values[a].__getitem__, ranks))
    best = None
    for x, z in zip(values, values[1:]):
        threshold = (x + z) / 2.0
        r = bisect_right(values, threshold)
        k = n_le[r]
        p, q = k / n, (n - k) / n
        gain = parent_h - p * h_le[r] - q * h_gt[r]
        # a midpoint that rounds onto the top value leaves the gt side empty,
        # and one that overflows to -inf the le side: no split information
        ratio = gain / (-p * math.log2(p) - q * math.log2(q)) if 0 < k < n else 0.0
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
    coded = CodedRows([({spec.name: attrs[spec.name]}, label) for attrs, label in rows], [spec])
    parent_h = _entropy(coded.class_counts().values(), len(rows))
    result = _SPLITTERS[spec.kind](coded, 0, Counter(coded.codes[0]), len(rows), parent_h)
    return 0.0 if result is None else result[0]


def _split_node(
    coded: CodedRows,
    cfg: TreeConfig,
    idx: list[int],
    live: Sequence[int],
) -> tuple[Node, dict[str, list[int]], list[int]]:
    """The node for the rows `idx`, searching the attributes `live`; for a
    split, also each child's rows and the attributes its children search.
    The split's children dict already holds its keys, in order, mapped to
    None."""
    counts = _class_counts(coded, idx)
    best, varying = None, []
    if len(counts) > 1 and len(idx) >= cfg.min_instances:
        parent_h = _entropy(counts.values(), len(idx))
        take = itemgetter(*idx)  # idx holds two rows or more
        for a in live:
            summary = Counter(take(coded.codes[a]))
            search = _SPLITTERS[coded.schema[a].kind]
            result = search(coded, a, summary, len(idx), parent_h)
            if result is None:  # a single value here, so in every descendant too
                continue
            varying.append(a)
            if result[1] <= _GAIN_EPS:
                continue
            if best is None or result[0] > best[0]:
                best = (*result, a)
    if best is None:
        return Leaf(counts=counts, majority=_majority(counts)), {}, []
    _, _, threshold, a = best
    spec, codes, n_classes = coded.schema[a], coded.codes[a], len(coded.labels)
    if spec.kind == NUMERIC:
        # a code is below `cut` exactly when its value is <= threshold
        cut = bisect_right(coded.values[a], threshold) * n_classes
        parts = {_LE: [i for i in idx if codes[i] < cut], _GT: [i for i in idx if codes[i] >= cut]}
    else:
        by_rank: dict[int, list[int]] = {}
        for i in idx:
            by_rank.setdefault(codes[i] // n_classes, []).append(i)
        parts = {coded.values[a][r]: by_rank[r] for r in sorted(by_rank)}
        varying.remove(a)
    parts = {v: part for v, part in parts.items() if part}
    split = Split(
        attribute=spec.name,
        kind=spec.kind,
        threshold=threshold,
        children=dict.fromkeys(parts),
        majority_child=max(parts, key=lambda v: (len(parts[v]), v)),
        counts=counts,
    )
    return split, parts, varying


def _grow(coded: CodedRows, cfg: TreeConfig) -> Node:
    """Grow the tree of the coded rows on an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit."""
    top: dict[str, Node] = {}
    stack = [(list(coded.idx), range(len(coded.schema)), top, "root")]
    while stack:
        idx, live, slot, key = stack.pop()
        node, parts, live = _split_node(coded, cfg, idx, live)
        slot[key] = node
        stack.extend((part, live, node.children, value) for value, part in parts.items())
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


def _z_score(confidence: float) -> float:
    return float(ndtri(1.0 - confidence))


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


def train_tree(coded: CodedRows, cfg: TreeConfig | None = None) -> DecisionTree:
    """Grow (and by default prune) a decision tree over the coded rows, for
    the schema they were coded for.

    Single-class input yields a single-leaf tree. Attribute and threshold
    candidates are visited in schema order; gain-ratio ties keep the first.
    """
    cfg = cfg or TreeConfig()
    if not len(coded):
        raise ValueError("no training rows")
    root = _grow(coded, cfg)
    if cfg.prune:
        root = _prune(root, _z_score(cfg.confidence))
    return DecisionTree(schema=coded.schema, root=root, config=cfg)


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
