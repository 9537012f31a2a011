"""Decision-tree identifier: split scoring, pruning, row extraction, persistence."""

from __future__ import annotations

import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from conftest import LINE_END_FORMS, NOT_LINE_ENDS, codepoint, tok
from scriptmap import corpus
from scriptmap.features import build_scenario_stats, mention_tfidf
from scriptmap.identify import (
    SCENARIO_SCHEMA,
    AttributeSpec,
    CodedRows,
    DecisionTree,
    Leaf,
    Split,
    TreeConfig,
    TreeFormatError,
    classify,
    classify_binary,
    extract_row,
    gain_ratio,
    load_nonaction_list,
    load_tree,
    _z_score,
    node_error_estimate,
    row_schema,
    save_tree,
    train_tree,
    tree_row,
)

Z_QUARTER = 0.6744897501960817  # standard normal upper quartile

NOMINAL_A = AttributeSpec("a", "nominal")
NUMERIC_X = AttributeSpec("x", "numeric")


def upper_error_count(n, errors, z):
    """Pessimistic error count: n times the Wilson-style upper bound on the
    observed error rate. Written out independently of the implementation."""
    f = errors / n
    bound = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1 + z * z / n
    )
    return n * bound


class TestGainRatio:
    def test_three_one_nominal_split(self):
        rows = [({"a": "p"}, "A"), ({"a": "p"}, "A"), ({"a": "p"}, "B"), ({"a": "q"}, "B")]
        # parent entropy 1; gain 1 - 3/4 * H(2/3) = 0.31127812445913283;
        # split info H(3/4) = 0.8112781244591328
        assert abs(gain_ratio(rows, NOMINAL_A) - 0.3836885465963443) < 1e-9

    def test_perfect_nominal_split(self):
        rows = [({"a": "p"}, "A"), ({"a": "p"}, "A"), ({"a": "q"}, "B"), ({"a": "q"}, "B")]
        assert abs(gain_ratio(rows, NOMINAL_A) - 1.0) < 1e-9

    def test_constant_attribute_scores_zero(self):
        rows = [({"a": "p"}, "A"), ({"a": "p"}, "B")]
        assert gain_ratio(rows, NOMINAL_A) == 0.0

    def test_numeric_best_midpoint(self):
        rows = [({"x": 1.0}, "A"), ({"x": 2.0}, "A"), ({"x": 3.0}, "B"), ({"x": 4.0}, "B")]
        assert abs(gain_ratio(rows, NUMERIC_X) - 1.0) < 1e-9

    def test_numeric_alternating_classes(self):
        # thresholds 1.5 and 3.5 both isolate one row: gain 0.311278...,
        # split info 0.811278...; threshold 2.5 has zero gain
        rows = [({"x": 1.0}, "A"), ({"x": 2.0}, "B"), ({"x": 3.0}, "A"), ({"x": 4.0}, "B")]
        assert abs(gain_ratio(rows, NUMERIC_X) - 0.3836885465963443) < 1e-9

    def test_single_class_scores_zero(self):
        rows = [({"a": "p"}, "A"), ({"a": "q"}, "A")]
        assert gain_ratio(rows, NOMINAL_A) == 0.0

    def test_non_negative_on_arbitrary_rows(self):
        rows = [
            ({"a": v}, c)
            for v, c in zip("ppqqrrpq", ["A", "B", "A", "B", "B", "B", "A", "A"])
        ]
        assert gain_ratio(rows, NOMINAL_A) >= 0.0

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="^gain_ratio of an empty row set$"):
            gain_ratio([], NOMINAL_A)


class TestTraining:
    def test_unpruned_tree_fits_separable_data(self):
        rows = [
            ({"a": "p", "x": 1.0}, "A"),
            ({"a": "p", "x": 5.0}, "B"),
            ({"a": "q", "x": 1.0}, "C"),
            ({"a": "q", "x": 5.0}, "C"),
            ({"a": "p", "x": 2.0}, "A"),
            ({"a": "p", "x": 6.0}, "B"),
        ]
        schema = [NOMINAL_A, NUMERIC_X]
        tree = train_tree(CodedRows(rows, schema), TreeConfig(prune=False))
        assert all(classify(tree, attrs) == label for attrs, label in rows)

    def test_numeric_thresholds_are_midpoints(self):
        rows = [({"x": 1.0}, "A"), ({"x": 2.0}, "A"), ({"x": 3.0}, "B"), ({"x": 4.0}, "B")]
        tree = train_tree(CodedRows(rows, [NUMERIC_X]), TreeConfig(prune=False))
        assert isinstance(tree.root, Split)
        assert tree.root.threshold == 2.5
        assert classify(tree, {"x": 2.5}) == "A"  # boundary goes to the le child
        assert classify(tree, {"x": 2.6}) == "B"

    def test_single_class_collapses_to_leaf(self):
        rows = [({"a": "p"}, "A"), ({"a": "q"}, "A")]
        tree = train_tree(CodedRows(rows, [NOMINAL_A]), TreeConfig(prune=False))
        assert tree.root == Leaf(counts={"A": 2}, majority="A")
        assert classify(tree, {"a": "anything"}) == "A"

    def test_min_instances_stops_splitting(self):
        rows = [({"a": "p"}, "A"), ({"a": "p"}, "A"), ({"a": "q"}, "B"), ({"a": "q"}, "B")]
        tree = train_tree(CodedRows(rows, [NOMINAL_A]), TreeConfig(min_instances=10, prune=False))
        assert isinstance(tree.root, Leaf)

    def test_majority_tie_is_deterministic(self):
        rows = [({"a": "p"}, "B"), ({"a": "p"}, "A"), ({"a": "q"}, "A"), ({"a": "q"}, "B")]
        t1 = train_tree(CodedRows(rows, [NOMINAL_A]))
        t2 = train_tree(CodedRows(list(reversed(rows)), [NOMINAL_A]))
        assert classify(t1, {"a": "p"}) == classify(t2, {"a": "p"})

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_tree(CodedRows([], [NOMINAL_A]))

    @pytest.mark.parametrize(
        "attrs", [{"a": "p"}, {"a": "p", "x": 1.0, "y": 2.0}, {"a": "p", "y": 1.0}]
    )
    def test_row_attributes_other_than_the_schema_rejected(self, attrs):
        rows = [({"a": "q", "x": 1.0}, "A"), (attrs, "B")]
        with pytest.raises(ValueError, match="do not match schema"):
            train_tree(CodedRows(rows, [NOMINAL_A, NUMERIC_X]))

    def test_duplicate_attribute_name_rejected(self):
        rows = [({"a": "p"}, "A"), ({"a": "q"}, "B")]
        with pytest.raises(ValueError, match="duplicate attribute names"):
            train_tree(CodedRows(rows, [NOMINAL_A, AttributeSpec("a", "numeric")]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numeric_value_rejected(self, value):
        rows = [({"x": 1.0}, "A"), ({"x": value}, "B")]
        with pytest.raises(ValueError, match="non-finite"):
            train_tree(CodedRows(rows, [NUMERIC_X]))
        with pytest.raises(ValueError, match="non-finite"):
            gain_ratio(rows, NUMERIC_X)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(min_instances=0)
        with pytest.raises(ValueError):
            TreeConfig(confidence=0.0)
        with pytest.raises(ValueError):
            TreeConfig(confidence=0.5)


def pruning_rows():
    """v=p holds 8 event plus 1 stray non-event row, v=q one event row. The
    split looks useful on training counts but cannot beat the collapsed
    leaf's pessimistic estimate."""
    rows = [({"v": "p"}, "event")] * 8 + [({"v": "p"}, "non_script_event")]
    rows += [({"v": "q"}, "event")]
    return rows


class TestPruning:
    def test_error_estimates_match_hand_computation(self):
        tree = train_tree(
            CodedRows(pruning_rows(), [AttributeSpec("v", "nominal")]), TreeConfig(prune=False)
        )
        assert isinstance(tree.root, Split)
        subtree = upper_error_count(9, 1, Z_QUARTER) + upper_error_count(1, 0, Z_QUARTER)
        estimate = node_error_estimate(tree.root, _z_score(tree.config.confidence))
        assert estimate == pytest.approx(subtree, abs=1e-12)
        assert subtree == pytest.approx(2.1239690297939187, abs=1e-12)
        collapsed = Leaf(counts={"event": 9, "non_script_event": 1}, majority="event")
        assert node_error_estimate(collapsed, Z_QUARTER) == pytest.approx(
            upper_error_count(10, 1, Z_QUARTER), abs=1e-12
        )
        assert upper_error_count(10, 1, Z_QUARTER) == pytest.approx(
            1.823611207571458, abs=1e-12
        )

    def test_z_score_is_the_normal_quantile_bit_for_bit(self):
        grid = [0.25, 1e-12, 0.5 - 1e-12] + [i / 2000 for i in range(1, 2000)]
        assert [_z_score(c) for c in grid] == [float(norm.ppf(1.0 - c)) for c in grid]
        assert _z_score(0.25) == Z_QUARTER

    def test_one_instance_branch_is_pruned_at_default_confidence(self):
        pruned = train_tree(
            CodedRows(pruning_rows(), [AttributeSpec("v", "nominal")]), TreeConfig()
        )
        assert pruned.root == Leaf(counts={"event": 9, "non_script_event": 1}, majority="event")

    def test_prune_false_keeps_the_split(self):
        kept = train_tree(
            CodedRows(pruning_rows(), [AttributeSpec("v", "nominal")]), TreeConfig(prune=False)
        )
        assert isinstance(kept.root, Split)

    def test_informative_split_survives_pruning(self):
        rows = [({"v": "p"}, "event")] * 8 + [({"v": "q"}, "non_script_event")] * 8
        tree = train_tree(CodedRows(rows, [AttributeSpec("v", "nominal")]), TreeConfig())
        assert isinstance(tree.root, Split)


class TestClassify:
    def tree_pq(self):
        rows = [({"a": "p"}, "A")] * 3 + [({"a": "q"}, "B")] * 2
        return train_tree(CodedRows(rows, [NOMINAL_A]), TreeConfig(prune=False))

    def test_unknown_nominal_value_goes_to_majority_child(self):
        tree = self.tree_pq()
        assert classify(tree, {"a": "zzz"}) == "A"

    def test_attribute_mismatch_rejected(self):
        tree = self.tree_pq()
        with pytest.raises(ValueError, match="schema"):
            classify(tree, {})
        with pytest.raises(ValueError, match="schema"):
            classify(tree, {"a": "p", "extra": 1.0})

    def test_classify_binary_collapses_training_classes(self):
        rows = [({"a": "p"}, "event")] * 2
        rows += [({"a": "q"}, "script_related"), ({"a": "q"}, "script_related")]
        rows += [({"a": "r"}, "non_script_event")] * 2
        tree = train_tree(CodedRows(rows, [NOMINAL_A]), TreeConfig(prune=False))
        assert classify(tree, {"a": "q"}) == "script_related"
        assert classify_binary(tree, {"a": "p"}) == corpus.EVENT
        assert classify_binary(tree, {"a": "q"}) == corpus.NON_SCRIPT
        assert classify_binary(tree, {"a": "r"}) == corpus.NON_SCRIPT


AUX_STORY = "\n".join(
    [
        "#doc aux_story",
        "#scenario make_tea",
        "#kind story",
        # "was" is an aux dependent of the content verb
        tok(1, "She", "she", "PRP", 3, "nsubj", "c1"),
        tok(2, "was", "be", "AUX", 3, "aux", "_", "non_script_event"),
        tok(3, "boiling", "boil", "VBG", 0, "root", "_", "boil_water"),
        tok(4, "water", "water", "NN", 3, "dobj"),
        "",
        # "removed" governs an adverbial clause headed by "rang"
        tok(1, "When", "when", "WRB", 3, "mark"),
        tok(2, "it", "it", "PRP", 3, "nsubj", "c2"),
        tok(3, "rang", "ring", "VBD", 5, "advcl", "_", "non_script_event"),
        tok(4, "she", "she", "PRP", 5, "nsubj", "c1"),
        tok(5, "removed", "remove", "VBD", 0, "root", "_", "take_out"),
        tok(6, "it", "it", "PRP", 5, "dobj", "c3"),
        "",
        # modal verb plus a double-object verb
        tok(1, "You", "you", "PRP", 3, "nsubj"),
        tok(2, "might", "might", "MD", 3, "aux", "_", "non_script_event"),
        tok(3, "give", "give", "VB", 0, "root", "_", "non_script_event"),
        tok(4, "him", "he", "PRP", 3, "iobj"),
        tok(5, "tea", "tea", "NN", 3, "dobj"),
        tok(6, "now", "now", "RB", 3, "advmod"),
        "",
    ]
)


class TestExtractRow:
    @pytest.fixture()
    def aux_story(self):
        return corpus.parse_corpus_file(AUX_STORY, kind="story")[0]

    @pytest.fixture()
    def stats(self, mini_esds):
        return build_scenario_stats(mini_esds)["make_tea"]

    def rows(self, story, stats, nonaction=frozenset()):
        return {
            (m.sentence, m.token_index): extract_row(m, story, stats, nonaction)
            for m in story.mentions
        }

    def test_auxiliary_flags(self, aux_story, stats):
        rows = self.rows(aux_story, stats)
        assert rows[(0, 2)].is_auxiliary  # deprel aux
        assert rows[(2, 2)].is_auxiliary  # pos MD
        assert not rows[(0, 3)].is_auxiliary
        assert not rows[(1, 5)].is_auxiliary

    def test_adverbial_clause_governor(self, aux_story, stats):
        rows = self.rows(aux_story, stats)
        assert rows[(1, 5)].governs_adverbial_clause
        assert not rows[(1, 3)].governs_adverbial_clause
        assert not rows[(0, 3)].governs_adverbial_clause

    def test_object_counts(self, aux_story, stats):
        rows = self.rows(aux_story, stats)
        give = rows[(2, 3)]
        assert give.n_direct_objects == 1
        assert give.n_indirect_objects == 1
        assert rows[(0, 2)].n_direct_objects == 0
        assert rows[(0, 3)].n_direct_objects == 1

    def test_nonaction_membership(self, aux_story, stats):
        rows = self.rows(aux_story, stats, nonaction=frozenset({"be", "want"}))
        assert rows[(0, 2)].in_nonaction_list
        assert not rows[(0, 3)].in_nonaction_list

    def test_scenario_features(self, aux_story, stats):
        rows = self.rows(aux_story, stats)
        boiling = rows[(0, 3)]
        assert boiling.lemma_in_scenario_esds is True
        assert rows[(1, 5)].lemma_in_scenario_esds is False
        mention = aux_story.mentions[1]
        assert boiling.tfidf_score == mention_tfidf(mention, stats)

    def test_scenario_independent_mode_drops_esd_features(self, aux_story):
        row = extract_row(aux_story.mentions[1], aux_story, None, frozenset())
        assert row.lemma_in_scenario_esds is None
        assert row.tfidf_score is None
        attrs, _ = tree_row(row)
        assert "lemma_in_scenario_esds" not in attrs
        assert "tfidf_score" not in attrs

    def test_class_labels_keep_non_script_kinds(self, aux_story, stats):
        rows = self.rows(aux_story, stats)
        assert rows[(0, 3)].class_label == corpus.EVENT
        assert rows[(0, 2)].class_label == "non_script_event"

    def test_tree_row_value_shapes(self, aux_story, stats):
        attrs, label = tree_row(self.rows(aux_story, stats)[(2, 3)])
        assert attrs["is_auxiliary"] == "false"
        assert attrs["n_direct_objects"] == 1.0
        assert attrs["n_indirect_objects"] == 1.0
        assert attrs["frame"] == "_"
        assert label == "non_script_event"

    def test_row_schema_selects_attribute_sets(self):
        scenario = [s.name for s in row_schema(True)]
        independent = [s.name for s in row_schema(False)]
        assert "lemma_in_scenario_esds" in scenario
        assert "tfidf_score" in scenario
        assert "lemma_in_scenario_esds" not in independent
        assert "tfidf_score" not in independent
        assert set(independent) < set(scenario)


class TestNonactionList:
    def test_packaged_default(self):
        words = load_nonaction_list()
        assert "be" in words
        assert "want" in words

    def test_custom_file_with_comments(self):
        text = "# stative verbs\nbe\nseem\n\nknow\n"
        assert load_nonaction_list(text) == frozenset({"be", "seem", "know"})

    @pytest.mark.parametrize("form", sorted(LINE_END_FORMS))
    def test_line_end_forms_read_alike(self, form):
        text = LINE_END_FORMS[form]("# stative verbs\nbe\nseem\n\nknow\n")
        assert load_nonaction_list(text) == frozenset({"be", "seem", "know"})

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=codepoint)
    def test_no_line_end_inside_an_entry(self, char):
        text = f"be\nlook{char}up # phrasal\n"
        assert load_nonaction_list(text) == frozenset({"be", f"look{char}up"})


class TestPersistence:
    def make_tree(self):
        rows = [
            ({"a": "p", "x": 1.0}, "event"),
            ({"a": "p", "x": 5.0}, "non_script_event"),
            ({"a": "q", "x": 1.0}, "script_related"),
            ({"a": "q", "x": 2.0}, "script_related"),
        ]
        return train_tree(CodedRows(rows, [NOMINAL_A, NUMERIC_X]), TreeConfig(prune=False))

    def test_round_trip(self):
        tree = self.make_tree()
        loaded = load_tree(save_tree(tree))
        assert loaded == tree
        for attrs in ({"a": "p", "x": 1.0}, {"a": "q", "x": 9.0}, {"a": "zz", "x": 3.0}):
            assert classify(loaded, attrs) == classify(tree, attrs)

    def test_corrupt_file_rejected(self):
        with pytest.raises(TreeFormatError):
            load_tree("{ nope")

    def test_loaded_leaf_with_empty_counts_estimates_zero(self):
        payload = self.saved_payload()
        payload["nodes"] = [{"type": "leaf", "counts": {}, "majority": "event"}]
        tree = load_tree(json.dumps(payload))
        assert tree.root == Leaf(counts={}, majority="event")
        assert node_error_estimate(tree.root, _z_score(tree.config.confidence)) == 0.0

    def test_foreign_payload_rejected(self):
        with pytest.raises(TreeFormatError):
            load_tree(json.dumps({"format": "other"}))

    def saved_payload(self) -> dict:
        return json.loads(save_tree(self.make_tree()))

    @pytest.mark.parametrize("version", [1, 2])
    def test_tampered_node_rejected(self, version):
        payload = self.saved_payload()
        if version == 1:
            del payload["nodes"]
            payload["format_version"] = 1
            payload["root"] = {"kind": "mystery"}
        else:
            payload["nodes"][-1] = {"kind": "mystery"}
        with pytest.raises(TreeFormatError):
            load_tree(json.dumps(payload))

    def test_version_1_file_rejected(self):
        tree = self.make_tree()
        v1 = {**self.saved_payload(), "format_version": 1, "root": nested_node(tree.root)}
        del v1["nodes"]
        with pytest.raises(TreeFormatError, match="^unsupported tree format version 1$"):
            load_tree(json.dumps(v1, sort_keys=True, indent=1))

    def test_nodes_are_a_flat_pre_order_list(self):
        nodes = self.saved_payload()["nodes"]
        assert [n["type"] for n in nodes] == ["split", "split", "leaf", "leaf", "leaf"]
        assert nodes[0]["children"] == {"p": 1, "q": 4}
        assert nodes[1]["children"] == {"gt": 2, "le": 3}

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda nodes: nodes[0]["children"].update(p=0), "later node"),
            (lambda nodes: nodes[1]["children"].update(le=0), "later node"),
            (lambda nodes: nodes[0]["children"].update(q=99), "later node"),
            (lambda nodes: nodes[0]["children"].update(q="4"), "later node"),
            (lambda nodes: nodes[0]["children"].update(q=True), "later node"),
            (lambda nodes: nodes[0]["children"].update(q=2), "reached twice"),
            (lambda nodes: nodes.append({"type": "leaf", "counts": {"event": 1},
                                         "majority": "event"}), "not reached"),
            (lambda nodes: nodes.clear(), "non-empty node list"),
        ],
        ids=["self", "earlier", "dangling", "string", "bool", "twice", "unreached", "empty"],
    )
    def test_malformed_node_list_rejected(self, tamper, message):
        payload = self.saved_payload()
        tamper(payload["nodes"])
        with pytest.raises(TreeFormatError, match=message):
            load_tree(json.dumps(payload))

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"format": ' + "[" * 100_000])
    def test_deeply_nested_json_rejected(self, text):
        with pytest.raises(TreeFormatError):
            load_tree(text)


def nested_node(node) -> dict:
    """A node in the nested form of format version 1, which is no longer read."""
    if isinstance(node, Leaf):
        return {"type": "leaf", "counts": node.counts, "majority": node.majority}
    return {
        "type": "split",
        "attribute": node.attribute,
        "kind": node.kind,
        "threshold": node.threshold,
        "children": {v: nested_node(c) for v, c in node.children.items()},
        "majority_child": node.majority_child,
        "counts": node.counts,
    }


# The per-threshold partition form of split search and the recursive grow and
# prune, kept as the reference that the search from per-node (value, class)
# counts must match exactly: entropies sum classes in order of first
# appearance within each part, ties keep the first threshold and the first
# attribute.


def ref_entropy(sizes):
    total = sum(sizes)
    if total == 0:
        return 0.0
    h = 0.0
    for s in sizes:
        if s > 0:
            p = s / total
            h -= p * math.log2(p)
    return h


def ref_class_counts(rows):
    counts = {}
    for _, label in rows:
        counts[label] = counts.get(label, 0) + 1
    return counts


def ref_partition_gain(rows, parts):
    gain = ref_entropy(list(ref_class_counts(rows).values()))
    for part in parts:
        gain -= (len(part) / len(rows)) * ref_entropy(list(ref_class_counts(part).values()))
    split_info = ref_entropy([len(p) for p in parts])
    return gain, (gain / split_info if split_info > 0 else 0.0)


def ref_best_split(rows, spec):
    """(ratio, gain, threshold, partition) of the attribute's best split."""
    name = spec.name
    if spec.kind == "nominal":
        parts = {}
        for row in rows:
            parts.setdefault(str(row[0][name]), []).append(row)
        if len(parts) < 2:
            return None
        parts = {v: parts[v] for v in sorted(parts)}
        gain, ratio = ref_partition_gain(rows, list(parts.values()))
        return ratio, gain, None, parts
    values = sorted({float(attrs[name]) for attrs, _ in rows})
    best = None
    for lo, hi in zip(values, values[1:]):
        threshold = (lo + hi) / 2.0
        parts = {
            "le": [r for r in rows if float(r[0][name]) <= threshold],
            "gt": [r for r in rows if float(r[0][name]) > threshold],
        }
        gain, ratio = ref_partition_gain(rows, list(parts.values()))
        if best is None or ratio > best[0]:
            best = (ratio, gain, threshold, parts)
    return best


def ref_gain_ratio(rows, spec):
    result = ref_best_split(rows, spec)
    return 0.0 if result is None else result[0]


def ref_majority(counts):
    return min(counts, key=lambda c: (-counts[c], c))


def ref_grow(rows, schema, cfg):
    counts = ref_class_counts(rows)
    if len(counts) == 1 or len(rows) < cfg.min_instances:
        return Leaf(counts=counts, majority=ref_majority(counts))
    best = best_spec = None
    for spec in schema:
        result = ref_best_split(rows, spec)
        if result is None or result[1] <= 1e-12:
            continue
        if best is None or result[0] > best[0]:
            best, best_spec = result, spec
    if best is None:
        return Leaf(counts=counts, majority=ref_majority(counts))
    _, _, threshold, parts = best
    children = {v: ref_grow(part, schema, cfg) for v, part in parts.items() if part}
    return Split(
        attribute=best_spec.name,
        kind=best_spec.kind,
        threshold=threshold,
        children=children,
        majority_child=max(children, key=lambda v: (len(parts[v]), v)),
        counts=counts,
    )


def ref_estimate(node, z):
    if isinstance(node, Leaf):
        n = sum(node.counts.values())
        return upper_error_count(n, n - node.counts.get(node.majority, 0), z)
    return sum(ref_estimate(child, z) for child in node.children.values())


def ref_prune(node, z):
    if isinstance(node, Leaf):
        return node
    node.children = {v: ref_prune(child, z) for v, child in node.children.items()}
    n = sum(node.counts.values())
    leaf_estimate = upper_error_count(n, n - node.counts[ref_majority(node.counts)], z)
    if leaf_estimate <= ref_estimate(node, z) + 1e-10:
        return Leaf(counts=node.counts, majority=ref_majority(node.counts))
    return node


ONE_UP = math.nextafter(1.0, 2.0)
ONE_UP2 = math.nextafter(ONE_UP, 2.0)  # (ONE_UP + ONE_UP2) / 2 rounds to ONE_UP2
NUMERIC_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, ONE_UP, ONE_UP2, 2.0, 3.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
NOMINAL_VALUES = st.sampled_from(["p", "q", "r", "s"])
CLASSES = ("event", "script_related", "non_script_event", "other")


@st.composite
def training_sets(draw):
    """(schema, rows): 1-3 attributes of either kind, 1-4 classes, few
    distinct values, so that duplicates and ties are common."""
    kinds = draw(st.lists(st.sampled_from(["nominal", "numeric"]), min_size=1, max_size=3))
    schema = [AttributeSpec(f"a{i}", kind) for i, kind in enumerate(kinds)]
    classes = CLASSES[: draw(st.integers(1, 4))]
    pools = {
        spec.name: draw(st.lists(
            NUMERIC_VALUES if spec.kind == "numeric" else NOMINAL_VALUES,
            min_size=1, max_size=6,
        ))
        for spec in schema
    }
    n = draw(st.integers(1, 40))
    rows = [
        ({name: draw(st.sampled_from(pool)) for name, pool in pools.items()},
         draw(st.sampled_from(classes)))
        for _ in range(n)
    ]
    return schema, rows


def identification_rows(rng: random.Random) -> list:
    """150-300 rows of the scenario schema over four classes: flags, counts
    and frames drawn with per-class odds, and tf-idf-like scores from a
    small pool, so values repeat within and across classes."""
    pool = [0.0] + [round(rng.uniform(0.0, 4.0), 3) for _ in range(40)]
    frames = ["_", "Ingestion", "Motion", "Cooking", "Placing"]

    def flag(p: float) -> str:
        return "true" if rng.random() < p else "false"

    rows = []
    for _ in range(rng.randint(150, 300)):
        c = rng.randrange(len(CLASSES))
        bias = c / 4
        attrs = {
            "is_auxiliary": flag(0.6 * bias),
            "governs_adverbial_clause": flag(0.2 + 0.3 * bias),
            "n_direct_objects": float(rng.choice([0, 0, 1, 1, 2] if c < 2 else [0, 0, 0, 1])),
            "n_indirect_objects": float(rng.choice([0, 0, 0, 1])),
            "in_nonaction_list": flag(0.1 + 0.5 * bias),
            "lemma_in_scenario_esds": flag(0.9 - 0.6 * bias),
            "tfidf_score": rng.choice(pool[7 * c:7 * c + 12] + [0.0]),
            "frame": rng.choice(frames[:2 + c]),
        }
        rows.append((attrs, CLASSES[c]))
    return rows


def assert_trees_match_reference(rows, schema):
    for prune in (True, False):
        cfg = TreeConfig(prune=prune)
        z = norm.ppf(1.0 - cfg.confidence)
        ref = ref_grow(rows, schema, cfg)
        if prune:
            ref = ref_prune(ref, z)
        tree = train_tree(CodedRows(rows, schema), cfg)
        assert save_tree(tree) == save_tree(DecisionTree(tuple(schema), ref, cfg))


class TestSortedSweepMatchesPartitionForm:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=training_sets(), min_instances=st.integers(1, 4))
    def test_gain_ratios_and_trees_are_identical(self, data, min_instances):
        schema, rows = data
        for spec in schema:
            assert gain_ratio(rows, spec) == ref_gain_ratio(rows, spec)
        for prune in (True, False):
            cfg = TreeConfig(min_instances=min_instances, prune=prune)
            tree = train_tree(CodedRows(rows, schema), cfg)
            z = norm.ppf(1.0 - cfg.confidence)
            ref = ref_grow(rows, schema, cfg)
            if prune:
                ref = ref_prune(ref, z)
            assert save_tree(tree) == save_tree(DecisionTree(tuple(schema), ref, cfg))
            estimate = node_error_estimate(tree.root, _z_score(cfg.confidence))
            assert estimate == ref_estimate(ref, z)

    @pytest.mark.parametrize("seed", range(4))
    def test_identification_shaped_rows(self, seed):
        # nodes of tens of distinct values, most of them repeated within a class
        rows = identification_rows(random.Random(seed))
        for spec in SCENARIO_SCHEMA:
            assert gain_ratio(rows, spec) == ref_gain_ratio(rows, spec)
        assert_trees_match_reference(rows, SCENARIO_SCHEMA)

    def test_node_of_positive_zeros_under_a_negative_first_zero(self):
        # the table's first zero is -0.0; below the root, the gt side splits
        # on a, and its q part on x again, with only 0.0 rows among its zeros
        rows = [({"a": "p", "x": -0.0}, "A"), ({"a": "p", "x": 5.0}, "A"),
                ({"a": "p", "x": 6.0}, "A"), ({"a": "q", "x": 0.0}, "A"),
                ({"a": "q", "x": 0.0}, "A"), ({"a": "q", "x": 1.0}, "B"),
                ({"a": "q", "x": -1.0}, "B"), ({"a": "q", "x": 2.0}, "B")]
        tree = train_tree(CodedRows(rows, [NOMINAL_A, NUMERIC_X]), TreeConfig(prune=False))
        inner = tree.root.children["gt"].children["q"]
        assert (tree.root.threshold, inner.threshold) == (-0.5, 0.5)
        assert inner.counts == {"A": 2, "B": 2}
        assert_trees_match_reference(rows, [NOMINAL_A, NUMERIC_X])

    def test_midpoint_rounding_onto_the_upper_value(self):
        # the first midpoint is ONE_UP2 itself, so its le side holds two rows
        rows = [({"x": ONE_UP}, "A"), ({"x": ONE_UP2}, "B"), ({"x": 3.0}, "B")]
        cfg = TreeConfig(prune=False)
        tree = train_tree(CodedRows(rows, [NUMERIC_X]), cfg)
        assert tree.root.threshold == ONE_UP2
        assert tree.root.children["le"].counts == {"A": 1, "B": 1}
        ref = ref_grow(rows, [NUMERIC_X], cfg)
        assert save_tree(tree) == save_tree(DecisionTree((NUMERIC_X,), ref, cfg))

    @pytest.mark.parametrize("pair", [
        (ONE_UP, ONE_UP2),  # the midpoint rounds onto the top value: the gt side is empty
        (-1.7e308, -1.6e308),  # the midpoint overflows to -inf: the le side is empty
    ])
    def test_only_midpoint_leaves_one_side_empty(self, pair):
        rows = [({"x": pair[0]}, "A"), ({"x": pair[1]}, "B")]
        assert gain_ratio(rows, NUMERIC_X) == ref_gain_ratio(rows, NUMERIC_X) == 0.0
        for prune in (True, False):
            tree = train_tree(CodedRows(rows, [NUMERIC_X]), TreeConfig(prune=prune))
            assert tree.root == Leaf(counts={"A": 1, "B": 1}, majority="A")

    @pytest.mark.parametrize("seed", range(3))
    def test_workload_sized_rows(self, seed):
        # ~300 rows, about as many as an identification fold's root, with
        # ~100 distinct numeric values and two nominal attributes
        rng = random.Random(seed)
        pool = [round(rng.uniform(0.0, 4.0), 2) for _ in range(100)]
        schema = [AttributeSpec("x", "numeric"), AttributeSpec("a", "nominal"),
                  AttributeSpec("b", "nominal")]
        rows = []
        for _ in range(300):
            c = rng.randrange(len(CLASSES))
            attrs = {
                "x": rng.choice(pool[20 * c:20 * c + 40]),
                "a": rng.choice("pqrs"[:2 + c % 3]),
                "b": rng.choice(["true", "false"] if c % 2 else ["false"] * 3 + ["true"]),
            }
            rows.append((attrs, CLASSES[c]))
        assert len({attrs["x"] for attrs, _ in rows}) > 80
        for spec in schema:
            assert gain_ratio(rows, spec) == ref_gain_ratio(rows, spec)
        assert_trees_match_reference(rows, schema)


def assert_view_trains_like_list(rows, schema, idx, **config):
    """A view of `idx` trains the tree, pruned and not, that the rows at
    `idx` train as a list."""
    view = CodedRows(rows, schema).subset(idx)
    assert len(view) == len(idx)
    for prune in (True, False):
        cfg = TreeConfig(prune=prune, **config)
        expected = save_tree(train_tree(CodedRows([rows[i] for i in idx], schema), cfg))
        assert save_tree(train_tree(view, cfg)) == expected


class TestCodedRowsViews:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=training_sets(), min_instances=st.integers(1, 4), draw=st.data())
    def test_view_trains_the_tree_of_its_rows(self, data, min_instances, draw):
        schema, rows = data
        order = draw.draw(st.permutations(range(len(rows))))
        idx = order[: draw.draw(st.integers(1, len(rows)))]
        assert_view_trains_like_list(rows, schema, idx, min_instances=min_instances)

    def test_positive_zeros_under_a_table_whose_first_zero_is_negative(self):
        rows = [({"x": -0.0}, "B"), ({"x": 0.0}, "A"), ({"x": 0.0}, "A"),
                ({"x": -1.0}, "B"), ({"x": 1.0}, "B"), ({"x": 2.0}, "A")]
        coded = CodedRows(rows, [NUMERIC_X])
        assert str(coded.values[0][1]) == "-0.0"
        assert_view_trains_like_list(rows, [NUMERIC_X], [1, 2, 3, 4, 5])
        tree = train_tree(coded.subset([1, 2, 3, 4, 5]), TreeConfig(prune=False))
        assert tree.root.threshold == -0.5

    def test_classes_other_than_the_tables(self):
        rows = [({"a": "p"}, "A"), ({"a": "q"}, "B"), ({"a": "p"}, "C"),
                ({"a": "q"}, "C"), ({"a": "p"}, "B"), ({"a": "r"}, "A")]
        # B and C only, C first: the table's first class and its ids are not the view's
        assert_view_trains_like_list(rows, [NOMINAL_A], [3, 1, 4, 2])
        view = CodedRows(rows, [NOMINAL_A]).subset([3, 1, 4, 2])
        assert list(view.class_counts().items()) == [("C", 2), ("B", 2)]
        assert_view_trains_like_list(rows, [NOMINAL_A], [2, 4, 3])

    @pytest.mark.parametrize("seed", range(4))
    def test_identification_shaped_folds(self, seed):
        # a fold's share of four-class rows, shuffled, so the view's classes
        # first appear in another order than the table's
        rng = random.Random(seed)
        rows = identification_rows(rng)
        idx = rng.sample(range(len(rows)), len(rows) * 9 // 10)
        assert_view_trains_like_list(rows, SCENARIO_SCHEMA, idx)

    def test_empty_view_and_indices_out_of_range_rejected(self):
        coded = CodedRows([({"a": "p"}, "A"), ({"a": "q"}, "B")], [NOMINAL_A])
        with pytest.raises(ValueError, match="no training rows"):
            train_tree(coded.subset([]))
        for idx in ([0, 2], [-1, 0]):
            with pytest.raises(IndexError):
                coded.subset(idx)


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDeepTrees:
    def test_chain_trains_saves_and_loads_without_recursion(self):
        # two classes alternating along one attribute grow a chain 399 splits deep
        rows = [({"x": float(i)}, "event" if i % 2 else "non_script_event") for i in range(400)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            tree = train_tree(CodedRows(rows, [NUMERIC_X]))
            text = save_tree(tree)
            loaded = load_tree(text)
            predicted = [classify(loaded, attrs) for attrs, _ in rows]
            estimate = node_error_estimate(loaded.root, _z_score(loaded.config.confidence))
            resaved = save_tree(loaded)
        finally:
            sys.setrecursionlimit(limit)
        assert resaved == text
        assert predicted == [label for _, label in rows]
        assert estimate > 0
        assert len(json.loads(text)["nodes"]) == 2 * 400 - 1
