"""Train the verb identifier tree and look at what it actually learned.

Every verb mention becomes a feature row: auxiliary status, adverbial-clause
government, object counts, non-action list membership, and two scenario-tied
signals (does the lemma occur in the scenario's ESDs, and the summed tf-idf
of the mention's words). A C4.5-style tree with pessimistic pruning then
separates script-relevant verbs from the rest. The demo prints the learned
tree for one scenario and its training-set confusion counts.

Usage: python3 demos/04_verb_identifier.py [--data-dir DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from scriptmap import corpus
from scriptmap.features import build_scenario_stats
from scriptmap.identify import (
    CodedRows,
    Leaf,
    Split,
    TreeConfig,
    classify_binary,
    extract_row,
    load_nonaction_list,
    row_schema,
    train_tree,
    tree_row,
)


def render(node, depth=0):
    pad = "  " * depth
    if isinstance(node, Leaf):
        counts = ", ".join(f"{k}:{v}" for k, v in sorted(node.counts.items()))
        print(f"{pad}-> {node.majority}  ({counts})")
        return
    assert isinstance(node, Split)
    for value, child in node.children.items():
        if node.threshold is None:
            test = f"{node.attribute} = {value}"
        else:
            op = "<=" if value == "le" else ">"
            test = f"{node.attribute} {op} {node.threshold:g}"
        print(f"{pad}{test}:")
        render(child, depth + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--data-dir",
        default=str(Path(__file__).resolve().parents[1] / "data" / "synthetic"),
    )
    parser.add_argument("--scenario", default="baking_a_cake")
    args = parser.parse_args()
    data = Path(args.data_dir)

    esds = list(corpus.parse_corpus_path(data / "descript.tsv", kind="esd"))
    stories = [s for s in corpus.parse_corpus_path(data / "inscript.tsv", kind="story")
               if s.scenario == args.scenario]
    stats = build_scenario_stats(esds)[args.scenario]
    nonaction = load_nonaction_list(None)

    rows = []
    for story in stories:
        for m in story.mentions:
            rows.append(tree_row(extract_row(m, story, stats, nonaction)))
    label_counts: dict[str, int] = {}
    for _, label in rows:
        label_counts[label] = label_counts.get(label, 0) + 1
    print(f"{len(rows)} mentions: " + ", ".join(f"{k} {v}" for k, v in sorted(label_counts.items())))

    tree = train_tree(CodedRows(rows, row_schema(True)), TreeConfig())
    print("\n== pruned tree ==")
    render(tree.root)

    cm: dict[tuple[str, str], int] = {}
    for attrs, label in rows:
        pred = classify_binary(tree, attrs)
        gold = corpus.collapse_label(label)
        cm[(gold, pred)] = cm.get((gold, pred), 0) + 1
    print("\n== training-set confusion (gold, predicted) ==")
    for (gold, pred), n in sorted(cm.items()):
        print(f"  {gold:12s} -> {pred:12s} {n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
