"""Train the chain model on event sequence descriptions and label a story.

The model sees only ESDs at training time. The demo trains the bus-riding
scenario's model, decodes its stories, and prints gold vs predicted event
types. The model records the epsilon its ESDs were binned at, and the
stories' mentions are binned at that same epsilon when decoded. It then retrains without transition features to show why the label
chain matters: "got the bus" appears verbatim as both board_bus and get_off
in the training data, so only sequence position can tell them apart.

Usage: python3 demos/03_event_labeling.py [--data-dir DIR]
"""

from __future__ import annotations

import argparse
import logging
from pathlib import Path

from scriptmap import corpus, crf
from scriptmap.embeddings import DiscretizationConfig, load_embeddings
from scriptmap.features import (
    esd_columns,
    esd_training_sequences,
    fit_crf,
    label_mentions,
    mention_columns,
    training_label_set,
)


def label_stories(stories, model, table):
    hits = total = 0
    rows = []
    for story in stories:
        mentions = story.script_mentions()
        if not mentions:
            continue
        labels = label_mentions(model, mentions, mention_columns(mentions, table))
        for m, pred in zip(mentions, labels):
            mark = " " if pred == m.gold_label else "x"
            rows.append((story.doc_id, m.lemma, m.gold_label, pred, mark))
            hits += pred == m.gold_label
            total += 1
    return rows, hits / total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--data-dir",
        default=str(Path(__file__).resolve().parents[1] / "data" / "synthetic"),
    )
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR)
    data = Path(args.data_dir)

    with open(data / "embeddings.txt", "rb") as file:
        table = load_embeddings(file)
    disc = DiscretizationConfig(epsilon=0.05)
    esds = [d for d in corpus.parse_corpus_path(data / "descript.tsv", kind="esd")
            if d.scenario == "riding_a_bus"]
    stories = [s for s in corpus.parse_corpus_path(data / "inscript.tsv", kind="story")
               if s.scenario == "riding_a_bus"]

    # featurized once; the epsilon of disc bins the vectors
    sequences = esd_training_sequences(esd_columns(esds, table), disc)
    labels = training_label_set(sequences)
    print(f"training on {len(sequences.lengths)} ESDs, event types: {', '.join(labels)}")

    cfg = crf.TrainConfig()
    model = fit_crf(sequences, disc, cfg, use_transitions=True)
    rows, acc = label_stories(stories, model, table)
    print(f"\n== with transition features (accuracy {acc:.3f}) ==")
    for doc_id, lemma, gold, pred, mark in rows[:12]:
        print(f"  {mark} {doc_id:22s} {lemma:8s} gold={gold:12s} pred={pred}")

    flat = fit_crf(sequences, disc, cfg, use_transitions=False)
    rows, acc = label_stories(stories, flat, table)
    print(f"\n== without transitions (accuracy {acc:.3f}) ==")
    for doc_id, lemma, gold, pred, mark in rows[:12]:
        if lemma == "get":
            print(f"  {mark} {doc_id:22s} {lemma:8s} gold={gold:12s} pred={pred}")
    print("\nboth 'get' mentions collapse onto one type without the chain")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
