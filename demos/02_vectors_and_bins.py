"""Show how verb mentions become discrete observations for the chain model.

A mention's vector is the average of its verb embedding (counted twice) and
the embeddings of its dependent lemmas. Each dimension is then binned into
low / mid / high around +-epsilon, which turns real vectors into nominal
features the CRF can count. The demo prints the vector and bins of a few
mentions at several epsilon values, then tunes epsilon per scenario on
held-out event sequence descriptions.

Usage: python3 demos/02_vectors_and_bins.py [--data-dir DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from scriptmap import corpus
from scriptmap.crf import TrainConfig
from scriptmap.embeddings import (
    DEFAULT_EPSILON_GRID,
    DiscretizationConfig,
    discretize,
    load_embeddings,
    mention_vector,
)
from scriptmap.features import tune_epsilon


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--data-dir",
        default=str(Path(__file__).resolve().parents[1] / "data" / "synthetic"),
    )
    args = parser.parse_args()
    data = Path(args.data_dir)

    with open(data / "embeddings.txt", "rb") as file:
        table = load_embeddings(file)
    stories = list(corpus.parse_corpus_path(data / "inscript.tsv", kind="story"))
    print(f"embedding table: {len(table.vectors)} words, {table.dimension} dimensions")

    story = stories[0]
    print(f"\n== mention vectors in {story.doc_id} ==")
    for m in story.mentions[:4]:
        vec = mention_vector(m.lemma, [l for _, l in m.dependents], table)
        if vec is None:
            print(f"  {m.lemma}: no vector (all words out of vocabulary)")
            continue
        pretty = np.array2string(vec, precision=2, floatmode="fixed")
        print(f"  {m.lemma:8s} {pretty}")
        for eps in (0.01, 0.2):
            bins = discretize(vec, DiscretizationConfig(epsilon=eps))
            print(f"    eps={eps:<5g} bins: {' '.join(bins)}")

    print("\n== per-scenario epsilon tuning on held-out ESDs ==")
    esds = list(corpus.parse_corpus_path(data / "descript.tsv", kind="esd"))
    cfg = TrainConfig()
    by_scenario: dict[str, list] = {}
    for doc in esds:
        by_scenario.setdefault(doc.scenario, []).append(doc)
    print(f"candidate grid: {list(DEFAULT_EPSILON_GRID)}")
    for scenario, docs in sorted(by_scenario.items()):
        train_docs, dev_docs = docs[:-1], docs[-1:]
        eps = tune_epsilon(train_docs, dev_docs, DEFAULT_EPSILON_GRID, table, cfg, True)
        print(f"  {scenario}: epsilon {eps:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
