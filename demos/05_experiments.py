"""Run the three evaluation protocols on the synthetic corpus.

Identification scores the binary decision (is this verb mention part of the
scenario script?) under within-scenario cross-validation. Classification
assumes gold mentions and scores event-type assignment with models trained
on ESDs alone; each CRF records the epsilon it was trained at and bins the
stories at that epsilon. Pipeline chains the two: only mentions the
identifier kept are typed, and misses count against recall. Macro averages
are unweighted: per class within a scenario, then per scenario.

Equivalent CLI calls are printed alongside each table.

Usage: python3 demos/05_experiments.py [--data-dir DIR]
"""

from __future__ import annotations

import argparse
import logging
from pathlib import Path

from scriptmap import corpus
from scriptmap.embeddings import DiscretizationConfig, load_embeddings
from scriptmap.evaluation import (
    evaluate_classification,
    evaluate_identification,
    evaluate_pipeline,
    format_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--data-dir",
        default=str(Path(__file__).resolve().parents[1] / "data" / "synthetic"),
    )
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR)
    data = Path(args.data_dir)

    esds = list(corpus.parse_corpus_path(data / "descript.tsv", kind="esd"))
    stories = list(corpus.parse_corpus_path(data / "inscript.tsv", kind="story"))
    with open(data / "embeddings.txt", "rb") as file:
        table = load_embeddings(file)
    disc = DiscretizationConfig(epsilon=0.05)

    print("== identification (10-fold within scenario) ==")
    print(f"   scriptmap evaluate identification --stories {data / 'inscript.tsv'}"
          f" --esds {data / 'descript.tsv'}")
    reports = evaluate_identification(
        stories, esds, systems=["lemma", "tree", "majority"], k=10
    )
    print(format_table(reports))

    print("\n== classification of gold mentions (trained on ESDs only) ==")
    print(f"   scriptmap evaluate classification --esds {data / 'descript.tsv'}"
          f" --stories {data / 'inscript.tsv'} --embeddings {data / 'embeddings.txt'}")
    reports = evaluate_classification(
        esds, stories, systems=["lemma", "cosine", "crf_noseq", "crf"], table=table, disc=disc
    )
    print(format_table(reports))

    print("\n== end-to-end pipeline (identifier feeds classifier) ==")
    print(f"   scriptmap evaluate pipeline --esds {data / 'descript.tsv'}"
          f" --stories {data / 'inscript.tsv'} --embeddings {data / 'embeddings.txt'}")
    reports = evaluate_pipeline(
        esds,
        stories,
        identifier="tree",
        classifiers=["lemma", "cosine", "crf"],
        table=table,
        disc=disc,
        k=10,
    )
    print(format_table(reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
