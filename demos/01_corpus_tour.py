"""Walk through the column corpus format, pronoun resolution, and fold plans.

Reads the synthetic corpus under data/synthetic/ (regenerate it with
demos/00_build_synthetic_corpus.py) and prints what the parser extracts:
document inventories, the verb mentions of one story with their gold labels
and dependents, each chained pronoun's token lemma next to the antecedent
lemma its mention dependent reads, and the two cross-validation plans used by
the experiments.

Usage: python3 demos/01_corpus_tour.py [--data-dir DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from scriptmap import corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--data-dir",
        default=str(Path(__file__).resolve().parents[1] / "data" / "synthetic"),
    )
    args = parser.parse_args()
    data = Path(args.data_dir)

    esds = list(corpus.parse_corpus_path(data / "descript.tsv", kind="esd"))
    stories = list(corpus.parse_corpus_path(data / "inscript.tsv", kind="story"))
    scenarios = corpus.collect_scenarios(list(esds) + list(stories))

    print("== inventory ==")
    for sid, sc in scenarios.items():
        n_esds = sum(d.scenario == sid for d in esds)
        n_stories = sum(d.scenario == sid for d in stories)
        print(
            f"  {sid}: {n_esds} ESD documents, {n_stories} stories,"
            f" event types: {', '.join(sc.event_types)}"
        )

    story = stories[0]
    print(f"\n== verb mentions of {story.doc_id} ==")
    for m in story.mentions:
        deps = ", ".join(f"{rel}={lemma}" for rel, lemma in m.dependents) or "-"
        print(f"  sent {m.sentence} tok {m.token_index}: {m.lemma:10s} [{deps}]  -> {m.gold_label}")

    # The parser resolves a pronoun on a coreference chain to its antecedent
    # in the mention's dependents; the token keeps its own lemma.
    print("\n== pronoun resolution: token lemma -> mention dependent ==")
    for m in story.mentions:
        sent = story.sentences[m.sentence]
        tokens = corpus.dependent_tokens(sent, sent[m.token_index - 1])
        for tok, (rel, lemma) in zip(tokens, m.dependents):
            if corpus.is_pronominal(tok.pos) and tok.coref is not None:
                print(f"  sent {m.sentence}: {m.lemma} {rel}: {tok.lemma} -> {lemma}"
                      f"  (chain {tok.coref})")

    print("\n== within-scenario 10-fold plan (first scenario, first 3 folds) ==")
    sid = next(iter(scenarios))
    subset = [s for s in stories if s.scenario == sid]
    plan = corpus.within_scenario_plan(subset, k=10, seed=42)
    for _, test_ids in plan.folds[:3]:
        print(f"  test={sorted(test_ids)}")

    print("\n== leave-one-scenario-out plan ==")
    by_scenario: dict[str, list[str]] = {}
    for s in stories:
        by_scenario.setdefault(s.scenario, []).append(s.doc_id)
    for _, test_ids in corpus.leave_one_scenario_out(by_scenario).folds:
        held = test_ids[0].rsplit("_story_", 1)[0]
        print(f"  held out: {held} ({len(test_ids)} stories)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
