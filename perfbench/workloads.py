"""The benchmark's workloads: corpus sizes and the scriptmap commands they run.

Each workload is a list of `scriptmap` command lines run in one fresh
process, over files that gen.py writes for a seed. `apply` also has
preparation commands (training the saved models it applies), which run once
per data set and are not timed.
"""

from __future__ import annotations

from pathlib import Path

NAMES = ("classification", "identification", "apply")

# gen.generate keyword arguments per workload; see README.md for the reasons.
SIZES = {
    # CRF training dominates: 300-d vectors, 20 event types, ~11 EDs per ESD.
    "classification": dict(scenarios=3, event_types=20, esds=2, stories=20,
                           dim=300, filler=5000),
    # Tree induction dominates: 10 scenarios, no embeddings.
    "identification": dict(scenarios=10, event_types=20, esds=30, stories=12,
                           dim=8, filler=0),
    # Saved trees and CRFs applied to 10 scenarios of stories.
    "apply": dict(scenarios=10, event_types=20, esds=2, stories=30,
                  train_stories=10, dim=300, filler=5000),
}

# The reference-check instance: small enough to run on every benchmark run.
TINY = dict(scenarios=3, event_types=6, esds=3, stories=10, train_stories=4,
            story_scenarios=2, dim=8, filler=20)

# Files each workload writes into its data directory; the outputs checked.
OUTPUTS = {
    "classification": ("report.json",),
    "identification": ("report.json",),
    "apply": ("identified.tsv", "mapped.tsv"),
}

# Lowest headline F1 a correct run produces (the measured values lie well above).
F1_FLOOR = {"classification": 0.6, "identification": 0.85, "apply": 0.6}


def prepare_commands(name: str, d: Path) -> list[list[str]]:
    if name != "apply":
        return []
    return [
        ["train-identify", "--stories", str(d / "train_stories.tsv"),
         "--esds", str(d / "esds.tsv"), "--out-dir", str(d / "models")],
        ["train-map", "--esds", str(d / "esds.tsv"), "--embeddings", str(d / "embeddings.txt"),
         "--out-dir", str(d / "models")],
    ]


def commands(name: str, d: Path) -> list[list[str]]:
    if name == "classification":
        return [["evaluate", "classification", "--esds", str(d / "esds.tsv"),
                 "--stories", str(d / "stories.tsv"), "--embeddings", str(d / "embeddings.txt"),
                 "--json-out", str(d / "report.json")]]
    if name == "identification":
        return [["evaluate", "identification", "--stories", str(d / "stories.tsv"),
                 "--esds", str(d / "esds.tsv"), "--json-out", str(d / "report.json")]]
    return [
        ["identify", "--stories", str(d / "stories.tsv"), "--esds", str(d / "esds.tsv"),
         "--model-dir", str(d / "models"), "--out", str(d / "identified.tsv")],
        ["map", "--stories", str(d / "identified.tsv"), "--model-dir", str(d / "models"),
         "--embeddings", str(d / "embeddings.txt"), "--out", str(d / "mapped.tsv")],
    ]

