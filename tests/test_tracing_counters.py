"""The benchmark's counters read the arguments and results of the calls they trace.

perfbench/tracing.py counts work from outside: the identify.train_tree counter
reads len(args[0]), the crf.minimize counter reads the result's nit. A change
to such a signature or result zeroes the count, or crashes the traced run,
while every untraced test still passes. So each command the benchmark runs is
traced here on the synthetic corpus, and every counter it reaches must read
above 0. The tracer is imported from its file, unedited.
"""

from __future__ import annotations

import importlib.util

import pytest

from scriptmap.cli import EXIT_OK, main

from conftest import DATA_DIR, REPO_ROOT

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# The per-layer metric each traced function's counter feeds.
METRIC_OF = {
    "corpus.parse_corpus_file": "corpus.tokens",
    "crf.minimize": "crf.lbfgs_iterations",
    "crf.train": "crf.features",
    "crf.load_model": "crf.features",
    "crf.viterbi": "crf.decoded_positions",
    "identify.train_tree": "identify.tree_rows",
    "identify.extract_row": "identify.tfidf_distinct_share",
    "features.story_decode_sequence": "features.observations",
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Counters reached and per-layer metrics of each command, in run order."""
    out = tmp_path_factory.mktemp("traced")
    stories, esds, emb = (
        str(DATA_DIR / name) for name in ("inscript.tsv", "descript.tsv", "embeddings.txt")
    )
    commands = {
        "train-identify": ["train-identify", "--stories", stories, "--esds", esds,
                           "--out-dir", str(out / "models")],
        "train-map": ["train-map", "--esds", esds, "--embeddings", emb,
                      "--out-dir", str(out / "models")],
        "map": ["map", "--stories", stories, "--embeddings", emb,
                "--model-dir", str(out / "models"), "--out", str(out / "mapped.tsv")],
        "evaluate classification": ["evaluate", "classification", "--esds", esds,
                                    "--stories", stories, "--embeddings", emb,
                                    "--json-out", str(out / "report.json")],
    }
    runs = {}
    for name, argv in commands.items():
        tracer = tracing.Tracer()
        try:
            assert main(argv + ["--log-level", "error"]) == EXIT_OK
        finally:
            tracer.restore()
        reached = {span[0] for span in tracer.spans} & set(tracing.COUNTERS)
        runs[name] = reached, tracing.layer_metrics(tracer.spans, tracer.counts)
    return runs


def test_every_counter_has_a_metric():
    assert set(METRIC_OF) == set(tracing.COUNTERS)


def test_the_commands_reach_every_counter(traced_runs):
    assert set().union(*(reached for reached, _ in traced_runs.values())) == set(METRIC_OF)


@pytest.mark.parametrize(
    "command", ["train-identify", "train-map", "map", "evaluate classification"]
)
def test_every_counter_reached_reads_above_zero(traced_runs, command):
    reached, metrics = traced_runs[command]
    assert reached
    read = {name: metrics[METRIC_OF[name]] for name in reached}
    assert {name: value for name, value in read.items() if not value > 0} == {}
