"""Self-tests of the benchmark.

  PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py

They check that the generator is deterministic, that self times are computed
right on a hand-built span tree, that a tiny instance of every workload runs
and matches its reference digest, that a run whose commands write no output
fails, that a traced run reports every per-layer metric BENCHMARK.json
declares, and that run.py fails without a result where the scriptmap sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import gen
import run
import tracing
import workloads


def test_generator_is_deterministic(tmp_path):
    a = gen.generate(tmp_path / "a", 7, **workloads.TINY)
    b = gen.generate(tmp_path / "b", 7, **workloads.TINY)
    c = gen.generate(tmp_path / "c", 8, **workloads.TINY)
    assert sorted(a) == sorted(b)
    for role in a:
        assert a[role].read_bytes() == b[role].read_bytes()
    assert a["stories"].read_bytes() != c["stories"].read_bytes()


def test_generator_fixes_mention_and_ed_counts(tmp_path):
    from scriptmap import corpus

    counts = set()
    for seed in (1, 2):
        paths = gen.generate(tmp_path / str(seed), seed, **workloads.TINY)
        stories = corpus.parse_corpus_path(paths["stories"], "story")
        esds = corpus.parse_corpus_path(paths["esds"], "esd")
        counts.add((sum(len(s.mentions) for s in stories),
                    sum(len(d.script_eds()) for d in esds)))
    assert len(counts) == 1


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    spans = [
        ["bench.op", 0.0, 10.0, -1],
        ["cli.main", 1.0, 6.0, 0],
        ["crf.train", 2.0, 3.0, 1],
        ["crf.viterbi", 7.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]
    metrics = tracing.layer_metrics(spans, tracing.Counts())
    assert metrics["cli.self_s"] == 4.0
    assert metrics["crf.self_s"] == 3.0
    assert metrics["trace.unattributed_s"] == 3.0
    assert metrics["crf.train_s"] == 1.0
    assert sum(metrics[f"{m}.self_s"] for m in tracing.MODULES) + 3.0 == 10.0


def test_setup_seconds_counts_nested_loads_once():
    spans = [
        ["bench.op", 0.0, 10.0, -1],
        ["corpus.parse_corpus_path", 1.0, 3.0, 0],
        ["corpus.parse_corpus_file", 1.5, 3.0, 1],
        ["crf.load_model", 4.0, 4.5, 0],
    ]
    assert tracing.setup_seconds(spans) == 2.5


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_workload_matches_reference(workload):
    reference = json.loads(run.REFERENCE.read_text())["tiny"][workload]
    d = run.dataset(workload, run.REFERENCE_SEED, True, 120)
    result = run.run_once(workload, d, False, 120)
    assert result is not None
    assert result["digest"] == reference
    assert result["wall_s"] > 0 and result["setup_s"] > 0


def test_a_run_that_writes_no_output_fails(tmp_path, monkeypatch):
    import worker

    d = run.dataset("apply", run.REFERENCE_SEED, True, 120)
    for out in workloads.OUTPUTS["apply"]:
        (d / out).write_text("left by an earlier run\n")
    monkeypatch.setattr(worker, "_run_cli", lambda argv: None)
    with pytest.raises(FileNotFoundError):
        worker.run("apply", d, tmp_path / "result.json", False)
    assert not (tmp_path / "result.json").exists()


def test_traced_tiny_run_reports_every_layer():
    d = run.dataset("apply", run.REFERENCE_SEED, True, 120)
    result = run.run_once("apply", d, True, 120)
    layers = result["layers"]
    assert layers["crf.viterbi_calls"] > 0 and layers["identify.classify_calls"] > 0
    total = sum(layers[f"{m}.self_s"] for m in tracing.MODULES) + layers["trace.unattributed_s"]
    assert total == pytest.approx(result["wall_s"])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(layers) | {"trace.wall_s", "trace.overhead_s"}


def test_fails_without_result_where_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apply", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
