"""Acceptance gate: one test per release criterion.

Each test line in `pytest -v` output is the pass/fail verdict for one
criterion. Criteria 1-6 are self-contained; criterion 7 needs real corpora
and embeddings supplied through SCRIPTMAP_DATA_DIR (descript.tsv,
inscript.tsv, embeddings.txt) and is skipped otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import coded
from test_baselines import classify_by_cosine, vector_index
from test_crf import (
    DISC,
    RECURSIONS,
    batch_of_one,
    enumerate_scores,
    enumerated_marginals,
    random_model,
    reference_emission_rows,
    with_every_label,
)

import scriptmap
from scriptmap import corpus, identify
from scriptmap.baselines import jaccard, overlap_classify
from scriptmap.cli import main
from scriptmap.crf import (
    CrfModel,
    TrainConfig,
    compile_sequences,
    objective_and_gradient,
    train,
    viterbi,
)
from scriptmap.embeddings import DiscretizationConfig, load_embeddings
from scriptmap.evaluation import (
    ConfusionMatrix,
    evaluate_classification,
    evaluate_pipeline,
    f1_score,
    prf,
)
from scriptmap.identify import (
    AttributeSpec,
    CodedRows,
    Leaf,
    TreeConfig,
    classify,
    gain_ratio,
    train_tree,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"

# (protocol, options, report digest) of the lemma and cosine reports, from
# the pairwise loops the ED index replaced
BASELINE_REPORT_PINS = [
    ("classification", ["--embeddings", "embeddings.txt", "--systems", "lemma,cosine"],
     "cb45171e144310aff3cf87289dbb4d42f74f98a6302db7685c7485ec6f863153"),
    ("pipeline", ["--embeddings", "embeddings.txt", "--systems", "lemma,cosine",
                  "--identifier", "oracle", "--k", "5"],
     "d68ea232b20a0de92ecbc18e850e5c83b383d0d1ca72c808655f3cc21d481b94"),
]
# (protocol, options, report digest, digest of the first run's trees) of the
# reports of fold trees trained on per-fold row lists
TREE_REPORT_PINS = [
    ("identification", ["--systems", "tree", "--k", "5"],
     "1bd412c64fda2441c9951bf620ab643ca645f8ac09d5cc940df78b48ef866784",
     "9e405c41d62faebff86a0a78258088e133cfc3e0e3bdfc11dc9368793b9aaad9"),
    ("identification", ["--systems", "tree", "--k", "5", "--scenario-independent"],
     "641afd320ec21e327adb6acda05e6767353b30de3c2eeeafb7d17ad30b95cafb", None),
    ("pipeline", ["--embeddings", "embeddings.txt", "--k", "5"],
     "ed7833740424a1c1c53bd9e71bbf98ebd5e70c59bf6535aa8512583787e90699", None),
]

# Runs main on each command line of a JSON list, in one interpreter, after
# checking that numpy dispatches to none of its optional CPU targets.
BASELINE_CPU_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from scriptmap.cli import main
assert not any(__cpu_features__[target] for target in __cpu_dispatch__)
sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))
"""


def report_argv(protocol: str, options: list[str], out: Path) -> list[str]:
    """The command line of a pinned report, run from DATA: relative paths
    keep the bytes of the report's config fixed."""
    return ["evaluate", protocol, "--esds", "descript.tsv", "--stories", "inscript.tsv",
            *options, "--json-out", str(out), "--log-level", "error"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCriterion1Inference:
    def test_viterbi_and_partition_match_enumeration_on_200_random_models(self):
        rng = np.random.default_rng(7)
        started = time.monotonic()
        for _ in range(200):
            model, obs = random_model(rng)
            ref_log_z, ref_node, ref_expected = enumerated_marginals(model, obs)
            rows = reference_emission_rows(model.index, obs)
            for recursion in RECURSIONS:
                node, expected, log_z = batch_of_one(recursion, model, rows)
                assert abs(log_z - ref_log_z) <= 1e-10 * max(1.0, abs(ref_log_z))
                assert np.allclose(node, ref_node, atol=1e-9)
                assert np.allclose(expected, ref_expected, atol=1e-9)
            labs, scores = enumerate_scores(model, obs)
            best = [model.labels[i] for i in labs[int(np.argmax(scores))]]
            got_labels, _ = viterbi(model, rows)
            assert got_labels == best
        assert time.monotonic() - started < 10.0


class TestCriterion2Gradient:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        worst = 0.0
        for trial in range(6):
            labels = [f"L{i}" for i in range(int(rng.integers(2, 4)))]
            vocab = ["u", "v", "w"]
            seqs = []
            for _ in range(3):
                n = int(rng.integers(1, 5))
                obs = [(vocab[int(rng.integers(0, 3))],) for _ in range(n)]
                seqs.append((obs, [labels[int(rng.integers(0, len(labels)))] for _ in obs]))
            seqs = with_every_label(seqs, labels, 4)
            index, data = compile_sequences(coded(seqs), use_transitions=bool(trial % 2))
            w = rng.normal(scale=0.5, size=index.n_features)
            l2 = float(rng.choice([0.0, 0.7]))
            _, grad = objective_and_gradient(w, index, data, l2)
            for j in range(index.n_features):
                probe = w.copy()
                probe[j] += h
                hi, _ = objective_and_gradient(probe, index, data, l2)
                probe[j] -= 2 * h
                lo, _ = objective_and_gradient(probe, index, data, l2)
                fd = (hi - lo) / (2 * h)
                err = abs(grad[j] - fd) / max(1.0, abs(fd), abs(grad[j]))
                worst = max(worst, err)
        assert worst <= 1e-4


def alternating_corpus(seed: int):
    """Two event types in strict alternation; the observation is constant, so
    only the label chain carries signal."""
    rng = np.random.default_rng(seed)

    def make(n_seqs):
        seqs = []
        for _ in range(n_seqs):
            length = int(rng.choice([4, 6, 8]))
            obs = [("step",)] * length
            seqs.append((obs, ["A", "B"] * (length // 2)))
        return seqs

    return make(8), make(4)


class TestCriterion3SequenceSignal:
    def test_transition_features_separate_an_alternating_grammar(self):
        started = time.monotonic()
        cfg = TrainConfig()
        for seed in range(10):
            train_seqs, eval_seqs = alternating_corpus(seed)

            def accuracy(use_transitions):
                model = train(coded(train_seqs), DISC, cfg, use_transitions=use_transitions)
                hits = total = 0
                for obs, gold in eval_seqs:
                    pred, _ = viterbi(model, reference_emission_rows(model.index, obs))
                    hits += sum(p == g for p, g in zip(pred, gold))
                    total += len(gold)
                return hits / total

            with_chain = accuracy(True)
            without = accuracy(False)
            assert with_chain >= 0.95
            assert without <= 0.60
            assert with_chain - without > 0
        assert time.monotonic() - started < 30.0


class TestCriterion4DecisionTree:
    def test_gain_ratio_matches_hand_computed_oracles(self):
        spec_a = AttributeSpec("a", "nominal")
        spec_x = AttributeSpec("x", "numeric")
        rows = [({"a": "p"}, "A"), ({"a": "p"}, "A"), ({"a": "p"}, "B"), ({"a": "q"}, "B")]
        assert abs(gain_ratio(rows, spec_a) - 0.3836885465963443) <= 1e-9
        rows = [({"a": "p"}, "A"), ({"a": "p"}, "A"), ({"a": "q"}, "B"), ({"a": "q"}, "B")]
        assert abs(gain_ratio(rows, spec_a) - 1.0) <= 1e-9
        rows = [({"x": 1.0}, "A"), ({"x": 2.0}, "A"), ({"x": 3.0}, "B"), ({"x": 4.0}, "B")]
        assert abs(gain_ratio(rows, spec_x) - 1.0) <= 1e-9

    def test_unpruned_tree_is_exact_on_separable_rows(self):
        schema = [AttributeSpec("a", "nominal"), AttributeSpec("x", "numeric")]
        rows = [
            ({"a": "p", "x": 1.0}, "A"),
            ({"a": "p", "x": 2.0}, "A"),
            ({"a": "p", "x": 5.0}, "B"),
            ({"a": "q", "x": 1.0}, "C"),
            ({"a": "q", "x": 6.0}, "C"),
            ({"a": "p", "x": 6.0}, "B"),
        ]
        tree = train_tree(CodedRows(rows, schema), TreeConfig(prune=False))
        assert all(classify(tree, attrs) == label for attrs, label in rows)

    def test_pruning_collapses_single_instance_branch(self):
        rows = [({"v": "p"}, "event")] * 8 + [({"v": "p"}, "non_script_event")]
        rows += [({"v": "q"}, "event")]
        schema = [AttributeSpec("v", "nominal")]
        pruned = train_tree(CodedRows(rows, schema), TreeConfig(confidence=0.25, prune=True))
        assert isinstance(pruned.root, Leaf)
        kept = train_tree(CodedRows(rows, schema), TreeConfig(prune=False))
        assert not isinstance(kept.root, Leaf)


class TestCriterion5BaselinesAndMetrics:
    def test_jaccard_cosine_and_prf_match_hand_values(self, mini_esds, mini_table):
        assert jaccard(frozenset({"look", "recipe"}), frozenset({"look", "up", "recipe"})) == 2 / 3

        entries = vector_index(mini_esds, mini_table)
        probe = corpus.VerbMention(
            sentence=0, token_index=1, lemma="tea", dependents=(), gold_label="x"
        )
        # overlap prefers the shorter drinking ED (1/2 beats 1/3); the vector
        # for "tea" is closest to the steeping ED's average
        assert overlap_classify([probe], entries) == ["drink_tea"]
        assert classify_by_cosine(probe, entries, mini_table) == "steep_tea"
        drink = corpus.VerbMention(
            sentence=0, token_index=1, lemma="drink", dependents=(), gold_label="x"
        )
        assert classify_by_cosine(drink, entries, mini_table) == "drink_tea"

        cm = ConfusionMatrix()
        cm.add("a", "a", n=3)
        cm.add("a", "b", n=1)
        cm.add("b", "a", n=2)
        assert prf(cm, "a") == (3 / 5, 3 / 4, f1_score(3 / 5, 3 / 4))

    def test_reported_harmonic_means_reproduce_published_rounding(self):
        # the published components are themselves rounded to three decimals,
        # so the recomputed harmonic mean may land one thousandth off
        assert abs(round(f1_score(0.628, 0.817) * 1000) - 709) <= 1
        assert abs(round(f1_score(0.608, 0.496) * 1000) - 545) <= 1


class TestCriterion6Determinism:
    def test_pipeline_evaluation_is_byte_identical_across_runs(self, tmp_path, capsys):
        args = [
            "evaluate", "pipeline",
            "--esds", str(DATA / "descript.tsv"),
            "--stories", str(DATA / "inscript.tsv"),
            "--embeddings", str(DATA / "embeddings.txt"),
            "--seed", "42", "--log-level", "warning",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--json-out", str(out_a)]) == 0
        assert main(args + ["--json-out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert json.loads(out_a.read_text())["systems"]["tree+crf"]["f1"] > 0.9


    @pytest.mark.parametrize(
        "protocol, options, expected",
        [
            ("identification", ["--systems", "tree", "--k", "5"], {"tree": 0.984}),
            (
                "classification",
                ["--embeddings", str(DATA / "embeddings.txt")],
                {"crf": 1.0, "crf_noseq": 0.975, "lemma": 0.987, "cosine": 0.980},
            ),
            (
                "pipeline",
                ["--embeddings", str(DATA / "embeddings.txt"), "--systems", "crf", "--k", "5"],
                {"tree+crf": 0.980},
            ),
        ],
    )
    def test_synthetic_f1_fingerprint(self, tmp_path, capsys, protocol, options, expected):
        out = tmp_path / "report.json"
        assert main([
            "evaluate", protocol,
            "--esds", str(DATA / "descript.tsv"),
            "--stories", str(DATA / "inscript.tsv"),
            *options, "--json-out", str(out), "--log-level", "error",
        ]) == 0
        capsys.readouterr()
        systems = json.loads(out.read_text())["systems"]
        assert {name: round(r["f1"], 3) for name, r in systems.items()} == expected

    @pytest.mark.parametrize("protocol, options, digest", BASELINE_REPORT_PINS)
    def test_baseline_reports_are_pinned(
        self, tmp_path, capsys, monkeypatch, protocol, options, digest
    ):
        monkeypatch.chdir(DATA)
        out = tmp_path / "report.json"
        assert main(report_argv(protocol, options, out)) == 0
        capsys.readouterr()
        assert sha256(out) == digest

    @pytest.mark.parametrize("protocol, options, digest, trees_digest", TREE_REPORT_PINS)
    def test_tree_reports_are_pinned(
        self, tmp_path, capsys, monkeypatch, protocol, options, digest, trees_digest
    ):
        # every byte of the reports, and of the trees' files in the first run
        trees = []
        train_tree = identify.train_tree

        def saving(*args):
            tree = train_tree(*args)
            trees.append(identify.save_tree(tree))
            return tree

        monkeypatch.setattr(identify, "train_tree", saving)
        monkeypatch.chdir(DATA)
        out = tmp_path / "report.json"
        assert main(report_argv(protocol, options, out)) == 0
        capsys.readouterr()
        assert sha256(out) == digest
        if trees_digest is not None:
            assert len(trees) == 15
            assert hashlib.sha256("\n".join(trees).encode()).hexdigest() == trees_digest

    def test_report_pins_hold_at_numpy_baseline_cpu_level(self, tmp_path):
        """The five pinned reports, in a child process in which numpy uses
        none of its optional SIMD kernels, as on a CPU without AVX2. np.exp
        gives other bits there; the reports must not."""
        from numpy._core._multiarray_umath import __cpu_dispatch__

        if not __cpu_dispatch__:
            pytest.skip("this numpy build dispatches to no optional CPU target")
        pins = [pin[:3] for pin in BASELINE_REPORT_PINS + TREE_REPORT_PINS]
        outs = [tmp_path / f"report{i}.json" for i in range(len(pins))]
        argvs = [report_argv(protocol, options, out)
                 for (protocol, options, _), out in zip(pins, outs)]
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
               "PYTHONPATH": os.pathsep.join([str(Path(scriptmap.__file__).parent.parent),
                                              os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", BASELINE_CPU_CHILD, json.dumps(argvs)],
                              cwd=DATA, env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert [sha256(out) for out in outs] == [digest for _, _, digest in pins]


needs_real_data = pytest.mark.skipif(
    not os.environ.get("SCRIPTMAP_DATA_DIR"),
    reason="set SCRIPTMAP_DATA_DIR to a directory with descript.tsv,"
    " inscript.tsv, embeddings.txt",
)


@needs_real_data
class TestCriterion7RealData:
    @pytest.fixture(scope="class")
    def real(self):
        root = Path(os.environ["SCRIPTMAP_DATA_DIR"])
        esds = list(corpus.parse_corpus_path(root / "descript.tsv", kind="esd"))
        stories = list(corpus.parse_corpus_path(root / "inscript.tsv", kind="story"))
        with open(root / "embeddings.txt", "rb") as file:
            table = load_embeddings(file)
        return esds, stories, table

    def test_crf_macro_f1_and_baseline_ordering(self, real):
        esds, stories, table = real
        disc = DiscretizationConfig(epsilon=0.05)
        scores = {
            report.system: report.f1
            for report in evaluate_classification(
                esds, stories, systems=["crf", "cosine", "lemma"], table=table, disc=disc
            )
        }
        assert scores["crf"] == pytest.approx(0.545, abs=0.05)
        assert scores["crf"] > scores["cosine"] > scores["lemma"]

    def test_pipeline_f1(self, real):
        esds, stories, table = real
        report, = evaluate_pipeline(
            esds,
            stories,
            identifier="tree",
            classifiers=["crf"],
            table=table,
            disc=DiscretizationConfig(epsilon=0.05),
        )
        assert report.f1 == pytest.approx(0.479, abs=0.05)
