"""Command line interface: round trips, outputs, config merging, exit codes."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LINE_END_FORMS,
    MINI_EMBEDDINGS_TEXT,
    MINI_ESD_TEXT,
    MINI_STORY_TEXT,
    NOT_LINE_ENDS,
    codepoint,
    tok,
)
import scriptmap
from scriptmap import cli, corpus, features
from scriptmap.crf import ModelFormatError, NumericError, TrainConfig, load_model
from scriptmap.embeddings import DiscretizationConfig, EmbeddingTable, load_embeddings
from scriptmap.identify import (
    DecisionTree,
    Leaf,
    Split,
    TreeConfig,
    TreeFormatError,
    load_tree,
    row_schema,
    save_tree,
)
from scriptmap.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


MISSING = object()  # a corrupted field's value that removes the field


def pred_of(story, mention):
    return story.sentences[mention.sentence][mention.token_index - 1].predicted_label


def run_logged(argv) -> tuple[int, list[str]]:
    """main's exit code and the messages it logged at error level."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("scriptmap")
    logger.addHandler(handler)
    try:
        return main(argv), [r.getMessage() for r in records]
    finally:
        logger.removeHandler(handler)


def renamed_scenario(data_dir: Path, directory: Path, scenario: str) -> tuple[str, str]:
    """Paths of copies of the synthetic ESDs and stories in which the
    riding_a_bus scenario is called `scenario`."""
    paths = []
    for name in ("descript.tsv", "inscript.tsv"):
        text = (data_dir / name).read_text(encoding="utf-8")
        paths.append(directory / name)
        paths[-1].write_text(text.replace("#scenario riding_a_bus", f"#scenario {scenario}"),
                             encoding="utf-8")
    return str(paths[0]), str(paths[1])


def model_epsilon(model_dir, scenario: str) -> float:
    return load_model((model_dir / f"{scenario}.crf.json").read_text()).disc.epsilon


def write_mini_files(directory):
    esds = directory / "esds.tsv"
    stories = directory / "stories.tsv"
    emb = directory / "emb.txt"
    esds.write_text(MINI_ESD_TEXT, encoding="utf-8")
    stories.write_text(MINI_STORY_TEXT, encoding="utf-8")
    emb.write_text(MINI_EMBEDDINGS_TEXT, encoding="utf-8")
    return {"esds": str(esds), "stories": str(stories), "emb": str(emb)}


@pytest.fixture
def mini_files(tmp_path):
    return write_mini_files(tmp_path)


class TestValidate:
    def test_summarizes_good_files(self, data_dir, capsys):
        rc = main(["validate", str(data_dir / "descript.tsv"), str(data_dir / "inscript.tsv")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "18 documents" in out and "30 documents" in out
        assert "3 scenarios" in out
        assert out.strip().endswith("OK")

    def test_kind_mismatch_fails(self, data_dir, capsys):
        rc = main(["validate", "--kind", "story", str(data_dir / "descript.tsv")])
        assert rc == EXIT_DATA
        assert "OK" not in capsys.readouterr().out

    def test_corrupt_file_fails_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#doc d\n#scenario s\n#kind story\n1\tonly\n", encoding="utf-8")
        rc = main(["validate", str(bad)])
        assert rc == EXIT_DATA
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("#document d\n#scenario s\n#kind story\n", "line 1: unknown header '#document'"),
        ("#doc d\n#scenario s\n#kind story\n" + tok("1_0", "x", "x", "VB", 0, "root") + "\n",
         "line 4: malformed token line: invalid literal for int() with base 10: '1_0'"),
    ])
    def test_malformed_corpus_line_is_named(self, tmp_path, text, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text, encoding="utf-8")
        rc, errors = run_logged(["validate", str(bad)])
        assert rc == EXIT_DATA
        assert errors == [f"{bad}: {message}"]

    def test_missing_file_fails(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.tsv")]) == EXIT_DATA

    def test_all_pronoun_chain_is_warned_about_once(self, tmp_path, caplog):
        path = tmp_path / "stories.tsv"
        path.write_text("\n".join([
            "#doc d1", "#scenario s1", "#kind story",
            tok(1, "It", "it", "PRP", 2, "nsubj", "c3"),
            tok(2, "rang", "ring", "VBD", 0, "root", "_", "t"),
            "",
            tok(1, "It", "it", "PRP", 2, "nsubj", "c3"),
            tok(2, "stopped", "stop", "VBD", 0, "root", "_", "t"),
            "",
        ]), encoding="utf-8")
        assert main(["validate", str(path), "--log-level", "warning"]) == EXIT_OK
        message = "story d1: coreference chain 'c3' has no non-pronominal mention"
        assert sum(message in r.getMessage() for r in caplog.records) == 1


class TestIdentifyCommands:
    def test_train_then_identify_round_trip(self, mini_files, tmp_path, capsys):
        model_dir = tmp_path / "trees"
        rc = main([
            "train-identify", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--out-dir", str(model_dir),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert (model_dir / "make_tea.tree.json").exists()

        out_path = tmp_path / "identified.tsv"
        rc = main([
            "identify", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--model-dir", str(model_dir),
            "--out", str(out_path), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert "mentions identified as events" in capsys.readouterr().out
        docs = corpus.parse_corpus_path(out_path, kind="story")
        preds = [pred_of(d, m) for d in docs for m in d.mentions]
        assert len(preds) == 7
        assert set(preds) <= {corpus.EVENT, corpus.NON_SCRIPT}
        # trained and applied on the same stories, the tree gets them right
        golds = [corpus.collapse_label(m.gold_label) for d in docs for m in d.mentions]
        assert preds == golds

    def test_scenario_independent_uses_single_tree(self, mini_files, tmp_path):
        model_dir = tmp_path / "trees"
        rc = main([
            "train-identify", "--stories", mini_files["stories"],
            "--scenario-independent", "--out-dir", str(model_dir),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert (model_dir / "independent.tree.json").exists()
        out_path = tmp_path / "out.tsv"
        rc = main([
            "identify", "--stories", mini_files["stories"],
            "--scenario-independent", "--model-dir", str(model_dir),
            "--out", str(out_path), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert out_path.exists()

    @pytest.mark.parametrize("options, digests", [
        ([], {
            "baking_a_cake": "7ff24e2a57f12a257db12bb424395c6d71e9cd76d1c065201d78707d7c1104a0",
            "planting_a_tree": "c5b9f637c01f4dd509343ff2a483f89eca56dd31cee63de56acc76f228cc763e",
            "riding_a_bus": "14451f20e8339ace4200b13c20c17a48da4a7f0b19152e980fe7104d3c8a5600",
        }),
        (["--no-prune"], {
            "baking_a_cake": "ed82b487925bed9ecbf04973a6ae8520d858baca66f4f705e1dd7c5836304151",
            "planting_a_tree": "44c554436a4a3a7af099c0075b1b00d9c1055ac7b2bacbe7fe60c6549bb025c5",
            "riding_a_bus": "56f59576af24afe7b17be05c70b675fd833b1ca25083912e8d70a5461beb67a3",
        }),
        (["--scenario-independent"], {
            "independent": "8f864a3138d02cd49866588771dd77d72c98904b18b4f65cb7abc8c03ae230b8",
        }),
        (["--scenario-independent", "--no-prune"], {
            "independent": "6e39c01b913d6cd3337ed5fa3c249fae1623ce64dd6f853a8c400b265ed8bd78",
        }),
    ], ids=["scenario", "scenario-unpruned", "independent", "independent-unpruned"])
    def test_train_identify_on_synthetic_writes_the_pinned_trees(
        self, data_dir, tmp_path, options, digests
    ):
        # pins every split, threshold and count of the trees the split search builds
        if "--scenario-independent" not in options:
            options = ["--esds", str(data_dir / "descript.tsv"), *options]
        assert main(["train-identify", "--stories", str(data_dir / "inscript.tsv"), *options,
                     "--out-dir", str(tmp_path), "--log-level", "error"]) == EXIT_OK
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == {f"{name}.tree.json": digest for name, digest in digests.items()}

    # a version-1 file, whose nodes nest, is refused at its version
    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "attribute, kind, threshold, children",
        [
            ("tfidf_score", "numeric", None, ("le", "gt")),
            ("tfidf_score", "numeric", float("nan"), ("le", "gt")),
            ("tfidf_score", "numeric", 1.0, ("true", "false")),
            ("is_auxiliary", "nominal", 0.5, ("true", "false")),
            ("tfidf_score", "nominal", None, ("true", "false")),
            ("colour", "nominal", None, ("true", "false")),
        ],
    )
    def test_inconsistent_split_is_data_error(
        self, mini_files, tmp_path, attribute, kind, threshold, children, version
    ):
        model_dir = tmp_path / "trees"
        common = ["--stories", mini_files["stories"], "--esds", mini_files["esds"]]
        assert main(["train-identify", *common, "--out-dir", str(model_dir)]) == EXIT_OK
        target = model_dir / "make_tea.tree.json"
        payload = json.loads(target.read_text())
        leaf = {"type": "leaf", "counts": {"event": 1}, "majority": "event"}
        split = {
            "type": "split", "attribute": attribute, "kind": kind,
            "threshold": threshold, "majority_child": children[0], "counts": {"event": 2},
        }
        if version == 1:
            del payload["nodes"]
            payload["format_version"] = 1
            payload["root"] = {**split, "children": {c: leaf for c in children}}
        else:
            payload["nodes"] = [{**split, "children": {c: 1 + i for i, c in enumerate(children)}},
                                leaf, leaf]
        target.write_text(json.dumps(payload))
        with pytest.raises(TreeFormatError):
            load_tree(target.read_text())
        rc = main([
            "identify", *common, "--model-dir", str(model_dir),
            "--out", str(tmp_path / "out.tsv"),
        ])
        assert rc == EXIT_DATA
        assert not (tmp_path / "out.tsv").exists()

    def test_scenario_specific_training_requires_esds(self, mini_files, tmp_path):
        rc = main([
            "train-identify", "--stories", mini_files["stories"],
            "--out-dir", str(tmp_path / "trees"),
        ])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("command", ["train-identify", "identify"])
    def test_story_scenario_without_esds_is_data_error(self, mini_files, tmp_path, command):
        esds = Path(mini_files["esds"])
        esds.write_text(MINI_ESD_TEXT.replace("#scenario make_tea", "#scenario other"),
                        encoding="utf-8")
        argv = {
            "train-identify": ["train-identify", "--out-dir", str(tmp_path / "trees")],
            "identify": ["identify", "--model-dir", str(tmp_path / "trees"),
                         "--out", str(tmp_path / "out.tsv")],
        }[command]
        rc, errors = run_logged([*argv, "--stories", mini_files["stories"],
                                 "--esds", str(esds)])
        assert rc == EXIT_DATA
        assert errors == ["no ESDs for scenario 'make_tea'"]
        assert not (tmp_path / "trees").exists() and not (tmp_path / "out.tsv").exists()


ESDS_REQUIRED = "--esds is required unless --scenario-independent is set"


class TestEsdsRule:
    """A run whose systems read ESDs but that is given none exits 1 before it
    reads any file, the story corpus too; one whose systems read none runs."""

    @pytest.mark.parametrize("command, source, options, rc, message", [
        ("train-identify", "missing", [], EXIT_USAGE, ESDS_REQUIRED),
        ("identify", "missing", [], EXIT_USAGE, ESDS_REQUIRED),
        ("identification", "missing", [], EXIT_USAGE, "system(s) lemma, tree need --esds"),
        ("identification", "synthetic", [], EXIT_USAGE, "system(s) lemma, tree need --esds"),
        ("identification", "synthetic", ["--scenario-independent", "--systems", "lemma"],
         EXIT_USAGE, "system(s) lemma need --esds"),
        ("identification", "mini", ["--systems", "oracle,majority", "--k", "2"], EXIT_OK, None),
        ("identification", "synthetic", ["--scenario-independent", "--systems", "tree"],
         EXIT_OK, None),
    ], ids=["train-identify", "identify", "identification-missing-stories",
            "identification-default-systems", "independent-lemma", "oracle-majority",
            "independent-tree"])
    def test_without_esds(self, mini_files, data_dir, tmp_path, capsys,
                          command, source, options, rc, message):
        stories = {"missing": str(tmp_path / "missing.tsv"), "mini": mini_files["stories"],
                   "synthetic": str(data_dir / "inscript.tsv")}[source]
        argv = {
            "train-identify": ["train-identify", "--out-dir", str(tmp_path / "trees")],
            "identify": ["identify", "--model-dir", str(tmp_path / "trees"),
                         "--out", str(tmp_path / "out.tsv")],
            "identification": ["evaluate", "identification"],
        }[command]
        assert main([*argv, "--stories", stories, *options, "--log-level", "error"]) == rc
        if message is not None:
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "trees").exists() and not (tmp_path / "out.tsv").exists()

    def test_esds_without_a_story_scenario_is_data_error(self, mini_files, tmp_path):
        esds = Path(mini_files["esds"])
        esds.write_text(MINI_ESD_TEXT.replace("#scenario make_tea", "#scenario other"),
                        encoding="utf-8")
        rc, errors = run_logged(["evaluate", "identification", "--stories",
                                 mini_files["stories"], "--esds", str(esds), "--k", "2"])
        assert rc == EXIT_DATA
        assert errors == ["identification system 'lemma' needs ESDs for scenarios ['make_tea']"]


class TestMapCommands:
    def test_train_then_map_round_trip(self, mini_files, tmp_path, capsys):
        model_dir = tmp_path / "crf"
        rc = main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        # the model file alone records epsilon and the transition features
        assert [p.name for p in model_dir.iterdir()] == ["make_tea.crf.json"]
        model = load_model((model_dir / "make_tea.crf.json").read_text())
        assert model.disc.epsilon == 0.05 and model.use_transitions is True

        out_path = tmp_path / "mapped.tsv"
        rc = main([
            "map", "--stories", mini_files["stories"],
            "--model-dir", str(model_dir), "--embeddings", mini_files["emb"],
            "--out", str(out_path), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert "5 mentions labeled" in capsys.readouterr().out
        docs = corpus.parse_corpus_path(out_path, kind="story")
        for doc in docs:
            for m in doc.mentions:
                if m.gold_label in corpus.NON_SCRIPT_KINDS:
                    assert pred_of(doc, m) is None
                else:
                    assert pred_of(doc, m) == m.gold_label

    def test_story_without_script_mentions_is_written_unlabeled(self, mini_files, tmp_path,
                                                                 capsys):
        model_dir, out_path = tmp_path / "crf", tmp_path / "mapped.tsv"
        assert main(["train-map", "--esds", mini_files["esds"], "--embeddings", mini_files["emb"],
                     "--out-dir", str(model_dir), "--log-level", "warning"]) == EXIT_OK
        story = "\n".join([
            "#doc story_3", "#scenario make_tea", "#kind story",
            tok(1, "She", "she", "PRP", 2, "nsubj", "c1"),
            tok(2, "wanted", "want", "VBD", 0, "root", "_", "non_script_event"),
            tok(3, "to", "to", "TO", 4, "mark"),
            tok(4, "relax", "relax", "VB", 2, "xcomp", "_", "script_related"),
            "",
        ])
        stories = tmp_path / "unscripted.tsv"
        stories.write_text(story, encoding="utf-8")
        capsys.readouterr()
        assert main(["map", "--stories", str(stories), "--model-dir", str(model_dir),
                     "--embeddings", mini_files["emb"], "--out", str(out_path),
                     "--log-level", "warning"]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {out_path}: 0 mentions labeled\n"
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[:3] == ["#doc story_3", "#scenario make_tea", "#kind story"]
        assert [len(line.split("\t")) for line in lines[3:]] == [10] * 4
        assert [line.split("\t")[9] for line in lines[3:]] == ["_"] * 4

    @pytest.mark.parametrize("weight", ["x", None, [1]], ids=["string", "null", "list"])
    def test_unreadable_weight_exits_2(self, mini_files, tmp_path, weight):
        model_dir = tmp_path / "crf"
        assert main(["train-map", "--esds", mini_files["esds"], "--embeddings", mini_files["emb"],
                     "--out-dir", str(model_dir), "--log-level", "error"]) == EXIT_OK
        path = model_dir / "make_tea.crf.json"
        payload = json.loads(path.read_text())
        payload["weights"][0] = weight
        path.write_text(json.dumps(payload))
        rc, errors = run_logged(["map", "--stories", mini_files["stories"], "--model-dir",
                                 str(model_dir), "--embeddings", mini_files["emb"],
                                 "--out", str(tmp_path / "mapped.tsv"), "--log-level", "error"])
        assert rc == EXIT_DATA
        assert len(errors) == 1 and "corrupt model file: weight " in errors[0]

    def test_tuning_falls_back_to_epsilon_for_a_single_esd(self, mini_files, tmp_path, caplog):
        # make_tea keeps its two ESDs; make_coffee gets a copy of the first
        single = MINI_ESD_TEXT.split("#doc esd_2")[0]
        single = single.replace("esd_1", "coffee_1").replace("make_tea", "make_coffee")
        with open(mini_files["esds"], "a", encoding="utf-8") as esds:
            esds.write("\n" + single)
        common = ["--esds", mini_files["esds"], "--embeddings", mini_files["emb"],
                  "--epsilon", "0.15", "--log-level", "warning"]
        tuned, plain = tmp_path / "tuned", tmp_path / "plain"
        assert main(["train-map", "--tune", "--grid", "0.05,0.1", *common,
                     "--out-dir", str(tuned)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if "epsilon tuning needs at least 2" in m] == [
            "scenario 'make_coffee' has 1 ESD(s); epsilon tuning needs at least 2"
        ]
        assert model_epsilon(tuned, "make_coffee") == 0.15
        assert model_epsilon(tuned, "make_tea") in (0.05, 0.1)
        # the fallback model is the one that untuned training at --epsilon writes
        assert main(["train-map", *common, "--out-dir", str(plain)]) == EXIT_OK
        name = "make_coffee.crf.json"
        assert (tuned / name).read_bytes() == (plain / name).read_bytes()

    def test_tuned_training_records_chosen_epsilon(self, mini_files, tmp_path):
        model_dir = tmp_path / "crf"
        rc = main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
            "--tune", "--grid", "0.05,0.1", "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert model_epsilon(model_dir, "make_tea") in (0.05, 0.1)

    @pytest.mark.parametrize("grid", ["0.1,0.2", "0.1,0.1,0.2"])
    def test_tuning_trains_each_distinct_epsilon_once(
        self, data_dir, tmp_path, monkeypatch, caplog, grid
    ):
        # three scenarios, each with a model per distinct candidate and a final one
        fitted = []
        fit_crf = features.fit_crf

        def counted(sequences, disc, *args):
            fitted.append(disc.epsilon)
            return fit_crf(sequences, disc, *args)

        monkeypatch.setattr(features, "fit_crf", counted)
        assert main(["train-map", "--tune", "--grid", grid,
                     "--esds", str(data_dir / "descript.tsv"),
                     "--embeddings", str(data_dir / "embeddings.txt"),
                     "--out-dir", str(tmp_path / "crf"), "--log-level", "info"]) == EXIT_OK
        assert len(fitted) == 9
        scored = [r.getMessage().split(":")[0] for r in caplog.records
                  if r.getMessage().startswith("epsilon ")]
        assert scored == ["epsilon 0.1", "epsilon 0.2"] * 3

    def test_tuning_skips_a_scenario_without_usable_training_eds(
        self, mini_files, tmp_path, caplog
    ):
        # two ESDs of a new scenario whose EDs have no verb
        with open(mini_files["esds"], "a", encoding="utf-8") as esds:
            for doc in ("cup_1", "cup_2"):
                esds.write("\n".join([
                    "", f"#doc {doc}", "#scenario wash_cup", "#kind esd",
                    "#ed 1 rinse_cup", tok(1, "cup", "cup", "NN", 0, "root"),
                    "",
                ]))
        model_dir = tmp_path / "crf"
        assert main(["train-map", "--tune", "--grid", "0.05,0.1", "--esds", mini_files["esds"],
                     "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
                     "--log-level", "warning"]) == EXIT_OK
        warned = [r.getMessage() for r in caplog.records if "wash_cup" in r.getMessage()]
        assert warned == ["scenario 'wash_cup' has no usable training EDs"]
        assert [p.name for p in model_dir.iterdir()] == ["make_tea.crf.json"]

    def test_tuning_falls_back_to_epsilon_for_a_split_without_usable_eds(
        self, mini_files, tmp_path, caplog
    ):
        # make_coffee: one usable ESD and one whose only ED has no verb, so
        # one part of any held-out split has nothing to train or score on
        usable = MINI_ESD_TEXT.split("#doc esd_2")[0]
        usable = usable.replace("esd_1", "coffee_1").replace("make_tea", "make_coffee")
        with open(mini_files["esds"], "a", encoding="utf-8") as esds:
            esds.write("\n".join([
                "", usable, "#doc coffee_2", "#scenario make_coffee", "#kind esd",
                "#ed 1 boil_water", tok(1, "water", "water", "NN", 0, "root"),
                "",
            ]))
        common = ["--esds", mini_files["esds"], "--embeddings", mini_files["emb"],
                  "--epsilon", "0.15", "--log-level", "warning"]
        tuned, plain = tmp_path / "tuned", tmp_path / "plain"
        assert main(["train-map", "--tune", "--grid", "0.05,0.1", *common,
                     "--out-dir", str(tuned)]) == EXIT_OK
        warned = [r.getMessage() for r in caplog.records if "make_coffee" in r.getMessage()]
        assert warned == [
            "scenario 'make_coffee': a part of the tuning split has no usable ED;"
            " using epsilon 0.15"
        ]
        assert model_epsilon(tuned, "make_coffee") == 0.15
        assert main(["train-map", *common, "--out-dir", str(plain)]) == EXIT_OK
        name = "make_coffee.crf.json"
        assert (tuned / name).read_bytes() == (plain / name).read_bytes()

    def test_model_copied_alone_maps_as_in_place(self, data_dir, tmp_path):
        # at this epsilon, decoding at the default one would change labels
        trained, alone = tmp_path / "trained", tmp_path / "alone"
        assert main(["train-map", "--esds", str(data_dir / "descript.tsv"),
                     "--embeddings", str(data_dir / "embeddings.txt"), "--epsilon", "0.3",
                     "--out-dir", str(trained), "--log-level", "error"]) == EXIT_OK
        name = "baking_a_cake.crf.json"
        alone.mkdir()
        (alone / name).write_bytes((trained / name).read_bytes())
        stories = tmp_path / "stories.tsv"
        stories.write_text("".join(
            "#doc" + doc for doc in (data_dir / "inscript.tsv").read_text().split("#doc")
            if "#scenario baking_a_cake\n" in doc
        ))

        def mapped(model_dir):
            out = tmp_path / f"{model_dir.name}.tsv"
            assert main(["map", "--stories", str(stories), "--model-dir", str(model_dir),
                         "--embeddings", str(data_dir / "embeddings.txt"), "--out", str(out),
                         "--log-level", "error"]) == EXIT_OK
            return out.read_bytes()

        assert mapped(alone) == mapped(trained)
        default = tmp_path / "default"
        default.mkdir()
        payload = json.loads((trained / name).read_text())
        payload["epsilon"] = DiscretizationConfig.epsilon
        (default / name).write_text(json.dumps(payload))
        assert mapped(default) != mapped(alone)

    def test_map_on_synthetic_writes_the_pinned_corpus(self, data_dir, tmp_path):
        # pins the label of every script mention of the synthetic stories
        model_dir, out = tmp_path / "crf", tmp_path / "mapped.tsv"
        emb = str(data_dir / "embeddings.txt")
        assert main(["train-map", "--esds", str(data_dir / "descript.tsv"), "--embeddings", emb,
                     "--out-dir", str(model_dir), "--log-level", "error"]) == EXIT_OK
        assert main(["map", "--stories", str(data_dir / "inscript.tsv"), "--embeddings", emb,
                     "--model-dir", str(model_dir), "--out", str(out),
                     "--log-level", "error"]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "48a2ff14595fe7eb6f03fc962f1e9e35d138b344911425d76c99c019ee77b649"
        )

    @pytest.mark.parametrize("options, digests", [
        ([], {
            "baking_a_cake": "db307c92c08a50f6fa3b8af0dd6d065166c650935612162099d1a739082ccc70",
            "planting_a_tree": "6a7f03392891130b11c985b3aa72e206279975524ec5d5549c66fcc1fc2b27ba",
            "riding_a_bus": "85a011ee171d86410f645ea2a2022455b853061f5d40273328e09585c67bb0dc",
        }),
        (["--tune"], {
            "baking_a_cake": "52eebd5469057f9db4b36d80771d358911deb17e306665d3f2f657e4efc68372",
            "planting_a_tree": "a7b6d797dbbcf3357e41879368d1b808a3ef46934328c0c7fae5a3c70a6e930a",
            "riding_a_bus": "bd8573e3499bc602ba7a5629eccbd598af2088e3fbe984c5fa6b882fc2270868",
        }),
        (["--tune", "--no-seq"], {
            "baking_a_cake": "ba288c87f3a3b8f265746e8d85d0b3a8f02f19d866cc4d1228b028c44ff7e435",
            "planting_a_tree": "c07c54006f40f9e0e279957e297fcb3c381a407a15b6fcccfda23b0716f2746c",
            "riding_a_bus": "3c6e2874e5c88f592ff63f2388f204afd16eeed1a309d6ce715e6051c79e909d",
        }),
    ], ids=["plain", "tuned", "tuned-noseq"])
    def test_train_map_on_synthetic_writes_the_pinned_models(
        self, data_dir, tmp_path, options, digests
    ):
        # pins the weights, the label order and the block order of every column
        assert main(["train-map", "--esds", str(data_dir / "descript.tsv"),
                     "--embeddings", str(data_dir / "embeddings.txt"), *options,
                     "--out-dir", str(tmp_path), "--log-level", "error"]) == EXIT_OK
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == {f"{name}.crf.json": digest for name, digest in digests.items()}


    def test_table_of_another_dimension_names_model_and_table(self, mini_files, tmp_path):
        model_dir = tmp_path / "crf"
        assert main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
        ]) == EXIT_OK
        header, *rows = MINI_EMBEDDINGS_TEXT.strip().split("\n")
        emb = tmp_path / "emb_3d.txt"
        emb.write_text("\n".join(["10 3", *(row + " 0.1" for row in rows)]) + "\n")
        rc, errors = run_logged([
            "map", "--stories", mini_files["stories"], "--model-dir", str(model_dir),
            "--embeddings", str(emb), "--out", str(tmp_path / "mapped.tsv"),
        ])
        assert rc == EXIT_DATA
        assert len(errors) == 1
        assert str(model_dir / "make_tea.crf.json") in errors[0] and str(emb) in errors[0]

    def test_non_finite_embeddings_are_data_error(self, mini_files, tmp_path):
        model_dir = tmp_path / "crf"
        assert main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
        ]) == EXIT_OK
        emb = tmp_path / "bad_emb.txt"
        emb.write_text(MINI_EMBEDDINGS_TEXT.replace("boil 0.3", "boil nan"), encoding="utf-8")
        out_path = tmp_path / "mapped.tsv"
        rc = main([
            "map", "--stories", mini_files["stories"], "--model-dir", str(model_dir),
            "--embeddings", str(emb), "--out", str(out_path),
        ])
        assert rc == EXIT_DATA
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("weights", lambda w: ["nan"] + w[1:]),
            ("weights", lambda w: w[:-1] + ["-inf"]),
            ("labels", lambda labels: [labels[0]] * len(labels)),
            ("labels", lambda labels: [7] + labels[1:]),
            ("emissions", lambda emissions: 5),
            ("emissions", lambda emissions: [["x", *emissions[0][1:]], *emissions[1:]]),
            # one distinct character per label, so a loader iterating the
            # string would find the right label count
            ("labels", lambda labels: "".join(chr(ord("A") + i) for i in range(len(labels)))),
            ("emissions", lambda emissions: [[*e, 0] for e in emissions]),
            ("columns", lambda columns: float("inf")),
            ("epsilon", lambda epsilon: MISSING),
            ("epsilon", str),
            ("epsilon", lambda epsilon: True),
            ("epsilon", lambda epsilon: -1.0),
            ("epsilon", lambda epsilon: "nan"),
            ("epsilon", lambda epsilon: float("nan")),
            ("emissions", lambda emissions: [[10**6, emissions[0][1]], *emissions[1:]]),
            ("emissions", lambda emissions: [*emissions, emissions[0]]),
        ],
        ids=["nan_weight", "inf_weight", "duplicate_labels", "non_string_label",
             "emissions_not_a_list", "non_integer_column", "labels_as_string",
             "emission_triples", "infinite_columns", "missing_epsilon", "epsilon_as_string",
             "boolean_epsilon", "negative_epsilon", "nan_epsilon_as_string", "nan_epsilon",
             "emission_column_out_of_range", "duplicate_emission_entry"],
    )
    def test_malformed_model_is_data_error(self, mini_files, tmp_path, field, corrupt):
        model_dir = tmp_path / "crf"
        assert main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
        ]) == EXIT_OK
        model_path = model_dir / "make_tea.crf.json"
        payload = json.loads(model_path.read_text())
        payload[field] = corrupt(payload[field])
        if payload[field] is MISSING:
            del payload[field]
        model_path.write_text(json.dumps(payload))
        out_path = tmp_path / "mapped.tsv"
        rc = main([
            "map", "--stories", mini_files["stories"], "--model-dir", str(model_dir),
            "--embeddings", mini_files["emb"], "--out", str(out_path),
        ])
        assert rc == EXIT_DATA
        assert not out_path.exists()


MODEL_KEYS = ("format", "format_version", "labels", "columns", "use_transitions",
              "epsilon", "emissions", "weights")
NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999")
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# (kind, key, position, value); kinds that do not use a part ignore it
MODEL_MUTATIONS = st.tuples(
    st.sampled_from(["drop", "replace", "retype", "stringify", "element", "non_finite_weight"]),
    st.sampled_from(MODEL_KEYS),
    st.integers(min_value=0, max_value=10**6),
    JSON_VALUES,
)


def retyped(value):
    """The same value under another JSON type: 3 -> 3.0, true -> "true", [..] -> "..."."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, float)):
        return float(value) if isinstance(value, int) else str(value)
    if isinstance(value, list):
        return "".join(map(str, value))
    return None if isinstance(value, str) else 0


def mutate(payload: dict, kind: str, key: str, position: int, value):
    """Apply one corruption to a saved model payload, in place."""
    if kind == "non_finite_weight":
        key, value = "weights", NON_FINITE[position % len(NON_FINITE)]
    if key not in payload:
        return
    target = payload[key]
    if kind == "drop":
        del payload[key]
    elif kind == "replace":
        payload[key] = value
    elif kind == "retype":
        # a scalar field, an element of a list field, or one part of an emission entry
        while isinstance(target, list) and target and isinstance(target[0], list):
            target = target[position % len(target)]
        if isinstance(target, list) and target:
            target[position % len(target)] = retyped(target[position % len(target)])
        else:
            payload[key] = retyped(target)
    elif isinstance(target, list) and target:
        if kind == "stringify":
            payload[key] = "".join(map(str, target))
        else:
            target[position % len(target)] = value


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = write_mini_files(root)
    model_dir = root / "crf"
    assert main([
        "train-map", "--esds", files["esds"], "--embeddings", files["emb"],
        "--out-dir", str(model_dir), "--log-level", "warning",
    ]) == EXIT_OK
    model_path = model_dir / "make_tea.crf.json"
    return {**files, "model_dir": model_dir, "model_path": model_path,
            "text": model_path.read_text(), "out": root / "mapped.tsv"}


class TestModelFileFuzz:
    # every field gets its own run, so no field depends on the draw to be hit
    @pytest.mark.parametrize("key", MODEL_KEYS)
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(first=MODEL_MUTATIONS, more=st.lists(MODEL_MUTATIONS, max_size=2))
    def test_corrupt_model_loads_or_is_data_error(self, saved_model, key, first, more):
        payload = json.loads(saved_model["text"])
        kind, _, position, value = first
        mutate(payload, kind, key, position, value)
        for mutation in more:
            mutate(payload, *mutation)
        saved_model["model_path"].write_text(json.dumps(payload))
        try:
            load_model(saved_model["model_path"].read_text())
        except ModelFormatError:
            pass
        rc = main([
            "map", "--stories", saved_model["stories"],
            "--model-dir", str(saved_model["model_dir"]), "--embeddings", saved_model["emb"],
            "--out", str(saved_model["out"]), "--log-level", "error",
        ])
        assert rc in (EXIT_OK, EXIT_DATA)


@pytest.fixture
def trained_dirs(mini_files, tmp_path):
    """The mini files with trees and sequence models trained on them."""
    common = ["--esds", mini_files["esds"], "--log-level", "error"]
    assert main(["train-identify", "--stories", mini_files["stories"], *common,
                 "--out-dir", str(tmp_path / "trees")]) == EXIT_OK
    assert main(["train-identify", "--stories", mini_files["stories"], "--scenario-independent",
                 "--out-dir", str(tmp_path / "trees"), "--log-level", "error"]) == EXIT_OK
    assert main(["train-map", "--embeddings", mini_files["emb"], *common,
                 "--out-dir", str(tmp_path / "crf")]) == EXIT_OK
    return {**mini_files, "trees": tmp_path / "trees", "crf": tmp_path / "crf",
            "nonaction": tmp_path / "nonaction.txt"}


class TestLineEnds:
    def test_identify_then_map_keep_characters_that_end_no_line(self, trained_dirs, tmp_path):
        stories = tmp_path / "odd_stories.tsv"
        stories.write_text(
            MINI_STORY_TEXT.replace("1\tAnna\t", "1\tAn\u2028na\t")
            .replace("3\twater\t", "3\twa\x85ter\t"),
            encoding="utf-8",
        )
        identified, mapped = tmp_path / "identified.tsv", tmp_path / "mapped.tsv"
        assert main([
            "identify", "--stories", str(stories), "--esds", trained_dirs["esds"],
            "--model-dir", str(trained_dirs["trees"]), "--out", str(identified),
            "--log-level", "error",
        ]) == EXIT_OK
        assert main([
            "map", "--stories", str(identified), "--model-dir", str(trained_dirs["crf"]),
            "--embeddings", trained_dirs["emb"], "--out", str(mapped), "--log-level", "error",
        ]) == EXIT_OK
        docs = corpus.parse_corpus_path(mapped, kind="story")
        surfaces = {t.surface for doc in docs for sent in doc.sentences for t in sent}
        assert {"An\u2028na", "wa\x85ter"} <= surfaces


def truncated_model(text: str) -> str:
    payload = json.loads(text)
    payload["weights"] = payload["weights"][:-1]
    return json.dumps(payload)


def tampered_tree(text: str) -> str:
    payload = json.loads(text)
    payload["nodes"][0]["type"] = "mystery"
    return json.dumps(payload)


def version_1(text: str) -> str:
    payload = json.loads(text)
    payload["format_version"] = 1
    return json.dumps(payload)


# (file, its new content or a function of its path giving that, command)
BAD_FILES = {
    "stories": ("stories", "#doc d\n#scenario s\n#kind story\n1\tonly\n", "map"),
    "esds": ("esds", "#kind esd\n", "train-map"),
    "embeddings": ("emb", "2 2\nboil 0.1\n", "map"),
    "tree": ("trees/make_tea.tree.json", lambda path: tampered_tree(path.read_text()),
             "identify"),
    "tree_version_1": ("trees/make_tea.tree.json",
                       lambda path: version_1(path.read_text()), "identify"),
    "tree_of_another_schema": ("trees/make_tea.tree.json",
                               lambda path: path.with_name("independent.tree.json").read_text(),
                               "identify"),
    "model": ("crf/make_tea.crf.json", lambda path: truncated_model(path.read_text()), "map"),
    "model_version_1": ("crf/make_tea.crf.json", lambda path: version_1(path.read_text()),
                        "map"),
    "nonaction": ("nonaction", b"be\n\xff\n", "identify"),
    "undecodable_corpus": ("stories", b"#doc \xff\n", "identify"),
    # the bad byte wins over the short row before it, as in a whole-file read
    "undecodable_embeddings": ("emb", b"2 2\nboil 0.1\nheat 0.2 \xff\n", "map"),
}


class TestBadFilesAreNamed:
    """A malformed input file exits 2, and the logged error names the file."""

    @pytest.mark.parametrize("case", list(BAD_FILES))
    def test_exit_code_and_message(self, trained_dirs, tmp_path, case):
        name, content, command = BAD_FILES[case]
        files = trained_dirs
        path = Path(files[name]) if name in files else tmp_path / name
        files["nonaction"].write_text("be\n", encoding="utf-8")
        if callable(content):
            content = content(path)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        out = str(tmp_path / "out.tsv")
        argv = {
            "identify": ["identify", "--stories", files["stories"], "--esds", files["esds"],
                         "--nonaction", str(files["nonaction"]),
                         "--model-dir", str(files["trees"]), "--out", out],
            "map": ["map", "--stories", files["stories"], "--embeddings", files["emb"],
                    "--model-dir", str(files["crf"]), "--out", out],
            "train-map": ["train-map", "--esds", files["esds"], "--embeddings", files["emb"],
                          "--out-dir", str(tmp_path / "crf2")],
        }[command]
        rc, errors = run_logged(argv)
        assert rc == EXIT_DATA
        assert len(errors) == 1 and str(path) in errors[0]


UNREAD_WORD = "zz_unread"  # the lemma of no token of the synthetic corpora


def table_commands(data_dir: Path, emb: Path, esds: Path, stories: Path, tmp_path: Path):
    """The commands that read an embedding table, by name, on the given corpora;
    `map` decodes with the models that `train-map --tune` writes."""
    table = ["--embeddings", str(emb), "--log-level", "error"]
    both = ["--esds", str(esds), "--stories", str(stories), *table]
    models = str(tmp_path / "crf")
    return {
        "evaluate classification": ["evaluate", "classification", *both],
        "evaluate pipeline": ["evaluate", "pipeline", *both],
        "train-map --tune": ["train-map", "--esds", str(esds), *table, "--tune",
                             "--out-dir", models],
        "map": ["map", "--stories", str(stories), *table, "--model-dir", models,
                "--out", str(tmp_path / "mapped.tsv")],
    }


def capitalized_lemma(path: Path, directory: Path, lemma: str) -> Path:
    """A copy of a corpus file in which every token lemma `lemma` is capitalized."""
    lines = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        cols = line.split("\t")
        if len(cols) > 2 and cols[2] == lemma:
            cols[2] = lemma.capitalize()
        lines.append("\t".join(cols))
    copy = directory / path.name
    copy.write_text("\n".join(lines), encoding="utf-8")
    return copy


class TestStreamedTable:
    """The commands keep only the table rows of their corpora's lemmas, yet
    check every row, and every lookup finds what the full table holds."""

    @pytest.mark.parametrize("bad", ["nan", "short", "1e400", "norm_overflow"])
    @pytest.mark.parametrize("command", ["map", "train-map --tune", "evaluate classification"])
    def test_rows_that_no_corpus_looks_up_are_still_checked(
        self, data_dir, synthetic_esds, synthetic_stories, tmp_path, command, bad
    ):
        blocks = [b for s in synthetic_stories for b in s.sentences]
        blocks += [ed.tokens for d in synthetic_esds for ed in d.eds]
        assert all(t.lemma.lower() != UNREAD_WORD for b in blocks for t in b)
        header, *rows = (data_dir / "embeddings.txt").read_text(encoding="utf-8").splitlines()
        zeros = ["0"] * (int(header.split()[1]) - 1)
        values = {"nan": ["nan", *zeros], "short": ["1"], "1e400": ["1e400", *zeros],
                  "norm_overflow": ["1e200", *zeros]}[bad]
        rows.insert(10, " ".join([UNREAD_WORD, *values]))
        emb = tmp_path / "emb.txt"
        emb.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        argv = table_commands(data_dir, emb, data_dir / "descript.tsv",
                              data_dir / "inscript.tsv", tmp_path)[command]
        if command == "map":  # models trained on the shipped table
            assert main(["train-map", "--esds", str(data_dir / "descript.tsv"), "--embeddings",
                         str(data_dir / "embeddings.txt"), "--out-dir", str(tmp_path / "crf"),
                         "--log-level", "error"]) == EXIT_OK
        rc, errors = run_logged(argv)
        assert rc == EXIT_DATA
        assert len(errors) == 1 and errors[0].startswith(f"{emb}: line 12: ")
        assert not (tmp_path / "mapped.tsv").exists()

    @pytest.mark.parametrize("corpora", ["shipped", "capitalized_lemma"])
    def test_each_lookup_finds_what_the_full_table_holds(
        self, data_dir, tmp_path, monkeypatch, corpora
    ):
        esds, stories = data_dir / "descript.tsv", data_dir / "inscript.tsv"
        if corpora == "capitalized_lemma":  # found by its lowercase form only
            esds, stories = (capitalized_lemma(path, tmp_path, "bus") for path in (esds, stories))
        header, *rows = (data_dir / "embeddings.txt").read_text(encoding="utf-8").splitlines()
        rows += [f"filler{i} {' '.join(['0.5'] * int(header.split()[1]))}" for i in range(20)]
        emb = tmp_path / "emb.txt"
        emb.write_text("\n".join([f"{len(rows)} {header.split()[1]}", *rows]) + "\n",
                       encoding="utf-8")
        with open(emb, "rb") as file:
            full = load_embeddings(file)
        lookup = EmbeddingTable.lookup
        calls: list[tuple[int, str, np.ndarray | None]] = []

        def recorded(table, word):
            hit = lookup(table, word)
            calls.append((len(table), word, hit))
            return hit

        monkeypatch.setattr(EmbeddingTable, "lookup", recorded)
        for name, argv in table_commands(data_dir, emb, esds, stories, tmp_path).items():
            calls.clear()
            assert main(argv) == EXIT_OK, name
            assert calls, name
            for rows_held, word, hit in calls:
                assert rows_held < len(full)
                expected = lookup(full, word)
                if expected is None:
                    assert hit is None, (name, word)
                else:
                    assert hit.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestEvaluate:
    def test_identification_reports_and_files(self, mini_files, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--systems", "lemma,oracle", "--k", "2",
            "--json-out", str(json_out), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.split("\n")[0].split() == ["system", "P", "R", "F1", "acc"]
        payload = json.loads(json_out.read_text())
        assert payload["experiment"] == "identification"
        assert payload["config"]["k"] == 2
        assert payload["systems"]["oracle"]["f1"] == 1.0
        assert payload["systems"]["lemma"]["f1"] == pytest.approx(10 / 11)

    def test_classification_needs_embeddings_for_vector_systems(self, mini_files):
        rc = main([
            "evaluate", "classification", "--esds", mini_files["esds"],
            "--stories", mini_files["stories"], "--systems", "crf",
        ])
        assert rc == EXIT_USAGE

    def test_unknown_system_is_usage_error(self, mini_files):
        rc = main([
            "evaluate", "classification", "--esds", mini_files["esds"],
            "--stories", mini_files["stories"], "--systems", "svm",
        ])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("protocol, systems, message", [
        ("identification", ",", "no system(s) given; choose from tree, lemma, oracle, majority"),
        ("classification", "", "no system(s) given;"
                               " choose from crf, crf_noseq, lemma, cosine, oracle"),
        ("pipeline", ",", "no classifier(s) given;"
                          " choose from crf, crf_noseq, lemma, cosine, oracle"),
    ])
    def test_empty_system_list_is_usage_error(self, mini_files, capsys,
                                              protocol, systems, message):
        rc = main(["evaluate", protocol, "--esds", mini_files["esds"],
                   "--stories", mini_files["stories"], "--systems", systems])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["classification", "train-map"])
    def test_verbless_ed_is_warned_about_once(self, mini_files, tmp_path, caplog, command):
        with open(mini_files["esds"], "a", encoding="utf-8") as esds:
            esds.write("\n".join([
                "", "#doc esd_3", "#scenario make_tea", "#kind esd",
                "#ed 1 boil_water", tok(1, "boil", "boil", "VB", 0, "root", "_", "boil_water"),
                "", "#ed 2 drink_tea", tok(1, "tea", "tea", "NN", 0, "root"), "",
            ]))
        if command == "classification":
            # each of the two systems trains on the ESDs
            argv = ["evaluate", "classification", "--stories", mini_files["stories"],
                    "--systems", "crf,crf_noseq"]
        else:
            # tuning trains and decodes once per epsilon, then trains the model
            argv = ["train-map", "--tune", "--out-dir", str(tmp_path / "crf")]
        rc = main([*argv, "--esds", mini_files["esds"], "--embeddings", mini_files["emb"],
                   "--log-level", "warning"])
        assert rc == EXIT_OK
        message = "esd_3: ED 2 (drink_tea) has no verb"
        assert sum(message in r.getMessage() for r in caplog.records) == 1

    def test_stories_of_a_scenario_without_esds_are_skipped(self, mini_files, caplog):
        other = MINI_STORY_TEXT.replace("#scenario make_tea", "#scenario other")
        with open(mini_files["stories"], "a", encoding="utf-8") as stories:
            stories.write("\n" + other.replace("#doc story_", "#doc other_story_"))
        rc = main([
            "evaluate", "classification", "--esds", mini_files["esds"],
            "--stories", mini_files["stories"], "--systems", "lemma,oracle",
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        message = "scenario 'other' has no ESDs; stories skipped"
        assert sum(message in r.getMessage() for r in caplog.records) == 1

    def test_coreference_warning_fires_once_per_invocation(self, data_dir, capsys):
        rc = main([
            "evaluate", "classification", "--esds", str(data_dir / "descript.tsv"),
            "--stories", str(data_dir / "inscript.tsv"),
            "--embeddings", str(data_dir / "embeddings.txt"),
            "--systems", "lemma,cosine,oracle", "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("story riding_a_bus_story_10: coreference chain") == 1


TREE_DEFAULTS = {"min_instances": TreeConfig.min_instances,
                 "confidence": TreeConfig.confidence, "prune": True}
OPTIMIZER_DEFAULTS = {"epsilon": DiscretizationConfig.epsilon, "l2": TrainConfig.l2,
                      "max_iter": TrainConfig.max_iterations}


class TestReportConfig:
    """A `--json-out` report names its protocol and holds every option of the
    run, but not the command, the systems, the config file or the outputs."""

    @pytest.mark.parametrize("case", [
        "identification", "identification_independent", "classification", "pipeline",
        "no_prune", "config_file",
    ])
    def test_experiment_and_config(self, mini_files, tmp_path, case):
        stories, esds = mini_files["stories"], mini_files["esds"]
        identification = ["evaluate", "identification", "--stories", stories, "--k", "2"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "bogus_knob": 1}), encoding="utf-8")
        if case == "identification_independent":  # leaves one of two scenarios out
            other = MINI_STORY_TEXT.replace("#scenario make_tea", "#scenario other")
            with open(stories, "a", encoding="utf-8") as out:
                out.write("\n" + other.replace("#doc story_", "#doc other_story_"))
        argv, experiment, config = {
            "identification": (
                [*identification, "--esds", esds, "--systems", "lemma,oracle"],
                "identification",
                {"stories": stories, "esds": esds, "k": 2, "seed": 42,
                 "scenario_independent": False, **TREE_DEFAULTS},
            ),
            "identification_independent": (
                [*identification, "--scenario-independent", "--systems", "oracle,majority",
                 "--seed", "7"],
                "identification",
                {"stories": stories, "esds": None, "k": 2, "seed": 7,
                 "scenario_independent": True, **TREE_DEFAULTS},
            ),
            "classification": (
                ["evaluate", "classification", "--esds", esds, "--stories", stories,
                 "--embeddings", mini_files["emb"], "--systems", "lemma,crf"],
                "classification",
                {"esds": esds, "stories": stories, "embeddings": mini_files["emb"],
                 **OPTIMIZER_DEFAULTS},
            ),
            "pipeline": (
                ["evaluate", "pipeline", "--esds", esds, "--stories", stories,
                 "--identifier", "oracle", "--systems", "lemma", "--k", "2",
                 "--epsilon", "0.5", "--min-instances", "3"],
                "pipeline",
                {"esds": esds, "stories": stories, "embeddings": None, "identifier": "oracle",
                 "k": 2, "seed": 42, **TREE_DEFAULTS, **OPTIMIZER_DEFAULTS,
                 "epsilon": 0.5, "min_instances": 3},
            ),
            "no_prune": (
                [*identification, "--esds", esds, "--systems", "tree", "--no-prune",
                 "--confidence", "0.1"],
                "identification",
                {"stories": stories, "esds": esds, "k": 2, "seed": 42,
                 "scenario_independent": False, **TREE_DEFAULTS, "confidence": 0.1,
                 "prune": False},
            ),
            "config_file": (
                ["evaluate", "identification", "--stories", stories, "--esds", esds,
                 "--systems", "oracle", "--config", str(cfg)],
                "identification",
                {"stories": stories, "esds": esds, "k": 2, "seed": 42,
                 "scenario_independent": False, **TREE_DEFAULTS},
            ),
        }[case]
        json_out = tmp_path / "r.json"
        rc = main([*argv, "--json-out", str(json_out), "--log-level", "error"])
        assert rc == EXIT_OK
        payload = json.loads(json_out.read_text())
        assert payload["experiment"] == experiment
        assert payload["config"] == config


class TestConfigFile:
    def test_json_config_fills_unset_options(self, mini_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "systems": ["oracle"]}), encoding="utf-8")
        json_out = tmp_path / "r.json"
        # the default k=10 cannot split two stories, so success proves the
        # config value was picked up
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--config", str(cfg),
            "--json-out", str(json_out), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        payload = json.loads(json_out.read_text())
        assert payload["config"]["k"] == 2
        assert list(payload["systems"]) == ["oracle"]

    def test_flag_beats_config(self, mini_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 10, "systems": ["oracle"]}), encoding="utf-8")
        json_out = tmp_path / "r.json"
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--config", str(cfg), "--k", "2",
            "--json-out", str(json_out), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert json.loads(json_out.read_text())["config"]["k"] == 2

    def test_second_different_config_is_usage_error(self, mini_files, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps({"k": 2}), encoding="utf-8")
        second.write_text(json.dumps({"k": 2}), encoding="utf-8")
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--config", str(first), "--config", str(second),
        ])
        assert rc == EXIT_USAGE
        assert "--config may be given only once" in capsys.readouterr().err

    def test_key_value_config_with_comments(self, mini_files, tmp_path):
        cfg = tmp_path / "cfg.conf"
        cfg.write_text(
            "# fold count\nk = 2\nsystems = [\"oracle\"]\n", encoding="utf-8"
        )
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--config", str(cfg),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK

    def test_unrecognized_config_key_warns(self, mini_files, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "bogus_knob": 1}), encoding="utf-8")
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--systems", "oracle",
            "--config", str(cfg), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert any("bogus_knob" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "name, text",
        [("cfg.conf", "systems = lemma,tree\n"), ("cfg.json", '{"systems": "lemma,tree"}')],
        ids=["key_value", "json"],
    )
    def test_list_option_as_comma_string(self, mini_files, tmp_path, name, text):
        cfg = tmp_path / name
        cfg.write_text(text, encoding="utf-8")
        json_out = tmp_path / "r.json"
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--k", "2", "--config", str(cfg),
            "--json-out", str(json_out), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert list(json.loads(json_out.read_text())["systems"]) == ["lemma", "tree"]

    @pytest.mark.parametrize("text, prune", [("no_prune = true\n", False),
                                             ("no_prune = false\n", True)])
    def test_switch_from_config(self, mini_files, tmp_path, text, prune):
        cfg = tmp_path / "cfg.conf"
        cfg.write_text(text, encoding="utf-8")
        json_out = tmp_path / "r.json"
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--systems", "oracle", "--k", "2",
            "--config", str(cfg), "--json-out", str(json_out), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert json.loads(json_out.read_text())["config"]["prune"] is prune

    def test_tune_epsilon_grid_as_comma_string(self, mini_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        # neither value is in the default grid or is the default epsilon
        cfg.write_text(json.dumps({"grid": "0.15,0.25"}), encoding="utf-8")
        rc = main([
            "train-map", "--tune", "--esds", mini_files["esds"], "--embeddings",
            mini_files["emb"], "--out-dir", str(tmp_path / "crf"), "--config", str(cfg),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert model_epsilon(tmp_path / "crf", "make_tea") in (0.15, 0.25)

    @pytest.mark.parametrize(
        "text",
        ['{"epsilon": "abc"}', '{"k": 2.5}', '{"log_level": "verbose"}',
         '{"no_prune": "false"}', '{"k": 2', '{"nonaction": {"path": "x"}}'],
        ids=["epsilon_not_a_number", "k_not_an_int", "unknown_log_level",
             "switch_with_a_value", "json_syntax_error", "object_value"],
    )
    def test_bad_content_is_usage_error(self, mini_files, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        command = [
            "evaluate", "pipeline", "--esds", mini_files["esds"],
            "--stories", mini_files["stories"], "--identifier", "oracle",
            "--systems", "lemma", "--k", "2", "--log-level", "warning",
        ]
        assert main(command) == EXIT_OK
        # checked even where a flag overrides it
        assert main([*command, "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("form", sorted(LINE_END_FORMS))
    def test_line_end_forms_read_alike(self, form, tmp_path):
        cfg = tmp_path / "cfg.conf"
        text = '# fold count\nk = 2\nsystems = ["oracle"]\n'
        cfg.write_bytes(LINE_END_FORMS[form](text).encode("utf-8"))
        assert cli._load_config_file(str(cfg)) == {"k": 2, "systems": ["oracle"]}

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=codepoint)
    def test_no_line_end_inside_a_value(self, char, tmp_path):
        cfg = tmp_path / "cfg.conf"
        cfg.write_text(f"log_level = a{char}b\nk = 2\n", encoding="utf-8")
        assert cli._load_config_file(str(cfg)) == {"log_level": f"a{char}b", "k": 2}

    def test_config_supplies_required_option(self, mini_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stories": mini_files["stories"]}), encoding="utf-8")
        rc = main([
            "evaluate", "identification", "--config", str(cfg), "--esds", mini_files["esds"],
            "--systems", "oracle", "--k", "2", "--log-level", "warning",
        ])
        assert rc == EXIT_OK

    def test_unused_key_is_not_warned_about_under_error_level(self, mini_files, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}), encoding="utf-8")
        caplog.set_level(logging.WARNING)  # the level a fresh process starts with
        rc = main(["validate", mini_files["stories"], "--config", str(cfg), "--log-level", "error"])
        assert rc == EXIT_OK
        assert not any("bogus_knob" in r.getMessage() for r in caplog.records)

    def test_unused_key_is_warned_about_after_an_error_level_run(
        self, mini_files, tmp_path, caplog
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}), encoding="utf-8")
        assert main(["validate", mini_files["stories"], "--log-level", "error"]) == EXIT_OK
        rc = main(["validate", mini_files["stories"], "--config", str(cfg), "--log-level", "info"])
        assert rc == EXIT_OK
        assert any("bogus_knob" in r.getMessage() for r in caplog.records)

    def test_prefix_of_an_option_is_unknown(self, mini_files, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsi": 0.1}), encoding="utf-8")
        json_out = tmp_path / "r.json"
        caplog.set_level(logging.WARNING)
        rc = main([
            "evaluate", "classification", "--esds", mini_files["esds"],
            "--stories", mini_files["stories"], "--systems", "lemma", "--config", str(cfg),
            "--json-out", str(json_out), "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert any("'epsi'" in r.getMessage() for r in caplog.records)
        epsilon = json.loads(json_out.read_text())["config"]["epsilon"]
        assert epsilon == DiscretizationConfig.epsilon


# option names of the two fuzzed commands, with the help and config options,
# the positional and one dashed spelling
VALIDATE_KEYS = ("kind", "log_level", "log-level", "config", "help", "paths")
IDENTIFICATION_KEYS = (
    "stories", "esds", "systems", "k", "seed", "scenario_independent", "nonaction",
    "min_instances", "confidence", "no_prune", "no-prune", "json_out",
    "log_level", "config", "help",
)
# no path separators, so a drawn output path stays in the working directory
CONFIG_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\\"), max_size=6
)
CONFIG_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), CONFIG_TEXT,
    st.sampled_from(["warning", "story", "esd", "0.1", "2", "true", "false", "oracle"]),
)
CONFIG_VALUES = st.one_of(CONFIG_SCALARS, st.lists(CONFIG_SCALARS, max_size=3))


def config_text(entries: dict, form: str) -> str:
    if form == "json":
        return json.dumps(entries)
    return "".join(
        f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
        for key, value in entries.items()
    )


def chain_tree(depth: int) -> DecisionTree:
    """A tree over the scenario schema whose splits nest `depth` deep; every
    row takes the gt branch of every split."""
    node = Leaf(counts={"event": 1}, majority="event")
    for _ in range(depth):
        stray = Leaf(counts={"non_script_event": 1}, majority="non_script_event")
        node = Split(attribute="tfidf_score", kind="numeric", threshold=-1.0,
                     children={"le": stray, "gt": node}, majority_child="gt",
                     counts={"event": 1, "non_script_event": 1})
    return DecisionTree(schema=row_schema(True), root=node, config=TreeConfig())


def nested_v1_tree_text(depth: int) -> str:
    """A version-1 tree file, a format no longer read, whose nodes nest
    `depth` splits deep."""
    leaf = '{"type": "leaf", "counts": {"event": 1}, "majority": "event"}'
    split = ('{"type": "split", "attribute": "tfidf_score", "kind": "numeric",'
             ' "threshold": -1.0, "majority_child": "gt", "counts": {"event": 2},'
             f' "children": {{"le": {leaf}, "gt": ')
    schema = json.dumps([{"name": s.name, "kind": s.kind} for s in row_schema(True)])
    return ('{"format": "scriptmap-tree", "format_version": 1, "schema": ' + schema
            + ', "config": {"min_instances": 2, "confidence": 0.25, "prune": true},'
            + ' "root": ' + split * depth + leaf + "}}" * depth + "}")


DEEP_JSON = "[" * 100_000


class TestDeepInputs:
    """Nesting deeper than the JSON codec can follow is a format error."""

    def identify(self, files, model_dir, out):
        return main(["identify", "--stories", files["stories"], "--esds", files["esds"],
                     "--model-dir", str(model_dir), "--out", str(out)])

    def test_deep_saved_tree_is_applied(self, mini_files, tmp_path):
        model_dir = tmp_path / "trees"
        model_dir.mkdir()
        (model_dir / "make_tea.tree.json").write_text(save_tree(chain_tree(3000)))
        out = tmp_path / "out.tsv"
        assert self.identify(mini_files, model_dir, out) == EXIT_OK
        docs = corpus.parse_corpus_path(out, kind="story")
        assert {pred_of(d, m) for d in docs for m in d.mentions} == {corpus.EVENT}

    @pytest.mark.parametrize("text", [DEEP_JSON, nested_v1_tree_text(5000)],
                             ids=["brackets", "version_1_chain"])
    def test_deep_tree_file_is_data_error(self, mini_files, tmp_path, text):
        model_dir = tmp_path / "trees"
        model_dir.mkdir()
        (model_dir / "make_tea.tree.json").write_text(text)
        assert self.identify(mini_files, model_dir, tmp_path / "out.tsv") == EXIT_DATA

    def test_deep_model_is_data_error(self, mini_files, tmp_path):
        model_dir = tmp_path / "crf"
        assert main(["train-map", "--esds", mini_files["esds"], "--embeddings",
                     mini_files["emb"], "--out-dir", str(model_dir)]) == EXIT_OK
        (model_dir / "make_tea.crf.json").write_text(DEEP_JSON)
        rc = main(["map", "--stories", mini_files["stories"], "--model-dir", str(model_dir),
                   "--embeddings", mini_files["emb"], "--out", str(tmp_path / "mapped.tsv")])
        assert rc == EXIT_DATA
        with pytest.raises(ModelFormatError):
            load_model(DEEP_JSON)

    @pytest.mark.parametrize("text", ['{"kind": ' + DEEP_JSON, "kind = " + DEEP_JSON])
    def test_deep_config_is_usage_error(self, mini_files, tmp_path, text):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(text)
        assert main(["validate", mini_files["stories"], "--config", str(cfg)]) == EXIT_USAGE


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    return root, write_mini_files(root)


class TestConfigFileFuzz:
    @pytest.mark.parametrize("form", ["json", "key_value"])
    @pytest.mark.parametrize("command", ["validate", "identification"])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_any_config_exits_with_a_documented_code(self, fuzz_dir, command, form, data):
        root, files = fuzz_dir
        if command == "validate":
            keys, argv = VALIDATE_KEYS, ["validate", files["stories"]]
        else:
            keys = IDENTIFICATION_KEYS
            # two folds on the command line, so that most draws run the protocol
            argv = ["evaluate", "identification", "--stories", files["stories"],
                    "--esds", files["esds"], "--systems", "oracle", "--k", "2"]
        entries = data.draw(st.dictionaries(
            st.one_of(st.sampled_from(keys), CONFIG_TEXT), CONFIG_VALUES, max_size=4
        ))
        cfg = root / "fuzz.cfg"
        cfg.write_text(config_text(entries, form), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            rc = main([*argv, "--config", str(cfg), "--log-level", "error"])
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA)


# every command, with the config dataclass defaults its help must show
HELP_DEFAULTS = {
    ("validate",): (),
    ("train-identify",): ("min_instances", "confidence"),
    ("identify",): (),
    ("train-map",): ("epsilon", "l2", "max_iterations"),
    ("map",): (),
    ("evaluate", "identification"): ("min_instances", "confidence"),
    ("evaluate", "classification"): ("epsilon", "l2", "max_iterations"),
    ("evaluate", "pipeline"):
        ("epsilon", "l2", "max_iterations", "min_instances", "confidence"),
}
FIELD_CLASSES = {"epsilon": DiscretizationConfig, "l2": TrainConfig,
                 "max_iterations": TrainConfig, "min_instances": TreeConfig,
                 "confidence": TreeConfig}


class TestHelp:
    @pytest.mark.parametrize("command", list(HELP_DEFAULTS), ids=" ".join)
    def test_help_shows_dataclass_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for field in HELP_DEFAULTS[command]:
            assert f"(default {getattr(FIELD_CLASSES[field], field)})" in text


class TestExitCodes:
    def test_bad_flag_is_usage_error(self):
        assert main(["validate", "--frobnicate", "x"]) == EXIT_USAGE

    def test_unknown_identifier_is_usage_error(self, mini_files):
        rc = main([
            "evaluate", "pipeline", "--esds", mini_files["esds"],
            "--stories", mini_files["stories"], "--identifier", "nope",
            "--systems", "lemma",
        ])
        assert rc == EXIT_USAGE

    def test_corrupt_corpus_is_data_error(self, mini_files, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#kind story\n#doc d\n#scenario s\n", encoding="utf-8")
        rc = main([
            "train-map", "--esds", str(bad), "--embeddings", mini_files["emb"],
            "--out-dir", str(tmp_path / "m"),
        ])
        assert rc == EXIT_DATA

    # "zzx...": a 301-byte id, whose model file name the file system refuses
    @pytest.mark.parametrize("bad", ["zz/evil", "zz\0evil", "zz" + "x" * 299])
    @pytest.mark.parametrize("command", ["train-identify", "identify", "train-map", "map"])
    def test_bad_scenario_id_is_rejected_before_anything_is_written(
        self, data_dir, tmp_path, command, bad
    ):
        # the bad id sorts after the other two scenarios, whose files would
        # otherwise be written first
        esds, stories = renamed_scenario(data_dir, tmp_path, bad)
        out = tmp_path / "out"
        argv, named = {
            "train-identify": (["--stories", stories, "--esds", esds, "--out-dir", str(out)],
                               stories),
            "identify": (["--stories", stories, "--esds", esds, "--model-dir", str(tmp_path),
                          "--out", str(out)], stories),
            "train-map": (["--esds", esds, "--embeddings", str(data_dir / "embeddings.txt"),
                           "--out-dir", str(out)], esds),
            "map": (["--stories", stories, "--embeddings", str(data_dir / "embeddings.txt"),
                     "--model-dir", str(tmp_path), "--out", str(out)], stories),
        }[command]
        rc, errors = run_logged([command, *argv])
        assert rc == EXIT_DATA
        assert errors == [f"{named}: scenario id {bad!r} is not usable as a file name"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, suffix", [("train-identify", ".tree.json"), ("train-map", ".crf.json")]
    )
    def test_scenario_id_may_fill_a_file_name_to_255_bytes(
        self, data_dir, tmp_path, command, suffix
    ):
        longest = "\u00e9" * ((255 - len(suffix)) // 2) + "x" * ((255 - len(suffix)) % 2)
        assert len((longest + suffix).encode("utf-8")) == 255
        for scenario, rc in ((longest, EXIT_OK), (longest + "x", EXIT_DATA)):
            esds, stories = renamed_scenario(data_dir, tmp_path, scenario)
            out = tmp_path / f"out_{rc}"
            data = (["--stories", stories] if command == "train-identify"
                    else ["--embeddings", str(data_dir / "embeddings.txt")])
            assert main([command, *data, "--esds", esds,
                         "--out-dir", str(out), "--log-level", "error"]) == rc
            assert (out / (scenario + suffix)).exists() == (rc == EXIT_OK)

    def test_bad_embeddings_is_data_error(self, mini_files, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("2 2\nboil 0.1\n", encoding="utf-8")
        rc = main([
            "train-map", "--esds", mini_files["esds"], "--embeddings", str(emb),
            "--out-dir", str(tmp_path / "m"),
        ])
        assert rc == EXIT_DATA

    def test_optimizer_failure_is_numeric_error(self, mini_files, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise NumericError("objective decreased")

        monkeypatch.setattr(cli.crf_mod, "train", boom)
        rc = main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(tmp_path / "m"),
            "--log-level", "warning",
        ])
        assert rc == EXIT_NUMERIC

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "option, value",
        [("epsilon", -1), ("l2", -1), ("max_iter", 0), ("min_instances", 0),
         ("confidence", 0.7), ("epsilon", "nan"), ("epsilon", "inf"), ("l2", "nan"),
         ("l2", "inf"), ("k", 0), ("k", 1), ("k", "two"), ("grid", 0), ("grid", -1),
         ("grid", "nan"), ("grid", "0.1,inf"), ("grid", ""), ("grid", "0.1,x"),
         ("dev_fraction", "nan"), ("dev_fraction", "inf"), ("dev_fraction", 0),
         ("dev_fraction", 1), ("dev_fraction", -0.5)],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, option, value, form):
        # the corpora do not exist: reading them would be a data error
        missing = str(tmp_path / "missing.tsv")
        if option in ("grid", "dev_fraction"):
            argv = ["train-map", "--tune", "--esds", missing, "--embeddings", missing,
                    "--out-dir", str(tmp_path / "crf")]
        else:
            argv = ["evaluate", "pipeline", "--stories", missing, "--esds", missing,
                    "--identifier", "oracle", "--systems", "lemma"]
        if form == "flag":
            argv += [f"--{option.replace('_', '-')}", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({option: value}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_USAGE

    def test_more_folds_than_stories_is_data_error(self, mini_files):
        rc = main(["evaluate", "identification", "--stories", mini_files["stories"],
                   "--esds", mini_files["esds"], "--k", "3"])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("protocol", [
        ["identification", "--systems", "oracle"],
        ["pipeline", "--identifier", "oracle", "--systems", "lemma"],
    ], ids=["identification", "pipeline"])
    def test_fold_count_is_checked_for_an_identifier_that_trains_nothing(
        self, data_dir, tmp_path, protocol
    ):
        # each synthetic scenario holds 10 stories
        rc, errors = run_logged([
            "evaluate", *protocol, "--stories", str(data_dir / "inscript.tsv"),
            "--esds", str(data_dir / "descript.tsv"), "--k", "20",
            "--json-out", str(tmp_path / "report.json"), "--log-level", "error",
        ])
        assert (rc, errors) == (EXIT_DATA, ["k=20 exceeds the number of documents (10)"])
        assert not (tmp_path / "report.json").exists()

    def test_in_range_tuning_values_are_accepted(self, mini_files, tmp_path):
        assert main(["train-map", "--tune", "--esds", mini_files["esds"], "--embeddings",
                     mini_files["emb"], "--grid", "0.05,0.1", "--dev-fraction", "0.5",
                     "--out-dir", str(tmp_path / "crf"), "--log-level", "error"]) == EXIT_OK

    def test_removed_map_epsilon_option_is_usage_error(self, mini_files, tmp_path, capsys):
        assert main(["map", "--stories", mini_files["stories"], "--embeddings",
                     mini_files["emb"], "--model-dir", str(tmp_path), "--out",
                     str(tmp_path / "out.tsv"), "--epsilon", "0.1"]) == EXIT_USAGE
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err

    def test_removed_table_out_option_is_usage_error(self, mini_files, tmp_path, capsys):
        assert main(["evaluate", "identification", "--stories", mini_files["stories"],
                     "--esds", mini_files["esds"], "--k", "2",
                     "--table-out", str(tmp_path / "table.txt")]) == EXIT_USAGE
        assert "unrecognized arguments: --table-out" in capsys.readouterr().err
        assert not (tmp_path / "table.txt").exists()

    def test_removed_tune_epsilon_command_is_usage_error(self, mini_files, capsys):
        assert main(["tune-epsilon", "--esds", mini_files["esds"],
                     "--embeddings", mini_files["emb"]]) == EXIT_USAGE
        assert "invalid choice: 'tune-epsilon'" in capsys.readouterr().err

    def test_key_error_is_not_a_data_error(self, mini_files, monkeypatch):
        def missing_key(*a, **k):
            raise KeyError("bug")

        monkeypatch.setattr(cli.corpus_mod, "parse_corpus_file", missing_key)
        with pytest.raises(KeyError):
            main(["validate", mini_files["stories"]])


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# `train-map` in a fresh interpreter that may use at most two CPUs, so that
# OpenBLAS starts at most two threads where no variable sets a count
TRAIN_MAP_CHILD = """
import os, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from scriptmap.cli import main
sys.exit(main(sys.argv[1:]))
"""


def write_wide_scenario(directory: Path) -> list[str]:
    """train-map options for one scenario of 20 event types over 300-d
    vectors: a CRF of 19 640 features, wide enough for OpenBLAS to split the
    optimizer's vector operations among threads."""
    words, docs = [], []
    for j in range(4):
        lines = [f"#doc esd_{j}", "#scenario wide", "#kind esd"]
        for t in range(20):
            verb = f"verb{t}x{j % 2}"
            lines += [f"#ed {t + 1} type{t}", tok(1, verb, verb, "VB", 0, "root", "_", f"type{t}"),
                      tok(2, f"noun{t}", f"noun{t}", "NN", 1, "dobj"), ""]
            words += [verb, f"noun{t}"]
        docs.append("\n".join(lines))
    words = list(dict.fromkeys(words))
    vectors = np.random.default_rng(0).normal(0.0, 0.1, (len(words), 300))
    (directory / "esds.tsv").write_text("\n".join(docs), encoding="utf-8")
    (directory / "vectors.txt").write_text(
        f"{len(words)} 300\n"
        + "".join(w + "".join(f" {x:.4f}" for x in row) + "\n" for w, row in zip(words, vectors)),
        encoding="utf-8",
    )
    return ["train-map", "--esds", str(directory / "esds.tsv"),
            "--embeddings", str(directory / "vectors.txt"), "--log-level", "warning"]


class TestBlasThreads:
    def test_model_bytes_do_not_depend_on_the_thread_variables(self, tmp_path):
        argv = write_wide_scenario(tmp_path)
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(scriptmap.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        models = []
        for name, pinned in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))):
            out_dir = tmp_path / name
            subprocess.run([sys.executable, "-c", TRAIN_MAP_CHILD, *argv, "--out-dir", str(out_dir)],
                           env={**env, **pinned}, check=True, capture_output=True, timeout=120)
            models.append((out_dir / "wide.crf.json").read_bytes())
        assert len(json.loads(models[0])["weights"]) > 10_000
        assert models[0] == models[1]


def run_python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(scriptmap.__file__).parent.parent), env.get("PYTHONPATH", "")]
    )
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["scriptmap", "scriptmap.cli"])
    def test_python_m_runs_quietly(self, module):
        done = run_python("-m", module, "--version")
        assert done.returncode == EXIT_OK
        assert done.stdout == f"scriptmap {scriptmap.__version__}\n"
        assert done.stderr == ""

    def test_identification_run_loads_no_scipy_stats(self, data_dir):
        child = ("import sys; from scriptmap.cli import main; rc = main(sys.argv[1:]); "
                 "print(rc, 'scipy.stats' in sys.modules)")
        done = run_python("-c", child, "evaluate", "identification",
                          "--stories", str(data_dir / "inscript.tsv"),
                          "--esds", str(data_dir / "descript.tsv"), "--log-level", "error")
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr

    def test_cli_is_a_package_attribute_imported_on_first_use(self):
        done = run_python("-c", "import sys, scriptmap; print('scriptmap.cli' in sys.modules,"
                                " scriptmap.cli.main.__module__)")
        assert (done.returncode, done.stdout, done.stderr) == (0, "False scriptmap.cli\n", "")
