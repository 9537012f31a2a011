"""Command line interface: round trips, outputs, config merging, exit codes."""

from __future__ import annotations

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

from conftest import MINI_EMBEDDINGS_TEXT, MINI_ESD_TEXT, MINI_STORY_TEXT, tok
import scriptmap
from scriptmap import cli, corpus
from scriptmap.crf import ModelFormatError, NumericError, TrainConfig, load_model
from scriptmap.embeddings import DiscretizationConfig
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


class TestMapCommands:
    def test_train_then_map_round_trip(self, mini_files, tmp_path, capsys):
        model_dir = tmp_path / "crf"
        rc = main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        assert (model_dir / "make_tea.crf.json").exists()
        sidecar = json.loads((model_dir / "mapping_config.json").read_text())
        assert sidecar == {"epsilon": {"make_tea": 0.05}, "epsilon_default": 0.05}
        # the model file, not the sidecar, records the transition features
        assert load_model((model_dir / "make_tea.crf.json").read_text()).use_transitions is True

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
        sidecar = json.loads((tuned / cli.MAPPING_CONFIG_FILE).read_text())
        assert sidecar["epsilon"]["make_coffee"] == 0.15
        assert sidecar["epsilon"]["make_tea"] in (0.05, 0.1)
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
        sidecar = json.loads((model_dir / "mapping_config.json").read_text())
        assert sidecar["epsilon"]["make_tea"] in (0.05, 0.1)


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
        "sidecar",
        [
            {"epsilon": [1]},
            {"epsilon": {"make_tea": "0.05"}},
            {"epsilon": {"make_tea": True}},
            {"epsilon": {"make_tea": 0.05}, "epsilon_default": None},
            [0.05],
        ],
    )
    def test_malformed_sidecar_is_data_error(self, mini_files, tmp_path, sidecar):
        model_dir = tmp_path / "crf"
        assert main([
            "train-map", "--esds", mini_files["esds"],
            "--embeddings", mini_files["emb"], "--out-dir", str(model_dir),
        ]) == EXIT_OK
        (model_dir / "mapping_config.json").write_text(json.dumps(sidecar))
        out_path = tmp_path / "mapped.tsv"
        rc = main([
            "map", "--stories", mini_files["stories"], "--model-dir", str(model_dir),
            "--embeddings", mini_files["emb"], "--out", str(out_path),
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
            ("transition_base", float),
            ("columns", lambda columns: float("inf")),
        ],
        ids=["nan_weight", "inf_weight", "duplicate_labels", "non_string_label",
             "emissions_not_a_list", "non_integer_column", "labels_as_string",
             "float_transition_base", "infinite_columns"],
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
        model_path.write_text(json.dumps(payload))
        out_path = tmp_path / "mapped.tsv"
        rc = main([
            "map", "--stories", mini_files["stories"], "--model-dir", str(model_dir),
            "--embeddings", mini_files["emb"], "--out", str(out_path),
        ])
        assert rc == EXIT_DATA
        assert not out_path.exists()


MODEL_KEYS = ("format", "format_version", "labels", "columns", "use_transitions",
              "emissions", "transition_base", "weights")
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


def truncated_model(text: str) -> str:
    payload = json.loads(text)
    payload["weights"] = payload["weights"][:-1]
    return json.dumps(payload)


def tampered_tree(text: str) -> str:
    payload = json.loads(text)
    payload["nodes"][0]["type"] = "mystery"
    return json.dumps(payload)


def version_1_tree(text: str) -> str:
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
                       lambda path: version_1_tree(path.read_text()), "identify"),
    "tree_of_another_schema": ("trees/make_tea.tree.json",
                               lambda path: path.with_name("independent.tree.json").read_text(),
                               "identify"),
    "model": ("crf/make_tea.crf.json", lambda path: truncated_model(path.read_text()), "map"),
    "sidecar": ("crf/mapping_config.json", "{", "map"),
    "sidecar_epsilon": ("crf/mapping_config.json", '{"epsilon": {"make_tea": -1}}', "map"),
    "nonaction": ("nonaction", b"be\n\xff\n", "identify"),
    "undecodable_corpus": ("stories", b"#doc \xff\n", "identify"),
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


class TestEvaluate:
    def test_identification_reports_and_files(self, mini_files, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        table_out = tmp_path / "table.txt"
        rc = main([
            "evaluate", "identification", "--stories", mini_files["stories"],
            "--esds", mini_files["esds"], "--systems", "lemma,oracle", "--k", "2",
            "--json-out", str(json_out), "--table-out", str(table_out),
            "--log-level", "warning",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.split("\n")[0].split() == ["system", "P", "R", "F1", "acc"]
        assert table_out.read_text().strip() == out.strip()
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
        sidecar = json.loads((tmp_path / "crf" / cli.MAPPING_CONFIG_FILE).read_text())
        assert sidecar["epsilon"]["make_tea"] in (0.15, 0.25)

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
    "min_instances", "confidence", "no_prune", "no-prune", "json_out", "table_out",
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

    @pytest.mark.parametrize("name", ["make_tea.crf.json", "mapping_config.json"])
    def test_deep_model_or_sidecar_is_data_error(self, mini_files, tmp_path, name):
        model_dir = tmp_path / "crf"
        assert main(["train-map", "--esds", mini_files["esds"], "--embeddings",
                     mini_files["emb"], "--out-dir", str(model_dir)]) == EXIT_OK
        (model_dir / name).write_text(DEEP_JSON)
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
    ("map",): ("epsilon",),
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

    def test_in_range_tuning_values_are_accepted(self, mini_files, tmp_path):
        assert main(["train-map", "--tune", "--esds", mini_files["esds"], "--embeddings",
                     mini_files["emb"], "--grid", "0.05,0.1", "--dev-fraction", "0.5",
                     "--out-dir", str(tmp_path / "crf"), "--log-level", "error"]) == EXIT_OK

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
