"""Scoring conventions and the three evaluation protocols."""

from __future__ import annotations

import json
import logging

import pytest

from conftest import tok
from scriptmap import corpus, identify
from scriptmap.embeddings import DiscretizationConfig, load_embeddings
from scriptmap.evaluation import (
    ConfusionMatrix,
    evaluate_classification,
    evaluate_identification,
    evaluate_pipeline,
    f1_score,
    format_table,
    macro_prf,
    micro_accuracy,
    prf,
)

DISC = DiscretizationConfig(epsilon=0.05)


class TestConfusionMatrix:
    def test_counting_and_totals(self):
        cm = ConfusionMatrix()
        cm.add("a", "a")
        cm.add("a", "b", n=2)
        cm.add("b", "b")
        assert cm.labels == ["a", "b"]
        assert cm.count("a", "b") == 2
        assert cm.total == 4
        assert cm.diagonal == 2
        assert cm.gold_total("a") == 3
        assert cm.pred_total("b") == 3

    def test_merge(self):
        left = ConfusionMatrix(["x"])
        left.add("x", "y")
        right = ConfusionMatrix()
        right.add("y", "x", n=3)
        left.merge(right)
        assert left.count("y", "x") == 3
        assert left.total == 4
        assert left.labels == ["x", "y"]

    def test_to_dict_is_square(self):
        cm = ConfusionMatrix(["a", "b"])
        cm.add("a", "b")
        d = cm.to_dict()
        assert d["labels"] == ["a", "b"]
        assert d["counts"] == [[0, 1], [0, 0]]


class TestMetrics:
    def test_zero_denominator_conventions(self):
        cm = ConfusionMatrix(["a", "b"])
        cm.add("a", "b")  # "a" never predicted, "b" never gold
        p, r, f = prf(cm, "a")
        assert (p, r, f) == (0.0, 0.0, 0.0)
        p, r, f = prf(cm, "b")
        assert (p, r, f) == (0.0, 0.0, 0.0)
        # a label absent from the matrix entirely
        assert prf(cm, "zzz") == (0.0, 0.0, 0.0)

    def test_prf_reference(self):
        cm = ConfusionMatrix()
        cm.add("a", "a", n=3)
        cm.add("a", "b", n=1)
        cm.add("b", "a", n=2)
        p, r, f = prf(cm, "a")
        assert p == 3 / 5
        assert r == 3 / 4
        assert f == f1_score(3 / 5, 3 / 4)

    def test_f1_harmonic(self):
        assert f1_score(0.0, 0.0) == 0.0
        assert f1_score(1.0, 1.0) == 1.0
        assert f1_score(0.5, 0.5) == 0.5
        assert f1_score(1.0, 0.0) == 0.0

    def test_published_rounding_spot_checks(self):
        # reported component values are rounded to three decimals, so the
        # recomputed harmonic mean may differ by one thousandth
        assert abs(round(f1_score(0.628, 0.817) * 1000) - 709) <= 1
        assert abs(round(f1_score(0.608, 0.496) * 1000) - 545) <= 1

    def test_macro_is_unweighted(self):
        cm = ConfusionMatrix()
        cm.add("a", "a", n=98)
        cm.add("b", "a", n=1)
        cm.add("b", "b", n=1)
        p, r, f = macro_prf(cm, ["a", "b"])
        assert p == (98 / 99 + 1.0) / 2
        assert r == (1.0 + 0.5) / 2
        assert f == (f1_score(98 / 99, 1.0) + f1_score(1.0, 0.5)) / 2

    def test_macro_without_classes_is_zero(self):
        assert macro_prf(ConfusionMatrix(), []) == (0.0, 0.0, 0.0)

    def test_micro_accuracy(self):
        cm = ConfusionMatrix()
        cm.add("a", "a", n=3)
        cm.add("a", "b", n=1)
        assert micro_accuracy(cm) == 0.75
        assert micro_accuracy(ConfusionMatrix()) == 0.0


class TestIdentification:
    def test_oracle_is_perfect(self, mini_stories):
        report, = evaluate_identification(mini_stories, systems=["oracle"], k=2)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.micro_accuracy == 1.0

    def test_lemma_reference_values(self, mini_esds, mini_stories):
        report, = evaluate_identification(mini_stories, mini_esds, systems=["lemma"], k=2)
        # six mentions pass the lemma gate; the stray "relax" is the one
        # false positive, nothing is missed
        assert report.precision == pytest.approx(5 / 6)
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(10 / 11)
        assert report.micro_accuracy == pytest.approx(6 / 7)
        assert report.scenarios[0].classes == [corpus.EVENT]

    def test_duplicate_story_ids_rejected(self, mini_esds, mini_stories):
        with pytest.raises(ValueError, match="^duplicate story id 'story_1'$"):
            evaluate_identification(mini_stories + mini_stories[:1], systems=["oracle"], k=2)
        with pytest.raises(ValueError, match="^duplicate story id 'story_1'$"):
            evaluate_classification(mini_esds, mini_stories + mini_stories[:1], systems=["lemma"])

    def test_lemma_requires_esds(self, mini_stories):
        with pytest.raises(ValueError):
            evaluate_identification(mini_stories, None, systems=["lemma"])

    def test_tree_skips_single_class_training_folds(self, mini_esds, mini_stories, caplog):
        with caplog.at_level(logging.WARNING):
            report, = evaluate_identification(mini_stories, mini_esds, systems=["tree"], k=2)
        # story_2 has only event mentions, so the fold testing story_1 cannot
        # train a two-class tree and is skipped; the other fold is perfect
        assert report.metadata["skipped_folds"] == 1
        assert any("skip" in n.lower() for n in report.scenarios[0].notes)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    @pytest.fixture()
    def tree_sizes(self, monkeypatch):
        """The row count of each identify.train_tree call, in call order.
        perfbench/tracing.py counts tree trainings and their rows by wrapping
        that module attribute, so each fold's tree must be trained through it."""
        sizes = []
        train_tree = identify.train_tree

        def counting(rows, *args):
            sizes.append(len(rows))
            return train_tree(rows, *args)

        monkeypatch.setattr(identify, "train_tree", counting)
        return sizes

    @pytest.mark.parametrize("scenario_independent", [False, True])
    def test_tree_trains_once_per_fold_through_the_module_attribute(
        self, synthetic_esds, synthetic_stories, tree_sizes, scenario_independent
    ):
        report, = evaluate_identification(
            synthetic_stories, synthetic_esds, systems=["tree"], k=5,
            scenario_independent=scenario_independent,
        )
        if scenario_independent:
            plan = corpus.leave_one_scenario_out({
                scenario: [s.doc_id for s in group]
                for scenario, group in corpus.group_by_scenario(synthetic_stories).items()
            })
        else:
            plan = corpus.within_scenario_plan(synthetic_stories, 5, 42)
        by_id = {s.doc_id: s for s in synthetic_stories}
        expected = []
        for train_ids, _ in plan.folds:
            mentions = [m for doc_id in train_ids for m in by_id[doc_id].mentions]
            classes = {
                m.gold_label if m.gold_label in corpus.NON_SCRIPT_KINDS else corpus.EVENT
                for m in mentions
            }
            if len(classes) > 1:
                expected.append(len(mentions))
        assert tree_sizes == expected
        assert len(tree_sizes) == len(plan.folds) - report.metadata["skipped_folds"]

    def test_skipped_fold_trains_no_tree(self, mini_esds, mini_stories, tree_sizes):
        report, = evaluate_identification(mini_stories, mini_esds, systems=["tree"], k=2)
        assert report.metadata["skipped_folds"] == 1
        # the fold that trains on story_1 alone, whose mentions hold both classes
        assert tree_sizes == [len(mini_stories[0].mentions)]

    def test_tree_scenario_independent_holds_out_whole_scenarios(self):
        # two scenarios so the held-out-scenario protocol has a training side;
        # "want" sits on the non-action list, the event verbs do not
        lines = []
        for scenario, verb in (("plant_tree", "dig"), ("wash_car", "rinse")):
            for i in (1, 2):
                lines += [
                    f"#doc {scenario}_{i}",
                    f"#scenario {scenario}",
                    "#kind story",
                    tok(1, "She", "she", "PRP", 2, "nsubj"),
                    tok(2, verb, verb, "VBD", 0, "root", "_", f"{verb}_it"),
                    tok(3, "it", "it", "PRP", 2, "dobj"),
                    "",
                    tok(1, "She", "she", "PRP", 2, "nsubj"),
                    tok(2, "wanted", "want", "VBD", 0, "root", "_", "non_script_event"),
                    tok(3, "it", "it", "PRP", 2, "dobj"),
                    "",
                ]
        stories = corpus.parse_corpus_file("\n".join(lines), kind="story")
        report, = evaluate_identification(
            stories, None, systems=["tree"], scenario_independent=True
        )
        assert report.metadata["scenario_independent"] is True
        assert len(report.scenarios) == 2
        assert report.f1 == 1.0

    def test_majority_predicts_single_class(self, synthetic_esds, synthetic_stories):
        report, = evaluate_identification(
            synthetic_stories, synthetic_esds, systems=["majority"], k=10
        )
        pooled = ConfusionMatrix()
        for sc in report.scenarios:
            pooled.merge(sc.confusion)
        # the non-event class dominates every scenario, so no mention is
        # ever predicted as an event
        assert pooled.pred_total(corpus.EVENT) == 0
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        gold_events = pooled.gold_total(corpus.EVENT)
        assert report.micro_accuracy == pytest.approx(1 - gold_events / pooled.total)

    def test_unknown_system_rejected(self, mini_stories):
        with pytest.raises(ValueError):
            evaluate_identification(mini_stories, systems=["nonesuch"])


class TestClassification:
    def test_oracle_and_crf_are_perfect_on_clean_data(
        self, mini_esds, mini_stories, mini_table
    ):
        reports = evaluate_classification(
            mini_esds, mini_stories, systems=["oracle", "crf"], table=mini_table, disc=DISC
        )
        assert [r.system for r in reports] == ["oracle", "crf"]
        for report in reports:
            assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
            assert report.micro_accuracy == 1.0
            assert report.scenarios[0].classes == ["boil_water", "steep_tea", "drink_tea"]

    def test_crf_needs_table(self, mini_esds, mini_stories):
        with pytest.raises(ValueError):
            evaluate_classification(mini_esds, mini_stories, systems=["crf"])

    def test_unseen_gold_type_is_noted_and_costs_recall(
        self, mini_esds, mini_stories, mini_table
    ):
        extra = corpus.parse_corpus_file(
            "\n".join(
                [
                    "#doc story_3",
                    "#scenario make_tea",
                    "#kind story",
                    tok(1, "Ann", "Ann", "NNP", 2, "nsubj", "c1"),
                    tok(2, "served", "serve", "VBD", 0, "root", "_", "serve_tea"),
                    tok(3, "tea", "tea", "NN", 2, "dobj"),
                    "",
                ]
            ),
            kind="story",
        )
        report, = evaluate_classification(
            mini_esds, list(mini_stories) + extra, systems=["crf"], table=mini_table, disc=DISC
        )
        sc = report.scenarios[0]
        assert "serve_tea" in sc.classes
        assert any("serve_tea" in note for note in sc.notes)
        assert prf(sc.confusion, "serve_tea") == (0.0, 0.0, 0.0)
        assert report.f1 < 1.0

    def test_sequence_information_separates_identical_observations(self, mini_table):
        eds = []
        for i in (1, 2):
            eds += [
                f"#doc bus_{i}",
                "#scenario catch_bus",
                "#kind esd",
                "#ed 1 board_bus",
                tok(1, "get", "get", "VB", 0, "root", "_", "board_bus"),
                tok(2, "bus", "bus", "NN", 1, "dobj"),
                "",
                "#ed 2 get_off",
                tok(1, "get", "get", "VB", 0, "root", "_", "get_off"),
                tok(2, "bus", "bus", "NN", 1, "dobj"),
                "",
            ]
        esds = corpus.parse_corpus_file("\n".join(eds), kind="esd")
        story = corpus.parse_corpus_file(
            "\n".join(
                [
                    "#doc ride",
                    "#scenario catch_bus",
                    "#kind story",
                    tok(1, "I", "i", "PRP", 2, "nsubj"),
                    tok(2, "got", "get", "VBD", 0, "root", "_", "board_bus"),
                    tok(3, "the", "the", "DT", 4, "det"),
                    tok(4, "bus", "bus", "NN", 2, "dobj"),
                    "",
                    tok(1, "I", "i", "PRP", 2, "nsubj"),
                    tok(2, "got", "get", "VBD", 0, "root", "_", "get_off"),
                    tok(3, "the", "the", "DT", 4, "det"),
                    tok(4, "bus", "bus", "NN", 2, "dobj"),
                    "",
                ]
            ),
            kind="story",
        )
        table = load_embeddings("2 2\nget 0.2 0.0\nbus 0.0 0.2\n")
        with_chain, without = evaluate_classification(
            esds, story, systems=["crf", "crf_noseq"], table=table, disc=DISC
        )
        assert with_chain.f1 == 1.0
        # both positions get the same (first) label: one type is half right,
        # the other never predicted
        assert without.f1 == pytest.approx(1 / 3)
        assert with_chain.f1 > without.f1

    def test_unknown_system_rejected(self, mini_esds, mini_stories, mini_table):
        with pytest.raises(ValueError):
            evaluate_classification(
                mini_esds, mini_stories, systems=["nope"], table=mini_table
            )


def splash_fixture():
    """Half the event mentions use a verb the ESDs never mention. Two
    stories, so that the pipeline can plan two folds."""
    esds = corpus.parse_corpus_file(
        "\n".join(
            [
                "#doc w1",
                "#scenario water_plants",
                "#kind esd",
                "#ed 1 pour_water",
                tok(1, "pour", "pour", "VB", 0, "root", "_", "pour_water"),
                tok(2, "water", "water", "NN", 1, "dobj"),
                "",
            ]
        ),
        kind="esd",
    )
    lines = []
    for doc_id, verb, lemma in (("s1", "poured", "pour"), ("s2", "splashed", "splash")):
        lines += [f"#doc {doc_id}", "#scenario water_plants", "#kind story"]
        for _ in range(2):
            lines += [
                tok(1, "She", "she", "PRP", 2, "nsubj"),
                tok(2, verb, lemma, "VBD", 0, "root", "_", "pour_water"),
                tok(3, "water", "water", "NN", 2, "dobj"),
                "",
            ]
    lines += [
        tok(1, "She", "she", "PRP", 2, "nsubj"),
        tok(2, "wanted", "want", "VBD", 0, "root", "_", "non_script_event"),
        tok(3, "more", "more", "NN", 2, "dobj"),
        "",
    ]
    stories = corpus.parse_corpus_file("\n".join(lines), kind="story")
    return esds, stories


class TestPipeline:
    def test_oracle_oracle_is_perfect(self, mini_esds, mini_stories, mini_table):
        report, = evaluate_pipeline(
            mini_esds,
            mini_stories,
            identifier="oracle",
            classifiers=["oracle"],
            table=mini_table,
            disc=DISC,
            k=2,
        )
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.micro_accuracy == 1.0

    def test_identifier_misses_cost_recall(self):
        esds, stories = splash_fixture()
        report, = evaluate_pipeline(
            esds, stories, identifier="lemma", classifiers=["oracle"], k=2
        )
        sc = report.scenarios[0]
        assert sc.classes == ["pour_water"]
        # two splash mentions never reach the classifier
        assert sc.confusion.count("pour_water", corpus.NON_SCRIPT) == 2
        assert sc.confusion.count(corpus.NON_SCRIPT, corpus.NON_SCRIPT) == 1
        assert (report.precision, report.recall) == (1.0, 0.5)
        assert report.f1 == pytest.approx(2 / 3)
        assert report.micro_accuracy == pytest.approx(3 / 5)

    def test_non_script_outside_macro_classes(self):
        esds, stories = splash_fixture()
        report, = evaluate_pipeline(
            esds, stories, identifier="lemma", classifiers=["oracle"], k=2
        )
        cm = report.scenarios[0].confusion
        assert corpus.NON_SCRIPT in cm.labels
        assert corpus.NON_SCRIPT not in report.scenarios[0].classes

    def test_tree_crf_end_to_end(self, mini_esds, mini_stories, mini_table):
        report, = evaluate_pipeline(
            mini_esds,
            mini_stories,
            identifier="tree",
            classifiers=["crf"],
            table=mini_table,
            disc=DISC,
            k=2,
        )
        # every true event is identified and correctly typed; the two
        # non-script mentions of story_1 are identified by the single-leaf
        # fold tree and drag precision below one
        assert report.recall == 1.0
        assert report.precision < 1.0
        assert 0.0 < report.f1 < 1.0

    def test_deterministic_reports(self, mini_esds, mini_stories, mini_table):
        kwargs = dict(
            identifier="tree",
            classifiers=["crf"],
            table=mini_table,
            disc=DISC,
            k=2,
            seed=7,
        )
        a, = evaluate_pipeline(mini_esds, mini_stories, **kwargs)
        b, = evaluate_pipeline(mini_esds, mini_stories, **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_unknown_stage_names_rejected(self, mini_esds, mini_stories, mini_table):
        with pytest.raises(ValueError):
            evaluate_pipeline(mini_esds, mini_stories, identifier="nope", table=mini_table)
        with pytest.raises(ValueError):
            evaluate_pipeline(mini_esds, mini_stories, classifiers=["nope"], table=mini_table)


class TestWarnings:
    SYSTEMS = ["lemma", "cosine", "crf", "crf_noseq", "oracle"]

    # the wash_cup ESD's one ED, the warning it gives, and the scenarios each
    # system reports
    ESDS = {
        "no_script_ed": (
            ["#ed 1 non_script_event",
             tok(1, "relax", "relax", "VB", 0, "root", "_", "non_script_event")],
            "scenario 'wash_cup' has no script EDs; skipped",
            [["make_tea"]] * 5,
        ),
        # a script ED without a verb: the CRFs have nothing to train on, and
        # cosine has no ED vector to compare the mention vector (from "tea") with
        "verbless_script_ed": (
            ["#ed 1 rinse_cup",
             tok(1, "the", "the", "DT", 2, "det"), tok(2, "cup", "cup", "NN", 0, "root")],
            "scenario 'wash_cup' has no usable training EDs",
            [["make_tea", "wash_cup"], ["make_tea", "wash_cup"], ["make_tea"], ["make_tea"],
             ["make_tea", "wash_cup"]],
        ),
    }

    @pytest.mark.parametrize("esd", list(ESDS))
    @pytest.mark.parametrize("protocol", ["classification", "pipeline"])
    def test_scenario_without_script_eds_is_warned_about_once(
        self, mini_esds, mini_stories, mini_table, caplog, protocol, esd
    ):
        ed_lines, warning, scenarios = self.ESDS[esd]
        esds = mini_esds + corpus.parse_corpus_file(
            "\n".join(["#doc esd_w", "#scenario wash_cup", "#kind esd", *ed_lines, ""]),
            kind="esd",
        )
        # two wash_cup stories, so that the pipeline can plan two folds
        stories = mini_stories + corpus.parse_corpus_file(
            "\n".join([
                line
                for doc_id in ("story_w1", "story_w2")
                for line in [
                    f"#doc {doc_id}", "#scenario wash_cup", "#kind story",
                    tok(1, "Tom", "Tom", "NNP", 2, "nsubj"),
                    tok(2, "washed", "wash", "VBD", 0, "root", "_", "wash_cup"),
                    tok(3, "tea", "tea", "NN", 2, "dobj"), "",
                ]
            ]),
            kind="story",
        )
        with caplog.at_level(logging.WARNING):
            if protocol == "classification":
                reports = evaluate_classification(
                    esds, stories, systems=self.SYSTEMS, table=mini_table, disc=DISC
                )
            else:
                reports = evaluate_pipeline(
                    esds, stories, identifier="oracle", classifiers=self.SYSTEMS,
                    table=mini_table, disc=DISC, k=2,
                )
        warned = [r.getMessage() for r in caplog.records if "wash_cup" in r.getMessage()]
        assert warned == [warning]
        # every CRF system, and every system without script EDs, skips the scenario
        assert [[s.scenario for s in r.scenarios] for r in reports] == scenarios

    @pytest.mark.parametrize("protocol", ["classification", "pipeline"])
    def test_scenario_whose_script_eds_all_lack_a_verb(
        self, mini_esds, mini_stories, mini_table, caplog, protocol
    ):
        esds = mini_esds + corpus.parse_corpus_file(
            "\n".join([
                line
                for doc_id in ("esd_w1", "esd_w2")
                for line in [
                    f"#doc {doc_id}", "#scenario wash_cup", "#kind esd",
                    "#ed 1 rinse_cup", tok(1, "cup", "cup", "NN", 0, "root"), "",
                    "#ed 2 dry_cup",
                    tok(1, "dry", "dry", "JJ", 2, "amod"), tok(2, "cup", "cup", "NN", 0, "root"),
                    "",
                ]
            ]),
            kind="esd",
        )
        # story_w2 holds no script mention: classification has nothing of it to score
        stories = mini_stories + corpus.parse_corpus_file(
            "\n".join([
                "#doc story_w1", "#scenario wash_cup", "#kind story",
                tok(1, "Tom", "Tom", "NNP", 2, "nsubj"),
                tok(2, "rinsed", "rinse", "VBD", 0, "root", "_", "rinse_cup"),
                tok(3, "cup", "cup", "NN", 2, "dobj"), "",
                "#doc story_w2", "#scenario wash_cup", "#kind story",
                tok(1, "Tom", "Tom", "NNP", 2, "nsubj"),
                tok(2, "smiled", "smile", "VBD", 0, "root", "_", "non_script_event"), "",
            ]),
            kind="story",
        )
        systems = ["lemma", "crf", "crf_noseq"]
        with caplog.at_level(logging.WARNING):
            if protocol == "classification":
                reports = evaluate_classification(
                    esds, stories, systems=systems, table=mini_table, disc=DISC
                )
            else:
                reports = evaluate_pipeline(
                    esds, stories, identifier="oracle", classifiers=systems,
                    table=mini_table, disc=DISC, k=2,
                )
        warned = [r.getMessage() for r in caplog.records if "wash_cup" in r.getMessage()]
        assert warned == ["scenario 'wash_cup' has no usable training EDs"]
        scored = [{s.scenario: s.confusion.total for s in r.scenarios} for r in reports]
        assert [sorted(s) for s in scored] == [["make_tea", "wash_cup"], ["make_tea"], ["make_tea"]]
        # the pipeline scores every mention, the classification only script ones
        assert scored[0]["wash_cup"] == (1 if protocol == "classification" else 2)


class TestReporting:
    def test_report_serializes_to_json(self, mini_esds, mini_stories, mini_table):
        report, = evaluate_classification(
            mini_esds, mini_stories, systems=["crf"], table=mini_table, disc=DISC
        )
        payload = report.to_dict()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload
        assert payload["system"] == "crf"
        assert payload["scenarios"][0]["classes"]["boil_water"]["f1"] == 1.0

    def test_format_table_layout(self, mini_esds, mini_stories, mini_table):
        reports = evaluate_classification(
            mini_esds, mini_stories, systems=["oracle", "crf"], table=mini_table, disc=DISC
        )
        text = format_table(reports)
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header plus one row per system
        assert lines[0].split() == ["system", "P", "R", "F1", "acc"]
        assert lines[2].split() == ["crf", "1.000", "1.000", "1.000", "1.000"]
