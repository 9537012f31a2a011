"""Corpus format: parsing, serialization, mentions, folds, pronoun chains."""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_ESD_TEXT, MINI_STORY_TEXT, tok
from scriptmap import corpus
from scriptmap.corpus import (
    EVENT,
    NON_SCRIPT,
    NON_SCRIPT_KINDS,
    CorpusFormatError,
    collapse_label,
    collect_scenarios,
    dependent_tokens,
    leave_one_scenario_out,
    parse_corpus_file,
    serialize_corpus,
    split_folds,
    within_scenario_plan,
)


def esd_doc(*body, doc="d1", scenario="s1"):
    return "\n".join([f"#doc {doc}", f"#scenario {scenario}", "#kind esd", *body, ""])


def story_doc(*body, doc="d1", scenario="s1"):
    return "\n".join([f"#doc {doc}", f"#scenario {scenario}", "#kind story", *body, ""])


class TestParsing:
    def test_esd_structure(self, mini_esds):
        assert [d.doc_id for d in mini_esds] == ["esd_1", "esd_2"]
        doc = mini_esds[0]
        assert doc.scenario == "make_tea"
        assert doc.n_columns == 8
        assert [ed.index for ed in doc.eds] == [1, 2, 3]
        assert [ed.event_type for ed in doc.eds] == ["boil_water", "steep_tea", "drink_tea"]
        assert [len(ed.tokens) for ed in doc.eds] == [2, 3, 2]

    def test_script_eds_drop_non_script(self, mini_esds):
        doc = mini_esds[1]
        assert [ed.event_type for ed in doc.eds] == ["boil_water", "steep_tea", "non_script_event"]
        assert [ed.event_type for ed in doc.script_eds()] == ["boil_water", "steep_tea"]
        assert not doc.eds[2].is_script

    def test_story_mentions_in_textual_order(self, mini_stories):
        story = mini_stories[0]
        got = [(m.sentence, m.token_index, m.lemma, m.gold_label) for m in story.mentions]
        assert got == [
            (0, 2, "boil", "boil_water"),
            (1, 2, "steep", "steep_tea"),
            (2, 2, "want", "non_script_event"),
            (2, 4, "relax", "script_related"),
        ]
        assert [m.lemma for m in story.script_mentions()] == ["boil", "steep"]

    def test_mention_dependents(self, mini_stories):
        boil = mini_stories[0].mentions[0]
        assert boil.dependents == (("nsubj", "Anna"), ("dobj", "water"))
        # determiners and particles are not nominal dependents; "She" is
        # resolved through its chain
        want = mini_stories[0].mentions[2]
        assert want.dependents == (("nsubj", "Anna"),)

    def test_ed_main_verb_and_head_nouns(self, mini_esds):
        ed = mini_esds[0].eds[1]
        assert ed.main_verb().lemma == "steep"
        assert ed.head_nouns() == ("tea",)

    def test_empty_text_parses_to_no_documents(self):
        assert parse_corpus_file("") == []

    def test_kind_inferred_when_not_forced(self):
        docs = parse_corpus_file(MINI_ESD_TEXT)
        assert docs[0].scenario == "make_tea"
        assert hasattr(docs[0], "eds")

    def test_frame_column_round_trip(self):
        text = esd_doc(
            "#ed 1 pay",
            tok(1, "pay", "pay", "VB", 0, "root", "_", "pay", "Commerce_pay"),
            tok(2, "fare", "fare", "NN", 1, "dobj", "_", "_", "_"),
        )
        doc = parse_corpus_file(text, kind="esd")[0]
        assert doc.n_columns == 9
        assert doc.eds[0].tokens[0].frame == "Commerce_pay"
        assert doc.eds[0].tokens[1].frame is None
        assert serialize_corpus([doc]) == text

    def test_prediction_column_parses(self):
        text = story_doc(
            tok(1, "He", "he", "PRP", 2, "nsubj", "c1", "_", "_", "_"),
            tok(2, "paid", "pay", "VBD", 0, "root", "_", "pay", "_", "event"),
        )
        story = parse_corpus_file(text, kind="story")[0]
        assert story.n_columns == 10
        assert story.sentences[0][1].predicted_label == "event"
        assert story.sentences[0][0].predicted_label is None


class TestRoundTrip:
    def test_mini_esd_round_trip(self, mini_esds):
        assert serialize_corpus(mini_esds) == MINI_ESD_TEXT

    def test_mini_story_round_trip(self, mini_stories):
        assert serialize_corpus(mini_stories) == MINI_STORY_TEXT

    def test_synthetic_corpus_round_trips_byte_exact(self, data_dir):
        for name, kind in (("descript.tsv", "esd"), ("inscript.tsv", "story")):
            text = (data_dir / name).read_text()
            assert serialize_corpus(parse_corpus_file(text, kind=kind)) == text

    def test_ed_blocks_parse_without_blank_separators(self, mini_esds):
        # an #ed header closes the previous block even without a blank line
        lines = MINI_ESD_TEXT.splitlines()
        packed = "\n".join(
            line
            for i, line in enumerate(lines)
            if line or (i + 1 < len(lines) and lines[i + 1].startswith("#doc"))
        )
        docs = parse_corpus_file(packed + "\n", kind="esd")
        assert docs == mini_esds


BAD_DOCS = [
    # header order is fixed: doc, scenario, kind
    ("#scenario s1\n#doc d1\n#kind esd\n", "doc"),
    ("#doc d1\n#kind esd\n#scenario s1\n", "scenario"),
    # unknown kind value
    ("#doc d1\n#scenario s1\n#kind prose\n", "kind"),
    # esd tokens must sit inside an #ed block
    (esd_doc(tok(1, "x", "x", "VB", 0, "root")), "#ed"),
    # #ed indexes are consecutive from 1
    (esd_doc("#ed 2 t", tok(1, "x", "x", "VB", 0, "root", "_", "t")), "#ed"),
    (
        esd_doc(
            "#ed 1 t",
            tok(1, "x", "x", "VB", 0, "root", "_", "t"),
            "#ed 3 t",
            tok(1, "y", "y", "VB", 0, "root", "_", "t"),
        ),
        "#ed",
    ),
    # stories have no #ed headers
    (story_doc("#ed 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t")), "#ed"),
    # token index must equal its position in the block
    (story_doc(tok(2, "x", "x", "VB", 0, "root", "_", "t")), "index"),
    # column count is uniform within a document
    (
        story_doc(
            tok(1, "x", "x", "VB", 0, "root", "_", "t"),
            tok(2, "y", "y", "NN", 1, "dobj", "_", "_", "_"),
        ),
        "column",
    ),
    # fewer than 8 or more than 10 columns
    (story_doc("1\tx\tx\tVB\t0\troot\t_"), "column"),
    (story_doc("1\tx\tx\tVB\t0\troot\t_\tt\t_\t_\textra"), "column"),
    # label strings are identifier-shaped
    (story_doc(tok(1, "x", "x", "VB", 0, "root", "_", "9bad")), "label"),
    # gold labels sit on verbal tokens only
    (story_doc(tok(1, "x", "x", "NN", 0, "root", "_", "t")), "non-verb"),
    # head points inside the sentence
    (story_doc(tok(1, "x", "x", "VB", 5, "root", "_", "t")), "head"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,needle", BAD_DOCS)
    def test_malformed_input_is_rejected(self, text, needle):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus_file(text)
        assert needle.lower() in str(err.value).lower()

    def test_error_message_carries_line_number(self):
        text = story_doc(
            tok(1, "a", "a", "VB", 0, "root", "_", "t"),
            tok(2, "b", "b", "NN", 1, "dobj", "_", "t"),
        )
        with pytest.raises(CorpusFormatError, match="line 5"):
            parse_corpus_file(text)

    def test_duplicate_doc_id_rejected(self):
        text = MINI_ESD_TEXT + MINI_ESD_TEXT
        with pytest.raises(CorpusFormatError, match="esd_1"):
            parse_corpus_file(text, kind="esd")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(CorpusFormatError, match="kind"):
            parse_corpus_file(MINI_STORY_TEXT, kind="esd")


class TestLabels:
    def test_collapse_label_total(self):
        assert collapse_label("boil_water") == EVENT
        for kind in NON_SCRIPT_KINDS:
            assert collapse_label(kind) == NON_SCRIPT

    def test_non_script_kinds_fixed(self):
        assert NON_SCRIPT_KINDS == ("non_script_event", "script_related", "script_evoking")


class TestPronounResolution:
    def test_backward_antecedent(self, mini_stories):
        story = mini_stories[0]
        assert story.mentions[1].dependents == (("nsubj", "Anna"), ("dobj", "tea"))
        # the token keeps its own lemma, so serialization is unaffected
        she = story.sentences[1][0]
        assert (she.surface, she.lemma) == ("She", "she")
        assert tok(1, "She", "she", "PRP", 2, "nsubj", "c1") in serialize_corpus([story])

    def test_cataphora_falls_back_to_later_mention(self):
        text = story_doc(
            tok(1, "It", "it", "PRP", 2, "nsubj", "c2"),
            tok(2, "whistled", "whistle", "VBD", 0, "root", "_", "t"),
            "",
            tok(1, "the", "the", "DT", 2, "det"),
            tok(2, "kettle", "kettle", "NN", 3, "nsubj", "c2"),
            tok(3, "sang", "sing", "VBD", 0, "root", "_", "t"),
        )
        story = parse_corpus_file(text, kind="story")[0]
        assert story.mentions[0].dependents == (("nsubj", "kettle"),)

    def test_all_pronoun_chain_warns_and_keeps_lemma(self, caplog):
        text = story_doc(
            tok(1, "It", "it", "PRP", 2, "nsubj", "c3"),
            tok(2, "rang", "ring", "VBD", 0, "root", "_", "t"),
            "",
            tok(1, "It", "it", "PRP", 2, "nsubj", "c3"),
            tok(2, "stopped", "stop", "VBD", 0, "root", "_", "t"),
        )
        with caplog.at_level(logging.WARNING):
            story = parse_corpus_file(text, kind="story")[0]
        assert [m.dependents for m in story.mentions] == [(("nsubj", "it"),)] * 2
        # both mentions reach chain c3; it is warned about once
        assert sum("'c3'" in r.getMessage() for r in caplog.records) == 1

    def test_uncorefed_pronoun_kept_as_is(self):
        text = story_doc(
            tok(1, "I", "i", "PRP", 2, "nsubj"),
            tok(2, "left", "leave", "VBD", 0, "root", "_", "t"),
        )
        story = parse_corpus_file(text, kind="story")[0]
        assert story.mentions[0].dependents == (("nsubj", "i"),)


class TestPredictions:
    def test_serialize_writes_predictions_in_tenth_column(self, mini_stories):
        story = mini_stories[0]
        text = serialize_corpus([story], {story.doc_id: {(0, 2): EVENT, (2, 2): NON_SCRIPT}})
        (labeled,) = parse_corpus_file(text)
        assert labeled.n_columns == 10
        assert labeled.sentences[0][1].predicted_label == EVENT
        assert labeled.sentences[2][1].predicted_label == NON_SCRIPT
        assert labeled.sentences[1][1].predicted_label is None
        boiled = next(l for l in text.splitlines() if l.split("\t")[1:2] == ["boiled"])
        assert boiled.split("\t")[8:] == ["_", EVENT]

    def test_unnamed_documents_and_positions_keep_their_columns(self, mini_stories):
        first, second = mini_stories
        (labeled,) = parse_corpus_file(serialize_corpus([first], {first.doc_id: {(0, 2): EVENT}}))
        text = serialize_corpus([labeled, second], {labeled.doc_id: {(1, 2): NON_SCRIPT}})
        relabeled, unlabeled = parse_corpus_file(text)
        # a position without a new label keeps the prediction it was read with
        assert relabeled.sentences[0][1].predicted_label == EVENT
        assert relabeled.sentences[1][1].predicted_label == NON_SCRIPT
        assert unlabeled.n_columns == second.n_columns == 8

    def test_document_named_without_labels_gets_ten_columns(self, mini_stories):
        (story,) = parse_corpus_file(serialize_corpus(mini_stories[:1], {"story_1": {}}))
        assert story.n_columns == 10

    def test_unknown_position_rejected(self, mini_stories):
        with pytest.raises(KeyError):
            serialize_corpus(mini_stories, {mini_stories[0].doc_id: {(9, 9): EVENT}})

    def test_unknown_document_rejected(self, mini_stories):
        with pytest.raises(KeyError):
            serialize_corpus(mini_stories, {"story_9": {(0, 2): EVENT}})


class TestFolds:
    @given(
        n=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_folds_partition_ids(self, n, k, seed):
        ids = [f"doc_{i}" for i in range(n)]
        if k > n:
            with pytest.raises(ValueError):
                split_folds(ids, k, seed)
            return
        plan = split_folds(ids, k, seed)
        assert len(plan.folds) == k
        tests = [set(t) for _, t in plan.folds]
        assert set().union(*tests) == set(ids)
        assert sum(len(t) for t in tests) == n
        sizes = sorted(len(t) for t in tests)
        assert sizes[-1] - sizes[0] <= 1
        for train, test in plan.folds:
            assert set(train) == set(ids) - set(test)
            assert not set(train) & set(test)

    def test_folds_deterministic(self):
        ids = [f"doc_{i}" for i in range(13)]
        assert split_folds(ids, 4, 42) == split_folds(ids, 4, 42)
        assert split_folds(ids, 4, 42) == split_folds(list(reversed(ids)), 4, 42)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            split_folds(["a", "b", "c"], 1, 0)

    def test_within_scenario_plan_stays_inside_scenario(self, mini_stories, synthetic_stories):
        plan = within_scenario_plan(synthetic_stories, k=5, seed=42)
        by_id = {s.doc_id: s.scenario for s in synthetic_stories}
        for train, test in plan.folds:
            scenarios = {by_id[d] for d in train} | {by_id[d] for d in test}
            assert len(scenarios) == 1
        covered = sorted(d for _, test in plan.folds for d in test)
        assert covered == sorted(by_id)

    def test_leave_one_scenario_out(self):
        plan = leave_one_scenario_out({"a": ["a1", "a2"], "b": ["b1"], "c": ["c1"]})
        assert len(plan.folds) == 3
        train, test = plan.folds[0]
        assert set(test) == {"a1", "a2"}
        assert set(train) == {"b1", "c1"}

    def test_leave_one_scenario_out_needs_two_scenarios(self):
        with pytest.raises(ValueError):
            leave_one_scenario_out({"a": ["a1"]})

    def test_collect_scenarios_first_appearance_order(self, mini_esds, synthetic_esds):
        mini = collect_scenarios(mini_esds)
        assert list(mini) == ["make_tea"]
        assert mini["make_tea"].event_types == ("boil_water", "steep_tea", "drink_tea")
        assert list(collect_scenarios(synthetic_esds)) == [
            "baking_a_cake",
            "riding_a_bus",
            "planting_a_tree",
        ]


class TestDependents:
    def test_excluded_deprels_and_pos(self):
        text = story_doc(
            tok(1, "The", "the", "DT", 2, "det"),
            tok(2, "driver", "driver", "NN", 3, "nsubj"),
            tok(3, "gave", "give", "VBD", 0, "root", "_", "t"),
            tok(4, "Smith", "Smith", "NNP", 2, "flat"),
            tok(5, "him", "he", "PRP", 3, "iobj"),
            tok(6, "a", "a", "DT", 7, "det"),
            tok(7, "ticket", "ticket", "NN", 3, "dobj"),
        )
        story = parse_corpus_file(text, kind="story")[0]
        sent = story.sentences[0]
        deps = dependent_tokens(sent, sent[2])
        assert [t.lemma for t in deps] == ["driver", "he", "ticket"]
