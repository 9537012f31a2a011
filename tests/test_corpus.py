"""Corpus format: parsing, serialization, mentions, folds, pronoun chains."""

from __future__ import annotations

import hashlib
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LINE_END_FORMS,
    MINI_ESD_TEXT,
    MINI_STORY_TEXT,
    NOT_LINE_ENDS,
    codepoint,
    tok,
)
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

    def test_token_is_an_immutable_named_tuple(self):
        (story,) = parse_corpus_file(story_doc(tok(1, "x", "y", "VB", 0, "root", "c1", "t")))
        token = story.sentences[0][0]
        assert token == (1, "x", "y", "VB", 0, "root", "c1", "t", None, None)
        assert hash(token) == hash(tuple(token))
        index, surface, *_ = token
        assert (index, surface) == (1, "x")
        assert repr(token) == (
            "Token(index=1, surface='x', lemma='y', pos='VB', head=0, deprel='root', "
            "coref='c1', gold_label='t', frame=None, predicted_label=None)"
        )
        with pytest.raises(AttributeError):
            token.lemma = "z"

    def test_mention_is_an_immutable_named_tuple(self):
        (story,) = parse_corpus_file(story_doc(
            tok(1, "He", "he", "PRP", 2, "nsubj", "_", "_", "_"),
            tok(2, "paid", "pay", "VBD", 0, "root", "_", "pay", "Commerce_pay"),
            tok(3, "fare", "fare", "NN", 2, "dobj", "_", "_", "_"),
        ))
        (mention,) = story.mentions
        values = (0, 2, "pay", (("nsubj", "he"), ("dobj", "fare")), "pay", "Commerce_pay")
        assert mention == values
        assert hash(mention) == hash(values)
        assert len(mention) == 6
        assert repr(mention) == (
            "VerbMention(sentence=0, token_index=2, lemma='pay', "
            "dependents=(('nsubj', 'he'), ('dobj', 'fare')), gold_label='pay', "
            "frame='Commerce_pay')"
        )
        with pytest.raises(AttributeError):
            mention.lemma = "buy"
        assert mention.lemma_set() == frozenset({"pay", "he", "fare"})
        assert mention._replace(frame=None) == values[:5] + (None,)

    def test_ed_is_an_immutable_named_tuple(self):
        (esd,) = parse_corpus_file(esd_doc(
            "#ed 1 pay_fare",
            tok(1, "pay", "pay", "VB", 0, "root"),
            tok(2, "fare", "fare", "NN", 1, "dobj"),
        ))
        (ed,) = esd.eds
        pay, fare = ed.tokens
        assert ed == (1, "pay_fare", (pay, fare))
        assert hash(ed) == hash((1, "pay_fare", (pay, fare)))
        assert len(ed) == 3
        assert repr(ed) == (
            f"EventDescription(index=1, event_type='pay_fare', tokens=({pay!r}, {fare!r}))"
        )
        with pytest.raises(AttributeError):
            ed.event_type = "board_bus"
        assert ed.is_script
        assert ed.main_verb() is pay
        assert not ed._replace(event_type="non_script_event").is_script

    def test_prediction_column_parses(self):
        text = story_doc(
            tok(1, "He", "he", "PRP", 2, "nsubj", "c1", "_", "_", "_"),
            tok(2, "paid", "pay", "VBD", 0, "root", "_", "pay", "_", "event"),
        )
        story = parse_corpus_file(text, kind="story")[0]
        assert story.n_columns == 10
        assert story.sentences[0][1].predicted_label == "event"
        assert story.sentences[0][0].predicted_label is None

    def test_equal_token_lines_share_one_token(self, data_dir):
        text = (data_dir / "inscript.tsv").read_text(encoding="utf-8")
        token_lines = [
            line for line in corpus.split_lines(text) if line and not line.startswith("#")
        ]
        first, second = parse_corpus_file(text), parse_corpus_file(text)
        tokens = [t for story in first for sent in story.sentences for t in sent]
        assert len(tokens) == len(token_lines) > len(set(token_lines))
        assert len({id(t) for t in tokens}) == len(set(token_lines))
        by_line: dict[str, corpus.Token] = {}
        for line, token in zip(token_lines, tokens):
            assert by_line.setdefault(line, token) is token
        # the line-to-token map lives for one parse
        second_ids = {id(t) for story in second for sent in story.sentences for t in sent}
        assert second_ids.isdisjoint(id(t) for t in tokens)


class TestRoundTrip:
    def test_mini_esd_round_trip(self, mini_esds):
        assert serialize_corpus(mini_esds) == MINI_ESD_TEXT

    def test_mini_story_round_trip(self, mini_stories):
        assert serialize_corpus(mini_stories) == MINI_STORY_TEXT

    def test_synthetic_corpus_round_trips_byte_exact(self, data_dir):
        for name, kind in (("descript.tsv", "esd"), ("inscript.tsv", "story")):
            text = (data_dir / name).read_text()
            assert serialize_corpus(parse_corpus_file(text, kind=kind)) == text

    def test_synthetic_corpus_parses_to_pinned_documents(self, data_dir):
        # sha256 of repr(parse_corpus_file(text)), recorded before the reader's
        # hot path was rewritten: every field of every parsed record is pinned
        expected = {
            "descript.tsv": "c491ed4115f25842f33f39aca2d7532f97fb5ae5c5142d8d844b652915323ed0",
            "inscript.tsv": "03d9ccff9ca2dd7f2cfdc90093deed1890fcc7d399cb0d6d30c1a41238fc24f2",
        }
        assert sorted(p.name for p in data_dir.glob("*.tsv")) == sorted(expected)
        for name, digest in expected.items():
            docs = parse_corpus_file((data_dir / name).read_text(encoding="utf-8"))
            assert hashlib.sha256(repr(docs).encode("utf-8")).hexdigest() == digest, name

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


class TestLineEnds:
    """A line ends at LF, CR LF or CR, and at no other character."""

    @pytest.mark.parametrize("form", sorted(LINE_END_FORMS))
    def test_line_end_forms_parse_alike(self, form, mini_esds, mini_stories):
        assert parse_corpus_file(LINE_END_FORMS[form](MINI_ESD_TEXT)) == mini_esds
        assert parse_corpus_file(LINE_END_FORMS[form](MINI_STORY_TEXT)) == mini_stories

    @pytest.mark.parametrize("form", sorted(LINE_END_FORMS))
    def test_line_end_forms_keep_line_numbers(self, form):
        text = story_doc(
            tok(1, "a", "a", "VB", 0, "root", "_", "t"),
            tok(2, "b", "b", "NN", 1, "dobj", "_", "t"),
        )
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus_file(LINE_END_FORMS[form](text))
        assert err.value.line == 5

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=codepoint)
    def test_no_line_end_inside_a_surface_word(self, char):
        text = story_doc(tok(1, f"a{char}b", "a", "VB", 0, "root", "_", "t"))
        (story,) = parse_corpus_file(text)
        assert story.sentences[0][0].surface == f"a{char}b"
        assert serialize_corpus([story]).encode("utf-8") == text.encode("utf-8")


BAD_DOCS = [
    # header order is fixed: doc, scenario, kind
    ("#scenario s1\n#doc d1\n#kind esd\n", "line 1: #scenario header before #doc"),
    ("#kind esd\n#doc d1\n", "line 1: #kind header before #doc"),
    ("#doc d1\n#kind esd\n#scenario s1\n", "line 2: #kind header before #scenario"),
    ("#doc d1\n#scenario s1\n#kind esd\n#scenario s2\n", "line 4: #scenario header out of order"),
    ("#doc d1\n#scenario s1\n#kind esd\n#kind esd\n", "line 4: duplicate #kind header"),
    ("#doc d1\n#scenario s1\n#ed 1 t\n", "line 3: #ed header before #kind"),
    ("#doc d1\n#kind esd\n", "line 2: #kind header before #scenario"),
    ("#doc d1\n", "line 1: document 'd1' has no #scenario header"),
    # unknown kind value
    ("#doc d1\n#scenario s1\n#kind prose\n", "line 3: unknown document kind 'prose'"),
    ("#doc d1\n#scenario s1\n#kind\n", "line 3: unknown document kind ''"),
    # token lines need a document with a kind
    (tok(1, "x", "x", "VB", 0, "root") + "\n", "line 1: token line before #doc header"),
    ("#doc d1\n#scenario s1\n" + tok(1, "x", "x", "VB", 0, "root") + "\n",
     "line 3: token line before #kind header"),
    # esd tokens must sit inside an #ed block
    (esd_doc(tok(1, "x", "x", "VB", 0, "root")), "line 4: token line outside any #ed block"),
    (esd_doc("#ed 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t"), "",
             tok(1, "y", "y", "VB", 0, "root")),
     "line 7: token line outside any #ed block"),
    # #ed indexes are consecutive from 1
    (esd_doc("#ed 2 t", tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: #ed index 2 out of order (expected 1)"),
    (
        esd_doc(
            "#ed 1 t",
            tok(1, "x", "x", "VB", 0, "root", "_", "t"),
            "#ed 3 t",
            tok(1, "y", "y", "VB", 0, "root", "_", "t"),
        ),
        "line 6: #ed index 3 out of order (expected 2)",
    ),
    (esd_doc("#ed 1 9bad"), "line 4: unknown label string '9bad'"),
    # stories have no #ed headers
    (story_doc("#ed 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: #ed header in a story document"),
    # token index must equal its position in the block
    (story_doc(tok(2, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: token index 2 does not match position 1"),
    # index and head are integers
    (story_doc("x\tx\tx\tVB\t0\troot\t_\t_"),
     "line 4: malformed token line: invalid literal for int() with base 10: 'x'"),
    (story_doc("1\tx\tx\tVB\troot\troot\t_\t_"),
     "line 4: malformed token line: invalid literal for int() with base 10: 'root'"),
    # column count is uniform within a document
    (
        story_doc(
            tok(1, "x", "x", "VB", 0, "root", "_", "t"),
            tok(2, "y", "y", "NN", 1, "dobj", "_", "_", "_"),
        ),
        "line 5: inconsistent column count: document uses 8, line has 9",
    ),
    (
        esd_doc(
            "#ed 1 t",
            tok(1, "x", "x", "VB", 0, "root", "_", "t", "_", "_"),
            "#ed 2 t",
            tok(1, "y", "y", "VB", 0, "root", "_", "t"),
        ),
        "line 7: inconsistent column count: document uses 10, line has 8",
    ),
    # fewer than 8 or more than 10 columns
    (story_doc("1\tx\tx\tVB\t0\troot\t_"),
     "line 4: malformed token line: expected 8-10 tab-separated columns, got 7"),
    (story_doc("1\tx\tx\tVB\t0\troot\t_\tt\t_\t_\textra"),
     "line 4: malformed token line: expected 8-10 tab-separated columns, got 11"),
    (story_doc(tok(1, "x", "x", "VB", 0, "root"), "trailing text"),
     "line 5: malformed token line: expected 8-10 tab-separated columns, got 1"),
    # label strings are identifier-shaped
    (story_doc(tok(1, "x", "x", "VB", 0, "root", "_", "9bad")),
     "line 4: unknown label string '9bad'"),
    # gold labels sit on verbal tokens only
    (story_doc(tok(1, "x", "x", "NN", 0, "root", "_", "t")),
     "line 4: gold label 't' on non-verb token 'x' (pos NN)"),
    # head points inside the sentence; the error names the token's own line
    (story_doc(tok(1, "x", "x", "VB", 5, "root", "_", "t")),
     "line 4: dangling head index 5 (sentence has 1 tokens)"),
    (story_doc(tok(1, "x", "x", "VB", 0, "root", "_", "t"), tok(2, "y", "y", "NN", 3, "dobj"),
               "", tok(1, "z", "z", "VB", 0, "root")),
     "line 5: dangling head index 3 (sentence has 2 tokens)"),
    (esd_doc("#ed 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t"),
             tok(2, "y", "y", "NN", 3, "dobj"), "#ed 2 t"),
     "line 6: dangling head index 3 (sentence has 2 tokens)"),
    # header values are present and well formed
    ("#doc \n#scenario s1\n#kind esd\n", "line 1: empty document id"),
    ("#doc d1\n#scenario \n#kind esd\n", "line 2: empty scenario id"),
    (esd_doc("#ed 1", tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: malformed #ed header"),
    (esd_doc("#ed one t", tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: malformed #ed index 'one'"),
    ("#doc d1\n#scenario s1\n", "line 1: document 'd1' has no #kind header"),
    # a header keyword is a whole word; any other '#' line is an error
    ("#document x\n#scenario s1\n#kind esd\n", "line 1: unknown header '#document'"),
    ("#doc d1\n#scenario s1\n#kinds esd\n", "line 3: unknown header '#kinds'"),
    (esd_doc("#edx 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: unknown header '#edx'"),
    (story_doc("# a comment"), "line 4: unknown header '#'"),
    # index and head are ASCII decimal digits: no sign, space or underscore
    (story_doc(tok("1_0", "x", "x", "VB", 0, "root")),
     "line 4: malformed token line: invalid literal for int() with base 10: '1_0'"),
    (story_doc(tok(" 1", "x", "x", "VB", 0, "root")),
     "line 4: malformed token line: invalid literal for int() with base 10: ' 1'"),
    (story_doc(tok(1, "x", "x", "VB", "\uff12", "root")),
     "line 4: malformed token line: invalid literal for int() with base 10: '\uff12'"),
    (story_doc(tok(1, "x", "x", "VB", "+0", "root")),
     "line 4: malformed token line: invalid literal for int() with base 10: '+0'"),
    (story_doc(tok(1, "x", "x", "VB", "-1", "root")),
     "line 4: malformed token line: invalid literal for int() with base 10: '-1'"),
    (esd_doc("#ed +1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 4: malformed #ed index '+1'"),
    (esd_doc("#ed 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t"), doc="d1")
     + esd_doc("#ed 1 t", doc="d1"),
     "line 6: duplicate document id 'd1'"),
    # a repeated token line is checked again where it sits: its index against
    # its position, its column count against its document's, and an open block
    # before anything else
    (story_doc(tok(1, "x", "x", "VB", 0, "root", "_", "t"), tok(2, "y", "y", "NN", 1, "dobj"),
               "", tok(2, "y", "y", "NN", 1, "dobj")),
     "line 7: token index 2 does not match position 1"),
    (story_doc(tok(1, "x", "x", "VB", 0, "root", "_", "t", "_", "_"))
     + story_doc(tok(1, "y", "y", "VB", 0, "root", "_", "t"), "",
                 tok(1, "x", "x", "VB", 0, "root", "_", "t", "_", "_"), doc="d2"),
     "line 10: inconsistent column count: document uses 8, line has 10"),
    (esd_doc("#ed 1 t", tok(1, "x", "x", "VB", 0, "root", "_", "t"), "",
             tok(1, "x", "x", "VB", 0, "root", "_", "t")),
     "line 7: token line outside any #ed block"),
    # one line under a CR LF end and an LF end is one line
    ("#doc d1\r\n#scenario s1\r\n#kind story\r\n"
     + tok(1, "x", "x", "VB", 0, "root", "_", "t") + "\r\n"
     + tok(1, "x", "x", "VB", 0, "root", "_", "t") + "\n",
     "line 5: token index 1 does not match position 2"),
    # a character that str.splitlines() breaks at moves no later line number
    *[(story_doc(tok(1, f"a{char}b", "a", "VB", 0, "root", "_", "t"),
                 tok(2, "b", "b", "NN", 1, "dobj", "_", "t")),
       "line 5: gold label 't' on non-verb token 'b' (pos NN)")
      for char in NOT_LINE_ENDS],
]


class TestParseErrors:
    @pytest.mark.parametrize("text,message", BAD_DOCS)
    def test_malformed_input_is_rejected(self, text, message):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus_file(text)
        assert str(err.value) == message
        assert err.value.line == int(message.split(":")[0].split()[1])

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

    def test_unknown_required_kind_is_a_value_error(self):
        with pytest.raises(ValueError, match="kind must be 'story' or 'esd', got 'bogus'"):
            parse_corpus_file(MINI_STORY_TEXT, kind="bogus")


# POS tags of every class, in mixed case, and tags near them
POS_TAGS = st.one_of(
    st.sampled_from(["VB", "vbd", "Vbz", "VERB", "verb", "AUX", "aux", "MD", "md", "NN", "Nn",
                     "nns", "NNP", "NOUN", "propn", "PRP", "prp$", "Prp$", "PRON", "WP", "wp",
                     "WP$", "WDT", "DT", "IN", "JJ", "V", "N", "P", "_", ""]),
    st.text(alphabet="vbnprowmdauxtVBNPROWMDAUXT$ßı", max_size=5),
    st.text(max_size=4),
)


class TestPosClasses:
    @settings(derandomize=True, max_examples=500)
    @given(pos=POS_TAGS)
    def test_memo_classifies_as_the_predicates(self, pos):
        in_class = {
            corpus._VERBAL: corpus.is_verbal(pos),
            corpus._NOMINAL: corpus.is_nominal(pos),
            corpus._PRONOMINAL: corpus.is_pronominal(pos),
        }
        assert sum(in_class.values()) <= 1
        memo = corpus._PosClasses()
        expected = next((c for c, hit in in_class.items() if hit), None)
        assert memo[pos] == expected
        assert dict(memo) == {pos: expected}


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

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="^duplicate document ids in fold split$"):
            split_folds(["a", "b", "a"], 2, 0)

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

    def test_leave_one_scenario_out_skips_an_empty_scenario(self, caplog):
        with caplog.at_level(logging.WARNING):
            plan = leave_one_scenario_out({"a": ["a1"], "b": [], "c": ["c1"]})
        assert plan == leave_one_scenario_out({"a": ["a1"], "c": ["c1"]})
        assert caplog.messages == ["scenario 'b' has no stories; excluded from fold plan"]

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
    def test_ed_without_a_verb_has_no_verb_dependents(self):
        the = corpus.Token(1, "the", "the", "DT", 0, "root")
        ed = corpus.EventDescription(1, "board_bus", (the,))
        assert ed.main_verb() is None
        assert ed.verb_dependents() == ()

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
