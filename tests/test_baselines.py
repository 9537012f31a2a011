"""Direct ESD-matching systems: lemma gate, Jaccard overlap, cosine match."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tok
from scriptmap.baselines import (
    build_ed_index,
    cosine_classify,
    jaccard,
    lemma_identify,
    overlap_classify,
)
from scriptmap.corpus import EVENT, NON_SCRIPT, VerbMention, parse_corpus_file
from scriptmap.embeddings import load_embeddings
from scriptmap.features import build_scenario_stats


def mention(lemma, *dependents, gold="x"):
    return VerbMention(
        sentence=0,
        token_index=1,
        lemma=lemma,
        dependents=tuple(("dobj", d) for d in dependents),
        gold_label=gold,
    )


class TestJaccard:
    def test_reference_value(self):
        a = frozenset({"look", "recipe"})
        b = frozenset({"look", "up", "recipe"})
        assert jaccard(a, b) == 2 / 3

    def test_edge_cases(self):
        assert jaccard(frozenset(), frozenset()) == 0.0
        assert jaccard(frozenset({"a"}), frozenset({"b"})) == 0.0
        assert jaccard(frozenset({"a", "b"}), frozenset({"a", "b"})) == 1.0

    @given(
        st.frozensets(st.sampled_from("abcdef"), max_size=6),
        st.frozensets(st.sampled_from("abcdef"), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0
        assert jaccard(a, b) == jaccard(b, a)
        if a == b and a:
            assert jaccard(a, b) == 1.0


class TestEdEntries:
    def test_entries(self, mini_esds):
        entries = build_ed_index(mini_esds)
        # script EDs only, corpus order across documents
        assert [e.event_type for e in entries] == [
            "boil_water",
            "steep_tea",
            "drink_tea",
            "boil_water",
            "steep_tea",
        ]
        assert entries[1].lemmas == frozenset({"steep", "the", "tea"})
        assert entries[0].vector is None

    def test_vectors_only_with_table(self, mini_esds, mini_table):
        entries = build_ed_index(mini_esds, mini_table)
        assert np.allclose(entries[0].vector, [0.8 / 3, 0.0])
        assert np.allclose(entries[1].vector, [0.0, 0.8 / 3])


class TestLemmaIdentify:
    def test_gate_on_esd_verb_inventory(self, mini_esds):
        verbs = build_scenario_stats(mini_esds)["make_tea"].verb_lemmas
        assert lemma_identify(mention("boil"), verbs) == EVENT
        assert lemma_identify(mention("want"), verbs) == NON_SCRIPT
        # the inventory covers non-script EDs too, so "relax" passes the gate
        assert lemma_identify(mention("relax"), verbs) == EVENT

    def test_story_mentions_end_to_end(self, mini_esds, mini_stories):
        verbs = build_scenario_stats(mini_esds)["make_tea"].verb_lemmas
        got = [lemma_identify(m, verbs) for m in mini_stories[0].mentions]
        assert got == [EVENT, EVENT, NON_SCRIPT, EVENT]


class TestOverlapClassify:
    def test_highest_jaccard_wins(self, mini_esds):
        entries = build_ed_index(mini_esds)
        # {boil, anna, water} vs {boil, water}: 2/3, every other ED scores less
        got = overlap_classify(mention("boil", "anna", "water"), entries)
        assert got == "boil_water"

    def test_zero_overlap_takes_first_ed(self, mini_esds):
        entries = build_ed_index(mini_esds)
        assert overlap_classify(mention("want", "she"), entries) == "boil_water"

    def test_tie_breaks_toward_earliest_ed(self, mini_esds):
        entries = build_ed_index(mini_esds)
        # 1/3 against both the first and the third ED
        assert overlap_classify(mention("boil", "drink"), entries) == "boil_water"

    def test_scenario_without_script_eds_rejected(self):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario empty_one",
                "#kind esd",
                "#ed 1 non_script_event",
                "1\trelax\trelax\tVB\t0\troot\t_\tnon_script_event",
                "",
            ]
        )
        entries = build_ed_index(parse_corpus_file(text, kind="esd"))
        with pytest.raises(ValueError, match="script"):
            overlap_classify(mention("relax"), entries)


class TestCosineClassify:
    def test_diverges_from_overlap_on_shared_nouns(self, mini_esds, mini_table):
        entries = build_ed_index(mini_esds, mini_table)
        m = mention("tea")
        # vector (0, 0.2) aligns with the steeping ED; raw lemma overlap
        # prefers the shorter drinking ED
        assert cosine_classify(m, entries, mini_table) == "steep_tea"
        assert overlap_classify(m, entries) == "drink_tea"

    def test_matches_direction_of_mention_vector(self, mini_esds, mini_table):
        entries = build_ed_index(mini_esds, mini_table)
        assert cosine_classify(mention("drink"), entries, mini_table) == "drink_tea"
        assert cosine_classify(mention("boil", "water"), entries, mini_table) == "boil_water"

    def test_vectorless_mention_falls_back_to_overlap(self, mini_esds, mini_table):
        entries = build_ed_index(mini_esds, mini_table)
        m = mention("zzz")
        assert cosine_classify(m, entries, mini_table) == overlap_classify(m, entries)

    def test_no_usable_ed_vectors_falls_back_to_overlap(self, mini_esds, mini_table):
        entries = build_ed_index(mini_esds)  # indexed without a table
        m = mention("boil", "water")
        assert cosine_classify(m, entries, mini_table) == overlap_classify(m, entries)

    def test_verbless_eds_fall_back_to_overlap(self):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario riding_a_bus",
                "#kind esd",
                "#ed 1 board_bus",
                tok(1, "the", "the", "DT", 2, "det"),
                tok(2, "bus", "bus", "NN", 0, "root"),
                "",
            ]
        )
        table = load_embeddings("2 2\nride 0.5 0.1\nbus 0.2 0.4\n")
        entries = build_ed_index(parse_corpus_file(text, kind="esd"), table)
        assert entries[0].vector is None  # no verb, so no ED vector
        assert cosine_classify(mention("ride", "bus"), entries, table) == "board_bus"
