"""Observation columns, training sequences, scenario statistics, tfidf."""

from __future__ import annotations

import logging
import math

import pytest

from conftest import tok
from test_embeddings import table_of
from scriptmap import corpus, crf
from scriptmap.embeddings import DEFAULT_EPSILON_GRID, DiscretizationConfig
from scriptmap.features import (
    build_scenario_stats,
    esd_training_sequences,
    label_mentions,
    mention_tfidf,
    observe_ed,
    observe_mention,
    story_decode_sequence,
    tfidf,
    train_esd_crf,
    training_label_set,
    tune_epsilon,
)

DISC = DiscretizationConfig(epsilon=0.05)


class TestColumns:
    def test_observe_mention_reference(self, mini_stories, mini_table):
        boil = mini_stories[0].mentions[0]
        # vector (2*0.3 + 0.2)/3, 0 with the nsubj lemma out of vocabulary
        assert observe_mention(boil, mini_table, DISC) == ("boil", "water", "_", "high", "mid")

    def test_observe_mention_objects_in_token_order(self, mini_table):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario s1",
                "#kind story",
                tok(1, "He", "he", "PRP", 2, "nsubj", "c1"),
                tok(2, "gave", "give", "VBD", 0, "root", "_", "hand_over"),
                tok(3, "her", "she", "PRP", 2, "iobj"),
                tok(4, "tea", "tea", "NN", 2, "dobj"),
                "",
            ]
        )
        story = corpus.parse_corpus_file(text, kind="story")[0]
        obs = observe_mention(story.mentions[0], mini_table, DISC)
        assert obs[:3] == ("give", "tea", "she")

    def test_absent_vector_bins_are_absent(self, mini_stories):
        from scriptmap.embeddings import EmbeddingTable

        empty = EmbeddingTable(dimension=3, vectors={})
        boil = mini_stories[0].mentions[0]
        assert observe_mention(boil, empty, DISC) == ("boil", "water", "_", "_", "_", "_")

    def test_observe_ed_uses_head_nouns(self, mini_esds, mini_table):
        ed = mini_esds[0].eds[1]
        # steep doubled plus tea: (0, 0.8/3) -> (mid, high)
        assert observe_ed(ed, mini_table, DISC) == ("steep", "tea", "_", "mid", "high")

    def test_observe_ed_without_verb_rejected(self, mini_table):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario s1",
                "#kind esd",
                "#ed 1 wait",
                tok(1, "more", "more", "JJ", 2, "amod"),
                tok(2, "water", "water", "NN", 0, "root"),
                "",
            ]
        )
        ed = corpus.parse_corpus_file(text, kind="esd")[0].eds[0]
        with pytest.raises(ValueError):
            observe_ed(ed, mini_table, DISC)


class TestSequences:
    def test_mini_training_sequences(self, mini_esds, mini_table):
        seqs = esd_training_sequences(mini_esds, mini_table, DISC)
        assert len(seqs) == 2
        obs1, labels1 = seqs[0]
        assert labels1 == ["boil_water", "steep_tea", "drink_tea"]
        assert obs1[0] == ("boil", "water", "_", "high", "mid")
        assert obs1[2] == ("drink", "tea", "_", "low", "high")
        obs2, labels2 = seqs[1]
        # the non-script ED is not part of the training sequence
        assert labels2 == ["boil_water", "steep_tea"]
        assert obs2[1] == ("add", "leaf", "_", "mid", "high")

    def test_verbless_script_ed_skipped_with_warning(self, mini_table, caplog):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario s1",
                "#kind esd",
                "#ed 1 boil_water",
                tok(1, "boil", "boil", "VB", 0, "root", "_", "boil_water"),
                "",
                "#ed 2 add_water",
                tok(1, "more", "more", "JJ", 2, "amod"),
                tok(2, "water", "water", "NN", 0, "root"),
                "",
            ]
        )
        with caplog.at_level(logging.WARNING):
            docs = corpus.parse_corpus_file(text, kind="esd")
        # the parser warns; building the sequences skips the ED without a verb
        assert [r.message for r in caplog.records] == [
            "document d1: ED 2 (add_water) has no verb; sequence training skips it"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            seqs = esd_training_sequences(docs, mini_table, DISC)
        assert [lab for _, labs in seqs for lab in labs] == ["boil_water"]
        assert caplog.records == []

    def test_doc_with_no_usable_eds_dropped(self, mini_table):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario s1",
                "#kind esd",
                "#ed 1 non_script_event",
                tok(1, "relax", "relax", "VB", 0, "root", "_", "non_script_event"),
                "",
            ]
        )
        docs = corpus.parse_corpus_file(text, kind="esd")
        assert esd_training_sequences(docs, mini_table, DISC) == []

    def test_training_label_set_first_appearance(self, mini_esds, mini_table):
        seqs = esd_training_sequences(mini_esds, mini_table, DISC)
        assert training_label_set(seqs) == ("boil_water", "steep_tea", "drink_tea")

    def test_story_decode_sequence_aligns_with_mentions(
        self, mini_stories, mini_table
    ):
        story = mini_stories[0]
        mentions = story.script_mentions()
        obs = story_decode_sequence(mentions, mini_table, DISC)
        assert len(obs) == len(mentions) == 2
        assert obs[0][:3] == ("boil", "water", "_")
        assert obs[1][:3] == ("steep", "tea", "_")


class TestLabelMentions:
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)])
    def test_labels_follow_the_order_of_the_mentions_given(
        self, mini_esds, mini_stories, mini_table, order
    ):
        model = train_esd_crf(mini_esds, mini_table, DISC)
        story = mini_stories[1]
        mentions = [story.script_mentions()[i] for i in order]
        labels = label_mentions(model, mentions, mini_table, DISC)
        # the sequence is decoded in textual order whatever the order given
        assert labels == [m.gold_label for m in mentions]
        assert [m.lemma for m in mentions] == [("heat", "add", "drink")[i] for i in order]


def stats_fixture():
    """Two scenarios; "water" occurs five times in A and nowhere in B."""
    lines = ["#doc a1", "#scenario scen_a", "#kind esd"]
    for i in range(1, 6):
        lines += [
            f"#ed {i} pour_water",
            tok(1, "pour", "pour", "VB", 0, "root", "_", "pour_water"),
            tok(2, "water", "water", "NN", 1, "dobj"),
            "",
        ]
    lines += [
        "#doc b1",
        "#scenario scen_b",
        "#kind esd",
        "#ed 1 dig_hole",
        tok(1, "dig", "dig", "VB", 0, "root", "_", "dig_hole"),
        tok(2, "hole", "hole", "NN", 1, "dobj"),
        "",
    ]
    docs = corpus.parse_corpus_file("\n".join(lines), kind="esd")
    return build_scenario_stats(docs)


class TestStats:
    def test_counts(self):
        stats = stats_fixture()
        a = stats["scen_a"]
        assert a.n_scenarios == 2
        assert a.term_frequencies == {"pour": 5, "water": 5}
        assert a.document_frequencies["water"] == 1
        assert a.verb_lemmas == frozenset({"pour"})
        b = stats["scen_b"]
        assert b.term_frequencies == {"dig": 1, "hole": 1}

    def test_verb_lemmas_include_non_script_eds(self, mini_esds):
        stats = build_scenario_stats(mini_esds)["make_tea"]
        assert "relax" in stats.verb_lemmas
        assert stats.verb_lemmas == frozenset({"boil", "steep", "drink", "heat", "add", "relax"})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_scenario_stats([])


class TestTfidf:
    def test_five_ln_two(self):
        stats = stats_fixture()
        assert tfidf(["water"], stats["scen_a"]) == 5 * math.log(2)

    def test_lemma_in_every_scenario_scores_zero(self, mini_esds):
        # single scenario: every df equals N, ln(1) = 0
        stats = build_scenario_stats(mini_esds)["make_tea"]
        assert tfidf(["boil", "tea"], stats) == 0.0

    def test_unknown_lemma_contributes_nothing(self):
        stats = stats_fixture()
        assert tfidf(["zzz"], stats["scen_a"]) == 0.0
        assert tfidf(["zzz", "water"], stats["scen_a"]) == 5 * math.log(2)

    def test_lemma_from_other_scenario_has_zero_tf_here(self):
        stats = stats_fixture()
        # "hole" exists in the inventory but never occurs in scen_a
        assert tfidf(["hole"], stats["scen_a"]) == 0.0

    def test_mention_tfidf_sums_verb_and_dependents(self):
        stats = stats_fixture()
        mention = corpus.VerbMention(
            sentence=0,
            token_index=2,
            lemma="pour",
            dependents=(("dobj", "water"), ("nsubj", "zzz")),
            gold_label="pour_water",
        )
        expected = tfidf(["pour", "water", "zzz"], stats["scen_a"])
        assert mention_tfidf(mention, stats["scen_a"]) == expected
        assert expected == 10 * math.log(2)


def single_verb_esd(doc_id, scenario, event_type, verb):
    return "\n".join(
        [
            f"#doc {doc_id}",
            f"#scenario {scenario}",
            "#kind esd",
            f"#ed 1 {event_type}",
            tok(1, verb, verb, "VB", 0, "root", "_", event_type),
            "",
        ]
    )


class TestTuneEpsilon:
    """One component separates the classes at every threshold, the other only
    once epsilon reaches 0.1; the dev verbs are unseen so the bin columns are
    the only usable evidence."""

    def build(self):
        table = table_of(
            va=[0.2, 0.07], vb=[-0.2, -0.07], na=[0.2, -0.07], nb=[-0.2, 0.07]
        )
        train = corpus.parse_corpus_file(
            single_verb_esd("t1", "s", "ev_a", "va")
            + single_verb_esd("t2", "s", "ev_b", "vb")
            + single_verb_esd("t3", "s", "ev_a", "va")
            + single_verb_esd("t4", "s", "ev_b", "vb"),
            kind="esd",
        )
        dev = corpus.parse_corpus_file(
            single_verb_esd("d1", "s", "ev_a", "na") + single_verb_esd("d2", "s", "ev_b", "nb"),
            kind="esd",
        )
        return table, train, dev

    def measure(self, table, train, dev, eps):
        disc = DiscretizationConfig(epsilon=eps)
        seqs = esd_training_sequences(train, table, disc)
        model = crf.train(seqs, training_label_set(seqs))
        hits = total = 0
        for obs, gold in esd_training_sequences(dev, table, disc):
            pred, _ = crf.viterbi(model, obs)
            hits += sum(p == g for p, g in zip(pred, gold))
            total += len(gold)
        return hits / total

    def test_selects_the_only_separating_threshold(self):
        table, train, dev = self.build()
        assert tune_epsilon(train, dev, DEFAULT_EPSILON_GRID, table) == 0.1
        # construction check: 0.1 is cleanly separable, everything else is not
        assert self.measure(table, train, dev, 0.1) == 1.0
        for eps in (0.01, 0.02, 0.05, 0.2):
            assert self.measure(table, train, dev, eps) <= 0.5

    def test_ties_break_toward_smallest_candidate(self):
        table, train, dev = self.build()
        # both candidates separate, the smaller one must win regardless of order
        assert tune_epsilon(train, dev, [0.15, 0.1], table) == 0.1
        assert tune_epsilon(train, dev, [0.1, 0.15], table) == 0.1

    def test_empty_candidates_rejected(self):
        table, train, dev = self.build()
        with pytest.raises(ValueError):
            tune_epsilon(train, dev, [], table)
