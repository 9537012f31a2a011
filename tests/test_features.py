"""Observation columns, training sequences, scenario statistics, tfidf."""

from __future__ import annotations

import logging
import math
from collections import defaultdict

import numpy as np
import pytest

from conftest import coded, tok
from test_crf import assert_compiled_rows, reference_emission_rows, reference_index_features
from test_embeddings import table_of
from scriptmap import corpus, crf
from scriptmap.embeddings import (
    DEFAULT_EPSILON_GRID,
    DiscretizationConfig,
    discretize,
    mention_vector,
)
from scriptmap.features import (
    build_scenario_stats,
    esd_columns,
    esd_training_sequences,
    label_mentions,
    mention_columns,
    mention_tfidf,
    story_decode_sequence,
    tfidf,
    tune_epsilon,
)

DISC = DiscretizationConfig(epsilon=0.05)


def index_model(*observations) -> crf.CrfModel:
    """An all-zero model whose columns saw exactly the given observations."""
    labels = ["A"] * len(observations)
    index = crf.compile_sequences(coded([(list(observations), labels)]))[0]
    return crf.CrfModel(index=index, weights=np.zeros(index.n_features))


def block_ids(model: crf.CrfModel, values) -> list[int]:
    """The emission block of each value in its column, from the string tables."""
    return [model.index.columns[c][v] for c, v in enumerate(values)]


def named(sequences: crf.CodedSequences) -> list[tuple[list[tuple[str, ...]], list[str]]]:
    """Coded training sequences as strings: (observations, labels) per sequence."""
    values = np.array(sequences.values, dtype=object)[sequences.cells].tolist()
    strings, start = [], 0
    for n in sequences.lengths:
        observations = [tuple(row) for row in values[start : start + n]]
        strings.append((observations, list(sequences.labels[start : start + n])))
        start += n
    return strings


def training_strings(docs, table, disc):
    """The training sequences of `docs`, binned at `disc`, as strings."""
    return named(esd_training_sequences(esd_columns(docs, table), disc))


def string_observations(mentions, table, disc) -> list[tuple[str, ...]]:
    """The observation columns of the given mentions as strings, in textual
    order, made the way training makes an ED's."""
    observations = []
    for m in sorted(mentions, key=lambda m: (m.sentence, m.token_index)):
        dobj = next((l for rel, l in m.dependents if rel in corpus.DOBJ_DEPRELS), "_")
        iobj = next((l for rel, l in m.dependents if rel in corpus.IOBJ_DEPRELS), "_")
        vec = mention_vector(m.lemma, [l for _, l in m.dependents], table)
        bins = ("_",) * table.dimension if vec is None else discretize(vec, disc)
        observations.append((m.lemma, dobj, iobj) + bins)
    return observations


class TestColumns:
    def test_mention_row_reference(self, mini_stories, mini_table):
        boil = mini_stories[0].mentions[0]
        model = index_model(("boil", "water", "_", "high", "mid"), ("x", "y", "z", "low", "low"))
        # vector (2*0.3 + 0.2)/3, 0 with the nsubj lemma out of vocabulary
        rows = story_decode_sequence(mention_columns([boil], mini_table), model)
        assert rows.tolist() == [block_ids(model, ("boil", "water", "_", "high", "mid"))]

    def test_mention_row_objects_in_token_order(self, mini_table):
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
        model = index_model(
            ("give", "tea", "she", "mid", "mid"), ("give", "she", "tea", "mid", "mid")
        )
        rows = story_decode_sequence(mention_columns(story.mentions, mini_table), model)
        assert rows[0, :3].tolist() == block_ids(model, ("give", "tea", "she"))

    def test_absent_vector_bins_are_absent(self, mini_stories):
        from scriptmap.embeddings import EmbeddingTable

        empty = EmbeddingTable(dimension=3, vectors={})
        boil = mini_stories[0].mentions[0]
        seen = ("boil", "water", "_", "_", "_", "_")
        model = index_model(seen, ("x", "y", "z", "low", "mid", "high"))
        rows = story_decode_sequence(mention_columns([boil], empty), model)
        assert rows.tolist() == [block_ids(model, seen)]

    def test_table_of_another_dimension_rejected(self, mini_stories, mini_table):
        model = index_model(("boil", "water", "_", "high", "mid", "mid"))
        with pytest.raises(ValueError, match="2-d vectors give 5 observation columns"):
            story_decode_sequence(mention_columns(mini_stories[0].mentions, mini_table), model)


class TestEsdsOfOneFeaturization:
    """UnitColumns.esds takes ESDs from one esd_columns: the same columns as
    featurizing those ESDs alone, in the order asked for."""

    def assert_same_columns(self, got, want):
        assert got.lemmas == want.lemmas
        assert got.vectors.shape == want.vectors.shape
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.has_vector.tolist() == want.has_vector.tolist()
        assert got.event_types == want.event_types
        assert got.lengths == want.lengths

    def test_any_order_and_subset(self, synthetic_esds, synthetic_table):
        docs = [d for d in synthetic_esds if d.scenario == synthetic_esds[0].scenario]
        # an ESD without a training ED counts 0 and takes part in the split
        docs.insert(1, corpus.EsdDocument("empty", docs[0].scenario, ()))
        columns = esd_columns(docs, synthetic_table)
        assert columns.lengths[1] == 0 and len(columns.lengths) == len(docs)
        order = list(range(len(docs)))
        np.random.default_rng(3).shuffle(order)
        for positions in (order, order[:2], order[2:], [1], []):
            want = esd_columns([docs[p] for p in positions], synthetic_table)
            self.assert_same_columns(columns.esds(positions), want)

    def test_sequences_skip_esds_without_a_training_ed(self, mini_esds, mini_table):
        docs = [corpus.EsdDocument("empty", "make_tea", ()), *mini_esds]
        columns = esd_columns(docs, mini_table)
        assert columns.lengths == (0, 3, 2)
        seqs = esd_training_sequences(columns, DISC)
        assert seqs.lengths == (3, 2)
        want = esd_training_sequences(esd_columns(mini_esds, mini_table), DISC)
        assert seqs.cells.tobytes() == want.cells.tobytes() and seqs.values == want.values


class TestSequences:
    def test_mini_training_sequences(self, mini_esds, mini_table):
        seqs = training_strings(mini_esds, mini_table, DISC)
        assert len(seqs) == 2
        obs1, labels1 = seqs[0]
        assert labels1 == ["boil_water", "steep_tea", "drink_tea"]
        assert obs1[0] == ("boil", "water", "_", "high", "mid")
        # the bins of an ED use its head nouns: steep doubled plus tea, (0, 0.8/3)
        assert obs1[1] == ("steep", "tea", "_", "mid", "high")
        assert obs1[2] == ("drink", "tea", "_", "low", "high")
        obs2, labels2 = seqs[1]
        # the non-script ED is not part of the training sequence
        assert labels2 == ["boil_water", "steep_tea"]
        assert obs2[1] == ("add", "leaf", "_", "mid", "high")

    def test_ed_with_a_noun_root_takes_its_first_verbal_token(self, mini_table):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario s1",
                "#kind esd",
                "#ed 1 boil_water",
                tok(1, "water", "water", "NN", 0, "root"),
                tok(2, "boiling", "boil", "VBG", 1, "acl", "_", "boil_water"),
                tok(3, "her", "she", "PRP", 2, "iobj"),
                tok(4, "leaves", "leaf", "NNS", 2, "dobj"),
                "",
            ]
        )
        docs = corpus.parse_corpus_file(text, kind="esd")
        # boil doubled plus the head nouns water and leaf: (0.8/4, 0.15/4)
        assert training_strings(docs, mini_table, DISC) == [
            ([("boil", "leaf", "she", "high", "mid")], ["boil_water"])
        ]

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
            seqs = training_strings(docs, mini_table, DISC)
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
        assert training_strings(docs, mini_table, DISC) == []

    def test_lemmas_spelled_like_bin_values_share_their_codes(self, mini_table):
        text = "\n".join(
            [
                "#doc d1",
                "#scenario s1",
                "#kind esd",
                "#ed 1 lower_it",
                tok(1, "lowed", "low", "VB", 0, "root", "_", "lower_it"),
                tok(2, "mid", "mid", "NN", 1, "dobj"),
                tok(3, "high", "high", "NN", 1, "iobj"),
                "",
                "#ed 2 boil_water",
                tok(1, "boil", "boil", "VB", 0, "root", "_", "boil_water"),
                tok(2, "water", "water", "NN", 1, "dobj"),
                "",
            ]
        )
        docs = corpus.parse_corpus_file(text, kind="esd")
        seqs = esd_training_sequences(esd_columns(docs, mini_table), DISC)
        # one code per value string, so one block per (column, value) pair
        assert seqs.values == ("low", "mid", "high", "_", "boil", "water")
        strings = named(seqs)
        assert strings == [
            (
                [("low", "mid", "high", "_", "_"), ("boil", "water", "_", "high", "mid")],
                ["lower_it", "boil_water"],
            )
        ]
        index, data = crf.compile_sequences(seqs)
        reference = reference_index_features(strings, ["lower_it", "boil_water"])
        assert index == reference
        assert_compiled_rows(data, reference_emission_rows(reference, strings[0][0]))

    def test_training_label_set_first_appearance(self, mini_esds, mini_table):
        seqs = esd_training_sequences(esd_columns(mini_esds, mini_table), DISC)
        model = crf.train(seqs, DISC)
        assert model.labels == ("boil_water", "steep_tea", "drink_tea")
        assert model.disc is DISC

    def test_story_decode_sequence_aligns_with_mentions(
        self, mini_esds, mini_stories, mini_table
    ):
        story = mini_stories[0]
        mentions = story.script_mentions()
        model = crf.train(esd_training_sequences(esd_columns(mini_esds, mini_table), DISC), DISC)
        rows = story_decode_sequence(mention_columns(mentions, mini_table), model)
        assert rows.shape == (len(mentions), 5) and len(mentions) == 2
        assert rows[0, :3].tolist() == block_ids(model, ("boil", "water", "_"))
        assert rows[1, :3].tolist() == block_ids(model, ("steep", "tea", "_"))


class TestLabelMentions:
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)])
    def test_labels_follow_the_order_of_the_mentions_given(
        self, mini_esds, mini_stories, mini_table, order
    ):
        model = crf.train(esd_training_sequences(esd_columns(mini_esds, mini_table), DISC), DISC)
        story = mini_stories[1]
        mentions = [story.script_mentions()[i] for i in order]
        labels = label_mentions(model, mentions, mention_columns(mentions, mini_table))
        # the sequence is decoded in textual order whatever the order given
        assert labels == [m.gold_label for m in mentions]
        assert [m.lemma for m in mentions] == [("heat", "add", "drink")[i] for i in order]


# Decode rows must equal the rows reference_emission_rows builds from the string
# observations of the same mentions, for a model as trained, one without
# transition features and one read back from its file.
MODEL_FORMS = {
    "trained": lambda seqs: crf.train(seqs, DISC),
    "no_transitions": lambda seqs: crf.train(seqs, DISC, use_transitions=False),
    "reloaded": lambda seqs: crf.load_model(crf.save_model(crf.train(seqs, DISC))),
}

# Neither bin column (3 and 4) sees "low" in training; the lemma columns hold
# the texts of bin values.
ORACLE_TRAINING = [
    (
        [("boil", "water", "_", "high", "mid"), ("low", "mid", "high", "_", "_")],
        ["boil_water", "steep_tea"],
    ),
    (
        [("steep", "tea", "_", "mid", "high"), ("_", "low", "_", "high", "_")],
        ["steep_tea", "drink_tea"],
    ),
]

ORACLE_STORY = "\n".join(
    [
        "#doc oracle",
        "#scenario make_tea",
        "#kind story",
        tok(1, "Anna", "Anna", "NNP", 2, "nsubj", "c1"),
        tok(2, "boiled", "boil", "VBD", 0, "root", "_", "boil_water"),
        tok(3, "water", "water", "NN", 2, "dobj"),
        "",
        # no word of this mention has a vector
        tok(1, "She", "she", "PRP", 2, "nsubj", "c1"),
        tok(2, "lowed", "low", "VBD", 0, "root", "_", "steep_tea"),
        tok(3, "mid", "mid", "NN", 2, "dobj"),
        "",
        # drink bins to (low, mid); column 3 never saw low
        tok(1, "She", "she", "PRP", 2, "nsubj", "c1"),
        tok(2, "drank", "drink", "VBD", 0, "root", "_", "drink_tea"),
        tok(3, "high", "high", "NN", 2, "iobj"),
        "",
    ]
)


@pytest.fixture(scope="module")
def synthetic_cases(synthetic_esds, synthetic_stories, synthetic_table):
    """Per scenario: its training sequences and its stories' script mentions."""
    esds, stories = defaultdict(list), defaultdict(list)
    for doc in synthetic_esds:
        esds[doc.scenario].append(doc)
    for story in synthetic_stories:
        if story.script_mentions():
            stories[story.scenario].append(story.script_mentions())
    return [
        (esd_training_sequences(esd_columns(docs, synthetic_table), DISC), stories[scenario])
        for scenario, docs in esds.items()
    ]


class TestDecodeRowsMatchStringColumns:
    @pytest.mark.parametrize("form", MODEL_FORMS)
    def test_every_synthetic_mention(self, synthetic_cases, synthetic_table, form):
        decoded = 0
        for seqs, mention_lists in synthetic_cases:
            model = MODEL_FORMS[form](seqs)
            for mentions in mention_lists:
                obs = string_observations(mentions, synthetic_table, DISC)
                rows = story_decode_sequence(mention_columns(mentions, synthetic_table), model)
                assert rows.dtype == np.intp
                expected = reference_emission_rows(model.index, obs)
                np.testing.assert_array_equal(rows, expected)
                columns = mention_columns(mentions, synthetic_table)
                assert label_mentions(model, mentions, columns) == crf.viterbi(model, expected)[0]
                decoded += len(mentions)
        assert decoded == 157

    @pytest.mark.parametrize("form", MODEL_FORMS)
    def test_hand_built_cases(self, mini_table, form):
        model = MODEL_FORMS[form](coded(ORACLE_TRAINING))
        mentions = corpus.parse_corpus_file(ORACLE_STORY, kind="story")[0].script_mentions()
        obs = string_observations(mentions, mini_table, DISC)
        assert obs == [
            ("boil", "water", "_", "high", "mid"),
            ("low", "mid", "_", "_", "_"),
            ("drink", "_", "high", "low", "mid"),
        ]
        rows = story_decode_sequence(mention_columns(mentions, mini_table), model)
        expected = reference_emission_rows(model.index, obs)
        np.testing.assert_array_equal(rows, expected)
        assert rows[1].tolist() == block_ids(model, obs[1])
        assert rows[2, 3] == model.index.n_blocks
        columns = mention_columns(mentions, mini_table)
        assert label_mentions(model, mentions, columns) == crf.viterbi(model, expected)[0]

    def test_bins_at_the_epsilon_the_model_holds_at_each_decode(
        self, mini_esds, mini_stories, mini_table
    ):
        model = crf.train(esd_training_sequences(esd_columns(mini_esds, mini_table), DISC), DISC)
        mentions = mini_stories[1].script_mentions()
        first = story_decode_sequence(mention_columns(mentions, mini_table), model)
        np.testing.assert_array_equal(
            first, reference_emission_rows(model.index, string_observations(mentions, mini_table, DISC))
        )
        model.disc = wide = DiscretizationConfig(epsilon=0.3)
        second = story_decode_sequence(mention_columns(mentions, mini_table), model)
        np.testing.assert_array_equal(
            second,
            reference_emission_rows(model.index, string_observations(mentions, mini_table, wide)),
        )
        assert not np.array_equal(first, second)


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
    def test_weights(self):
        # tf counts all ESDs of a scenario as one document; each lemma here
        # occurs in one of the two scenarios, so its idf is ln 2
        stats = stats_fixture()
        a = stats["scen_a"]
        assert a.weights == {"pour": 5 * math.log(2), "water": 5 * math.log(2)}
        assert a.verb_lemmas == frozenset({"pour"})
        b = stats["scen_b"]
        assert b.weights == {"dig": math.log(2), "hole": math.log(2)}

    def test_verb_lemmas_include_non_script_eds(self, mini_esds):
        stats = build_scenario_stats(mini_esds)["make_tea"]
        assert "relax" in stats.verb_lemmas
        assert stats.verb_lemmas == frozenset({"boil", "steep", "drink", "heat", "add", "relax"})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_scenario_stats([])

    def test_scenario_without_tokens_warns(self, caplog):
        docs = [corpus.EsdDocument("esd_1", "quiet", (corpus.EventDescription(1, "wait", ()),))]
        with caplog.at_level(logging.WARNING):
            stats = build_scenario_stats(docs)
        assert stats["quiet"].verb_lemmas == frozenset()
        assert stats["quiet"].weights == {}
        assert caplog.messages == ["scenario 'quiet' has no tokens; statistics are empty"]


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

    @staticmethod
    def tune(table, train, dev, candidates):
        return tune_epsilon(esd_columns(train, table), esd_columns(dev, table), candidates)

    def measure(self, table, train, dev, eps):
        disc = DiscretizationConfig(epsilon=eps)
        seqs = esd_training_sequences(esd_columns(train, table), disc)
        model = crf.train(seqs, disc)
        hits = total = 0
        for obs, gold in training_strings(dev, table, disc):
            pred, _ = crf.viterbi(model, reference_emission_rows(model.index, obs))
            hits += sum(p == g for p, g in zip(pred, gold))
            total += len(gold)
        return hits / total

    def test_selects_the_only_separating_threshold(self):
        table, train, dev = self.build()
        assert self.tune(table, train, dev, DEFAULT_EPSILON_GRID) == 0.1
        # construction check: 0.1 is cleanly separable, everything else is not
        assert self.measure(table, train, dev, 0.1) == 1.0
        for eps in (0.01, 0.02, 0.05, 0.2):
            assert self.measure(table, train, dev, eps) <= 0.5

    def test_ties_break_toward_smallest_candidate(self):
        table, train, dev = self.build()
        # both candidates separate, the smaller one must win regardless of order
        assert self.tune(table, train, dev, [0.15, 0.1]) == 0.1
        assert self.tune(table, train, dev, [0.1, 0.15]) == 0.1

    def test_empty_candidates_rejected(self):
        table, train, dev = self.build()
        with pytest.raises(ValueError):
            self.tune(table, train, dev, [])
