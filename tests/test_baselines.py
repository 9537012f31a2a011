"""Direct ESD-matching systems: lemma gate, Jaccard overlap, cosine match."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_text, tok
from scriptmap.baselines import (
    EdIndex,
    build_ed_index,
    cosine_classify,
    jaccard,
    lemma_identify,
    overlap_classify,
)
from scriptmap.corpus import (
    EVENT,
    NON_SCRIPT,
    EsdDocument,
    EventDescription,
    Token,
    VerbMention,
    parse_corpus_file,
)
from scriptmap.embeddings import EmbeddingTable, cosine, mention_vector
from scriptmap.features import build_scenario_stats, esd_columns, mention_columns


def vector_index(docs, table) -> EdIndex:
    """The ED index of `docs` with the ED vectors that the cosine system reads."""
    return build_ed_index(docs, esd_columns(docs, table))


def classify_by_cosine(mention, index, table) -> str:
    """cosine_classify of a story of one mention, featurized as the cosine
    system featurizes a story's mentions."""
    (label,) = cosine_classify([mention], index, mention_columns([mention], table))
    return label


def classify_by_overlap(mention, index) -> str:
    """overlap_classify of a story of one mention."""
    (label,) = overlap_classify([mention], index)
    return label


def distinct_vectors(eds) -> list:
    """The reference EDs that hold each distinct vector first, in order."""
    first = {}
    for e in eds:
        if e.vector is not None:
            first.setdefault(e.vector.tobytes(), e)
    return list(first.values())


def distinct_lemma_sets(eds) -> dict:
    """Each distinct lemma set of the reference EDs, with its first ED's type."""
    first = {}
    for e in eds:
        first.setdefault(e.lemmas, e.event_type)
    return first


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


class TestEdColumns:
    def test_columns(self, mini_esds):
        index = build_ed_index(mini_esds)
        # script EDs only, corpus order across documents; the five lemma sets
        # are distinct, so each is kept with its own ED's type
        assert index.labels == ("boil_water", "steep_tea", "drink_tea")
        assert index.lemma_types == (
            "boil_water",
            "steep_tea",
            "drink_tea",
            "boil_water",
            "steep_tea",
        )
        assert len(index.lemmas) == len(index.lemma_types) == len(index.sizes)
        assert index.lemmas[1] == frozenset({"steep", "the", "tea"})
        assert index.sizes.tolist() == [len(lemmas) for lemmas in index.lemmas]
        assert index.vectors.shape[0] == 0

    def test_vectors_only_with_table(self, mini_esds, mini_table):
        index = vector_index(mini_esds, mini_table)
        assert index.vector_types[:2] == index.lemma_types[:2]
        assert np.allclose(index.vectors[0], [0.8 / 3, 0.0])
        assert np.allclose(index.vectors[1], [0.0, 0.8 / 3])


class TestEdIndex:
    def test_postings_name_the_eds_of_each_lemma_in_order(self, mini_esds):
        index = build_ed_index(mini_esds)
        assert index.postings["tea"].tolist() == [1, 2]
        assert index.postings["water"].tolist() == [0, 3]
        assert index.postings["leaf"].tolist() == [4]
        assert "relax" not in index.postings  # a non-script ED
        for lemma, positions in index.postings.items():
            assert positions.tolist() == [
                i for i, lemmas in enumerate(index.lemmas) if lemma in lemmas
            ]

    def test_vector_rows_are_the_ed_vectors(self, mini_esds, mini_table):
        index = vector_index(mini_esds, mini_table)
        with_vector = distinct_vectors(reference_eds(mini_esds, mini_table))
        assert index.vectors.shape == (len(with_vector), 2)
        assert index.vectors.flags.c_contiguous
        assert index.vector_types == tuple(e.event_type for e in with_vector)
        for row, norm, ed in zip(index.vectors, index.norms, with_vector):
            assert row.tobytes() == ed.vector.tobytes()
            assert norm.tobytes() == np.linalg.norm(ed.vector).tobytes()

    def test_no_vectors_without_a_table(self, mini_esds):
        index = build_ed_index(mini_esds)
        assert index.vectors.shape[0] == 0 and index.norms.shape == (0,)
        assert index.vector_types == ()


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
        got = classify_by_overlap(mention("boil", "anna", "water"), entries)
        assert got == "boil_water"

    def test_zero_overlap_takes_first_ed(self, mini_esds):
        entries = build_ed_index(mini_esds)
        assert classify_by_overlap(mention("want", "she"), entries) == "boil_water"

    def test_tie_breaks_toward_earliest_ed(self, mini_esds):
        entries = build_ed_index(mini_esds)
        # 1/3 against both the first and the third ED
        assert classify_by_overlap(mention("boil", "drink"), entries) == "boil_water"

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
            classify_by_overlap(mention("relax"), entries)


class TestCosineClassify:
    def test_diverges_from_overlap_on_shared_nouns(self, mini_esds, mini_table):
        entries = vector_index(mini_esds, mini_table)
        m = mention("tea")
        # vector (0, 0.2) aligns with the steeping ED; raw lemma overlap
        # prefers the shorter drinking ED
        assert classify_by_cosine(m, entries, mini_table) == "steep_tea"
        assert classify_by_overlap(m, entries) == "drink_tea"

    def test_matches_direction_of_mention_vector(self, mini_esds, mini_table):
        entries = vector_index(mini_esds, mini_table)
        assert classify_by_cosine(mention("drink"), entries, mini_table) == "drink_tea"
        assert classify_by_cosine(mention("boil", "water"), entries, mini_table) == "boil_water"

    def test_vectorless_mention_falls_back_to_overlap(self, mini_esds, mini_table):
        entries = vector_index(mini_esds, mini_table)
        m = mention("zzz")
        assert classify_by_cosine(m, entries, mini_table) == classify_by_overlap(m, entries)

    def test_no_usable_ed_vectors_falls_back_to_overlap(self, mini_esds, mini_table):
        entries = build_ed_index(mini_esds)  # indexed without a table
        m = mention("boil", "water")
        assert classify_by_cosine(m, entries, mini_table) == classify_by_overlap(m, entries)

    def test_scenario_without_script_eds_rejected(self, mini_table):
        index = vector_index([EsdDocument("esd", "scenario", ())], mini_table)
        with pytest.raises(ValueError, match="^no script EDs to match against$"):
            classify_by_cosine(mention("boil"), index, mini_table)

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
        table = load_text("2 2\nride 0.5 0.1\nbus 0.2 0.4\n")
        index = vector_index(parse_corpus_file(text, kind="esd"), table)
        assert index.vector_types == ()  # no verb, so no ED vector
        assert classify_by_cosine(mention("ride", "bus"), index, table) == "board_bus"


# The pairwise classifiers and the scalar cosine the index replaced, kept as
# the reference the index-based classifiers must agree with. They match
# against EDs featurized here from the ESDs, not read from the index.


class RefEd(NamedTuple):
    event_type: str
    lemmas: frozenset[str]
    vector: np.ndarray | None


def reference_eds(docs, table=None) -> list[RefEd]:
    """The script EDs of `docs` in corpus order: event type, token lemmas and,
    with a table, the vector of the main verb and head nouns (or None)."""
    eds = []
    for doc in docs:
        for ed in doc.script_eds():
            verb = ed.main_verb()
            vector = None
            if table is not None and verb is not None:
                vector = mention_vector(verb.lemma, ed.head_nouns(), table)
            eds.append(RefEd(ed.event_type, frozenset(t.lemma for t in ed.tokens), vector))
    return eds


def reference_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero vectors compare as 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv))))


def reference_overlap_classify(mention, entries) -> str:
    """Event type of the ED with the highest lemma Jaccard overlap.

    Ties break toward the earliest ED in corpus order, so a mention with zero
    overlap everywhere gets the first ED's type.
    """
    if not entries:
        raise ValueError("no script EDs to match against")
    mention_lemmas = mention.lemma_set()
    best = entries[0]
    best_score = -1.0
    for entry in entries:
        score = jaccard(mention_lemmas, entry.lemmas)
        if score > best_score:
            best = entry
            best_score = score
    return best.event_type


def reference_cosine_classify(mention, entries, table) -> str:
    """Event type of the ED whose vector is most cosine-similar.

    EDs without vectors are skipped; a mention without a vector, or a
    scenario without an ED vector, falls back to lemma overlap. Ties break
    toward the earliest usable ED.
    """
    if not entries:
        raise ValueError("no script EDs to match against")
    vec = mention_vector(mention.lemma, [l for _, l in mention.dependents], table)
    usable = [e for e in entries if e.vector is not None]
    if vec is None or not usable:
        return reference_overlap_classify(mention, entries)
    best = usable[0]
    best_score = -np.inf
    for entry in usable:
        score = reference_cosine(vec, entry.vector)
        if score > best_score:
            best = entry
            best_score = score
    return best.event_type


VERBS = ("v0", "v1", "v2", "v3", "v4")
NOUNS = ("a", "b", "c", "d")
TYPES = ("t0", "t1", "t2")


@st.composite
def vector_tables(draw):
    """A table over VERBS and NOUNS whose vectors repeat, sit one float step
    from another, are zero or are missing."""
    dim = draw(st.integers(1, 4))
    values = st.floats(-4.0, 4.0, allow_nan=False)
    vectors: dict[str, np.ndarray] = {}
    for word in VERBS + NOUNS:
        kind = draw(st.sampled_from(["fresh", "repeat", "step", "zero", "missing"]))
        if kind == "missing":
            continue
        earlier = list(vectors.values())
        if kind == "zero":
            vec = np.zeros(dim)
        elif kind == "fresh" or not earlier:
            vec = np.array(draw(st.lists(values, min_size=dim, max_size=dim)))
        else:
            vec = draw(st.sampled_from(earlier)).copy()
            if kind == "step":
                i = draw(st.integers(0, dim - 1))
                vec[i] = np.nextafter(vec[i], draw(st.sampled_from([-np.inf, np.inf])))
        vectors[word] = vec
    return EmbeddingTable(dimension=dim, vectors=vectors)


@st.composite
def ed_documents(draw):
    """One scenario's ESD: EDs with a verb, or none, and determiner tokens
    whose lemmas add to the ED's lemma set but not to its vector."""
    eds = []
    for i in range(draw(st.integers(1, 8))):
        tokens = []
        verb = draw(st.sampled_from(VERBS + (None,)))
        if verb is not None:
            tokens.append(Token(1, verb, verb, "VB", 0, "root"))
        for noun in draw(st.lists(st.sampled_from(NOUNS + VERBS), max_size=3)):
            tokens.append(Token(len(tokens) + 1, noun, noun, "DT", 1, "det"))
        if not tokens:
            tokens.append(Token(1, "the", "the", "DT", 0, "root"))
        eds.append(EventDescription(i + 1, draw(st.sampled_from(TYPES)), tuple(tokens)))
    return [EsdDocument("esd", "scenario", tuple(eds))]


class TestAgreesWithThePairwiseLoops:
    @given(
        vector_tables(),
        ed_documents(),
        st.sampled_from(VERBS + NOUNS + ("zzz",)),
        st.lists(st.sampled_from(NOUNS + VERBS + ("yyy",)), max_size=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_event_type_as_the_reference(self, table, docs, lemma, context):
        m = mention(lemma, *context)
        plain, with_vectors = build_ed_index(docs), vector_index(docs, table)
        eds = reference_eds(docs, table)
        lemma_sets = distinct_lemma_sets(eds)
        for index in (plain, with_vectors):
            assert index.labels == tuple(dict.fromkeys(e.event_type for e in eds))
            assert index.lemmas == tuple(lemma_sets)
            assert index.lemma_types == tuple(lemma_sets.values())
        with_vector = distinct_vectors(eds)
        assert with_vectors.vector_types == tuple(e.event_type for e in with_vector)
        assert [row.tobytes() for row in with_vectors.vectors] == [
            e.vector.tobytes() for e in with_vector
        ]
        assert classify_by_overlap(m, plain) == reference_overlap_classify(m, eds)
        assert classify_by_cosine(m, with_vectors, table) == reference_cosine_classify(
            m, eds, table
        )

    def test_exact_ties_take_the_earliest_ed(self):
        table = EmbeddingTable(2, {"v0": np.array([1.0, 2.0]), "v1": np.array([1.0, 2.0]),
                                   "v2": np.array([2.0, 4.0])})
        eds = tuple(
            EventDescription(i + 1, f"t{i}", (Token(1, verb, verb, "VB", 0, "root"),))
            for i, verb in enumerate(["v2", "v0", "v1"])
        )
        docs = [EsdDocument("esd", "scenario", eds)]
        index = vector_index(docs, table)
        # t1 and t2 hold the same vector, an exact tie, kept once as t1's
        assert [row.tolist() for row in index.vectors] == [[2.0, 4.0], [1.0, 2.0]]
        assert index.vector_types == ("t0", "t1")
        for m in [mention("v0"), mention("v1", "v0"), mention("v2")]:
            got = classify_by_cosine(m, index, table)
            assert got == reference_cosine_classify(m, reference_eds(docs, table), table)
            assert got != "t2"  # the later of the tied EDs never wins

    @given(
        st.integers(1, 12),
        st.integers(1, 40),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_scores_are_the_scalar_scores(self, rows, dim, scale, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, dim)) * scale
        v = rng.normal(size=dim) * scale
        # rows along v score 1 or -1 but for rounding, which the rule clips
        parallel = rng.random(rows) < 0.3
        matrix[parallel] = np.outer(rng.choice([-3.0, -1.0, 0.1, 1.0, 7.0], parallel.sum()), v)
        matrix[rng.random(rows) < 0.2] = 0.0
        norms = np.sqrt(np.vecdot(matrix, matrix))
        want = [reference_cosine(v, row) for row in matrix]
        assert cosine(matrix, v, norms).tobytes() == np.array(want).tobytes()


@st.composite
def stories(draw):
    """1-6 mentions of one story, with and without vectors in the table."""
    lemmas = st.sampled_from(VERBS + NOUNS + ("zzz",))
    context = st.lists(st.sampled_from(NOUNS + VERBS + ("yyy",)), max_size=3)
    return [mention(draw(lemmas), *draw(context)) for _ in range(draw(st.integers(1, 6)))]


class TestStoriesOverDistinctEds:
    """A story's mentions, labeled at once over the distinct EDs, get the
    labels the pairwise loops give each mention alone."""

    def test_eds_sharing_a_lemma_set_or_a_vector_take_the_earliest_type(self):
        table = EmbeddingTable(2, {"boil": np.array([1.0, 0.5]), "heat": np.array([1.0, 0.5]),
                                   "drink": np.array([0.0, 1.0]), "water": np.array([0.5, 0.5])})

        def ed(i, event_type, verb, *nouns):
            tokens = [Token(1, verb, verb, "VB", 0, "root")]
            tokens += [Token(j + 2, n, n, "NN", 1, "dobj") for j, n in enumerate(nouns)]
            return EventDescription(i, event_type, tuple(tokens))

        # the second ED repeats the first one's lemma set and vector, the
        # fourth repeats the third one's vector under another lemma set
        docs = [EsdDocument("esd", "scenario", (
            ed(1, "drink_tea", "drink"), ed(2, "boil_water", "boil", "water"),
            ed(3, "heat_water", "boil", "water"), ed(4, "pour", "heat", "water"),
        ))]
        index, eds = vector_index(docs, table), reference_eds(docs, table)
        assert index.lemma_types == ("drink_tea", "boil_water", "pour")
        assert index.vector_types == ("drink_tea", "boil_water")
        story = [mention("boil", "water"), mention("heat", "water"), mention("water"),
                 mention("heat")]
        assert overlap_classify(story, index) == [
            reference_overlap_classify(m, eds) for m in story
        ] == ["boil_water", "pour", "boil_water", "pour"]
        assert cosine_classify(story, index, mention_columns(story, table)) == [
            reference_cosine_classify(m, eds, table) for m in story
        ] == ["boil_water"] * 4

    def test_a_story_mixing_mentions_with_and_without_vectors(self, mini_esds, mini_table):
        index, eds = vector_index(mini_esds, mini_table), reference_eds(mini_esds, mini_table)
        story = [mention("zzz"), mention("tea"), mention("sip", "she"), mention("drink"),
                 mention("yyy", "water")]
        columns = mention_columns(story, mini_table)
        assert columns.has_vector.tolist() == [False, True, False, True, True]
        got = cosine_classify(story, index, columns)
        assert got == [reference_cosine_classify(m, eds, mini_table) for m in story]
        assert got[1] == "steep_tea" and got[0] == classify_by_overlap(story[0], index)

    def test_a_mention_that_shares_no_lemma_takes_the_first_eds_type(self, mini_esds):
        index, eds = build_ed_index(mini_esds), reference_eds(mini_esds)
        story = [mention("drink", "tea"), mention("want", "she"), mention("leaf")]
        assert not story[1].lemma_set() & set(index.postings)
        got = overlap_classify(story, index)
        assert got == [reference_overlap_classify(m, eds) for m in story]
        assert got == ["drink_tea", eds[0].event_type, "steep_tea"]

    def test_a_story_without_mentions_gets_no_labels(self, mini_esds, mini_table):
        index = vector_index(mini_esds, mini_table)
        assert overlap_classify([], index) == []
        assert cosine_classify([], index, mention_columns([], mini_table)) == []

    @given(vector_tables(), ed_documents(), stories())
    @settings(max_examples=300, deadline=None)
    def test_story_labels_are_the_per_mention_labels(self, table, docs, story):
        plain, with_vectors = build_ed_index(docs), vector_index(docs, table)
        eds = reference_eds(docs, table)
        want_overlap = [reference_overlap_classify(m, eds) for m in story]
        assert overlap_classify(story, plain) == want_overlap
        assert overlap_classify(story, with_vectors) == want_overlap
        assert cosine_classify(story, with_vectors, mention_columns(story, table)) == [
            reference_cosine_classify(m, eds, table) for m in story
        ]

    @given(
        st.integers(1, 12),
        st.integers(1, 8),
        st.integers(1, 40),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cosine_of_a_2d_v_is_one_1d_call_per_row(self, rows, mentions, dim, scale, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, dim)) * scale
        v = rng.normal(size=(mentions, dim)) * scale
        matrix[rng.random(rows) < 0.3] = v[0] * rng.choice([-3.0, 0.1, 7.0])
        matrix[rng.random(rows) < 0.2] = 0.0
        v[rng.random(mentions) < 0.2] = 0.0
        norms = np.sqrt(np.vecdot(matrix, matrix))
        got = cosine(matrix, v, norms)
        assert got.shape == (mentions, rows)
        for i in range(mentions):
            assert got[i].tobytes() == cosine(matrix, v[i], norms).tobytes()
            assert got[i].tobytes() == cosine(matrix, v[i]).tobytes()
