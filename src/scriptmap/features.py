"""Observation columns for the sequence labeler, plus scenario statistics.

Every labeled unit (a story verb mention, or one ED of an ESD) becomes a fixed
tuple of nominal columns::

    verb_lemma, direct_object_lemma, indirect_object_lemma, bin_1 .. bin_d

The object columns take the first dependent of the respective relation in
token order, ``_`` when there is none. The d bin columns discretize the unit's
mention vector; when no vector exists every bin column is ``_``. For mentions
the vector context is the nominal dependents; for EDs it is all head nouns.
One CRF per scenario is trained on these columns of its ESDs, and the bin
threshold epsilon can be tuned on held-out ESDs.

Scenario statistics support the identifier's script features: the verb-lemma
inventory of a scenario's ESDs and tf-idf weights that treat all ESDs of one
scenario as a single document.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import crf as crf_mod
from .corpus import (
    ABSENT,
    DOBJ_DEPRELS,
    IOBJ_DEPRELS,
    EsdDocument,
    EventDescription,
    VerbMention,
    is_verbal,
)
from .embeddings import DiscretizationConfig, EmbeddingTable, discretize, mention_vector

logger = logging.getLogger(__name__)

Observation = tuple[str, ...]
LabeledSequence = tuple[list[Observation], list[str]]


def _object_columns(dependents: Sequence[tuple[str, str]]) -> tuple[str, str]:
    dobj = next((l for rel, l in dependents if rel in DOBJ_DEPRELS), ABSENT)
    iobj = next((l for rel, l in dependents if rel in IOBJ_DEPRELS), ABSENT)
    return dobj, iobj


def _with_bins(
    base: tuple[str, ...],
    verb_lemma: str,
    context: Iterable[str],
    table: EmbeddingTable,
    disc: DiscretizationConfig,
) -> Observation:
    vec = mention_vector(verb_lemma, context, table)
    if vec is None:
        return base + (ABSENT,) * table.dimension
    return base + discretize(vec, disc)


def observe_mention(
    mention: VerbMention, table: EmbeddingTable, disc: DiscretizationConfig
) -> Observation:
    """Observation columns for one story verb mention."""
    dobj, iobj = _object_columns(mention.dependents)
    context = [l for _, l in mention.dependents]
    return _with_bins((mention.lemma, dobj, iobj), mention.lemma, context, table, disc)


def observe_ed(
    ed: EventDescription, table: EmbeddingTable, disc: DiscretizationConfig
) -> Observation:
    """Observation columns for one event description.

    The bin context is the ED's head nouns. Raises ValueError for EDs without
    a verbal token; sequence builders exclude those upstream.
    """
    verb = ed.main_verb()
    if verb is None:
        raise ValueError(f"event description {ed.index} has no verbal token")
    dobj, iobj = _object_columns(ed.verb_dependents())
    return _with_bins((verb.lemma, dobj, iobj), verb.lemma, ed.head_nouns(), table, disc)


def esd_training_sequences(
    docs: Sequence[EsdDocument], table: EmbeddingTable, disc: DiscretizationConfig
) -> list[LabeledSequence]:
    """One training sequence per ESD: its script EDs in order.

    Non-script EDs are excluded, and so are EDs without a verb (the corpus
    parser warns about those). ESDs contributing no usable ED are dropped.
    """
    sequences = []
    for doc in docs:
        eds = [ed for ed in doc.script_eds() if ed.main_verb() is not None]
        if eds:
            sequences.append(
                ([observe_ed(ed, table, disc) for ed in eds], [ed.event_type for ed in eds])
            )
    return sequences


def story_decode_sequence(
    mentions: Sequence[VerbMention], table: EmbeddingTable, disc: DiscretizationConfig
) -> list[Observation]:
    """Observations for the given mentions of one story, textual order."""
    ordered = sorted(mentions, key=lambda m: (m.sentence, m.token_index))
    return [observe_mention(m, table, disc) for m in ordered]


def training_label_set(sequences: Sequence[LabeledSequence]) -> tuple[str, ...]:
    """Distinct labels of the training sequences in first-appearance order."""
    seen: dict[str, None] = {}
    for _, labels in sequences:
        for label in labels:
            seen.setdefault(label)
    return tuple(seen)


def train_esd_crf(
    docs: Sequence[EsdDocument],
    table: EmbeddingTable,
    disc: DiscretizationConfig,
    train_config: crf_mod.TrainConfig | None = None,
    use_transitions: bool = True,
) -> crf_mod.CrfModel | None:
    """Sequence model trained on one scenario's ESDs, labels in first-appearance
    order; None, with a warning, when no ED is usable for training."""
    sequences = esd_training_sequences(docs, table, disc)
    if not sequences:
        logger.warning("scenario %r has no usable training EDs", docs[0].scenario)
        return None
    return crf_mod.train(
        sequences, training_label_set(sequences), train_config, use_transitions=use_transitions
    )


def label_mentions(
    model: crf_mod.CrfModel,
    mentions: Sequence[VerbMention],
    table: EmbeddingTable,
    disc: DiscretizationConfig,
) -> list[str]:
    """Viterbi event types of the given mentions of one story, one per mention
    in the order given; the sequence is decoded in textual order."""
    decoded = crf_mod.viterbi(model, story_decode_sequence(mentions, table, disc))[0]
    label_of = dict(zip(sorted((m.sentence, m.token_index) for m in mentions), decoded))
    return [label_of[m.sentence, m.token_index] for m in mentions]


def tune_epsilon(
    train_docs: Sequence[EsdDocument],
    dev_docs: Sequence[EsdDocument],
    candidates: Sequence[float],
    table: EmbeddingTable,
    train_config: crf_mod.TrainConfig | None = None,
    use_transitions: bool = True,
) -> float:
    """Pick the discretization threshold by held-out label accuracy.

    For every candidate epsilon a fresh sequence model is trained on
    `train_docs` (ESD documents) and decoded on `dev_docs`; the candidate with
    the highest micro accuracy over dev event labels wins, ties going to the
    smallest epsilon.
    """
    if not candidates:
        raise ValueError("no epsilon candidates given")
    if not train_docs:
        raise ValueError("no training documents for epsilon tuning")
    if not dev_docs:
        raise ValueError("no development documents for epsilon tuning")
    best_eps: float | None = None
    best_acc = -1.0
    for eps in sorted(candidates):
        disc = DiscretizationConfig(epsilon=eps)
        model = train_esd_crf(train_docs, table, disc, train_config, use_transitions)
        dev_seqs = esd_training_sequences(dev_docs, table, disc)
        if model is None or not dev_seqs:
            raise ValueError("epsilon tuning requires non-empty featurized sequences")
        correct = 0
        total = 0
        for obs, gold in dev_seqs:
            pred, _ = crf_mod.viterbi(model, obs)
            correct += sum(1 for p, g in zip(pred, gold) if p == g)
            total += len(gold)
        acc = correct / total if total else 0.0
        logger.info("epsilon %g: dev accuracy %.4f (%d labels)", eps, acc, total)
        if acc > best_acc:
            best_acc = acc
            best_eps = eps
    assert best_eps is not None
    return best_eps


@dataclass(frozen=True)
class ScenarioStats:
    """Lexical statistics of one scenario's ESDs.

    verb_lemmas holds the lemmas of verbal tokens in the scenario's EDs.
    term_frequencies counts every token lemma, treating all ESDs of the
    scenario as one document. document_frequencies and n_scenarios are shared
    across the scenario set and feed the idf term.
    """

    scenario: str
    verb_lemmas: frozenset[str]
    term_frequencies: Mapping[str, int]
    document_frequencies: Mapping[str, int]
    n_scenarios: int


def build_scenario_stats(docs: Sequence[EsdDocument]) -> dict[str, ScenarioStats]:
    """Per-scenario statistics over a set of ESD documents."""
    if not docs:
        raise ValueError("no ESD documents to build scenario statistics from")
    tf: dict[str, Counter] = {}
    verbs: dict[str, set[str]] = {}
    for doc in docs:
        counts = tf.setdefault(doc.scenario, Counter())
        vset = verbs.setdefault(doc.scenario, set())
        for ed in doc.eds:
            for tok in ed.tokens:
                counts[tok.lemma] += 1
                if is_verbal(tok.pos):
                    vset.add(tok.lemma)
    df: Counter = Counter()
    for counts in tf.values():
        for lemma in counts:
            df[lemma] += 1
    n = len(tf)
    stats = {}
    for scenario, counts in tf.items():
        if not counts:
            logger.warning("scenario %r has no tokens; statistics are empty", scenario)
        stats[scenario] = ScenarioStats(
            scenario=scenario,
            verb_lemmas=frozenset(verbs[scenario]),
            term_frequencies=dict(counts),
            document_frequencies=df,
            n_scenarios=n,
        )
    return stats


def tfidf(lemmas: Iterable[str], stats: ScenarioStats) -> float:
    """Sum of tf * ln(N / df) over `lemmas` for this scenario's document.

    Lemmas unseen across all scenarios (df = 0) contribute 0.
    """
    score = 0.0
    for lemma in lemmas:
        df = stats.document_frequencies.get(lemma, 0)
        if df == 0:
            continue
        tf = stats.term_frequencies.get(lemma, 0)
        if tf == 0:
            continue
        score += tf * math.log(stats.n_scenarios / df)
    return score


def mention_tfidf(mention: VerbMention, stats: ScenarioStats) -> float:
    """tf-idf summed over a mention's verb lemma and dependent lemmas."""
    return tfidf((mention.lemma,) + tuple(l for _, l in mention.dependents), stats)
