"""Observation columns for the sequence labeler, plus scenario statistics.

Every labeled unit (a story verb mention, or one ED of an ESD) becomes a fixed
tuple of nominal columns::

    verb_lemma, direct_object_lemma, indirect_object_lemma, bin_1 .. bin_d

The object columns take the first dependent of the respective relation in
token order, ``_`` when there is none. The d bin columns discretize the unit's
mention vector; when no vector exists every bin column is ``_``. For mentions
the vector context is the nominal dependents; for EDs it is all head nouns.
One CRF per scenario is trained on these columns of its ESDs by fit_crf, the
one fitting path of the command line and the evaluation protocols. The model
records the bin threshold epsilon its sequences were made with, and
label_mentions bins a story's mentions at the model's own epsilon; epsilon
can be tuned on held-out ESDs.

Training and decoding build these columns in one function: the lemma
columns, and the bins of the units' vectors as integer codes from one call
(embeddings.bin_codes). Training names the codes, since crf.train reads
strings. Decoding turns the codes into CRF emission rows in one gather from the
model's block table, and looks up each lemma column.

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

import numpy as np

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
from .embeddings import (
    BIN_HIGH,
    BIN_LOW,
    BIN_MID,
    DiscretizationConfig,
    EmbeddingTable,
    bin_codes,
    mention_vector,
)

logger = logging.getLogger(__name__)

LabeledSequence = tuple[list[crf_mod.Observation], list[str]]

_LEMMA_COLUMNS = 3
# The value of a bin column by code: bin_codes gives 0, 1 and 2, and a unit
# without a vector takes _NO_VECTOR.
_BIN_VALUES = (BIN_LOW, BIN_MID, BIN_HIGH, ABSENT)
_NO_VECTOR = 3


def _object_columns(dependents: Sequence[tuple[str, str]]) -> tuple[str, str]:
    dobj = next((l for rel, l in dependents if rel in DOBJ_DEPRELS), ABSENT)
    iobj = next((l for rel, l in dependents if rel in IOBJ_DEPRELS), ABSENT)
    return dobj, iobj


def column_count(table: EmbeddingTable) -> int:
    """Columns of an observation: the three lemma columns, then one bin per
    dimension of `table`."""
    return _LEMMA_COLUMNS + table.dimension


def _unit_columns(
    units: Iterable[tuple[str, Sequence[tuple[str, str]], Iterable[str]]],
    table: EmbeddingTable,
    disc: DiscretizationConfig,
) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """The lemma columns and the (n, d) bin codes at `disc` of units given as
    (verb lemma, (deprel, lemma) dependents, vector context lemmas); a unit
    without a vector takes _NO_VECTOR in every bin."""
    lemmas, vectors, with_vector = [], [], []
    for t, (verb, dependents, context) in enumerate(units):
        lemmas.append((verb, *_object_columns(dependents)))
        vec = mention_vector(verb, context, table)
        if vec is not None:
            vectors.append(vec)
            with_vector.append(t)
    codes = np.full((len(lemmas), table.dimension), _NO_VECTOR)
    if vectors:
        codes[with_vector] = bin_codes(np.array(vectors), disc)
    return lemmas, codes


def _training_eds(doc: EsdDocument) -> list[EventDescription]:
    """The EDs of one ESD that a CRF trains on: its script EDs with a verb."""
    return [ed for ed in doc.script_eds() if ed.main_verb() is not None]


def has_training_eds(docs: Sequence[EsdDocument]) -> bool:
    """Whether one scenario's ESDs hold an ED that a CRF can train on. A
    scenario without one is warned about here, so ask once per scenario."""
    if any(map(_training_eds, docs)):
        return True
    logger.warning("scenario %r has no usable training EDs", docs[0].scenario)
    return False


def esd_training_sequences(
    docs: Sequence[EsdDocument], table: EmbeddingTable, disc: DiscretizationConfig
) -> list[LabeledSequence]:
    """One training sequence per ESD: its script EDs in order.

    Non-script EDs are excluded, and so are EDs without a verb (the corpus
    parser warns about those). ESDs contributing no usable ED are dropped.
    """
    sequences = []
    for doc in docs:
        eds = _training_eds(doc)
        if eds:
            units = [(ed.main_verb().lemma, ed.verb_dependents(), ed.head_nouns()) for ed in eds]
            lemmas, codes = _unit_columns(units, table, disc)
            bins = np.array(_BIN_VALUES, dtype=object)[codes].tolist()
            sequences.append(
                ([l + tuple(b) for l, b in zip(lemmas, bins)], [ed.event_type for ed in eds])
            )
    return sequences


def story_decode_sequence(
    mentions: Sequence[VerbMention], table: EmbeddingTable, model: crf_mod.CrfModel
) -> np.ndarray:
    """The (T, C) emission-block rows of the given mentions of one story, in
    textual order: the rows of their observation columns, with the vectors
    binned at the model's epsilon."""
    index = model.index
    bins = model.block_table(_BIN_VALUES)[_LEMMA_COLUMNS:]
    if len(bins) != table.dimension:
        raise ValueError(
            f"{table.dimension}-d vectors give {column_count(table)} observation columns,"
            f" model expects {index.n_columns}"
        )
    unseen = index.n_blocks
    ordered = sorted(mentions, key=lambda m: (m.sentence, m.token_index))
    units = [(m.lemma, m.dependents, [l for _, l in m.dependents]) for m in ordered]
    lemmas, codes = _unit_columns(units, table, model.disc)
    lemma_rows = [[c.get(v, unseen) for c, v in zip(index.columns, l)] for l in lemmas]
    rows = np.empty((len(ordered), index.n_columns), dtype=np.intp)
    rows[:, :_LEMMA_COLUMNS] = np.reshape(lemma_rows, (len(ordered), _LEMMA_COLUMNS))
    # bins[j, codes[t, j]] for every cell, as one gather from the flat table
    rows[:, _LEMMA_COLUMNS:] = bins.ravel()[codes + len(_BIN_VALUES) * np.arange(table.dimension)]
    return rows


def training_label_set(sequences: Sequence[LabeledSequence]) -> tuple[str, ...]:
    """Distinct labels of the training sequences in first-appearance order."""
    seen: dict[str, None] = {}
    for _, labels in sequences:
        for label in labels:
            seen.setdefault(label)
    return tuple(seen)


def fit_crf(
    sequences: Sequence[LabeledSequence],
    disc: DiscretizationConfig,
    train_config: crf_mod.TrainConfig | None = None,
    use_transitions: bool = True,
) -> crf_mod.CrfModel:
    """The CRF of one scenario's training sequences, which were binned at
    `disc`: labels in first-appearance order, and `disc` recorded in the
    model so that decoding bins the same way."""
    model = crf_mod.train(sequences, training_label_set(sequences), train_config, use_transitions)
    model.disc = disc
    return model


def label_mentions(
    model: crf_mod.CrfModel, mentions: Sequence[VerbMention], table: EmbeddingTable
) -> list[str]:
    """Viterbi event types of the given mentions of one story, one per mention
    in the order given; the sequence is binned at the model's epsilon and
    decoded in textual order."""
    decoded = crf_mod.viterbi(model, story_decode_sequence(mentions, table, model))[0]
    label_of = dict(zip(sorted((m.sentence, m.token_index) for m in mentions), decoded))
    return [label_of[m.sentence, m.token_index] for m in mentions]


def tune_epsilon(
    train_docs: Sequence[EsdDocument],
    dev_docs: Sequence[EsdDocument],
    candidates: Sequence[float],
    table: EmbeddingTable,
    train_config: crf_mod.TrainConfig | None = None,
    use_transitions: bool = True,
) -> float | None:
    """Pick the discretization threshold by held-out label accuracy.

    For every distinct candidate epsilon a fresh sequence model is trained on
    `train_docs` (ESD documents) and decoded on `dev_docs`; the candidate with
    the highest micro accuracy over dev event labels wins, ties going to the
    smallest epsilon. None when the training or the development ESDs hold no
    ED to train on.
    """
    if not candidates:
        raise ValueError("no epsilon candidates given")
    if not (any(map(_training_eds, train_docs)) and any(map(_training_eds, dev_docs))):
        return None
    best_eps: float | None = None
    best_acc = -1.0
    for eps in sorted(set(candidates)):  # a repeat would score the same
        disc = DiscretizationConfig(epsilon=eps)
        model = fit_crf(
            esd_training_sequences(train_docs, table, disc), disc, train_config, use_transitions
        )
        correct = 0
        total = 0
        for obs, gold in esd_training_sequences(dev_docs, table, disc):
            pred, _ = crf_mod.viterbi(model, obs)
            correct += sum(1 for p, g in zip(pred, gold) if p == g)
            total += len(gold)
        acc = correct / total
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
    weights maps every token lemma of the scenario to tf * ln(N / df): tf
    counts the lemma treating all ESDs of the scenario as one document, df
    the scenarios whose ESDs hold it, N the scenarios of the set.
    """

    verb_lemmas: frozenset[str]
    weights: Mapping[str, float]


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
            verb_lemmas=frozenset(verbs[scenario]),
            weights={lemma: c * math.log(n / df[lemma]) for lemma, c in counts.items()},
        )
    return stats


def tfidf(lemmas: Iterable[str], stats: ScenarioStats) -> float:
    """Sum of the scenario's weights of `lemmas`, in the order given; a lemma
    the scenario's ESDs do not hold contributes 0."""
    score = 0.0
    for lemma in lemmas:  # not sum(): from Python 3.12 it compensates rounding
        score += stats.weights.get(lemma, 0.0)
    return score


def mention_tfidf(mention: VerbMention, stats: ScenarioStats) -> float:
    """tf-idf summed over a mention's verb lemma and dependent lemmas."""
    return tfidf((mention.lemma,) + tuple(l for _, l in mention.dependents), stats)
