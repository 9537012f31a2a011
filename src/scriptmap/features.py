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

Units are featurized once, without epsilon: the lemma columns, the stacked
vectors and a has-vector mask (UnitColumns), by esd_columns for a scenario's
training EDs and by mention_columns for a story's mentions. The cosine
baseline and the CRFs read the same featurization. A given epsilon bins the
vectors to integer codes in one call (embeddings.bin_codes); training codes
the lemma columns too and hands crf.train coded columns, and decoding turns
the codes into CRF emission rows in one gather from the model's block table,
looking up each lemma column. A new epsilon codes the columns again and
featurizes nothing again.

Scenario statistics support the identifier's script features: the verb-lemma
inventory of a scenario's ESDs and tf-idf weights that treat all ESDs of one
scenario as a single document.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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

_LEMMA_COLUMNS = 3
# The value of a bin column by code: bin_codes gives 0, 1 and 2, and a unit
# without a vector takes _NO_VECTOR. Training codes the lemma columns in a
# vocabulary that starts with these values, so a lemma spelled like one of
# them shares its code.
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


class UnitColumns(NamedTuple):
    """The epsilon-free columns of a list of units, in order: each unit's
    lemma columns, the vectors of the units that have one as the rows of one
    matrix, and which units have one. The training EDs of ESDs (esd_columns)
    also carry their event types and the number of them in each ESD, 0 for
    an ESD without one."""

    lemmas: list[tuple[str, str, str]]
    vectors: np.ndarray  # (V, d)
    has_vector: np.ndarray  # (n,) bool
    event_types: tuple[str, ...] = ()
    lengths: tuple[int, ...] = ()

    def esds(self, positions: Sequence[int]) -> UnitColumns:
        """The columns of the ESDs at `positions` among those esd_columns was
        given, in that order, taken from these rows without featurizing."""
        ends = np.cumsum(self.lengths, dtype=np.intp)
        units = np.array(
            [u for p in positions for u in range(ends[p] - self.lengths[p], ends[p])],
            dtype=np.intp,
        )
        has_vector = self.has_vector[units]
        vector_rows = (np.cumsum(self.has_vector) - 1)[units[has_vector]]
        return UnitColumns(
            [self.lemmas[u] for u in units.tolist()],
            self.vectors[vector_rows],
            has_vector,
            tuple(self.event_types[u] for u in units.tolist()),
            tuple(self.lengths[p] for p in positions),
        )

    def bins(self, disc: DiscretizationConfig) -> np.ndarray:
        """The (n, d) bin codes at `disc`; a unit without a vector takes
        _NO_VECTOR in every bin."""
        codes = np.full((len(self.lemmas), self.vectors.shape[1]), _NO_VECTOR)
        codes[self.has_vector] = bin_codes(self.vectors, disc)
        return codes


def _unit_columns(
    units: Iterable[tuple[str, Sequence[tuple[str, str]], Iterable[str]]],
    table: EmbeddingTable,
) -> UnitColumns:
    """The columns of units given as (verb lemma, (deprel, lemma) dependents,
    vector context lemmas), with one mention_vector call per unit."""
    lemmas, vectors, has_vector = [], [], []
    for verb, dependents, context in units:
        lemmas.append((verb, *_object_columns(dependents)))
        vec = mention_vector(verb, context, table)
        has_vector.append(vec is not None)
        if vec is not None:
            vectors.append(vec)
    stacked = np.array(vectors) if vectors else np.empty((0, table.dimension))
    return UnitColumns(lemmas, stacked, np.array(has_vector, dtype=bool))


def mention_columns(mentions: Sequence[VerbMention], table: EmbeddingTable) -> UnitColumns:
    """The columns of story mentions, in the order given; a mention's vector
    context is the lemmas of its dependents."""
    units = ((m.lemma, m.dependents, [l for _, l in m.dependents]) for m in mentions)
    return _unit_columns(units, table)


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


def esd_columns(docs: Sequence[EsdDocument], table: EmbeddingTable) -> UnitColumns:
    """The columns of the training EDs of `docs`, each ESD's in turn.

    Non-script EDs are excluded, and so are EDs without a verb (the corpus
    parser warns about those). An ED's vector is that of its main verb,
    counted twice, and its head nouns.
    """
    groups = list(map(_training_eds, docs))
    eds = [ed for group in groups for ed in group]
    units = ((ed.main_verb().lemma, ed.verb_dependents(), ed.head_nouns()) for ed in eds)
    return _unit_columns(units, table)._replace(
        event_types=tuple(ed.event_type for ed in eds), lengths=tuple(map(len, groups))
    )


def esd_training_sequences(
    esds: UnitColumns, disc: DiscretizationConfig
) -> crf_mod.CodedSequences:
    """One training sequence per ESD of `esds` (esd_columns) that holds a
    training ED, as coded columns: the lemma columns coded in one
    vocabulary, the vectors binned at `disc`."""
    code = {value: i for i, value in enumerate(_BIN_VALUES)}
    lemmas = np.array([[code.setdefault(v, len(code)) for v in l] for l in esds.lemmas], np.intp)
    cells = np.hstack([lemmas.reshape(-1, _LEMMA_COLUMNS), esds.bins(disc)])
    lengths = tuple(n for n in esds.lengths if n)
    return crf_mod.CodedSequences(tuple(code), cells, lengths, esds.event_types)


def story_decode_sequence(units: UnitColumns, model: crf_mod.CrfModel) -> np.ndarray:
    """The (T, C) emission-block rows of featurized units in their order: the
    rows of their observation columns, with the vectors binned at the
    model's epsilon. label_mentions decodes a story's mentions by them, and
    tune_epsilon its development EDs."""
    index = model.index
    bins = model.block_table(_BIN_VALUES)[_LEMMA_COLUMNS:]
    dimension = units.vectors.shape[1]
    if len(bins) != dimension:
        raise ValueError(
            f"{dimension}-d vectors give {_LEMMA_COLUMNS + dimension} observation columns,"
            f" model expects {index.n_columns}"
        )
    unseen = index.n_blocks
    lemma_rows = [[c.get(v, unseen) for c, v in zip(index.columns, l)] for l in units.lemmas]
    # bins[j, codes[t, j]] for every cell, as one gather from the flat table
    bin_rows = bins.ravel()[units.bins(model.disc) + len(_BIN_VALUES) * np.arange(dimension)]
    return np.hstack([np.array(lemma_rows, dtype=np.intp).reshape(-1, _LEMMA_COLUMNS), bin_rows])


def training_label_set(sequences: crf_mod.CodedSequences) -> tuple[str, ...]:
    """Distinct labels of the training sequences in first-appearance order."""
    return tuple(dict.fromkeys(sequences.labels))


def fit_crf(
    sequences: crf_mod.CodedSequences,
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
    model: crf_mod.CrfModel, mentions: Sequence[VerbMention], columns: UnitColumns
) -> list[str]:
    """Viterbi event types of the given mentions of one story, one per mention
    in the order given, from their mention_columns; the sequence is binned at
    the model's epsilon and decoded in textual order."""
    order = sorted(
        range(len(mentions)), key=lambda i: (mentions[i].sentence, mentions[i].token_index)
    )
    decoded = crf_mod.viterbi(model, story_decode_sequence(columns, model)[order])[0]
    # the rank of each mention in textual order is the inverse of `order`
    return [decoded[rank] for rank in np.argsort(order)]


def tune_epsilon(
    train: UnitColumns,
    dev: UnitColumns,
    candidates: Sequence[float],
    train_config: crf_mod.TrainConfig | None = None,
    use_transitions: bool = True,
) -> float | None:
    """Pick the discretization threshold by held-out label accuracy.

    For every distinct candidate epsilon a fresh sequence model is trained on
    the ESDs of `train` and decoded on those of `dev` (both esd_columns, or
    ESDs taken from it); the candidate with the highest micro accuracy over
    dev event labels wins, ties going to the smallest epsilon. Each candidate
    only codes the columns again, with the vectors binned at its epsilon.
    None when the training or the development ESDs hold no ED to train on.
    """
    if not candidates:
        raise ValueError("no epsilon candidates given")
    if not (train.event_types and dev.event_types):
        return None
    starts = np.cumsum([n for n in dev.lengths if n][:-1], dtype=np.intp)
    accuracy: dict[float, float] = {}
    for eps in sorted(set(candidates)):  # a repeat would score the same
        disc = DiscretizationConfig(epsilon=eps)
        model = fit_crf(esd_training_sequences(train, disc), disc, train_config, use_transitions)
        rows = story_decode_sequence(dev, model)
        predicted = [p for esd in np.split(rows, starts) for p in crf_mod.viterbi(model, esd)[0]]
        correct = sum(1 for p, g in zip(predicted, dev.event_types) if p == g)
        accuracy[eps] = correct / len(dev.event_types)
        logger.info(
            "epsilon %g: dev accuracy %.4f (%d labels)", eps, accuracy[eps], len(predicted)
        )
    return max(accuracy, key=accuracy.get)  # the first, so the smallest, of the best


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
