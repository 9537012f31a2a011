"""Reference systems that score mentions directly against the ESDs.

lemma_identify marks a verb as a script event iff its lemma is a verb lemma
of the scenario's ESDs. overlap_classify assigns the event type of the ED with
the highest Jaccard lemma overlap; cosine_classify compares continuous mention
vectors instead, falling back to overlap when the mention or every ED lacks a
vector. Both classifiers label one story's mentions at a time, per story,
over distinct EDs: they match against one scenario's EdIndex from
build_ed_index, built once per scenario, which keeps each distinct ED lemma
set and each distinct ED vector once, in order of first appearance, with the
event type of the first ED that holds it. A duplicate scores exactly what
its first occurrence scores, so the first best score over the distinct
entries names the event type of the earliest best ED, as a walk over every
ED in corpus order would. No sort is involved. Vectors come featurized: an
ED's from features.esd_columns, which the CRFs read too, and a story's
mentions' from features.mention_columns.

- overlap_classify counts the lemmas each mention shares with each distinct
  lemma set in one integer table, one np.bincount over the postings (lemma
  -> the sets that hold it) of the mentions' lemmas. A score is
  shared / (|a| + |b| - shared), the same correctly rounded quotient of two
  small integers as len(a & b) / len(a | b); np.argmax keeps the first
  maximum, so a mention that shares no lemma gets the first ED's type.
- cosine_classify scores the story's mention vectors against the distinct
  ED vectors, the rows of one C-contiguous matrix kept with their norms, in
  one embeddings.cosine call. np.vecdot computes each pair of rows with the
  BLAS dot product that np.dot(row, v) calls, so every score is the float
  the per-pair rule gives, bit for bit (the tests pin this); E @ v would
  differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .corpus import EVENT, NON_SCRIPT, EsdDocument, VerbMention
from .embeddings import cosine
from .features import UnitColumns


@dataclass(frozen=True)
class EdIndex:
    """One scenario's script EDs, each distinct lemma set and each distinct
    vector kept once."""

    # the event types of the script EDs, in order of first appearance
    labels: tuple[str, ...]
    # each distinct ED lemma set, in order of first appearance: the set, its
    # size and the event type of its first ED
    lemmas: tuple[frozenset[str], ...]
    sizes: np.ndarray
    lemma_types: tuple[str, ...]
    # lemma -> ascending positions in `lemmas` of the sets that hold it
    postings: dict[str, np.ndarray]
    # each distinct vector of the EDs that have one, in order of first
    # appearance: the rows of one matrix, their norms and their first EDs'
    # event types
    vectors: np.ndarray
    norms: np.ndarray
    vector_types: tuple[str, ...]


def build_ed_index(docs: Sequence[EsdDocument], columns: UnitColumns | None = None) -> EdIndex:
    """The index of the script EDs of one scenario's ESDs, in corpus order.

    ED lemma sets cover every token. The ED vectors are those of `columns`,
    the features.esd_columns of the same ESDs, when given.
    """
    labels: dict[str, None] = {}
    first_type: dict[frozenset[str], str] = {}
    for doc in docs:
        for ed in doc.script_eds():
            labels.setdefault(ed.event_type)
            first_type.setdefault(frozenset(t.lemma for t in ed.tokens), ed.event_type)
    postings: dict[str, list[int]] = {}
    for position, lemmas in enumerate(first_type):
        for lemma in lemmas:
            postings.setdefault(lemma, []).append(position)
    if columns is None:
        vectors, vector_types = np.empty((0, 0)), ()
    else:
        first_row: dict[bytes, int] = {}
        for row, vector in enumerate(columns.vectors):
            first_row.setdefault(vector.tobytes(), row)
        rows = list(first_row.values())
        types = tuple(compress(columns.event_types, columns.has_vector))
        vectors = columns.vectors[rows]
        vector_types = tuple(types[row] for row in rows)
    return EdIndex(
        labels=tuple(labels),
        lemmas=tuple(first_type),
        sizes=np.array([len(lemmas) for lemmas in first_type], dtype=np.intp),
        lemma_types=tuple(first_type.values()),
        postings={lemma: np.array(sets, dtype=np.intp) for lemma, sets in postings.items()},
        vectors=vectors,
        norms=np.sqrt(np.vecdot(vectors, vectors)),
        vector_types=vector_types,
    )


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def lemma_identify(mention: VerbMention, verb_lemmas: frozenset[str]) -> str:
    """EVENT iff the verb lemma is in the ESDs' verb lemmas
    (ScenarioStats.verb_lemmas)."""
    return EVENT if mention.lemma in verb_lemmas else NON_SCRIPT


def overlap_classify(mentions: Sequence[VerbMention], index: EdIndex) -> list[str]:
    """Event type of the ED with the highest lemma Jaccard overlap, for each
    of one story's mentions.

    Ties break toward the earliest ED in corpus order, so a mention with zero
    overlap everywhere gets the first ED's type.
    """
    if not index.lemmas:
        raise ValueError("no script EDs to match against")
    n_sets = len(index.lemmas)
    sizes, cells = [], [np.empty(0, dtype=np.intp)]
    for row, mention in enumerate(mentions):
        lemmas = mention.lemma_set()
        sizes.append(len(lemmas))
        cells.extend(index.postings[l] + row * n_sets for l in lemmas if l in index.postings)
    shared = np.bincount(np.concatenate(cells), minlength=len(mentions) * n_sets)
    shared = shared.reshape(len(mentions), n_sets)
    scores = shared / (np.array(sizes, dtype=np.intp)[:, None] + index.sizes - shared)
    return [index.lemma_types[best] for best in scores.argmax(axis=1).tolist()]


def cosine_classify(
    mentions: Sequence[VerbMention], index: EdIndex, columns: UnitColumns
) -> list[str]:
    """Event type of the ED whose vector is most cosine-similar to the
    mention's, for each of one story's mentions; `columns` is their
    features.mention_columns.

    EDs without vectors are skipped; a mention without a vector, or a
    scenario without an ED vector, falls back to lemma overlap. Ties break
    toward the earliest usable ED.
    """
    if not index.lemmas:
        raise ValueError("no script EDs to match against")
    if len(columns.has_vector) != len(mentions):
        raise ValueError(f"{len(columns.has_vector)} featurized mentions, {len(mentions)} given")
    if not index.vector_types:
        return overlap_classify(mentions, index)
    has_vector = columns.has_vector.tolist()
    best = []
    if len(columns.vectors):
        best = cosine(index.vectors, columns.vectors, index.norms).argmax(axis=1).tolist()
    by_vector = (index.vector_types[i] for i in best)
    vectorless = [m for m, has in zip(mentions, has_vector) if not has]
    by_overlap = iter(overlap_classify(vectorless, index))
    return [next(by_vector) if has else next(by_overlap) for has in has_vector]
