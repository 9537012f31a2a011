"""Reference systems that score mentions directly against the ESDs.

lemma_identify marks a verb as a script event iff its lemma is a verb lemma
of the scenario's ESDs. overlap_classify assigns the event type of the ED with
the highest Jaccard lemma overlap; cosine_classify compares continuous mention
vectors instead, falling back to overlap when the mention or every ED lacks a
vector. Both classifiers match against one scenario's EdIndex from
build_ed_index, built once per scenario. Vectors come featurized: an ED's
from features.esd_columns, which the CRFs read too, and a mention's from
features.mention_columns. The index is columns: per script
ED, in corpus order, its event type and its token lemma set, and beside
them:

- postings map each lemma to the positions of the EDs that hold it. Only
  those EDs can overlap a mention by more than 0, so overlap_classify scores
  only the EDs its lemmas name, in corpus order, and a mention that shares no
  lemma gets the first ED's type without scoring any.
- the vectors of the EDs that have one are the rows of one C-contiguous
  matrix, kept with their norms and event types. The fit pays for the stack
  and one np.vecdot per scenario. cosine_classify then scores a mention
  against every row with one embeddings.cosine call: one mention norm and
  one np.vecdot. np.vecdot computes each row with the BLAS dot product that
  np.dot(row, v) calls, so every score is the float the per-pair rule
  gives, bit for bit (the tests pin this); E @ v would differ in the last
  bits.
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
    """One scenario's script EDs, looked up by lemma and by vector."""

    # per script ED, in corpus order: its event type and its token lemma set
    types: tuple[str, ...]
    lemmas: tuple[frozenset[str], ...]
    # lemma -> ascending positions in `types` of the EDs whose lemmas hold it
    postings: dict[str, tuple[int, ...]]
    # the EDs with a vector, in corpus order: their vectors as the rows of one
    # matrix, the rows' norms and the EDs' event types
    vectors: np.ndarray
    norms: np.ndarray
    vector_types: tuple[str, ...]


def build_ed_index(docs: Sequence[EsdDocument], columns: UnitColumns | None = None) -> EdIndex:
    """The index of the script EDs of one scenario's ESDs, in corpus order.

    ED lemma sets cover every token. The ED vectors are those of `columns`,
    the features.esd_columns of the same ESDs, when given.
    """
    types, lemmas = [], []
    postings: dict[str, list[int]] = {}
    for doc in docs:
        for ed in doc.script_eds():
            ed_lemmas = frozenset(t.lemma for t in ed.tokens)
            for lemma in ed_lemmas:
                postings.setdefault(lemma, []).append(len(types))
            types.append(ed.event_type)
            lemmas.append(ed_lemmas)
    if columns is None:
        vectors, vector_types = np.empty((0, 0)), ()
    else:
        vectors = columns.vectors
        vector_types = tuple(compress(columns.event_types, columns.has_vector))
    return EdIndex(
        types=tuple(types),
        lemmas=tuple(lemmas),
        postings={lemma: tuple(positions) for lemma, positions in postings.items()},
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


def overlap_classify(mention: VerbMention, index: EdIndex) -> str:
    """Event type of the ED with the highest lemma Jaccard overlap.

    Ties break toward the earliest ED in corpus order, so a mention with zero
    overlap everywhere gets the first ED's type.
    """
    if not index.types:
        raise ValueError("no script EDs to match against")
    mention_lemmas = mention.lemma_set()
    shared = {p for lemma in mention_lemmas for p in index.postings.get(lemma, ())}
    best, best_score = 0, 0.0
    for position in sorted(shared):
        score = jaccard(mention_lemmas, index.lemmas[position])
        if score > best_score:
            best, best_score = position, score
    return index.types[best]


def cosine_classify(mention: VerbMention, index: EdIndex, vector: np.ndarray | None) -> str:
    """Event type of the ED whose vector is most cosine-similar to `vector`,
    the mention's (UnitColumns.unit_vectors of its mention_columns).

    EDs without vectors are skipped; a mention without a vector, or a
    scenario without an ED vector, falls back to lemma overlap. Ties break
    toward the earliest usable ED.
    """
    if not index.types:
        raise ValueError("no script EDs to match against")
    if vector is None or not index.vector_types:
        return overlap_classify(mention, index)
    return index.vector_types[int(np.argmax(cosine(index.vectors, vector, index.norms)))]
