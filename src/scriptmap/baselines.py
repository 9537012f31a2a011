"""Reference systems that score mentions directly against the ESDs.

lemma_identify marks a verb as a script event iff its lemma is a verb lemma
of the scenario's ESDs. overlap_classify assigns the event type of the ED with
the highest Jaccard lemma overlap; cosine_classify compares continuous mention
vectors instead, falling back to overlap when the mention has no vector. Both
classifiers match against one scenario's ED entries from build_ed_index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EVENT, NON_SCRIPT, EsdDocument, VerbMention
from .embeddings import EmbeddingTable, cosine, mention_vector


@dataclass(frozen=True)
class EdEntry:
    """One indexed event description."""

    event_type: str
    lemmas: frozenset[str]
    vector: np.ndarray | None


def build_ed_index(
    docs: Sequence[EsdDocument], table: EmbeddingTable | None = None
) -> tuple[EdEntry, ...]:
    """Entries for the script EDs of one scenario's ESDs, in corpus order.

    ED lemma sets cover every token; ED vectors (verb doubled plus head
    nouns) are built only when a table is given.
    """
    entries = []
    for doc in docs:
        for ed in doc.script_eds():
            vector = None
            if table is not None:
                verb = ed.main_verb()
                if verb is not None:
                    vector = mention_vector(verb.lemma, ed.head_nouns(), table)
            entries.append(
                EdEntry(
                    event_type=ed.event_type,
                    lemmas=frozenset(t.lemma for t in ed.tokens),
                    vector=vector,
                )
            )
    return tuple(entries)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def lemma_identify(mention: VerbMention, verb_lemmas: frozenset[str]) -> str:
    """EVENT iff the verb lemma is in the ESDs' verb lemmas
    (ScenarioStats.verb_lemmas)."""
    return EVENT if mention.lemma in verb_lemmas else NON_SCRIPT


def overlap_classify(mention: VerbMention, entries: Sequence[EdEntry]) -> str:
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


def cosine_classify(
    mention: VerbMention, entries: Sequence[EdEntry], table: EmbeddingTable
) -> str:
    """Event type of the ED whose vector is most cosine-similar.

    EDs without vectors are skipped; a mention without a vector falls back to
    lemma overlap. Ties break toward the earliest usable ED.
    """
    if not entries:
        raise ValueError("no script EDs to match against")
    vec = mention_vector(mention.lemma, [l for _, l in mention.dependents], table)
    if vec is None:
        return overlap_classify(mention, entries)
    usable = [e for e in entries if e.vector is not None]
    if not usable:
        raise ValueError("no script ED with a defined vector")
    best = usable[0]
    best_score = -np.inf
    for entry in usable:
        score = cosine(vec, entry.vector)
        if score > best_score:
            best = entry
            best_score = score
    return best.event_type
