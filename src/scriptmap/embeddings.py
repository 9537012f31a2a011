"""Word-vector table, verb-weighted mention vectors, interval discretization.

Mention vectors average the verb vector (counted twice) with one vector per
dependent or head-noun lemma; words missing from the table are skipped. Each
vector component is then discretized into one of three nominal symbols using a
threshold epsilon: below -epsilon, inside [-epsilon, epsilon], above epsilon.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

BIN_LOW = "low"
BIN_MID = "mid"
BIN_HIGH = "high"
_BINS = np.array([BIN_LOW, BIN_MID, BIN_HIGH], dtype=object)


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class EmbeddingTable:
    """Whitespace-keyed vector table with a lowercase-first lookup policy."""

    dimension: int
    vectors: dict[str, np.ndarray]

    def lookup(self, word: str) -> np.ndarray | None:
        """Vector for `word`, trying the lowercased form first, else raw case."""
        hit = self.vectors.get(word.lower())
        return hit if hit is not None else self.vectors.get(word)

    def __contains__(self, word: str) -> bool:
        return self.lookup(word) is not None

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(text: str) -> EmbeddingTable:
    """Parse the text of a plain-text vector table.

    The first line holds ``<count> <dimension>``; every following line holds a
    word and `dimension` floats, whitespace-separated. Duplicate words keep
    the first occurrence and log a warning. Dimension mismatches and
    non-finite values are errors.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EmbeddingFormatError("missing header line", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError(
            f"malformed header: expected '<count> <dimension>', got {lines[0]!r}", 1
        )
    try:
        declared_count, dimension = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError(f"malformed header numbers in {lines[0]!r}", 1) from None
    if dimension < 1:
        raise EmbeddingFormatError(f"dimension must be positive, got {dimension}", 1)
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dimension + 1:
            raise EmbeddingFormatError(
                f"expected 1 word and {dimension} values, got {len(parts)} fields", lineno
            )
        word = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(str(exc), lineno) from None
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(f"non-finite value in the vector of {word!r}", lineno)
        if word in vectors:
            logger.warning("duplicate embedding for %r (line %d); keeping the first", word, lineno)
            continue
        vectors[word] = vec
    if declared_count != len(vectors):
        logger.warning(
            "embedding header declares %d entries, file holds %d", declared_count, len(vectors)
        )
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def mention_vector(
    verb_lemma: str, context_lemmas: Iterable[str], table: EmbeddingTable
) -> np.ndarray | None:
    """Average vector with the verb counted twice; None if no word is known.

    Equivalent to the plain average over the multiset {verb, verb} + contexts
    restricted to in-table words, so a dependent sharing the verb's lemma adds
    a third copy.
    """
    rows = []
    verb_vec = table.lookup(verb_lemma)
    if verb_vec is not None:
        rows.append(verb_vec)
        rows.append(verb_vec)
    for lemma in context_lemmas:
        vec = table.lookup(lemma)
        if vec is not None:
            rows.append(vec)
    if not rows:
        return None
    return np.mean(np.stack(rows), axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
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


@dataclass(frozen=True)
class DiscretizationConfig:
    """Threshold for the three-way component binning; middle bin is closed."""

    epsilon: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


DEFAULT_EPSILON_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


def discretize(vector: np.ndarray, cfg: DiscretizationConfig) -> tuple[str, ...]:
    """Map each component to low / mid / high around [-epsilon, epsilon]; NaN is mid."""
    v = np.asarray(vector, dtype=np.float64)
    return tuple(_BINS[1 - (v < -cfg.epsilon) + (v > cfg.epsilon)])
