"""Word-vector table, verb-weighted mention vectors, interval discretization.

Mention vectors average the verb vector (counted twice) with one vector per
dependent or head-noun lemma; words missing from the table are skipped. Each
vector component is then discretized into one of three nominal symbols using a
threshold epsilon: below -epsilon, inside [-epsilon, epsilon], above epsilon.
bin_codes gives the bins as integer codes 0, 1 and 2 in the same order, for a
vector or a stack of them; discretize names them. cosine compares a vector
with another or with every row of a matrix, by one rule.
"""

from __future__ import annotations

import codecs
import io
import itertools
import logging
import math
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .corpus import split_lines

logger = logging.getLogger(__name__)

BIN_LOW = "low"
BIN_MID = "mid"
BIN_HIGH = "high"
_BINS = np.array([BIN_LOW, BIN_MID, BIN_HIGH], dtype=object)

# Bytes of the file per read of the reader (a window of lines ends at the
# last line end decoded). The reader holds the kept rows and one window at
# once: its bytes, its lines, their halves, its parsed rows and the bytes
# that the plain-number scan reads of its unread rows. A parse call per line
# costs as much as float() per value; one for the whole table would hold a
# copy of every line's value text at once, raising the peak memory of a run.
_WINDOW_CHARS = 1 << 17

# The plain-number scan (_plain) maps each byte to its class: the low four
# bits say what the byte is, the high four what may not follow it. So a digit
# is followed by no minus, a minus or point by a digit, and a separator (a
# space or a line end) by a digit or minus. Any other byte is 0xFF, which may
# not follow or be followed by anything.
_DIGIT, _MINUS, _POINT, _SEP = 1, 2, 4, 8
_DIGIT_CLASS = _DIGIT | _MINUS << 4
_CLASS_OF = {
    **dict.fromkeys(b"0123456789", _DIGIT_CLASS),
    ord("-"): _MINUS | (_MINUS | _POINT | _SEP) << 4,
    ord("."): _POINT | (_MINUS | _POINT | _SEP) << 4,
    **dict.fromkeys(b" \n", _SEP | (_POINT | _SEP) << 4),
}
_CLASSES = bytes(_CLASS_OF.get(byte, 0xFF) for byte in range(256))  # a bytes.translate table
_DIGIT_BLOCK = np.frombuffer(bytes([_DIGIT_CLASS]) * 8, dtype=np.uint64)[0]


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


def _lookup_keys(words: Iterable[str]) -> set[str]:
    """The table words that EmbeddingTable.lookup reads for `words`."""
    return {key for word in words for key in (word.lower(), word)}


def load_embeddings(file: BinaryIO, words: Iterable[str] | None = None) -> EmbeddingTable:
    """Parse a plain-text vector table from a file opened for binary
    reading, which is decoded as UTF-8. A str or a text-mode file is a
    TypeError.

    The first line holds ``<count> <dimension>``; every following non-blank
    line holds a word and `dimension` numbers, whitespace-separated, in ASCII
    decimal or exponent form (no underscores, no other digits). Every row is
    still checked, but only the rows that EmbeddingTable.lookup can return
    for a word of `words` (every row if `words` is None) are kept: their
    values fill one float64 matrix, and each word maps to a view of its row.
    A row outside the kept set is checked by a plain-number scan, which
    passes a row only when the full parse would accept it: its numbers are
    ASCII ``-?[0-9]+(\\.[0-9]+)?`` with no digit run longer than 21,
    separated by single spaces (trailing spaces aside). Any other row
    (exponent form, tabs, ``+1``, ``.5``, non-ASCII, a bad row) has its
    window of lines parsed in full. So what is accepted, rejected and warned
    about does not depend on `words`, nor does any message or line number.
    Duplicate words keep the first occurrence and log a warning.
    Dimension mismatches, unreadable and non-finite values, and a vector
    whose squared norm overflows are errors that name the first bad line.
    That bound keeps every cosine of the table's vectors and of their
    averages finite. A byte that is not UTF-8 is an error with the message
    of decoding the whole file at once, and it wins over a format error
    anywhere in the file.

    The file is read _WINDOW_CHARS bytes at a time, in windows of whole
    lines, so the reader holds the kept rows, the words seen and one window
    at once. The matrix is allocated when the first row has parsed and
    doubles as it fills, never past the number of words lookup can read. So
    no header value alone sizes an allocation.
    """
    if isinstance(file, (str, io.TextIOBase)):
        raise TypeError(
            f"load_embeddings reads a file opened for binary reading, not a "
            f"{type(file).__name__}: open the table with open(path, \"rb\")"
        )
    keys = None if words is None else _lookup_keys(words)
    windows = _windows(file)
    try:
        return _read_table(windows, keys)
    except EmbeddingFormatError:
        for _ in windows:  # decode the rest: a byte that is not UTF-8 wins
            pass
        raise


def _read_table(windows: Iterator[list[str]], keys: set[str] | None) -> EmbeddingTable:
    """The table of load_embeddings, from the windows of lines of its file,
    keeping the rows of `keys` (every row if None)."""
    lines = next(windows, [])
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
    matrix = None
    seen: set[str] = set()
    kept_words: list[str] = []  # the word of each row of the matrix
    duplicates: list[tuple[str, int]] = []  # warned once every line is checked
    lineno = 2  # of the window's first line
    for lines in itertools.chain([lines[1:]], windows):
        body = [(i, line) for i, line in enumerate(lines, lineno) if line.strip()]
        lineno += len(lines)
        if not body:
            continue
        halves = [line.split(None, 1) for _, line in body]
        n_rows = len(kept_words)
        kept, unread = [], []  # positions in `body`
        for k, ((i, _), half) in enumerate(zip(body, halves)):
            word = half[0]  # a word-only line has no values half
            if word in seen:
                duplicates.append((word, i))
                unread.append(k)
            else:
                seen.add(word)
                if keys is None or word in keys:
                    kept.append(k)
                    kept_words.append(word)
                else:
                    unread.append(k)
        if not _plain([halves[k] for k in unread], dimension):
            rows = _parse_rows(body, halves, dimension)[kept]
        elif kept:  # the full parse accepts every unread row
            rows = _parse_rows([body[k] for k in kept], [halves[k] for k in kept], dimension)
        else:
            continue
        if matrix is None or len(kept_words) > len(matrix):
            capacity = 2 * len(kept_words)  # the matrix doubles as it fills
            if keys is not None:  # no word is kept twice
                capacity = min(capacity, len(keys))
            grown = np.empty((capacity, dimension), dtype=np.float64)
            if matrix is not None:
                grown[:n_rows] = matrix[:n_rows]
            matrix = grown
        matrix[n_rows : len(kept_words)] = rows
    for word, i in duplicates:
        logger.warning("duplicate embedding for %r (line %d); keeping the first", word, i)
    if declared_count != len(seen):
        logger.warning(
            "embedding header declares %d entries, file holds %d", declared_count, len(seen)
        )
    vectors = dict(zip(kept_words, matrix)) if kept_words else {}
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def _windows(file: BinaryIO) -> Iterator[list[str]]:
    """The lines of each window of a UTF-8 file: the file is read
    _WINDOW_CHARS bytes at a time, and a window ends at the last line end
    decoded, or at the end of the file. A CR that ends the text decoded so
    far waits for the next read, which may hold its LF, so their lines are
    split_lines of the whole text."""
    pending, offset, text = b"", 0, ""  # undecoded bytes, their file offset
    while True:
        chunk = file.read(_WINDOW_CHARS)
        data = pending + chunk
        try:
            decoded, used = codecs.utf_8_decode(data, "strict", not chunk)
        except UnicodeDecodeError as exc:
            raise _decode_error(exc, offset) from None
        pending, offset = data[used:], offset + used
        text += decoded
        if not chunk:
            if text:
                yield split_lines(text)
            return
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        if cut:
            yield split_lines(text[:cut])
            text = text[cut:]


def _decode_error(exc: UnicodeDecodeError, offset: int) -> UnicodeError:
    """`exc`, raised on bytes that start at `offset` in a file, with the
    message that decoding the whole file at once gives: its positions are
    those in the file."""
    start = exc.start + offset
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{exc.end - 1 + offset}"
    return UnicodeError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _parse_values(values: list[str]) -> np.ndarray:
    """One float64 row per string of whitespace-separated numbers; a number
    that numpy's text reader refuses raises ValueError."""
    return np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)


def _parse_rows(
    body: list[tuple[int, str]], halves: list[list[str]], dimension: int
) -> np.ndarray:
    """The rows of the numbered lines `body`, whose halves are `halves`, or
    the EmbeddingFormatError naming the first bad one."""
    rows = _parse_chunk(halves, dimension)
    if rows is None:
        rows = np.array([_parse_line(line, i, dimension) for i, line in body])
    return rows


def _plain(halves: list[list[str]], dimension: int) -> bool:
    """Whether every line of `halves` (``[word, values]`` line halves) is a
    row that the full parse accepts because its values half, trailing
    spaces stripped, is ASCII and holds `dimension` plain numbers
    ``-?[0-9]+(\\.[0-9]+)?`` separated by single spaces, with no digit run
    longer than 21. Each such number is finite and below 1e21 in size, so a
    squared norm overflows only past 1e266 values. False says nothing of a
    line: the full parse decides it."""
    values = []
    for half in halves:
        if len(half) != 2:
            return False
        values.append(half[1].rstrip(" "))
    if not values:
        return True
    # every number between two separators; a character that is not ASCII
    # becomes "?", which fails the scan
    data = "\n".join(["", *values, ""]).encode("ascii", "replace")
    classes = data.translate(_CLASSES)
    codes = np.frombuffer(classes, dtype=np.uint8)
    pairs = codes[:-1] >> 4
    pairs &= codes[1:]
    if pairs.any():
        return False  # a byte that may not follow the one before it
    # a run of 22 digits holds 8 that start at a multiple of 8
    blocks = np.frombuffer(classes, dtype=np.uint64, count=len(classes) // 8)
    if (blocks == _DIGIT_BLOCK).any() and bytes([_DIGIT_CLASS]) * 22 in classes:
        return False
    marks = data.translate(None, b"0123456789-")  # the points and separators
    if b".." in marks:
        return False  # a number with two points
    # each line end starts `dimension` numbers; the length is checked first,
    # so that no header value alone sizes an allocation
    separators = marks.translate(None, b".")
    return len(separators) == len(values) * dimension + 1 and separators == (
        b"\n" + b" " * (dimension - 1)
    ) * len(values) + b"\n"


def _parse_chunk(halves: list[list[str]], dimension: int) -> np.ndarray | None:
    """The rows of a chunk of ``[word, values]`` line halves, or None if any
    line is short, long, unreadable, non-finite or overflows its squared norm."""
    if any(len(half) != 2 for half in halves):
        return None  # a word-only line, which the reader would skip
    try:
        rows = _parse_values([half[1] for half in halves])
    except ValueError:
        return None
    # a squared norm is finite only if every value is
    if rows.shape != (len(halves), dimension) or not np.isfinite(_squared_norms(rows)).all():
        return None
    return rows


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself; inf where it overflows, without
    numpy's overflow warning."""
    with np.errstate(over="ignore"):
        return np.vecdot(rows, rows)


def _parse_line(line: str, lineno: int, dimension: int) -> np.ndarray:
    """The vector of one body line, or the EmbeddingFormatError naming it;
    the values are read by the same reader as a chunk, one call per line,
    and value by value only to name the one it refuses."""
    parts = line.split()
    if len(parts) != dimension + 1:
        raise EmbeddingFormatError(
            f"expected 1 word and {dimension} values, got {len(parts)} fields", lineno
        )
    try:
        row = _parse_values([" ".join(parts[1:])])[0]
    except ValueError:
        for token in parts[1:]:
            try:
                _parse_values([token])
            except ValueError:
                raise EmbeddingFormatError(
                    f"could not convert string to float: {token!r}", lineno
                ) from None
        raise
    if not np.isfinite(row).all():
        raise EmbeddingFormatError(f"non-finite value in the vector of {parts[0]!r}", lineno)
    if not np.isfinite(_squared_norms(row)):
        raise EmbeddingFormatError(
            f"the squared norm of the vector of {parts[0]!r} overflows", lineno
        )
    return row


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
    # the sum and division of np.mean(np.stack(rows), axis=0), without its overhead
    return np.add.reduce(np.array(rows), axis=0) / len(rows)


def cosine(
    u: np.ndarray, v: np.ndarray, u_norms: np.ndarray | None = None
) -> float | np.ndarray:
    """Cosine similarity in [-1, 1] of v with u, or with each row of a 2-d u
    (then one score per row); zero vectors compare as 0.

    u_norms holds the norms of u's rows when the caller has them, as
    np.sqrt(np.vecdot(u, u)) gives them. Each score is the same float as the
    scalar rule gives: np.vecdot computes a row of a C-contiguous matrix with
    the BLAS dot product that np.dot(row, v) calls, and its square root of a
    row's self-product equals np.linalg.norm. A quotient that is NaN, as it
    is for infinite norms, scores -1.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or u.shape[-1:] != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape} vs {v.shape}")
    if u_norms is None:
        u_norms = np.sqrt(np.vecdot(u, u))
    nv = np.linalg.norm(v)
    dots = np.vecdot(u, v)
    scores = np.zeros_like(dots)
    np.divide(dots, u_norms * nv, out=scores, where=(u_norms != 0.0) & (nv != 0.0))
    np.minimum(1.0, np.fmax(-1.0, scores), out=scores)
    return float(scores) if u.ndim == 1 else scores


@dataclass(frozen=True)
class DiscretizationConfig:
    """Threshold for the three-way component binning; middle bin is closed."""

    epsilon: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


DEFAULT_EPSILON_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


def bin_codes(vectors: np.ndarray, cfg: DiscretizationConfig) -> np.ndarray:
    """The bin of every component as an integer code, in the input's shape:
    0 below -epsilon, 2 above epsilon, 1 inside [-epsilon, epsilon]; NaN is 1."""
    v = np.asarray(vectors, dtype=np.float64)
    return 1 - (v < -cfg.epsilon) + (v > cfg.epsilon)


def discretize(vector: np.ndarray, cfg: DiscretizationConfig) -> tuple[str, ...]:
    """Map each component to low / mid / high around [-epsilon, epsilon]; NaN is mid."""
    return tuple(_BINS[bin_codes(vector, cfg)])
