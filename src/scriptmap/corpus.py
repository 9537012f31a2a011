"""Scenario corpus data model and column-file ingestion.

Documents come in two kinds. A *story* is ordinary narrative text whose verb
tokens carry gold labels: either a scenario-specific event type or one of the
non-script classes in NON_SCRIPT_KINDS. An *esd* document is one crowdsourced
event sequence description: an ordered list of short event descriptions (EDs),
each labeled as a whole with an event type. Temporal order is textual order.

File format: UTF-8 text, read with `split_lines`, so a line ends at LF, CR LF
or CR and at no other character. Each document starts with three header
lines::

    #doc <id>
    #scenario <id>
    #kind story|esd

Token lines are tab-separated::

    index  surface  lemma  pos  head  deprel  coref  label  [frame  [predicted]]

``index`` is the 1-based position in its sentence, ``head`` the index of the
syntactic head (0 for the root), ``_`` an absent value. Index, head and the
``#ed`` number are ASCII digits only: no sign, space or underscore. A line
that starts with ``#`` is a header; its keyword is a whole word, followed by
whitespace or the end of the line, and any other ``#`` line is an error.
Tokens come in blocks, one rule for both kinds: in an esd document an
``#ed <index> <event_type>`` header opens its ED, which may stay empty; in a
story a token line opens a sentence. A blank line, the next ``#ed`` header or
the end of the document closes the open block; a token line after a closed
ED is an error. The optional ninth and tenth columns carry a frame label and
a predicted label; the column count must be uniform within one document.
Document ids must be unique within a parse. A script ED without a verbal
token is warned about when it is parsed.
The records a parse builds, `Token`, `VerbMention` and `EventDescription`,
are NamedTuples: each equals a plain tuple of the same values (and hashes
like one), unpacks and iterates like one, and its len() is its field count.
Copy one with changed fields through `._replace`, not `dataclasses.replace`;
the field `index` of a `Token` or an `EventDescription` hides tuple.index().
Equal token lines in one parse give one shared, immutable `Token`, so only
`is` or id() can tell the places it fills apart, and memory grows with the
distinct token lines, not with all of them; two parses share no token.
Tokens sharing a ``coref`` id form a chain; a story's mentions are built with
each chained pronoun resolved to its antecedent, while the tokens keep their
own lemmas.
parse_corpus_file takes a file's text; serialize_corpus returns it, with
predicted labels, if given, in the tenth column.
"""

from __future__ import annotations

import logging
import random
import re
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

logger = logging.getLogger(__name__)

NON_SCRIPT_KINDS = ("non_script_event", "script_related", "script_evoking")
EVENT = "event"
NON_SCRIPT = "non_script"
ABSENT = "_"

KIND_STORY = "story"
KIND_ESD = "esd"

WITHIN_SCENARIO_10FOLD = "within_scenario_10fold"
LEAVE_ONE_SCENARIO_OUT = "leave_one_scenario_out"

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_BASE_COLUMNS = 8


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def is_verbal(pos: str) -> bool:
    p = pos.upper()
    return p in ("VERB", "AUX", "MD") or p.startswith("VB")


def is_nominal(pos: str) -> bool:
    p = pos.upper()
    return p in ("NOUN", "PROPN") or p.startswith("NN")


def is_pronominal(pos: str) -> bool:
    p = pos.upper()
    return p == "PRON" or p.startswith("PRP") or p == "WP"


# The POS classes the reader asks about, and those of a verb's arguments.
_VERBAL, _NOMINAL, _PRONOMINAL = "verbal", "nominal", "pronominal"
_ARGUMENT_CLASSES = (_NOMINAL, _PRONOMINAL)


class _PosClasses(dict):
    """POS tag -> _VERBAL, _NOMINAL, _PRONOMINAL or None, classified on first
    sight by is_verbal, is_nominal and is_pronominal; the three classes are
    disjoint, so a tag is in at most one. One parse keeps one; tag sets are
    small."""

    def __missing__(self, pos: str) -> str | None:
        if is_verbal(pos):
            pos_class = _VERBAL
        elif is_nominal(pos):
            pos_class = _NOMINAL
        elif is_pronominal(pos):
            pos_class = _PRONOMINAL
        else:
            pos_class = None
        self[pos] = pos_class
        return pos_class


def collapse_label(label: str) -> str:
    """Collapse a gold label to EVENT or NON_SCRIPT (total over all labels)."""
    return NON_SCRIPT if label in NON_SCRIPT_KINDS else EVENT


# Verb dependents harvested as nominal arguments, the relations read as direct
# and indirect objects, and the relations of nouns that merely modify another
# noun (excluded from an ED's head nouns).
NOMINAL_DEPRELS = frozenset({"dobj", "obj", "iobj", "nsubj", "nmod", "obl"})
DOBJ_DEPRELS = frozenset({"dobj", "obj"})
IOBJ_DEPRELS = frozenset({"iobj"})
HEAD_NOUN_EXCLUDED_DEPRELS = frozenset({"compound", "flat"})


class Token(NamedTuple):
    """One token line. A NamedTuple: immutable and hashable, equal to a plain
    tuple of the same values, and it unpacks and iterates like one. The field
    `index` hides tuple.index()."""

    index: int
    surface: str
    lemma: str
    pos: str
    head: int
    deprel: str
    coref: str | None = None
    gold_label: str | None = None
    frame: str | None = None
    predicted_label: str | None = None


# The reader builds each record with tuple.__new__, which skips the Python
# __new__ a NamedTuple generates, and with it the count of the fields: every
# call passes all of them, in order.
_new_record = tuple.__new__


class VerbMention(NamedTuple):
    """One labeled verb occurrence in a story, a NamedTuple like `Token`.

    sentence is the 0-based sentence index, token_index the verb's 1-based
    position in that sentence. dependents holds (deprel, lemma) pairs for the
    verb's nominal or pronominal dependents in token order; a pronoun on a
    coreference chain gives its antecedent's lemma.
    """

    sentence: int
    token_index: int
    lemma: str
    dependents: tuple[tuple[str, str], ...]
    gold_label: str
    frame: str | None = None

    def lemma_set(self) -> frozenset[str]:
        return frozenset((self.lemma,) + tuple(l for _, l in self.dependents))


def dependent_tokens(sentence: Sequence[Token], verb: Token) -> list[Token]:
    """Nominal/pronominal dependents of `verb` within `sentence`, token order."""
    out = []
    for tok in sentence:
        if tok.head != verb.index or tok.deprel not in NOMINAL_DEPRELS:
            continue
        if is_nominal(tok.pos) or is_pronominal(tok.pos):
            out.append(tok)
    return out


class EventDescription(NamedTuple):
    """One ED of an ESD: a short phrase labeled with an event type. A
    NamedTuple like `Token`; the field `index` hides tuple.index()."""

    index: int
    event_type: str
    tokens: tuple[Token, ...]

    @property
    def is_script(self) -> bool:
        return self.event_type not in NON_SCRIPT_KINDS

    def main_verb(self) -> Token | None:
        """Root-attached verbal token, else the first verbal token."""
        for tok in self.tokens:
            if tok.head == 0 and is_verbal(tok.pos):
                return tok
        for tok in self.tokens:
            if is_verbal(tok.pos):
                return tok
        return None

    def head_nouns(self) -> tuple[str, ...]:
        """Lemmas of nominal tokens that head their own phrase, token order."""
        return tuple(
            tok.lemma
            for tok in self.tokens
            if is_nominal(tok.pos) and tok.deprel not in HEAD_NOUN_EXCLUDED_DEPRELS
        )

    def verb_dependents(self) -> tuple[tuple[str, str], ...]:
        verb = self.main_verb()
        if verb is None:
            return ()
        return tuple((t.deprel, t.lemma) for t in dependent_tokens(self.tokens, verb))


@dataclass(frozen=True)
class EsdDocument:
    doc_id: str
    scenario: str
    eds: tuple[EventDescription, ...]
    n_columns: int = _BASE_COLUMNS

    def script_eds(self) -> tuple[EventDescription, ...]:
        """EDs carrying a proper event type; non-script EDs are training noise."""
        return tuple(ed for ed in self.eds if ed.is_script)


@dataclass(frozen=True)
class Story:
    doc_id: str
    scenario: str
    sentences: tuple[tuple[Token, ...], ...]
    mentions: tuple[VerbMention, ...]
    n_columns: int = _BASE_COLUMNS

    def script_mentions(self) -> tuple[VerbMention, ...]:
        """Mentions whose gold label is an event type, in textual order."""
        return tuple(m for m in self.mentions if m.gold_label not in NON_SCRIPT_KINDS)


@dataclass(frozen=True)
class Scenario:
    """A scenario id plus its event types in order of first appearance."""

    scenario_id: str
    event_types: tuple[str, ...]


def collect_scenarios(docs: Iterable[EsdDocument | Story]) -> dict[str, Scenario]:
    """Scenario inventory; event-type order is first appearance in gold data."""
    types: "OrderedDict[str, OrderedDict[str, None]]" = OrderedDict()
    for doc in docs:
        seen = types.setdefault(doc.scenario, OrderedDict())
        if isinstance(doc, EsdDocument):
            for ed in doc.eds:
                if ed.is_script:
                    seen.setdefault(ed.event_type)
        else:
            for m in doc.mentions:
                if m.gold_label not in NON_SCRIPT_KINDS:
                    seen.setdefault(m.gold_label)
    return {
        sid: Scenario(scenario_id=sid, event_types=tuple(seen)) for sid, seen in types.items()
    }


def _build_mentions(
    doc_id: str, sentences: Sequence[Sequence[Token]], pos_classes: _PosClasses
) -> tuple[VerbMention, ...]:
    """The story's labeled verbs in textual order, with their dependents.

    A pronominal dependent on a coreference chain takes the lemma of its
    antecedent: the most recent non-pronominal chain member before it, else
    the earliest one after it. A chain of pronouns alone leaves the pronoun's
    lemma and is warned about once, when a dependent first reaches it.
    """
    # Each chain's non-pronominal members as (sentence, token, lemma), in
    # textual order; collected in the same pass as the verbs. A verb's
    # dependents are those of dependent_tokens, read from the POS memo.
    chains: dict[str, list[tuple[int, int, str]]] = {}
    verbs = []
    for s_idx, sent in enumerate(sentences):
        for tok in sent:
            if tok.coref is not None and pos_classes[tok.pos] is not _PRONOMINAL:
                chains.setdefault(tok.coref, []).append((s_idx, tok.index, tok.lemma))
            if tok.gold_label is not None:
                index = tok.index
                verbs.append((s_idx, tok, [
                    d for d in sent
                    if d.head == index and d.deprel in NOMINAL_DEPRELS
                    and pos_classes[d.pos] in _ARGUMENT_CLASSES
                ]))
    warned: set[str] = set()

    def antecedent_lemma(s_idx: int, pronoun: Token) -> str:
        if pronoun.coref not in chains:
            if pronoun.coref not in warned:
                warned.add(pronoun.coref)
                logger.warning(
                    "story %s: coreference chain %r has no non-pronominal "
                    "mention; leaving pronoun lemmas unresolved",
                    doc_id,
                    pronoun.coref,
                )
            return pronoun.lemma
        members = chains[pronoun.coref]
        before = bisect_left(members, (s_idx, pronoun.index))  # members before the pronoun
        return members[before - 1 if before else 0][2]

    return tuple(
        _new_record(VerbMention, (
            s_idx,
            verb.index,
            verb.lemma,
            tuple(
                (d.deprel, d.lemma)
                if d.coref is None or pos_classes[d.pos] is not _PRONOMINAL
                else (d.deprel, antecedent_lemma(s_idx, d))
                for d in deps
            ),
            verb.gold_label,
            verb.frame,
        ))
        for s_idx, verb, deps in verbs
    )


def _misplaced(index: int, block: list[Token], lineno: int) -> CorpusFormatError:
    """The error for a token line whose index is not its position in `block`."""
    return CorpusFormatError(
        f"token index {index} does not match position {len(block) + 1}", lineno
    )


class _DocBuilder:
    """One document being read. `block` is the open ED or sentence, None when
    no block is open; its tokens sit on consecutive lines from `block_line`,
    since any other line closes the block or is an error."""

    def __init__(
        self,
        doc_id: str,
        line: int,
        pos_classes: _PosClasses,
        labels: set[str],
        tokens: dict[str, Token],
    ):
        self.doc_id = doc_id
        self.start_line = line
        self.pos_classes = pos_classes
        self.labels = labels  # the gold labels _LABEL_RE has passed in this parse
        self.tokens = tokens  # token line text -> its Token, for this parse
        self.scenario: str | None = None
        self.kind: str | None = None
        self.n_columns: int | None = None
        self.blocks: list[list[Token]] = []
        self.event_types: list[str] = []  # one per ED block
        self.block: list[Token] | None = None
        self.block_line = 0

    def open_block(self, first_line: int) -> list[Token]:
        self.block = []
        self.block_line = first_line
        self.blocks.append(self.block)
        return self.block

    def close_block(self):
        """Close the open block, if any, once every head points inside it."""
        if self.block is None:
            return
        n = len(self.block)
        for tok in self.block:
            if tok.head > n:  # heads are unsigned; a token's index is its position
                raise CorpusFormatError(
                    f"dangling head index {tok.head} (sentence has {n} tokens)",
                    self.block_line + tok.index - 1,
                )
        self.block = None

    def set_columns(self, n: int, lineno: int):
        """Take the column count of the document's first token line; any
        other count is an error."""
        if n not in (8, 9, 10):
            raise CorpusFormatError(
                f"malformed token line: expected 8-10 tab-separated columns, got {n}", lineno
            )
        if self.n_columns is not None:
            raise CorpusFormatError(
                f"inconsistent column count: document uses {self.n_columns}, line has {n}",
                lineno,
            )
        self.n_columns = n

    def read_token_line(self, line: str, lineno: int):
        """Append the line's token to the open block; in a story, a token line
        with no open block opens a sentence. A line read before in this parse
        appends the Token it gave then."""
        block = self.block
        if block is None:
            if self.kind == KIND_ESD:
                raise CorpusFormatError("token line outside any #ed block", lineno)
            block = self.open_block(lineno)
        token = self.tokens.get(line)
        if token is not None:
            # the line passed every check on its own text when first read;
            # only its column count and its index depend on where it sits
            n = line.count("\t") + 1
            if n != self.n_columns:
                self.set_columns(n, lineno)
            if token[0] != len(block) + 1:
                raise _misplaced(token[0], block, lineno)
            block.append(token)
            return
        fields = line.split("\t")
        n = len(fields)
        if n != self.n_columns:
            self.set_columns(n, lineno)
        index, head = fields[0], fields[4]
        # ASCII digits only: the forms int() would also take (signs, spaces,
        # underscores, other scripts' digits) are not what the writer emits
        if not (index.isdigit() and head.isdigit() and index.isascii() and head.isascii()):
            bad = head if index.isdigit() and index.isascii() else index
            raise CorpusFormatError(
                f"malformed token line: invalid literal for int() with base 10: {bad!r}", lineno
            )
        index = int(index)
        if index != len(block) + 1:
            raise _misplaced(index, block, lineno)
        pos, coref, label = fields[3], fields[6], fields[7]
        if label == ABSENT:
            label = None
        else:
            if label not in self.labels:
                if not _LABEL_RE.match(label):
                    raise CorpusFormatError(f"unknown label string {label!r}", lineno)
                self.labels.add(label)
            if self.pos_classes[pos] is not _VERBAL:
                raise CorpusFormatError(
                    f"gold label {label!r} on non-verb token {fields[1]!r} (pos {pos})", lineno
                )
        frame = fields[8] if n > 8 and fields[8] != ABSENT else None
        predicted = fields[9] if n > 9 and fields[9] != ABSENT else None
        token = self.tokens[line] = _new_record(Token, (
            index, fields[1], fields[2], pos, int(head), fields[5],
            None if coref == ABSENT else coref, label, frame, predicted,
        ))
        block.append(token)

    def finish(self) -> EsdDocument | Story:
        self.close_block()
        if self.scenario is None:
            raise CorpusFormatError(
                f"document {self.doc_id!r} has no #scenario header", self.start_line
            )
        if self.kind is None:
            raise CorpusFormatError(
                f"document {self.doc_id!r} has no #kind header", self.start_line
            )
        n_columns = self.n_columns if self.n_columns is not None else _BASE_COLUMNS
        if self.kind == KIND_ESD:
            eds = tuple(
                _new_record(EventDescription, (i, etype, tuple(toks)))
                for i, (etype, toks) in enumerate(zip(self.event_types, self.blocks), 1)
            )
            for ed in eds:
                # main_verb() is None exactly when no token is verbal
                if ed.is_script and not any(
                    self.pos_classes[t.pos] is _VERBAL for t in ed.tokens
                ):
                    logger.warning(
                        "document %s: ED %d (%s) has no verb; sequence training skips it",
                        self.doc_id, ed.index, ed.event_type,
                    )
            return EsdDocument(
                doc_id=self.doc_id, scenario=self.scenario, eds=eds, n_columns=n_columns
            )
        sentences = tuple(tuple(b) for b in self.blocks)
        return Story(
            doc_id=self.doc_id,
            scenario=self.scenario,
            sentences=sentences,
            mentions=_build_mentions(self.doc_id, sentences, self.pos_classes),
            n_columns=n_columns,
        )


def split_lines(text: str) -> list[str]:
    """The lines of a text, by the line rule of every scriptmap text format:
    a line ends at LF, CR LF or CR (the line ends of Python's text mode) and
    at no other character, unlike str's own line splitter, which also breaks
    at U+000B, U+000C, U+001C to U+001E, U+0085, U+2028 and U+2029. A final
    line end is optional."""
    if "\r" in text:  # a CR-free text, as the CLI reads, skips two slower scans
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    parts = text.split("\n")
    if not parts[-1]:
        parts.pop()
    return parts


def parse_corpus_file(text: str, kind: str | None = None) -> list[EsdDocument | Story]:
    """Parse the text of one corpus file into documents.

    When `kind` is given every document must declare that kind. Errors carry
    1-based line numbers. An empty text yields an empty list.
    """
    if kind is not None and kind not in (KIND_STORY, KIND_ESD):
        raise ValueError(f"kind must be {KIND_STORY!r} or {KIND_ESD!r}, got {kind!r}")
    docs: list[EsdDocument | Story] = []
    seen_ids: set[str] = set()
    pos_classes = _PosClasses()
    labels: set[str] = set()
    tokens: dict[str, Token] = {}
    builder: _DocBuilder | None = None
    for lineno, line in enumerate(split_lines(text), 1):
        if line[:1] != "#":
            if not line or line.isspace():
                if builder is not None:
                    builder.close_block()
            elif builder is None:
                raise CorpusFormatError("token line before #doc header", lineno)
            elif builder.kind is None:
                raise CorpusFormatError("token line before #kind header", lineno)
            else:
                builder.read_token_line(line, lineno)
            continue
        # a header keyword is a whole word: "#document" is no "#doc" header
        keyword, *rest = line.split(None, 1)
        value = rest[0] if rest else ""
        if keyword == "#doc":
            doc_id = value.strip()
            if not doc_id:
                raise CorpusFormatError("empty document id", lineno)
            if builder is not None:
                docs.append(builder.finish())
            if doc_id in seen_ids:
                raise CorpusFormatError(f"duplicate document id {doc_id!r}", lineno)
            seen_ids.add(doc_id)
            builder = _DocBuilder(doc_id, lineno, pos_classes, labels, tokens)
        elif keyword == "#scenario":
            if builder is None:
                raise CorpusFormatError("#scenario header before #doc", lineno)
            if builder.kind is not None or builder.scenario is not None:
                raise CorpusFormatError("#scenario header out of order", lineno)
            sid = value.strip()
            if not sid:
                raise CorpusFormatError("empty scenario id", lineno)
            builder.scenario = sid
        elif keyword == "#kind":
            if builder is None:
                raise CorpusFormatError("#kind header before #doc", lineno)
            if builder.scenario is None:
                raise CorpusFormatError("#kind header before #scenario", lineno)
            if builder.kind is not None:
                raise CorpusFormatError("duplicate #kind header", lineno)
            value = value.strip()
            if value not in (KIND_STORY, KIND_ESD):
                raise CorpusFormatError(f"unknown document kind {value!r}", lineno)
            if kind is not None and value != kind:
                raise CorpusFormatError(
                    f"expected a {kind} document, found kind {value!r}", lineno
                )
            builder.kind = value
        elif keyword == "#ed":
            if builder is None or builder.kind is None:
                raise CorpusFormatError("#ed header before #kind", lineno)
            if builder.kind != KIND_ESD:
                raise CorpusFormatError("#ed header in a story document", lineno)
            builder.close_block()
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise CorpusFormatError("malformed #ed header", lineno)
            if not (parts[0].isdigit() and parts[0].isascii()):
                raise CorpusFormatError(f"malformed #ed index {parts[0]!r}", lineno)
            ed_index = int(parts[0])
            etype = parts[1].strip()
            if not _LABEL_RE.match(etype):
                raise CorpusFormatError(f"unknown label string {etype!r}", lineno)
            expected = len(builder.blocks) + 1
            if ed_index != expected:
                raise CorpusFormatError(
                    f"#ed index {ed_index} out of order (expected {expected})", lineno
                )
            builder.event_types.append(etype)
            builder.open_block(lineno + 1)
        else:
            raise CorpusFormatError(f"unknown header {keyword!r}", lineno)
    if builder is not None:
        docs.append(builder.finish())
    return docs


def parse_corpus_path(path: str | Path, kind: str | None = None) -> list[EsdDocument | Story]:
    return parse_corpus_file(Path(path).read_text(encoding="utf-8"), kind)


def _token_line(tok: Token, n_columns: int, predicted: str | None) -> str:
    # one unpacking: each attribute read of a NamedTuple is a descriptor call
    index, surface, lemma, pos, head, deprel, coref, gold_label, frame, _ = tok
    fields = [
        str(index), surface, lemma, pos, str(head), deprel,
        coref or ABSENT, gold_label or ABSENT,
    ]
    if n_columns >= 9:
        fields.append(frame or ABSENT)
    if n_columns >= 10:
        fields.append(predicted or ABSENT)
    return "\t".join(fields)


def serialize_document(
    doc: EsdDocument | Story, labels: Mapping[tuple[int, int], str] | None = None
) -> str:
    """One document in the column format. With `labels`, which maps (sentence
    index, token index) to a predicted label, the document is written with 10
    columns and those labels replace the tokens' own predictions; every key
    must name a token of the story, else KeyError."""
    kind = KIND_ESD if isinstance(doc, EsdDocument) else KIND_STORY
    parts = [f"#doc {doc.doc_id}", f"#scenario {doc.scenario}", f"#kind {kind}"]
    n_columns = doc.n_columns if labels is None else 10
    labels = labels or {}
    sentences = doc.sentences if isinstance(doc, Story) else ()
    if labels:
        positions = {(s_idx, t.index) for s_idx, sent in enumerate(sentences) for t in sent}
        unknown = sorted(set(labels) - positions)
        if unknown:
            raise KeyError(f"no such token positions in {doc.doc_id!r}: {unknown}")
    blocks: list[str] = []
    if isinstance(doc, EsdDocument):
        for ed in doc.eds:
            lines = [f"#ed {ed.index} {ed.event_type}"]
            lines.extend(_token_line(t, n_columns, t.predicted_label) for t in ed.tokens)
            blocks.append("\n".join(lines))
    for s_idx, sent in enumerate(sentences):
        blocks.append("\n".join(
            _token_line(t, n_columns, labels.get((s_idx, t.index), t.predicted_label))
            for t in sent
        ))
    body = "\n\n".join(blocks)
    head = "\n".join(parts)
    return head + ("\n" + body if body else "")


def serialize_corpus(
    docs: Sequence[EsdDocument | Story],
    predictions: Mapping[str, Mapping[tuple[int, int], str]] | None = None,
) -> str:
    """Inverse of parse_corpus_file up to layout: blank lines, line endings,
    the spacing inside header lines and zeros that pad a number are written
    in one canonical form. `predictions` maps a document id to the predicted
    labels of that document's tokens (see serialize_document); the documents
    it names are written with 10 columns."""
    predictions = predictions or {}
    unknown = sorted(set(predictions) - {d.doc_id for d in docs})
    if unknown:
        raise KeyError(f"no such documents: {unknown}")
    return "\n\n".join(serialize_document(d, predictions.get(d.doc_id)) for d in docs) + "\n"


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation folds over document ids: (train ids, test ids) pairs."""

    kind: str
    folds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


def split_folds(doc_ids: Sequence[str], k: int, seed: int) -> FoldPlan:
    """Shuffle `doc_ids` with `seed` and split into k folds of near-equal size.

    Fold sizes differ by at most one. Deterministic given the seed; the input
    order of `doc_ids` is irrelevant (ids are sorted before shuffling).
    """
    ids = sorted(doc_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate document ids in fold split")
    if k < 2:
        raise ValueError(f"need at least 2 folds, got k={k}")
    if k > len(ids):
        raise ValueError(f"k={k} exceeds the number of documents ({len(ids)})")
    random.Random(seed).shuffle(ids)
    n, base, extra = len(ids), len(ids) // k, len(ids) % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = ids[start : start + size]
        train = ids[:start] + ids[start + size :]
        folds.append((tuple(sorted(train)), tuple(sorted(test))))
        start += size
    assert start == n
    return FoldPlan(kind=WITHIN_SCENARIO_10FOLD, folds=tuple(folds))


def group_by_scenario(docs: Iterable[EsdDocument | Story]) -> dict[str, list]:
    """Documents by scenario id, both in first-appearance order."""
    grouped: dict[str, list] = {}
    for doc in docs:
        grouped.setdefault(doc.scenario, []).append(doc)
    return grouped


def within_scenario_plan(stories: Sequence[Story], k: int, seed: int) -> FoldPlan:
    """Per-scenario k-fold plan: each fold trains and tests inside one scenario."""
    folds = []
    for sid, group in sorted(group_by_scenario(stories).items()):
        folds.extend(split_folds([s.doc_id for s in group], k, seed).folds)
    return FoldPlan(kind=WITHIN_SCENARIO_10FOLD, folds=tuple(folds))


def leave_one_scenario_out(stories_by_scenario: Mapping[str, Sequence[str]]) -> FoldPlan:
    """One fold per scenario: its stories are the test set, the rest train.

    Scenarios without stories are excluded with a warning; fewer than two
    populated scenarios is an error.
    """
    populated = {s: list(ids) for s, ids in stories_by_scenario.items() if ids}
    for sid in sorted(set(stories_by_scenario) - set(populated)):
        logger.warning("scenario %r has no stories; excluded from fold plan", sid)
    if len(populated) < 2:
        raise ValueError("leave-one-scenario-out needs at least two populated scenarios")
    folds = []
    for sid in sorted(populated):
        test = tuple(sorted(populated[sid]))
        train = tuple(sorted(i for s, ids in populated.items() if s != sid for i in ids))
        folds.append((train, test))
    return FoldPlan(kind=LEAVE_ONE_SCENARIO_OUT, folds=tuple(folds))
