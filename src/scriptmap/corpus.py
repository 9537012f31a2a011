"""Scenario corpus data model and column-file ingestion.

Documents come in two kinds. A *story* is ordinary narrative text whose verb
tokens carry gold labels: either a scenario-specific event type or one of the
non-script classes in NON_SCRIPT_KINDS. An *esd* document is one crowdsourced
event sequence description: an ordered list of short event descriptions (EDs),
each labeled as a whole with an event type. Temporal order is textual order.

File format (UTF-8, LF). Each document starts with three header lines::

    #doc <id>
    #scenario <id>
    #kind story|esd

ESD documents precede each ED block with ``#ed <index> <event_type>``. Token
lines are tab-separated::

    index  surface  lemma  pos  head  deprel  coref  label  [frame  [predicted]]

``index`` is the 1-based position in its sentence, ``head`` the index of the
syntactic head (0 for the root), ``_`` an absent value. A blank line closes a
sentence (stories) or an ED (esd documents). The optional ninth and tenth
columns carry a frame label and a predicted label; the column count must be
uniform within one document. Document ids must be unique within a parse. A
script ED without a verbal token is warned about when it is parsed.
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
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Token:
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


@dataclass(frozen=True)
class VerbMention:
    """One labeled verb occurrence in a story.

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


@dataclass(frozen=True)
class EventDescription:
    """One ED of an ESD: a short phrase labeled with an event type."""

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


def _build_mentions(doc_id: str, sentences: Sequence[Sequence[Token]]) -> tuple[VerbMention, ...]:
    """The story's labeled verbs in textual order, with their dependents.

    A pronominal dependent on a coreference chain takes the lemma of its
    antecedent: the most recent non-pronominal chain member before it, else
    the earliest one after it. A chain of pronouns alone leaves the pronoun's
    lemma and is warned about once, when a dependent first reaches it.
    """
    # Each chain's non-pronominal members as (sentence, token, lemma), in
    # textual order; collected in the same pass as the verbs.
    chains: dict[str, list[tuple[int, int, str]]] = {}
    verbs = []
    for s_idx, sent in enumerate(sentences):
        for tok in sent:
            if tok.coref is not None and not is_pronominal(tok.pos):
                chains.setdefault(tok.coref, []).append((s_idx, tok.index, tok.lemma))
            if tok.gold_label is not None:
                verbs.append((s_idx, tok, dependent_tokens(sent, tok)))
    warned: set[str] = set()

    def dependent_lemma(s_idx: int, dep: Token) -> str:
        if dep.coref is None or not is_pronominal(dep.pos):
            return dep.lemma
        if dep.coref not in chains:
            if dep.coref not in warned:
                warned.add(dep.coref)
                logger.warning(
                    "story %s: coreference chain %r has no non-pronominal "
                    "mention; leaving pronoun lemmas unresolved",
                    doc_id,
                    dep.coref,
                )
            return dep.lemma
        members = chains[dep.coref]
        before = bisect_left(members, (s_idx, dep.index))  # members before the pronoun
        return members[before - 1 if before else 0][2]

    return tuple(
        VerbMention(
            sentence=s_idx,
            token_index=verb.index,
            lemma=verb.lemma,
            dependents=tuple((d.deprel, dependent_lemma(s_idx, d)) for d in deps),
            gold_label=verb.gold_label,
            frame=verb.frame,
        )
        for s_idx, verb, deps in verbs
    )


class _DocBuilder:
    def __init__(self, doc_id: str, line: int):
        self.doc_id = doc_id
        self.start_line = line
        self.scenario: str | None = None
        self.kind: str | None = None
        self.n_columns: int | None = None
        self.blocks: list[list[Token]] = []
        self.ed_headers: list[tuple[int, str]] = []
        self.open_tokens: list[Token] = []
        self.open_lines: list[int] = []
        self.ed_open = False  # an #ed header awaits (possibly empty) tokens

    def close_block(self):
        if self.kind == KIND_ESD:
            if self.ed_open and not self.open_tokens:
                # empty ED: keep it, with zero tokens
                self.blocks.append([])
                self.ed_open = False
                return
            if not self.open_tokens:
                return
            self.blocks.append(self.open_tokens)
            self.ed_open = False
        else:
            if not self.open_tokens:
                return
            self.blocks.append(self.open_tokens)
        self._validate_block(self.open_tokens, self.open_lines)
        self.open_tokens = []
        self.open_lines = []

    @staticmethod
    def _validate_block(tokens: list[Token], lines: list[int]):
        n = len(tokens)
        for tok, lineno in zip(tokens, lines):
            if not (0 <= tok.head <= n):
                raise CorpusFormatError(
                    f"dangling head index {tok.head} (sentence has {n} tokens)", lineno
                )

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
                EventDescription(index=idx, event_type=etype, tokens=tuple(toks))
                for (idx, etype), toks in zip(self.ed_headers, self.blocks)
            )
            for ed in eds:
                if ed.is_script and ed.main_verb() is None:
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
            mentions=_build_mentions(self.doc_id, sentences),
            n_columns=n_columns,
        )


def _absent(value: str) -> str | None:
    return None if value == ABSENT else value


def _parse_token_line(line: str, lineno: int, builder: _DocBuilder) -> Token:
    fields = line.split("\t")
    if len(fields) not in (8, 9, 10):
        raise CorpusFormatError(
            f"malformed token line: expected 8-10 tab-separated columns, got {len(fields)}",
            lineno,
        )
    if builder.n_columns is None:
        builder.n_columns = len(fields)
    elif builder.n_columns != len(fields):
        raise CorpusFormatError(
            f"inconsistent column count: document uses {builder.n_columns}, line has {len(fields)}",
            lineno,
        )
    try:
        index = int(fields[0])
        head = int(fields[4])
    except ValueError as exc:
        raise CorpusFormatError(f"malformed token line: {exc}", lineno) from None
    expected = len(builder.open_tokens) + 1
    if index != expected:
        raise CorpusFormatError(
            f"token index {index} does not match position {expected}", lineno
        )
    label = _absent(fields[7])
    if label is not None:
        if not _LABEL_RE.match(label):
            raise CorpusFormatError(f"unknown label string {label!r}", lineno)
        if not is_verbal(fields[3]):
            raise CorpusFormatError(
                f"gold label {label!r} on non-verb token {fields[1]!r} (pos {fields[3]})",
                lineno,
            )
    frame = _absent(fields[8]) if len(fields) >= 9 else None
    predicted = _absent(fields[9]) if len(fields) >= 10 else None
    return Token(
        index=index,
        surface=fields[1],
        lemma=fields[2],
        pos=fields[3],
        head=head,
        deprel=fields[5],
        coref=_absent(fields[6]),
        gold_label=label,
        frame=frame,
        predicted_label=predicted,
    )


def parse_corpus_file(text: str, kind: str | None = None) -> list[EsdDocument | Story]:
    """Parse the text of one corpus file into documents.

    When `kind` is given every document must declare that kind. Errors carry
    1-based line numbers. An empty text yields an empty list.
    """
    if kind is not None and kind not in (KIND_STORY, KIND_ESD):
        raise ValueError(f"kind must be {KIND_STORY!r} or {KIND_ESD!r}, got {kind!r}")
    lines = text.splitlines()
    docs: list[EsdDocument | Story] = []
    seen_ids: set[str] = set()
    builder: _DocBuilder | None = None

    def finish_current():
        nonlocal builder
        if builder is not None:
            docs.append(builder.finish())
            builder = None

    for lineno, line in enumerate(lines, 1):
        if line.startswith("#doc"):
            doc_id = line[4:].strip()
            if not doc_id:
                raise CorpusFormatError("empty document id", lineno)
            finish_current()
            if doc_id in seen_ids:
                raise CorpusFormatError(f"duplicate document id {doc_id!r}", lineno)
            seen_ids.add(doc_id)
            builder = _DocBuilder(doc_id, lineno)
        elif line.startswith("#scenario"):
            if builder is None:
                raise CorpusFormatError("#scenario header before #doc", lineno)
            if builder.kind is not None or builder.scenario is not None:
                raise CorpusFormatError("#scenario header out of order", lineno)
            sid = line[9:].strip()
            if not sid:
                raise CorpusFormatError("empty scenario id", lineno)
            builder.scenario = sid
        elif line.startswith("#kind"):
            if builder is None:
                raise CorpusFormatError("#kind header before #doc", lineno)
            if builder.scenario is None:
                raise CorpusFormatError("#kind header before #scenario", lineno)
            if builder.kind is not None:
                raise CorpusFormatError("duplicate #kind header", lineno)
            value = line[5:].strip()
            if value not in (KIND_STORY, KIND_ESD):
                raise CorpusFormatError(f"unknown document kind {value!r}", lineno)
            if kind is not None and value != kind:
                raise CorpusFormatError(
                    f"expected a {kind} document, found kind {value!r}", lineno
                )
            builder.kind = value
        elif line.startswith("#ed"):
            if builder is None or builder.kind is None:
                raise CorpusFormatError("#ed header before #kind", lineno)
            if builder.kind != KIND_ESD:
                raise CorpusFormatError("#ed header in a story document", lineno)
            builder.close_block()
            parts = line[3:].split(None, 1)
            if len(parts) != 2:
                raise CorpusFormatError("malformed #ed header", lineno)
            try:
                ed_index = int(parts[0])
            except ValueError:
                raise CorpusFormatError(
                    f"malformed #ed index {parts[0]!r}", lineno
                ) from None
            etype = parts[1].strip()
            if not _LABEL_RE.match(etype):
                raise CorpusFormatError(f"unknown label string {etype!r}", lineno)
            if ed_index != len(builder.ed_headers) + 1:
                raise CorpusFormatError(
                    f"#ed index {ed_index} out of order (expected {len(builder.ed_headers) + 1})",
                    lineno,
                )
            builder.ed_headers.append((ed_index, etype))
            builder.ed_open = True
        elif not line.strip():
            if builder is not None:
                builder.close_block()
        else:
            if builder is None:
                raise CorpusFormatError("token line before #doc header", lineno)
            if builder.kind is None:
                raise CorpusFormatError("token line before #kind header", lineno)
            if builder.kind == KIND_ESD and not builder.ed_open:
                raise CorpusFormatError("token line outside any #ed block", lineno)
            tok = _parse_token_line(line, lineno, builder)
            builder.open_tokens.append(tok)
            builder.open_lines.append(lineno)
    finish_current()
    return docs


def parse_corpus_path(path: str | Path, kind: str | None = None) -> list[EsdDocument | Story]:
    return parse_corpus_file(Path(path).read_text(encoding="utf-8"), kind)


def _token_line(tok: Token, n_columns: int, predicted: str | None) -> str:
    fields = [
        str(tok.index),
        tok.surface,
        tok.lemma,
        tok.pos,
        str(tok.head),
        tok.deprel,
        tok.coref or ABSENT,
        tok.gold_label or ABSENT,
    ]
    if n_columns >= 9:
        fields.append(tok.frame or ABSENT)
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
    """Inverse of parse_corpus_file up to column whitespace. `predictions`
    maps a document id to the predicted labels of that document's tokens (see
    serialize_document); the documents it names are written with 10 columns."""
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
