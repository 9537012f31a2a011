"""Mutated corpus, embedding and tree files.

Each text reader returns a value or raises its format error, and `main`
exits 0 or 2 on the mutated file; an exit 2 logs an error naming the file.
CRF model files are fuzzed in test_cli.TestModelFileFuzz.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import run_logged, write_mini_files
from scriptmap import corpus, features, identify
from scriptmap.cli import EXIT_DATA, EXIT_OK, main
from scriptmap.corpus import CorpusFormatError, parse_corpus_file
from scriptmap.embeddings import EmbeddingFormatError, load_embeddings
from scriptmap.identify import TreeFormatError, classify, load_tree, row_schema

# pieces of the formats' own syntax, plus any character
PIECES = st.one_of(
    st.sampled_from(["\t", "\n", " ", "#", "_", "-", ".", ",", ":", "0", "1", "9", "e", "{",
                     "}", "[", "]", '"', "nan", "inf", "1e999", "#doc", "#ed", "#kind",
                     "#scenario", "esd", "story", "VB", "NN", "true", "null"]),
    st.characters(blacklist_categories=("Cs",)),
)
SNIPPETS = st.lists(PIECES, max_size=6).map("".join)
TEXT_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "truncate", "replace_line", "duplicate_line",
                         "drop_line"]),
        st.integers(min_value=0, max_value=10**6),
        SNIPPETS,
    ),
    min_size=1,
    max_size=3,
)
NUMBERS = st.one_of(
    st.sampled_from([0, -1, 1, 0.5, 10**400, -(10**400), 1e-300]), st.integers(), st.floats()
)
JSON_VALUES = st.one_of(
    NUMBERS,
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=3),
        st.sampled_from(["le", "gt", "leaf", "split", "numeric", "nominal", "tfidf_score",
                         "event"]),
        st.lists(st.integers(-1, 3), max_size=3),
        st.dictionaries(st.sampled_from(["le", "gt", "true", "x"]), st.integers(-1, 5),
                        max_size=2),
    ),
)
# (slot, value) pairs: the slot-th value in the parsed payload becomes `value`
JSON_EDITS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), JSON_VALUES), max_size=2
)
OPTIONAL_TEXT_EDITS = st.one_of(st.just([]), TEXT_EDITS)


def edit_text(text: str, kind: str, position: int, snippet: str) -> str:
    if kind in ("insert", "delete", "truncate"):
        i = position % (len(text) + 1)
        if kind == "insert":
            return text[:i] + snippet + text[i:]
        return text[:i] if kind == "truncate" else text[:i] + text[i + 1 + len(snippet):]
    lines = text.split("\n")
    j = position % len(lines)
    if kind == "replace_line":
        lines[j] = snippet
    elif kind == "duplicate_line":
        lines.insert(j, lines[j])
    else:
        del lines[j]
    return "\n".join(lines)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def edit_json(text: str, slot: int, value) -> str:
    """A number replaces a number of the payload; any other value replaces
    any value below the top level."""
    payload = json.loads(text)
    slots = []  # (container, key) of every value below the top level
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            slots.extend((node, key) for key in keys)
            stack.extend(node[key] for key in keys)
    if is_number(value):
        slots = [(c, k) for c, k in slots if is_number(c[k])] or slots
    container, key = slots[slot % len(slots)]
    container[key] = value
    return json.dumps(payload)


def mutated(text: str, json_edits, text_edits) -> str:
    for slot, value in json_edits:
        text = edit_json(text, slot, value)
    for edit in text_edits:
        text = edit_text(text, *edit)
    return text


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The mini files, trees and sequence models trained on them, the
    original text of every file the tests mutate, and the stories' tree rows."""
    root = tmp_path_factory.mktemp("format_fuzz")
    files = write_mini_files(root)
    common = ["--esds", files["esds"], "--log-level", "error"]
    assert main(["train-identify", "--stories", files["stories"], *common,
                 "--out-dir", str(root / "trees")]) == EXIT_OK
    assert main(["train-map", "--embeddings", files["emb"], *common,
                 "--out-dir", str(root / "crf")]) == EXIT_OK
    paths = {
        "stories": root / "stories.tsv",
        "esds": root / "esds.tsv",
        "emb": root / "emb.txt",
        "tree": root / "trees" / "make_tea.tree.json",
    }
    texts = {name: p.read_text(encoding="utf-8") for name, p in paths.items()}
    stats = features.build_scenario_stats(corpus.parse_corpus_file(texts["esds"]))
    rows = [attrs for story in corpus.parse_corpus_file(texts["stories"])
            for attrs, _ in identify.story_rows(story, stats["make_tea"],
                                                identify.load_nonaction_list())]
    return {"root": root, "files": files, "paths": paths, "texts": texts, "rows": rows}


def assert_rebuilt(record, rebuilt):
    assert type(rebuilt) is type(record)
    assert rebuilt == record
    assert repr(rebuilt) == repr(record)


def check_records(docs):
    """The reader builds its records with tuple.__new__, which checks neither
    the count nor the order of the fields. Each record must equal its rebuild
    through the public constructor, by keyword from values found apart from
    its own fields where the document has them, and the documents must
    survive a write and a read. Each mention's dependents are those of
    dependent_tokens, with a chained pronoun's lemma resolved."""
    assert parse_corpus_file(corpus.serialize_corpus(docs)) == docs
    for doc in docs:
        if isinstance(doc, corpus.EsdDocument):
            blocks = [ed.tokens for ed in doc.eds]
            for i, ed in enumerate(doc.eds, 1):
                assert_rebuilt(ed, corpus.EventDescription(
                    index=i, event_type=ed.event_type, tokens=ed.tokens))
        else:
            blocks = doc.sentences
            verbs = [(s_idx, t) for s_idx, sent in enumerate(doc.sentences) for t in sent
                     if t.gold_label is not None]
            assert len(doc.mentions) == len(verbs)
            for mention, (s_idx, verb) in zip(doc.mentions, verbs):
                assert_rebuilt(mention, corpus.VerbMention(
                    sentence=s_idx, token_index=verb.index, lemma=verb.lemma,
                    dependents=mention.dependents, gold_label=verb.gold_label,
                    frame=verb.frame))
                deps = corpus.dependent_tokens(doc.sentences[s_idx], verb)
                assert [deprel for deprel, _ in mention.dependents] == [d.deprel for d in deps]
                for (_, lemma), d in zip(mention.dependents, deps):
                    if d.coref is None or not corpus.is_pronominal(d.pos):
                        assert lemma == d.lemma
        for block in blocks:
            for i, t in enumerate(block, 1):
                assert_rebuilt(t, corpus.Token(
                    index=i, surface=t.surface, lemma=t.lemma, pos=t.pos, head=t.head,
                    deprel=t.deprel, coref=t.coref, gold_label=t.gold_label, frame=t.frame,
                    predicted_label=t.predicted_label))


class TestReaders:
    @pytest.mark.parametrize("name", ["stories", "esds"])
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(edits=TEXT_EDITS)
    def test_corpus_parses_or_is_a_format_error(self, saved, name, edits):
        text = mutated(saved["texts"][name], [], edits)
        try:
            docs = parse_corpus_file(text)
        except CorpusFormatError:
            return
        check_records(docs)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(edits=TEXT_EDITS)
    def test_embeddings_load_or_are_a_format_error(self, saved, edits):
        try:
            load_embeddings(mutated(saved["texts"]["emb"], [], edits))
        except EmbeddingFormatError:
            pass

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(json_edits=JSON_EDITS, text_edits=OPTIONAL_TEXT_EDITS)
    def test_tree_loads_or_is_a_format_error(self, saved, json_edits, text_edits):
        text = mutated(saved["texts"]["tree"], json_edits, text_edits)
        try:
            load_tree(text)
        except TreeFormatError:
            pass
        try:
            tree = load_tree(text, row_schema(True))
        except TreeFormatError:
            return
        # a tree that loads against the rows' schema classifies every row
        for attrs in saved["rows"]:
            classify(tree, attrs)


class TestMainOnMutatedFiles:
    @pytest.mark.parametrize("name", ["stories", "esds", "emb", "tree"])
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_exits_0_or_2_naming_the_file(self, saved, name, data):
        root, files, paths, texts = (saved[k] for k in ("root", "files", "paths", "texts"))
        if name == "tree":  # edited as JSON, and maybe as text
            text = mutated(texts[name], data.draw(JSON_EDITS), data.draw(OPTIONAL_TEXT_EDITS))
        else:
            text = mutated(texts[name], [], data.draw(TEXT_EDITS))
        out = str(root / "out.tsv")
        argv = {
            "stories": ["validate", str(paths["stories"])],
            "esds": ["validate", str(paths["esds"])],
            "emb": ["map", "--stories", files["stories"], "--embeddings", files["emb"],
                    "--model-dir", str(root / "crf"), "--out", out],
            "tree": ["identify", "--stories", files["stories"], "--esds", files["esds"],
                     "--model-dir", str(root / "trees"), "--out", out],
        }
        paths[name].write_text(text, encoding="utf-8")
        try:
            rc, errors = run_logged([*argv[name], "--log-level", "error"])
        finally:
            paths[name].write_text(texts[name], encoding="utf-8")
        assert rc in (EXIT_OK, EXIT_DATA)
        if rc == EXIT_DATA:
            assert len(errors) == 1 and str(paths[name]) in errors[0]
