"""Shared fixtures: the shipped synthetic corpus plus a small hand-built one.

The mini corpus is one scenario with two sequence descriptions and two
stories, small enough that every expected number in the tests that use it
can be checked by hand.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from scriptmap import corpus, embeddings

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data" / "synthetic"


def tok(idx, surface, lemma, pos, head, deprel, coref="_", label="_", *extra):
    """One corpus token line. Extra columns (frame, prediction) append as given."""
    cols = [str(idx), surface, lemma, pos, str(head), deprel, coref, label]
    cols.extend(extra)
    return "\t".join(cols)


MINI_ESD_TEXT = "\n".join(
    [
        "#doc esd_1",
        "#scenario make_tea",
        "#kind esd",
        "#ed 1 boil_water",
        tok(1, "boil", "boil", "VB", 0, "root", "_", "boil_water"),
        tok(2, "water", "water", "NN", 1, "dobj"),
        "",
        "#ed 2 steep_tea",
        tok(1, "steep", "steep", "VB", 0, "root", "_", "steep_tea"),
        tok(2, "the", "the", "DT", 3, "det"),
        tok(3, "tea", "tea", "NN", 1, "dobj"),
        "",
        "#ed 3 drink_tea",
        tok(1, "drink", "drink", "VB", 0, "root", "_", "drink_tea"),
        tok(2, "tea", "tea", "NN", 1, "dobj"),
        "",
        "#doc esd_2",
        "#scenario make_tea",
        "#kind esd",
        "#ed 1 boil_water",
        tok(1, "heat", "heat", "VB", 0, "root", "_", "boil_water"),
        tok(2, "water", "water", "NN", 1, "dobj"),
        "",
        "#ed 2 steep_tea",
        tok(1, "add", "add", "VB", 0, "root", "_", "steep_tea"),
        tok(2, "leaves", "leaf", "NNS", 1, "dobj"),
        "",
        "#ed 3 non_script_event",
        tok(1, "relax", "relax", "VB", 0, "root", "_", "non_script_event"),
        "",
    ]
)

MINI_STORY_TEXT = "\n".join(
    [
        "#doc story_1",
        "#scenario make_tea",
        "#kind story",
        tok(1, "Anna", "Anna", "NNP", 2, "nsubj", "c1"),
        tok(2, "boiled", "boil", "VBD", 0, "root", "_", "boil_water"),
        tok(3, "water", "water", "NN", 2, "dobj"),
        "",
        tok(1, "She", "she", "PRP", 2, "nsubj", "c1"),
        tok(2, "steeped", "steep", "VBD", 0, "root", "_", "steep_tea"),
        tok(3, "tea", "tea", "NN", 2, "dobj"),
        "",
        tok(1, "She", "she", "PRP", 2, "nsubj", "c1"),
        tok(2, "wanted", "want", "VBD", 0, "root", "_", "non_script_event"),
        tok(3, "to", "to", "TO", 4, "mark"),
        tok(4, "relax", "relax", "VB", 2, "xcomp", "_", "script_related"),
        "",
        "#doc story_2",
        "#scenario make_tea",
        "#kind story",
        tok(1, "Tom", "Tom", "NNP", 2, "nsubj", "c1"),
        tok(2, "heated", "heat", "VBD", 0, "root", "_", "boil_water"),
        tok(3, "the", "the", "DT", 4, "det"),
        tok(4, "water", "water", "NN", 2, "dobj"),
        "",
        tok(1, "He", "he", "PRP", 2, "nsubj", "c1"),
        tok(2, "added", "add", "VBD", 0, "root", "_", "steep_tea"),
        tok(3, "leaves", "leaf", "NNS", 2, "dobj"),
        "",
        tok(1, "He", "he", "PRP", 2, "nsubj", "c1"),
        tok(2, "drank", "drink", "VBD", 0, "root", "_", "drink_tea"),
        tok(3, "tea", "tea", "NN", 2, "dobj"),
        "",
    ]
)

MINI_EMBEDDINGS_TEXT = "\n".join(
    [
        "10 2",
        "boil 0.3 0.0",
        "heat 0.25 0.0",
        "water 0.2 0.0",
        "steep 0.0 0.3",
        "add 0.0 0.25",
        "tea 0.0 0.2",
        "leaf 0.0 0.15",
        "drink -0.3 0.0",
        "want 0.0 0.0",
        "relax 0.01 -0.01",
        "",
    ]
)


# Other line-end forms of a text, which every reader takes as the same lines
# as the LF text.
LINE_END_FORMS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "no_final_line_end": lambda text: text.removesuffix("\n"),
}

# The characters besides LF and CR at which str.splitlines() breaks a line.
# They are no line ends in any of scriptmap's text formats.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def load_text(text: str, words=None) -> embeddings.EmbeddingTable:
    """load_embeddings on a file that holds `text` as UTF-8; a lone surrogate
    becomes its three bytes, which are not UTF-8."""
    return embeddings.load_embeddings(io.BytesIO(text.encode("utf-8", "surrogatepass")), words)


def codepoint(char: str) -> str:
    """A test id for one character."""
    return f"U+{ord(char):04X}"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def synthetic_esds():
    return corpus.parse_corpus_path(DATA_DIR / "descript.tsv", kind="esd")


@pytest.fixture(scope="session")
def synthetic_stories():
    return corpus.parse_corpus_path(DATA_DIR / "inscript.tsv", kind="story")


@pytest.fixture(scope="session")
def synthetic_table():
    with open(DATA_DIR / "embeddings.txt", "rb") as file:
        return embeddings.load_embeddings(file)


@pytest.fixture()
def mini_esds():
    return corpus.parse_corpus_file(MINI_ESD_TEXT, kind="esd")


@pytest.fixture()
def mini_stories():
    return corpus.parse_corpus_file(MINI_STORY_TEXT, kind="story")


@pytest.fixture()
def mini_table():
    return load_text(MINI_EMBEDDINGS_TEXT)
