"""Vector table loading, mention vectors, binning, epsilon tuning."""

from __future__ import annotations

import importlib.util
import io
import itertools
import logging
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LINE_END_FORMS, NOT_LINE_ENDS, REPO_ROOT, codepoint, load_text
from scriptmap.cli import EXIT_DATA, main
from scriptmap.embeddings import (
    _WINDOW_CHARS,
    _windows,
    BIN_HIGH,
    BIN_LOW,
    BIN_MID,
    DEFAULT_EPSILON_GRID,
    DiscretizationConfig,
    EmbeddingFormatError,
    bin_codes,
    cosine,
    discretize,
    load_embeddings,
    mention_vector,
)


@pytest.fixture
def small_windows(monkeypatch):
    """Windows of ~256 characters, so that a table of short rows spans many."""
    monkeypatch.setattr("scriptmap.embeddings._WINDOW_CHARS", 256)


def table_of(**vectors):
    """Build a table from keyword vectors, bypassing the text format."""
    from scriptmap.embeddings import EmbeddingTable

    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        dimension=dim, vectors={w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()}
    )


class TestLoad:
    def test_two_entries_three_dims(self):
        table = load_text("2 3\ncake 1 0 0\nmix 0 1 0\n")
        assert table.dimension == 3
        assert len(table) == 2
        assert np.array_equal(table.lookup("cake"), [1.0, 0.0, 0.0])

    def test_short_vector_rejected_with_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_text("2 3\ncake 1 0 0\nmix 0 1\n")

    def test_duplicate_keeps_first_and_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_text("2 2\ncake 1 0\ncake 0 1\n")
        assert np.array_equal(table.lookup("cake"), [1.0, 0.0])
        assert any("cake" in r.message for r in caplog.records)

    def test_count_mismatch_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_text("5 2\ncake 1 0\n")
        assert len(table) == 1
        assert any("5" in r.message for r in caplog.records)

    def test_bad_float_rejected(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_text("1 2\ncake one 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [("1 3\nboil nan inf 1\n", 2), ("2 2\ncake 1 0\nboil 1 -inf\n", 3),
         ("1 2\nboil 1 1e400\n", 2), ("1 2\nboil -1e400 1\n", 2), ("1 2\nboil Infinity 1\n", 2)],
    )
    def test_non_finite_value_rejected_with_line(self, text, line):
        with pytest.raises(EmbeddingFormatError, match=f"line {line}"):
            load_text(text)

    @pytest.mark.parametrize("line", [2, 90])
    @pytest.mark.parametrize("row", ["big 1e200 1e200", "big 1.3407807929942597e154 0",
                                     "big -1e154 1e154", "big 1.7976931348623157e308 0"])
    def test_overflowing_squared_norm_rejected_with_line_and_word(
        self, tmp_path, row, line, small_windows
    ):
        # finite values whose x.dot(x) overflows would score -1 against themselves
        rows = filler_rows(100)
        rows[line - 2] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError) as err:
                load_text(rows_text(rows))
        assert str(err.value) == f"line {line}: the squared norm of the vector of 'big' overflows"
        path = tmp_path / "vectors.txt"
        path.write_text(rows_text(rows), encoding="utf-8")
        assert main(["train-map", "--esds", str(REPO_ROOT / "data" / "synthetic" / "descript.tsv"),
                     "--embeddings", str(path), "--out-dir", str(tmp_path / "m")]) == EXIT_DATA

    def test_largest_accepted_vectors_compare_finitely(self):
        # 2 * 9e153**2 is below the largest double; the averages of accepted
        # rows are no longer than the longest row, so their cosines are finite
        table = load_text("2 2\nbig 9e153 9e153\nneg -9e153 9e153\n")
        big, neg = table.lookup("big"), table.lookup("neg")
        assert cosine(big, big) == pytest.approx(1.0)
        assert cosine(big, neg) == pytest.approx(0.0, abs=1e-15)
        mean = mention_vector("big", ["neg"], table)
        assert -1.0 < cosine(mean, big) < 1.0

    def test_missing_header_rejected(self):
        with pytest.raises(EmbeddingFormatError):
            load_text("cake 1 0\n")

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(EmbeddingFormatError):
            load_text("1 0\ncake\n")

    def test_huge_declared_dimension_is_a_field_count_error(self, tmp_path):
        # no header value alone sizes an allocation: the short row is named
        # before any matrix of 10**13 columns is asked for
        text = "1 10000000000000\nw 1\n"
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(text)
        assert str(err.value) == "line 2: expected 1 word and 10000000000000 values, got 2 fields"
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        data = REPO_ROOT / "data" / "synthetic"
        assert main(["evaluate", "classification", "--esds", str(data / "descript.tsv"),
                     "--stories", str(data / "inscript.tsv"), "--embeddings", str(path)]) == EXIT_DATA

    def test_text_is_a_type_error_that_says_how_to_open_the_table(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 2\nw 1 2\n", encoding="utf-8")
        with open(path, encoding="utf-8") as file:
            for source in (path.read_text(encoding="utf-8"), file, io.StringIO("1 2\nw 1 2\n")):
                with pytest.raises(TypeError, match=r'open the table with open\(path, "rb"\)$'):
                    load_embeddings(source)
        assert load_file(path).lookup("w").tolist() == [1.0, 2.0]

    def test_lookup_lowercases_first(self):
        table = load_text("1 2\nanna 0.5 0.5\n")
        assert np.array_equal(table.lookup("Anna"), [0.5, 0.5])
        assert table.lookup("bob") is None
        assert "ANNA" in table
        assert "bob" not in table

    @pytest.mark.parametrize("form", sorted(LINE_END_FORMS))
    @pytest.mark.parametrize("n_rows", [0, _WINDOW_CHARS // 4], ids=["short", "long"])
    def test_line_end_forms_load_alike(self, form, n_rows):
        # the long table spans several windows, and its bad row lies past the first
        rows = ["cake 1 0", "", "mix 0 1"] + filler_rows(n_rows)
        text = rows_text(rows)
        assert n_rows == 0 or len(text) > 4 * _WINDOW_CHARS
        assert_bit_equal(load_text(LINE_END_FORMS[form](text)), float_reference(text))
        bad = 3 + n_rows // 3
        rows.insert(bad, "bad 1")
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(LINE_END_FORMS[form](rows_text(rows)))
        assert str(err.value) == f"line {bad + 2}: expected 1 word and 2 values, got 2 fields"

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=codepoint)
    def test_no_line_end_between_values(self, char):
        # the format allows any whitespace between values, so the character
        # separates them and ends no line
        text = f"2 2\ncake 1{char}0\nmix 0 1\n"
        table = load_text(text)
        assert list(table.vectors) == ["cake", "mix"]
        assert table.lookup("cake").tolist() == [1.0, 0.0]
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(text + "bad 1\n")
        assert str(err.value) == "line 4: expected 1 word and 2 values, got 2 fields"


def float_reference(text: str) -> dict[str, np.ndarray]:
    """The table of a well-formed file, read line by line with float()."""
    vectors: dict[str, np.ndarray] = {}
    for line in text.splitlines()[1:]:
        if line.strip():
            word, *values = line.split()
            vectors.setdefault(word, np.array([float(x) for x in values], dtype=np.float64))
    return vectors


def assert_bit_equal(table, reference: dict[str, np.ndarray]):
    assert list(table.vectors) == list(reference)
    for word, expected in reference.items():
        assert table.vectors[word].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def gen_table_text(tmp_path, filler: int = 100) -> str:
    """The 300-d table of perfbench's generator for a one-scenario corpus."""
    spec = importlib.util.spec_from_file_location("gen", REPO_ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    paths = gen.generate(tmp_path, seed=3, scenarios=1, esds=1, stories=1, filler=filler)
    return paths["embeddings"].read_text(encoding="utf-8")


def rows_text(rows: list[str], dimension: int = 2) -> str:
    return f"{len(rows)} {dimension}\n" + "\n".join(rows) + "\n"


def filler_rows(n: int, start: int = 0) -> list[str]:
    return [f"w{i} {i} -{i}.5" for i in range(start, start + n)]


class TestBulkLoad:
    """The table is read in windows of lines; values, errors and warnings are
    those of reading it one line and one float() at a time."""

    def test_generated_table_is_bit_equal_to_float(self, tmp_path):
        text = gen_table_text(tmp_path)
        assert len(text) > 3 * _WINDOW_CHARS
        table = load_text(text)
        assert table.dimension == 300
        assert_bit_equal(table, float_reference(text))

    def test_random_doubles_round_trip(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=(150, 5), dtype=np.uint64)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = 1.0
        # a row's squared norm must be finite: scale the largest values down
        # by a power of two, which keeps every mantissa bit
        values[np.abs(values) >= 2.0**500] /= 2.0**600
        # the second row holds the longest vector whose squared norm is finite
        specials = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -0.0,
                    0.0, -1.3407807929942596e154, 0.0, 1e-300, -0.0]
        values.flat[: len(specials)] = specials
        text = rows_text([f"w{i} " + " ".join(repr(float(x)) for x in row)
                          for i, row in enumerate(values)], 5)
        table = load_text(text)
        assert_bit_equal(table, float_reference(text))
        assert table.lookup("w0").view(np.uint64).tolist() == (
            np.array(specials[:5]).view(np.uint64).tolist()
        )
        assert math.copysign(1.0, table.lookup("w0")[4]) == -1.0

    @pytest.mark.parametrize("end", ["", "\n"], ids=["no_final_line_end", "final_line_end"])
    def test_rows_of_the_shortest_form_fit_the_matrix(self, end, small_windows):
        # a window keeps a few dozen rows, so the matrix doubles several times;
        # it never holds more than twice the rows kept, nor more than the keys
        rows = [f"{i} {i % 10}" for i in range(200)]
        text = "200 1\n" + "\n" * 300 + "\n".join(rows) + end
        table = load_text(text)
        assert [table.lookup(str(i)).tolist() for i in range(200)] == [[i % 10] for i in range(200)]
        assert len(table.lookup("0").base) <= 2 * 200
        table = load_text(text, {"7", "150"})
        assert [table.lookup(w).tolist() for w in ("7", "150")] == [[7], [0]]
        assert len(table.lookup("7").base) == 2

    def test_rows_share_one_matrix(self):
        table = load_text(rows_text(filler_rows(100)))
        bases = {id(vec.base) for vec in table.vectors.values()}
        assert len(bases) == 1 and None not in bases

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({11: "u 1", 21: "v x 1"}, "line 11: expected 1 word and 2 values, got 2 fields"),
            ({11: "u 1 inf", 21: "v"}, "line 11: non-finite value in the vector of 'u'"),
            ({11: "u 1 x", 21: "v nan 1"}, "line 11: could not convert string to float: 'x'"),
            ({11: "u", 21: "v 1 2 3"}, "line 11: expected 1 word and 2 values, got 1 fields"),
            ({100: "u 1 2 3", 150: "v one 1"},
             "line 100: expected 1 word and 2 values, got 4 fields"),
            ({100: "u 1 -inf", 150: "v 1"}, "line 100: non-finite value in the vector of 'u'"),
            ({11: "u 1e200 1", 21: "v x 1"},
             "line 11: the squared norm of the vector of 'u' overflows"),
            ({100: "u 1 x", 150: "v 1e200 1"}, "line 100: could not convert string to float: 'x'"),
        ],
    )
    def test_first_bad_line_wins(self, bad, message, small_windows):
        """Two errors in one window (lines 11 and 21) or in two windows past
        the first (lines 100 and 150): the earlier line is named."""
        rows = filler_rows(200)
        for line, row in bad.items():
            rows[line - 2] = row
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(rows_text(rows))
        assert str(err.value) == message
        assert err.value.line == min(bad)

    def test_duplicate_past_the_first_window_warns_with_its_line(self, caplog, small_windows):
        rows = filler_rows(150)
        rows[129] = "w3 9 9"
        with caplog.at_level(logging.WARNING, logger="scriptmap.embeddings"):
            table = load_text(rows_text(rows))
        assert table.lookup("w3").tolist() == [3.0, -3.5]
        assert len(table) == 149
        assert [r.getMessage() for r in caplog.records] == [
            "duplicate embedding for 'w3' (line 131); keeping the first",
            "embedding header declares 150 entries, file holds 149",
        ]

    def test_blank_lines_between_rows_are_skipped(self, small_windows):
        rows = filler_rows(100)
        text = "100 2\n\n" + "\n  \n\t\n".join(rows) + "\n\n"
        table = load_text(text)
        assert len(table) == 100
        assert_bit_equal(table, float_reference(text))

    @pytest.mark.parametrize(
        "text, line",
        [("3 2\nw0 1 2\n\n\nw1 1 2\n\nw2 1 x\n", 7),
         ("101 2\n\n" + "\n  \n\t\n".join(filler_rows(100)) + "\nw 1 x\n", 301)],
        ids=["one_window", "several_windows"],
    )
    def test_blank_lines_keep_file_line_numbers(self, text, line, small_windows):
        """Blank lines count in the window that holds them and in every later one."""
        with pytest.raises(EmbeddingFormatError, match=f"^line {line}: could not convert"):
            load_text(text)

    @pytest.mark.parametrize("rows", [["w0"], ["w0 1 2", "w1   \t "], filler_rows(64) + ["w64"]])
    def test_word_only_line_is_a_field_count_error(self, rows, small_windows):
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(rows_text(rows))
        assert str(err.value) == (
            f"line {len(rows) + 1}: expected 1 word and 2 values, got 1 fields"
        )

    def test_hash_words_are_not_comments(self):
        table = load_text(rows_text(["#tag 1 2", "w1 3 4", "#"  " 5 6"]))
        assert table.lookup("#tag").tolist() == [1.0, 2.0]
        assert table.lookup("#").tolist() == [5.0, 6.0]

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "1__0", "0x10", "#2"])
    @pytest.mark.parametrize("line", [2, 90])
    def test_number_grammar(self, tmp_path, token, line, small_windows):
        """Only ASCII decimal and exponent forms: no underscores, no other
        digits; the error names the line and the token."""
        rows = filler_rows(100)
        rows[line - 2] = f"w{line - 2} 1 {token}"
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(rows_text(rows))
        assert str(err.value) == f"line {line}: could not convert string to float: {token!r}"
        path = tmp_path / "vectors.txt"
        path.write_text(rows_text(rows), encoding="utf-8")
        assert main(["train-map", "--esds", str(REPO_ROOT / "data" / "synthetic" / "descript.tsv"),
                     "--embeddings", str(path), "--out-dir", str(tmp_path / "m")]) == EXIT_DATA
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "token, value",
        [("+1", 1.0), ("-0", -0.0), ("1.", 1.0), (".5", 0.5), ("1E-3", 1e-3), ("-1e+2", -100.0),
         ("4.9e-324", 5e-324), ("1e-400", 0.0), ("00012", 12.0)],
    )
    def test_accepted_forms(self, token, value):
        got = load_text(rows_text([f"w 1 {token}"])).lookup("w")[1]
        assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)

    @pytest.mark.parametrize("sep", [" ", "\t", "\u00a0", "\u2003", "\u3000", " \t "])
    def test_any_python_whitespace_separates(self, sep):
        table = load_text(f"1 2\nw{sep}1{sep}2{sep}\n")
        assert table.lookup("w").tolist() == [1.0, 2.0]


def load_file(path, words=None):
    with open(path, "rb") as file:
        return load_embeddings(file, words)


# Bytes that are not UTF-8: a stray byte, truncated sequences, a surrogate
# and a lone continuation byte.
UNDECODABLE = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f\x98", b"\x80\x80"]

# Rows that the reader rejects, on a word that no set of words below holds.
BAD_ROWS = {
    "nan": ("unread nan 1", "non-finite value in the vector of 'unread'"),
    "short": ("unread 1", "expected 1 word and 2 values, got 2 fields"),
    "1e400": ("unread 1 1e400", "non-finite value in the vector of 'unread'"),
    "norm_overflow": ("unread 1e200 1", "the squared norm of the vector of 'unread' overflows"),
    "unreadable": ("unread 1 x", "could not convert string to float: 'x'"),
}


# Unread rows at the edge of the plain-number scan: rows it passes, rows the
# full parse accepts but the scan sends to it, and rows the parse rejects.
SCAN_BOUNDARY_ROWS = {
    "minus_point_5": "unread 1 -.5",
    "point_5": "unread 1 .5",
    "1_point": "unread 1 1.",
    "plus_1": "unread 1 +1",
    "1e5": "unread 1 1e5",
    "1E-5": "unread 1 1E-5",
    "minus_0": "unread 1 -0",
    "007": "unread 1 007",
    "21_digits": "unread 1 " + "9" * 21 + ".5",
    "22_digits": "unread 1 " + "9" * 22,
    "400_digits": "unread 1 " + "9" * 400,
    "norm_of_155_digits": "unread " + "9" * 155 + " " + "9" * 155,
    "two_points": "unread 1 1.2.3",
    "two_minus": "unread 1 --1",
    "lone_minus": "unread 1 -",
    "lone_point": "unread . 1",
    "inner_minus": "unread 1 1-2",
    "point_minus": "unread 1 1.-2",
    "tab": "unread 1\t2",
    "two_spaces": "unread 1  2",
    "trailing_space": "unread 1 2 ",
    "trailing_tab": "unread 1 2\t",
    "vertical_tab": "unread 1\x0b2",
    "nbsp": "unread 1\u00a02",
    "em_space": "unread 1\u20032",
    "fullwidth_1": "unread 1 \uff11",
    "underscore": "unread 1 1_0",
    "inf": "unread 1 inf",
    "nan": "unread nan 1",
    "1e400": "unread 1 1e400",
    "norm_overflow": "unread 1e200 1e200",
    "word_only": "unread",
}


def outcome(load, words):
    """The message and line of the format error that loading for `words`
    raises, the message of a decoding error, or the bits of each kept vector."""
    try:
        table = load(words)
    except EmbeddingFormatError as err:
        return str(err), err.line
    except UnicodeError as err:
        return str(err), None
    return {word: vec.view(np.uint64).tolist() for word, vec in table.vectors.items()}


def assert_kept_set_keeps_the_outcome(load):
    """Loading for no word, or for w1, raises what loading every row raises,
    or holds the vectors of every row's table."""
    full = outcome(load, None)
    for words in (set(), {"w1"}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(load, words)
        if isinstance(full, tuple):
            assert got == full
        else:
            assert got == {word: full[word] for word in full if word in words}


class TestStreamedLoad:
    """A table read keeping only the rows of a set of words holds the rows
    that reading every row holds for those words. It checks every row and
    warns as reading every row does, and names an undecodable byte as
    reading the whole file as text does. Rows outside the set are checked by a scan
    for plain numbers, and a window holding any other such row is parsed in
    full, so what the reader accepts, rejects and warns about does not
    depend on the set."""

    @pytest.mark.parametrize("form", ["lf", *sorted(LINE_END_FORMS)])
    def test_file_form_holds_the_rows_of_the_text_form(self, tmp_path, form, small_windows):
        text = rows_text(["cake 1 0", "", "Mix 0 1", "caf\u00e9 2 2"]
                         + filler_rows(100))
        if form != "lf":
            text = LINE_END_FORMS[form](text)
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8", newline="")
        full = float_reference(text)
        # lookup reads a word's lowercase form, then the word as written
        words = {"CAKE", "mix", "caf\u00e9", "w7", "w99", "absent"}
        for table, kept in [(load_file(path), list(full)),
                            (load_file(path, words), ["cake", "caf\u00e9", "w7", "w99"])]:
            assert_bit_equal(table, {word: full[word] for word in kept})
            bases = {id(vec.base) for vec in table.vectors.values()}
            assert len(bases) == 1 and None not in bases

    def test_reads_that_split_a_line_end_or_a_character_name_the_same_line(
        self, tmp_path, monkeypatch
    ):
        # a CR LF or a two-byte character across two reads is still one
        text = "3 2\r\nw\u00e9 1 2\r\nv 3 4\r\rx 1\r\n"
        path = tmp_path / "vectors.txt"
        path.write_bytes(text.encode("utf-8"))
        for size in range(1, len(text.encode("utf-8")) + 1):
            monkeypatch.setattr("scriptmap.embeddings._WINDOW_CHARS", size)
            with pytest.raises(EmbeddingFormatError) as err:
                load_file(path)
            assert str(err.value) == "line 5: expected 1 word and 2 values, got 2 fields"

    @pytest.mark.parametrize("bad", UNDECODABLE, ids=lambda b: b.hex())
    @pytest.mark.parametrize("at", [3, 200, None], ids=["first_window", "later_window", "end"])
    def test_undecodable_message_is_that_of_read_text(self, tmp_path, monkeypatch, bad, at):
        """The position is the byte's in the file, whichever read holds it."""
        lines = rows_text(["\u00e9t\u00e9 1 2", "\u20ac 3 4"] + filler_rows(300)).encode()
        lines = lines.split(b"\n")
        if at is None:
            data = b"\n".join(lines) + bad
        else:
            lines[at] = lines[at][:2] + bad + lines[at][2:]
            data = b"\n".join(lines)
        path = tmp_path / "vectors.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text(encoding="utf-8")
        for size in (1, 2, 3, 7, 256, _WINDOW_CHARS):
            monkeypatch.setattr("scriptmap.embeddings._WINDOW_CHARS", size)
            with pytest.raises(UnicodeError) as err:
                load_file(path, {"w1"})
            assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("bad", ["short", "unreadable"])
    def test_undecodable_byte_wins_over_a_format_error(self, tmp_path, bad, small_windows):
        rows = filler_rows(300)
        rows[0] = BAD_ROWS[bad][0]
        data = rows_text(rows).encode() + b"w\xff 1 2\n"
        path = tmp_path / "vectors.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeError) as err:
            load_file(path, {"w1"})
        assert str(err.value) == str(expected.value)
        assert not isinstance(err.value, EmbeddingFormatError)

    @pytest.mark.parametrize("bad", list(BAD_ROWS))
    @pytest.mark.parametrize("line", [2, 90])
    def test_rows_outside_the_set_are_still_checked(self, tmp_path, bad, line, small_windows):
        rows = filler_rows(100)
        rows[line - 2] = BAD_ROWS[bad][0]
        path = tmp_path / "vectors.txt"
        path.write_text(rows_text(rows), encoding="utf-8")
        for words in (None, {"w1", "w99"}, set()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmbeddingFormatError) as err:
                    load_file(path, words)
            assert str(err.value) == f"line {line}: {BAD_ROWS[bad][1]}"
            assert err.value.line == line

    @pytest.mark.parametrize("bad", list(BAD_ROWS))
    def test_a_duplicate_is_checked_when_every_row_is_kept(self, bad, small_windows):
        # keeping every row, a duplicate is the only row left unread, and
        # it is rejected as the same row under a new word would be
        rows = filler_rows(100)
        rows[88] = BAD_ROWS[bad][0].replace("unread", "w3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError) as err:
                load_text(rows_text(rows))
        assert str(err.value) == "line 90: " + BAD_ROWS[bad][1].replace("unread", "w3")
        assert err.value.line == 90

    def test_warnings_count_every_word_when_a_set_is_passed(self, tmp_path, caplog, small_windows):
        rows = filler_rows(150)
        rows[129] = "w3 9 9"  # a duplicate of a kept word
        rows[140] = "w5 9 9"  # and of one left out
        path = tmp_path / "vectors.txt"
        path.write_text(rows_text(rows), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="scriptmap.embeddings"):
            table = load_file(path, {"w3", "w77", "absent"})
        assert list(table.vectors) == ["w3", "w77"]
        assert table.lookup("w3").tolist() == [3.0, -3.5]
        assert [r.getMessage() for r in caplog.records] == [
            "duplicate embedding for 'w3' (line 131); keeping the first",
            "duplicate embedding for 'w5' (line 142); keeping the first",
            "embedding header declares 150 entries, file holds 148",
        ]

    def test_empty_set_and_empty_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text(rows_text(filler_rows(3)), encoding="utf-8")
        table = load_file(path, set())
        assert table.dimension == 2 and len(table) == 0
        path.write_bytes(b"")
        with pytest.raises(EmbeddingFormatError, match="^line 1: missing header line$"):
            load_file(path, set())

    @pytest.mark.parametrize("filler", [1000, 10000])
    def test_memory_beyond_the_kept_rows_does_not_grow_with_the_table(self, tmp_path, filler):
        """Past the kept rows, the reader holds one window (its bytes, text,
        lines, their halves and its parsed rows) and the set of the words
        seen: the one cost that grows with the table's row count."""
        gen_table_text(tmp_path, filler=filler)
        path = tmp_path / "embeddings.txt"
        with open(path, encoding="utf-8") as file:
            seen = {line.split(None, 1)[0] for line in itertools.islice(file, 1, None)}
        assert len(seen) > filler
        seen_bytes = sys.getsizeof(seen) + sum(map(sys.getsizeof, seen))
        words = {word for word in seen if not word.startswith("filler")}
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            table = load_file(path, words)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert 0 < len(table) == len(words)
        assert 16 * _WINDOW_CHARS < path.stat().st_size  # holding the text would fail
        assert peak - len(table) * table.dimension * 8 - seen_bytes < 16 * _WINDOW_CHARS

    @pytest.mark.parametrize("form", list(SCAN_BOUNDARY_ROWS))
    @pytest.mark.parametrize("line", [2, 90], ids=["first_window", "later_window"])
    @pytest.mark.parametrize("source", ["text", "file"])
    def test_the_kept_set_never_changes_the_outcome(
        self, tmp_path, form, line, source, small_windows
    ):
        rows = filler_rows(100)
        rows[line - 2] = SCAN_BOUNDARY_ROWS[form]
        text = rows_text(rows)
        if source == "text":
            assert_kept_set_keeps_the_outcome(lambda words: load_text(text, words))
        else:
            path = tmp_path / "vectors.txt"
            path.write_text(text, encoding="utf-8")
            assert_kept_set_keeps_the_outcome(lambda words: load_file(path, words))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.text(alphabet="0123456789-.+eE_ \t\x0b\u00a0\u2003\uff11\ud800infa",
                       max_size=12),
        line=st.sampled_from([2, 90]),
    )
    def test_short_rows_keep_the_outcome(self, values, line):
        rows = filler_rows(100)
        rows[line - 2] = f"unread {values}"
        text = rows_text(rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("scriptmap.embeddings._WINDOW_CHARS", 256)
            assert_kept_set_keeps_the_outcome(lambda words: load_text(text, words))

    @staticmethod
    def parsed_rows(monkeypatch) -> list[int]:
        """The number of rows of each call of the value parser, as it runs."""
        from scriptmap import embeddings

        calls = []
        parse = embeddings._parse_values

        def counted(values):
            calls.append(len(values))
            return parse(values)

        monkeypatch.setattr(embeddings, "_parse_values", counted)
        return calls

    def test_only_kept_rows_are_parsed_in_a_plain_table(self, monkeypatch, small_windows):
        text = rows_text(filler_rows(300))
        calls = self.parsed_rows(monkeypatch)
        assert load_text(text, {"w1", "w250"}).lookup("w250").tolist() == [250.0, -250.5]
        assert calls == [1, 1]
        calls.clear()
        load_text(text)
        assert sum(calls) == 300

    def test_an_exponent_sends_its_own_window_to_the_full_parse(
        self, monkeypatch, small_windows
    ):
        rows = filler_rows(300)
        rows[150] = "w150 3e-5 1"
        text = rows_text(rows)
        full = load_text(text)
        calls = self.parsed_rows(monkeypatch)
        table = load_text(text, {"w1"})
        # the lines of the window that holds line 152, which is not the
        # first window, the one with the header line
        window = next(lines for lines in _windows(io.BytesIO(text.encode())) if rows[150] in lines)
        assert rows[150] in window and "300 2" not in window
        assert calls == [1, len(window)]
        assert_bit_equal(table, {"w1": full.vectors["w1"]})
        calls.clear()
        assert_bit_equal(load_text(text, {"w150"}), {"w150": full.vectors["w150"]})
        assert calls == [1]  # a kept row is parsed whatever its form

    @pytest.mark.parametrize("rows", [filler_rows(300), filler_rows(150) + ["u 3e-5 1"]])
    def test_a_window_that_keeps_no_row_warns_of_nothing(self, rows, small_windows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for words in (set(), {"w1"}, {"absent"}):
                assert len(load_text(rows_text(rows), words)) == len(words & {"w1"})

    @pytest.mark.parametrize("words", [None, set(), {"w5"}, {"w1"}])
    def test_a_word_only_line_is_a_field_count_error_kept_or_not(self, words, small_windows):
        rows = filler_rows(100)
        rows[5] = "w5"
        with pytest.raises(EmbeddingFormatError) as err:
            load_text(rows_text(rows), words)
        assert str(err.value) == "line 7: expected 1 word and 2 values, got 1 fields"


class TestMentionVector:
    def test_verb_counted_twice(self):
        table = table_of(boil=[1.0, 0.0], water=[0.0, 1.0])
        got = mention_vector("boil", ["water"], table)
        assert np.array_equal(got, np.array([2.0, 1.0]) / 3.0)

    def test_unknown_context_words_skipped(self):
        table = table_of(boil=[1.0, 0.0], water=[0.0, 1.0])
        got = mention_vector("boil", ["zzz", "water"], table)
        assert np.array_equal(got, np.array([2.0, 1.0]) / 3.0)

    def test_unknown_verb_leaves_context_mean(self):
        table = table_of(water=[0.0, 1.0])
        assert np.array_equal(mention_vector("zzz", ["water"], table), [0.0, 1.0])

    def test_nothing_known_gives_absent(self):
        table = table_of(water=[0.0, 1.0])
        assert mention_vector("zzz", ["qqq"], table) is None
        assert mention_vector("zzz", [], table) is None

    @given(
        verb_known=st.booleans(),
        ctx=st.lists(st.sampled_from(["a", "b", "c", "zzz"]), max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_mean_with_doubled_verb(self, verb_known, ctx):
        table = table_of(v=[0.5, -0.25], a=[1.0, 0.0], b=[0.0, 1.0], c=[-1.0, 0.5])
        verb = "v" if verb_known else "zzz"
        rows = []
        if verb_known:
            rows += [table.lookup("v"), table.lookup("v")]
        rows += [table.lookup(w) for w in ctx if w != "zzz"]
        got = mention_vector(verb, ctx, table)
        if not rows:
            assert got is None
        else:
            assert np.allclose(got, np.mean(rows, axis=0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 3, 300])
    def test_bit_equal_to_the_mean_of_the_stacked_rows(self, dim):
        # with one dimension and eight or more rows numpy sums pairwise
        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(12)]
        table = table_of(**{w: rng.normal(size=dim) * 10.0 ** rng.integers(-3, 3) for w in words})
        for n in range(12):
            context = words[1 : n + 1]
            rows = [table.lookup(w) for w in [words[0], words[0], *context]]
            got = mention_vector(words[0], context, table)
            assert got.tobytes() == np.mean(np.stack(rows), axis=0).tobytes()


class TestCosine:
    def test_reference_values(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        assert cosine(np.array([0.3, 0.4]), np.array([0.3, 0.4])) == pytest.approx(1.0)
        assert cosine(np.array([1.0, 2.0]), np.array([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            cosine(np.zeros((4, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros((1, 2)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 64, 300, 701])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_vecdot_rows_are_the_dot_products_of_np_dot(self, dim, scale):
        # the exactness the batched rule rests on: a numpy or BLAS upgrade that
        # breaks it must fail here (E @ v does differ in the last bits)
        rng = np.random.default_rng(dim)
        matrix = rng.normal(size=(40, dim)) * scale
        v = rng.normal(size=dim) * scale
        dots = np.vecdot(matrix, v)
        norms = np.sqrt(np.vecdot(matrix, matrix))
        for i, row in enumerate(matrix):
            assert dots[i].tobytes() == np.dot(row, v).tobytes()
            assert norms[i].tobytes() == np.linalg.norm(row).tobytes()

    def test_rows_score_as_the_one_row_case(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(25, 300))
        matrix[3] = 0.0
        matrix[4] = -matrix[5]
        v = rng.normal(size=300)
        each = np.array([cosine(row, v) for row in matrix])
        norms = np.sqrt(np.vecdot(matrix, matrix))
        assert cosine(matrix, v).tobytes() == each.tobytes()
        assert cosine(matrix, v, norms).tobytes() == each.tobytes()
        assert each[3] == 0.0
        assert cosine(matrix, np.zeros(300)).tolist() == [0.0] * 25

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, u, v):
        got = cosine(np.array(u), np.array(v))
        assert -1.0 <= got <= 1.0


class TestDiscretize:
    def test_closed_middle_bin(self):
        cfg = DiscretizationConfig(epsilon=0.05)
        vec = np.array([-0.06, -0.05, 0.0, -0.0, 0.05, 0.0501, np.nan])
        bins = discretize(vec, cfg)
        assert bins == (BIN_LOW, BIN_MID, BIN_MID, BIN_MID, BIN_MID, BIN_HIGH, BIN_MID)
        assert all(type(b) is str for b in bins)

    def test_discretize_names_the_bin_code_of_each_component(self):
        eps = 0.05
        cfg = DiscretizationConfig(epsilon=eps)
        symbols = np.array([BIN_LOW, BIN_MID, BIN_HIGH], dtype=object)
        vec = np.array([
            -eps, eps, 0.0, -0.0, np.nan,
            np.nextafter(-eps, -1.0), np.nextafter(-eps, 0.0),
            np.nextafter(eps, 0.0), np.nextafter(eps, 1.0),
        ])
        codes = bin_codes(vec, cfg)
        assert codes.tolist() == [1, 1, 1, 1, 1, 0, 1, 1, 2]
        assert discretize(vec, cfg) == tuple(symbols[codes])
        matrix = np.stack([vec, vec[::-1], -vec])
        codes = bin_codes(matrix, cfg)
        assert codes.shape == matrix.shape
        for row, row_codes in zip(matrix, codes):
            assert discretize(row, cfg) == tuple(symbols[row_codes])

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            DiscretizationConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            DiscretizationConfig(epsilon=-0.1)

    def test_default_grid(self):
        assert DEFAULT_EPSILON_GRID == (0.01, 0.02, 0.05, 0.1, 0.2)

    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=6),
        st.sampled_from(DEFAULT_EPSILON_GRID),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_and_order_preserving(self, values, eps):
        cfg = DiscretizationConfig(epsilon=eps)
        bins = discretize(np.array(values), cfg)
        order = {BIN_LOW: 0, BIN_MID: 1, BIN_HIGH: 2}
        for x, b in zip(values, bins):
            assert b in order
            if x < -eps:
                assert b == BIN_LOW
            elif x > eps:
                assert b == BIN_HIGH
            else:
                assert b == BIN_MID
