"""The row codec against its definition and against the decoder it replaced.

`format_rows` must write alphabet[c] for every code c, whatever the dtype
and memory layout of the codes, and refuse a code outside the alphabet;
`write_signs` must write '+'/'-' for every +/-1 integer array and refuse
any other entry.  `decode_rows`, which decodes letters held in memory, and
`parse_signs`, the one reader of rows from a file, work one block of rows at
a time; the single-pass decoder they replaced is kept here as the oracle for
the codes, the first bad row and every error message.  Each test also runs with blocks
of a few bytes, so that small inputs cross every block boundary and every
growth of a reader's array.  Last, the memory of the text boundary: a
writer holds one block, a reader its output and one block."""

import io
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_layer_codes import outcome, read_signs

from decoupler import hadamard
from decoupler.ghm import ELEMENT_CHARS, compose_sylvester, gh_for_lambda
from decoupler.hadamard import (decode_rows, format_rows, paley, parse_signs, read_matrix,
                                write_matrix, write_signs)
from decoupler.schemes import (GATES, TaskSpec, check_scheme, read_scheme, synth,
                              write_scheme)

ALPHABETS = ["+-", GATES, ELEMENT_CHARS]
H12_CODES = (paley(11, 1).entries < 0).astype(np.int8)
BLOCK_BYTES = st.sampled_from([1, 5, 16, 1 << 16])


def blocks_of(size: int):
    """The codec with blocks of `size` bytes of text and no more reserved."""
    return mock.patch.multiple(hadamard, _BLOCK_BYTES=size, _RESERVE_BYTES=size)


def reference_rows(codes, alphabet: str) -> str:
    """The definition: one letter a code, a newline a row."""
    return "".join("".join(alphabet[c] for c in row) + "\n" for row in codes.tolist())


def single_pass_decode(lines, m, alphabet):
    """decode_rows as it was: one join, one translate and one copy of all rows."""
    short = next((i for i, line in enumerate(lines) if len(line) != m), len(lines))
    table = np.full(256, -1, dtype=np.int8)
    table[np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)] = np.arange(len(alphabet))
    codes = "".join(lines[:short]).encode("ascii", "replace").translate(table.tobytes())
    codes = np.frombuffer(bytearray(codes), dtype=np.int8)
    bad = np.flatnonzero(codes < 0)
    return codes.reshape(short, m), int(bad[0]) // m if len(bad) else short


def single_pass_parse(stream, n, m, alphabet, what):
    """The file-row reader as it was: all n lines read, then decoded at once."""
    if n < 1 or m < 0:
        raise ValueError(f"bad {what} shape {n} x {m}")
    lines = [line.strip() for line in itertools.islice(stream, n)]
    codes, first = single_pass_decode(lines, m, alphabet)
    if first < n:
        raise ValueError(f"bad {what} row {lines[first] if first < len(lines) else ''!r}")
    return codes


def laid_out(draw, dtype, values):
    """An array of n >= 1 rows and m >= 0 columns of the values, C-ordered,
    F-ordered, a transposed view or a strided view."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(0, 9))
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "transposed":
        return draw(arrays(dtype, (m, n), elements=values)).T
    if layout == "strided":
        return draw(arrays(dtype, (n, 2 * m), elements=values))[:, ::2]
    codes = draw(arrays(dtype, (n, m), elements=values))
    return np.asfortranarray(codes) if layout == "F" else codes


def single_pass_signs(stream, n, m, alphabet, what):
    """parse_signs as it was: the single-pass codes over '+'/'-' as the
    signs 1 - 2 code."""
    return (1 - 2 * single_pass_parse(stream, n, m, "+-", what)).astype(np.int8)


@st.composite
def code_arrays(draw):
    """(alphabet, codes): bool, int8 or uint8 codes in the alphabet (or in
    "-+", whose second letter comes first in ASCII), in any layout."""
    alphabet = draw(st.sampled_from(ALPHABETS + ["-+"]))
    dtype = draw(st.sampled_from([np.bool_, np.int8, np.uint8]))
    values = st.booleans() if dtype is np.bool_ else st.integers(0, len(alphabet) - 1)
    return alphabet, laid_out(draw, dtype, values)


@settings(max_examples=300, deadline=None)
@given(code_arrays(), BLOCK_BYTES)
def test_format_rows_is_its_definition_and_decodes_back(case, block):
    alphabet, codes = case
    n, m = codes.shape
    with blocks_of(block):
        text = format_rows(codes, alphabet)
        assert text == reference_rows(codes, alphabet)
        back, first = decode_rows(text.splitlines(), m, alphabet)
    assert first == n
    assert back.dtype == np.int8 and back.shape == (n, m) and back.flags.writeable
    assert np.array_equal(back, codes)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.int8, np.int16, np.int64]), st.data(), BLOCK_BYTES)
def test_write_signs_and_write_matrix_are_their_definition(dtype, data, block):
    # letter 44 - sign, whatever the integer dtype and memory layout
    signs = laid_out(data.draw, dtype, st.sampled_from([1, -1]))
    want = reference_rows(signs < 0, "+-")
    with blocks_of(block):
        signs_text, matrix_text = io.StringIO(), io.StringIO()
        write_signs(signs, signs_text)
        write_matrix(signs, matrix_text)
    assert signs_text.getvalue() == want
    assert matrix_text.getvalue() == f"order {len(signs)}\n" + want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([np.int8, np.int64]), st.sampled_from([0, 2, -2, 43, 127]), st.data(),
       BLOCK_BYTES)
def test_writing_an_entry_other_than_a_sign_raises(dtype, bad, data, block):
    # once written as '+' (it is not < 0); now refused in any row of any block
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    signs = np.ones((n, m), dtype=dtype)
    signs[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))] = bad
    with blocks_of(block), pytest.raises(ValueError, match="must be \\+1/-1"):
        write_matrix(signs, io.StringIO())


@pytest.mark.parametrize("signs", [np.ones((2, 2)), np.ones((2, 2), dtype=bool)],
                         ids=["float", "bool"])
def test_writing_signs_of_another_dtype_than_integers_raises(signs):
    with pytest.raises(ValueError, match="must be \\+1/-1 integers"):
        write_signs(signs, io.StringIO())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALPHABETS), st.sampled_from([np.int8, np.uint8]), st.data())
def test_codes_outside_the_alphabet_raise(alphabet, dtype, data):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    codes = data.draw(arrays(dtype, (n, m), elements=st.integers(0, len(alphabet) - 1)))
    bad = [len(alphabet), 127] + ([-1, -128] if dtype is np.int8 else [255])
    codes[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))] = \
        data.draw(st.sampled_from(bad))
    with pytest.raises(IndexError, match="outside the alphabet"):
        format_rows(codes, alphabet)


# letters outside every alphabet: ',', '*' and '.', which 44 - byte maps to
# 0, 2 and -2; characters of code 128..255, and one beyond
OUTSIDE = "x?,*.\x80\xff\u00e9\u20ac"


@st.composite
def fuzzed_lines(draw):
    """(lines, m, alphabet): rows of short, right and long length, some
    with letters outside the alphabet, non-ASCII among them."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    m = draw(st.integers(0, 5))
    letters = st.sampled_from(alphabet * 4 + OUTSIDE + "\t ")
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        width = max(0, m + draw(st.sampled_from([0] * 6 + [-1, 1])))
        lines.append("".join(draw(st.lists(letters, min_size=width, max_size=width))))
    return lines, m, alphabet


@settings(max_examples=400, deadline=None)
@given(fuzzed_lines(), BLOCK_BYTES)
@example((["+-", "-x", "++", "+"], 2, "+-"), 1)
@example((["IXé", "XY", "ZZZ"], 3, GATES), 16)
def test_decode_rows_equals_the_single_pass_decoder(case, block):
    lines, m, alphabet = case
    with blocks_of(block):
        codes, first = decode_rows(lines, m, alphabet)
    want, want_first = single_pass_decode(lines, m, alphabet)
    assert codes.dtype == np.int8 and codes.flags.writeable
    assert codes.shape == want.shape and np.array_equal(codes, want)
    assert first == want_first


@settings(max_examples=400, deadline=None)
@given(fuzzed_lines(), st.integers(1, 14), st.sampled_from(["\n", "\r\n", " \n"]),
       st.sampled_from(["", "rows 1 2\n", "+"]), BLOCK_BYTES)
@example((["", ""], 0, "+-"), 10 ** 6, "\n", "", 16)
def test_parse_rows_equals_the_single_pass_reader(case, n, end, tail, block):
    lines, m, _ = case
    text = "".join(line + end for line in lines) + tail
    with blocks_of(block):
        signs = outcome(read_signs, text, n, m, "+-")
    assert signs == outcome(single_pass_signs, text, n, m, "+-")


def test_every_character_up_to_255_in_a_sign_row_reads_as_the_single_pass_reader():
    # only '+' and '-' are signs: 44 - byte maps no other byte to +/-1
    for letter in map(chr, range(256)):
        for text in (f"+-\n-{letter}\n", f"+{letter}-\n+--\n"):
            for block in (1, 3, 1 << 16):
                with blocks_of(block):
                    signs = outcome(read_signs, text, 2, len(text) // 2 - 1, "+-")
                assert signs == outcome(single_pass_signs, text, 2, len(text) // 2 - 1, "+-")


FAULTS = ("none", "crlf", "padded", "short", "bad letter", "no final newline", "ends early")


@st.composite
def canonical_with_one_fault(draw):
    """(text, n, m, alphabet, fault): n rows of m letters, each ended by a
    newline, with at most one fault at any row: a CRLF row, a row padded
    with whitespace, a short row, a letter outside the alphabet, no newline
    after the last row, or a stream that ends before row n; then the next
    header, another row or the end of the stream."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    n, m = draw(st.integers(1, 14)), draw(st.integers(0, 7))
    letters = st.lists(st.sampled_from(alphabet), min_size=m, max_size=m)
    rows = ["".join(draw(letters)) + "\n" for _ in range(n)]
    fault, at = draw(st.sampled_from(FAULTS)), draw(st.integers(0, n - 1))
    if fault == "crlf":
        rows[at] = rows[at][:-1] + "\r\n"
    elif fault == "padded":
        rows[at] = draw(st.sampled_from([" ", "\t", ""])) + rows[at][:-1] + " \n"
    elif fault == "short":
        rows[at] = rows[at][1:] if m else ""
    elif fault == "bad letter" and m:
        j = draw(st.integers(0, m - 1))
        rows[at] = rows[at][:j] + draw(st.sampled_from(OUTSIDE + " \r")) + rows[at][j + 1:]
    elif fault == "ends early":
        rows = rows[:at]
    tail = draw(st.sampled_from(["", "rows 1 2\n", alphabet[0] * m + "\n", "+"]))
    text = "".join(rows) + tail
    if fault == "no final newline":
        text = "".join(rows)[:-1]
    return text, n, m, alphabet, fault




@settings(max_examples=500, deadline=None)
@given(canonical_with_one_fault(), st.sampled_from([1, 5, 16, 64, 1 << 16]))
@example(("++\n-+\r\n+-\n", 3, 2, "+-", "crlf"), 6)
@example(("++\n-\n+-\nrows 1 2\n", 3, 2, "+-", "short"), 9)
@example(("IXYZ\nZZII", 2, 4, GATES, "no final newline"), 1 << 16)
@example(("++\n+-\n-,\n", 3, 2, "+-", "bad letter"), 6)
@example(("+-\n*+\n--\n", 3, 2, "+-", "bad letter"), 1 << 16)
@example(("+-.\n", 1, 3, "+-", "bad letter"), 1)
def test_canonical_blocks_with_one_fault_read_as_the_single_pass_reader(case, block):
    # every block a canonical block is read by bytes; the block that holds
    # the fault, and only it, line by line: the codes, the next line after
    # the rows and every message are the single-pass reader's
    text, n, m, _, _ = case
    with blocks_of(block):
        signs = outcome(lambda s, n, m, a, what: parse_signs(s, n, m, what), text, n, m, "+-")
    assert signs == outcome(single_pass_signs, text, n, m, "+-")


class BlockStream(io.StringIO):
    """A stream read by blocks only: a readline, and so a line of iteration,
    raises but for a header or at the end of the stream."""

    def readline(self, size=-1):
        line = super().readline(size)
        if line and not line.startswith(("scheme ", "rows ", "order ")):
            raise AssertionError(f"readline of {line!r}")
        return line


@pytest.mark.parametrize("block", [16, 1 << 10, 1 << 16])
def test_a_canonical_file_is_read_by_blocks_after_each_header(block):
    task = TaskSpec("decouple", "general")
    scheme = synth(task, 40)
    buf = io.StringIO()
    write_scheme(scheme, task, buf)
    with blocks_of(block):
        got, _ = read_scheme(BlockStream(buf.getvalue()))
        h = read_matrix(BlockStream(f"order 12\n{reference_rows(H12_CODES, '+-')}"))
    for a, b in zip(got.blocks, scheme.blocks):
        assert np.array_equal(a, b)
    assert np.array_equal(h.entries, 1 - 2 * H12_CODES)


@pytest.mark.parametrize("n, m, text, shown", [
    (10 ** 12, 2, "++\n-+\n", ""),      # more rows than the stream holds
    (1, 10 ** 12, "+-\n", "+-"),         # longer rows than the stream holds
    (10 ** 6, 10 ** 6, "+-\n", "+-"),
])
def test_a_header_claiming_too_much_allocates_at_most_the_first_reserve(n, m, text, shown):
    # as the single-pass reader: the bad row is named, and no array of the
    # claimed size is allocated (which would raise MemoryError), only the
    # first reservation for rows not yet read
    def read():
        with pytest.raises(ValueError, match="^" + re.escape(f"bad matrix row '{shown}'") + "$"):
            parse_signs(io.StringIO(text), n, m, "matrix")
    assert traced_peak(read) <= hadamard._RESERVE_BYTES + (1 << 20)


@pytest.mark.parametrize("text", [
    "++\n+-\n" * (1 << 21),              # 12 MiB of short rows
    "++\n" + "+-" * (1 << 22) + "\n",     # a short row, then an 8 MiB line
], ids=["short rows", "a long line"])
def test_a_file_claiming_longer_rows_than_it_holds_reads_one_block_past_its_first_row(
        tmp_path, text):
    # a block is read in pieces of _BLOCK_BYTES characters up to the first
    # that holds a newline, and a line that piece cuts past the block is not
    # completed: one file read of the claimed 10^12 + 1 characters would
    # allocate them all (or raise MemoryError), and reading on to the claimed
    # size, or to the end of the next line, would take in the whole file
    path = tmp_path / "rows.txt"
    path.write_text(text)
    assert path.stat().st_size > 2 * hadamard._RESERVE_BYTES

    def read():
        with open(path) as fh, pytest.raises(ValueError, match="^bad matrix row '\\+\\+'$"):
            parse_signs(fh, 2, 10 ** 12, "matrix")
    assert traced_peak(read) <= hadamard._RESERVE_BYTES + (1 << 20)


# ---------------------------------------------------------------------------
# memory of the text boundary

def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_matrix_holds_no_more_than_its_text_and_str(tmp_path):
    # written one block at a time: far below the bound of one full text
    # buffer and its str, 2 bytes a cell
    h = compose_sylvester(8, gh_for_lambda(2)).hprime
    m = h.order
    assert m == 2048
    with open(tmp_path / "h.txt", "w") as out:
        peak = traced_peak(lambda: write_matrix(h, out))
    assert peak <= 2 * m * m + (1 << 20), f"peak {peak} B"


def test_reading_a_scheme_holds_its_entries_and_one_block(tmp_path):
    # the three decoded n x m blocks are the scheme; the lines, their join
    # and their translation are one block each at a time
    task = TaskSpec("decouple", "general")
    scheme = synth(task, 1365)
    path = tmp_path / "scheme.txt"
    with open(path, "w") as out:
        write_scheme(scheme, task, out)
    entries = 3 * scheme.qubits * scheme.intervals
    assert scheme.intervals == 4096
    with open(path) as fh:
        peak = traced_peak(lambda: read_scheme(fh))
    assert peak <= 1.5 * entries + (2 << 20), f"peak {peak} B for {entries} entries"


def test_certified_check_counts_gates_without_the_merged_layers():
    # the gate count reads the codes in place: the peak is the index lookup's
    task = TaskSpec("decouple", "zz")
    scheme = synth(task, 4090)
    n, m = scheme.qubits, scheme.intervals
    report = None

    def check():
        nonlocal report
        report = check_scheme(scheme, task)
    peak = traced_peak(check)
    assert report.passed and report.gate_count == 8_370_186
    assert peak <= 2.5 * n * m + (2 << 20), f"peak {peak} B"
