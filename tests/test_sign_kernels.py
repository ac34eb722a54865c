"""The shared +/-1 kernels in hadamard.py against plain references: the exact
float32 Gram and the checkers built on it, the row codec, the +/-1 entry
test, and sylvester."""

import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decoupler.ghm import GhMatrix, gh_for_lambda, verify_gh
from decoupler.hadamard import (all_signs, decode_rows, format_rows, gram, is_hadamard,
                                parse_signs, sylvester, write_matrix)

signs = st.sampled_from([-1, 1])


def sign_arrays(rows, width):
    return arrays(np.int8, st.tuples(rows, width), elements=signs)


@settings(max_examples=60, deadline=None)
@given(sign_arrays(st.integers(1, 24), st.integers(0, 80)))
def test_gram_equals_int64_reference(rows):
    wide = rows.astype(np.int64)
    g = gram(rows)
    assert g.dtype == np.float32
    assert np.array_equal(g, wide @ wide.T)


def test_gram_of_sylvester_12_is_exact():
    g = gram(sylvester(12).entries)
    assert np.all(np.diag(g) == 4096)
    assert np.count_nonzero(g) == 4096


def test_gram_refuses_rows_wider_than_float32_holds():
    # a zero-stride view: nothing of width 2^24 + 1 is allocated
    rows = np.broadcast_to(np.int8(1), (2, (1 << 24) + 1))
    with pytest.raises(ValueError, match="exceeds the exact float32"):
        gram(rows)


def _pair_loop(e):
    m = len(e)
    return tuple((i, j) for i in range(m) for j in range(i + 1, m)
                 if int(np.dot(e[i].astype(np.int64), e[j])) != 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_hadamard_pairs_equal_pair_loop(data):
    if data.draw(st.booleans()):
        m = data.draw(st.integers(1, 16))
        e = data.draw(sign_arrays(st.just(m), st.just(m)))
    else:
        e = sylvester(data.draw(st.integers(0, 4))).entries.copy()
        i, j = data.draw(st.integers(0, len(e) - 1)), data.draw(st.integers(0, len(e) - 1))
        e[i, j] *= -1
    report = is_hadamard(e)
    assert report.offending_pairs == _pair_loop(e)
    assert all(type(v) is int for pair in report.offending_pairs for v in pair)


def _bincount_loop(g):
    """The quotient-count check written out per row pair."""
    e = g.entries
    return tuple((i, j) for i in range(g.order) for j in range(i + 1, g.order)
                 if not np.all(np.bincount(e[i] ^ e[j], minlength=4) == g.lam))


@pytest.mark.parametrize("lam", [1, 2, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_gh_pairs_equal_bincount_loop(lam, data):
    n = 4 * lam
    if data.draw(st.booleans()):
        e = data.draw(arrays(np.uint8, (n, n), elements=st.integers(0, 3)))
    else:
        e = gh_for_lambda(lam).entries.copy()
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        e[i, j] = data.draw(st.integers(0, 3))
    g = GhMatrix(e, lam=lam)
    assert verify_gh(g).offending_pairs == _bincount_loop(g)


# the four row formats: Hadamard matrices and scheme blocks, read from files
# by parse_signs, and GH matrices and gate layers, decoded by decode_rows
SIGN_FORMATS = [("+-", "matrix"), ("+-", "sign-matrix")]
FORMATS = SIGN_FORMATS + [("exyz", "gh"), ("IXYZ", "gate layer")]


def _reference_writer(codes, alphabet):
    return "".join("".join(alphabet[v] for v in row) + "\n" for row in codes)


@pytest.mark.parametrize("alphabet,what", FORMATS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_format_parse_round_trip(alphabet, what, data):
    codes = data.draw(arrays(np.int8, st.tuples(st.integers(1, 12), st.integers(0, 20)),
                             elements=st.integers(0, len(alphabet) - 1)))
    text = format_rows(codes, alphabet)
    assert text == _reference_writer(codes, alphabet)
    back, first = decode_rows(text.splitlines(), codes.shape[1], alphabet)
    assert first == len(codes)
    assert back.dtype == np.int8 and np.array_equal(back, codes)


@settings(max_examples=60, deadline=None)
@given(arrays(np.bool_, st.tuples(st.integers(0, 6), st.integers(0, 9))), st.booleans())
def test_format_rows_of_bool_codes_and_views(codes, transpose):
    # bool codes are read in place as bytes, transposed views too, and an
    # n = 0 or m = 0 block writes as the reference does
    codes = codes.T if transpose else codes
    assert format_rows(codes, "+-") == _reference_writer(codes.astype(int), "+-")


def test_writing_a_matrix_holds_three_copies_at_most():
    # the sign mask, the text buffer and one gathered copy of the letters (or
    # the decoded string): 3 m^2 bytes at order m, plus interpreter slack
    m = 2048
    h = sylvester(11)
    out = io.StringIO()
    tracemalloc.start()
    try:
        write_matrix(h, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m * (m + 1) + (1 << 20), f"peak {peak} B"


@settings(max_examples=200, deadline=None)
@given(arrays(np.int8, st.tuples(st.integers(0, 4), st.integers(0, 4)),
              elements=st.sampled_from([-128, -2, -1, 0, 1, 2, 127])))
def test_all_signs_equals_the_abs_reference(e):
    assert all_signs(e) == bool(np.all(np.abs(e) == 1))


@pytest.mark.parametrize("alphabet,what", SIGN_FORMATS)
@pytest.mark.parametrize("lines,bad", [
    (["ab", "a", "ab"], "a"),        # short line
    (["ab", "aq", "ab"], "aq"),      # letter outside the alphabet
    (["ab", "ab"], ""),              # missing line
    (["aq", "a", "ab"], "aq"),       # the first bad line is the one named
])
def test_parse_rows_rejects(alphabet, what, lines, bad):
    letters = {"a": alphabet[0], "b": alphabet[1]}
    text = "".join("".join(letters.get(c, c) for c in line) + "\n" for line in lines)
    shown = "".join(letters.get(c, c) for c in bad)
    with pytest.raises(ValueError, match="^" + re.escape(f"bad {what} row '{shown}'") + "$"):
        parse_signs(io.StringIO(text), 3, 2, what)


@pytest.mark.parametrize("r", range(11))
def test_sylvester_is_parity_of_and(r):
    idx = np.arange(1 << r)
    anded = idx[:, None] & idx[None, :]
    parity = np.zeros_like(anded)
    for bit in range(r):
        parity ^= (anded >> bit) & 1
    entries = sylvester(r).entries
    assert entries.dtype == np.int8
    assert np.array_equal(entries, (1 - 2 * parity).astype(np.int8))


def test_parse_rows_stops_at_the_end_of_the_stream():
    # an m = 0 block reads "" at the end of the stream: not one more empty row
    # (n stays small enough that a reader without the stop only fails the test)
    with pytest.raises(ValueError, match="^bad matrix row ''$"):
        parse_signs(io.StringIO("\n\n"), 10 ** 6, 0, "matrix")
    assert parse_signs(io.StringIO("\n\n"), 2, 0, "matrix").shape == (2, 0)
