"""The one row decoder and the one layer product, each checked against the
per-line or per-letter loop it replaced: `parse_signs` against a reader that
takes one `readline` at a time, `simplify` and `gate_count` against loops
that multiply and count gate layers letter by letter."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoupler.hadamard import decode_rows, parse_signs
from decoupler.pulses import PulseSchedule, compile_general, gate_count, simplify
from decoupler.schemes import GATES, TaskSpec, synth


def readline_rows(stream, n, m, alphabet, what):
    """The file-row reader as one readline a row: stop at the first row of
    the wrong length or at the end of the stream, then name the first bad
    row."""
    if n < 1 or m < 0:
        raise ValueError(f"bad {what} shape {n} x {m}")
    lines = []
    while len(lines) < n and (line := stream.readline()) and len(line := line.strip()) == m:
        lines.append(line)
    for row in lines:
        if any(c not in alphabet for c in row):
            raise ValueError(f"bad {what} row {row!r}")
    if len(lines) < n:
        raise ValueError(f"bad {what} row {line!r}")
    return np.array([[alphabet.index(c) for c in row] for row in lines],
                     dtype=np.int8).reshape(n, m)


def readline_signs(stream, n, m, alphabet, what):
    """readline_rows' codes over '+'/'-' as the signs 1 - 2 code."""
    return (1 - 2 * readline_rows(stream, n, m, alphabet, what)).astype(np.int8)


def read_signs(stream, n, m, alphabet, what):
    """parse_signs in the signature of the other readers."""
    return parse_signs(stream, n, m, what)


def outcome(read, text, n, m, alphabet):
    """(codes, the next line) or the message, for one reader on the text."""
    stream = io.StringIO(text)
    try:
        codes = read(stream, n, m, alphabet, "test")
    except ValueError as exc:
        return str(exc)
    return codes.dtype, codes.tolist(), stream.readline()


@st.composite
def blocks(draw):
    """(text, n, m, alphabet): rows of short, right and long length, some
    with letters outside the alphabet, whitespace padding or \\r\\n ends,
    then the next block's header or the end of the stream."""
    alphabet = "+-"
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    letters = st.sampled_from(alphabet + "x?é")
    rows = []
    for _ in range(draw(st.integers(0, n + 2))):
        width = max(0, m + draw(st.sampled_from([0, 0, 0, -1, 1])))
        row = "".join(draw(st.lists(letters, min_size=width, max_size=width)))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        rows.append(pad + row + pad + draw(st.sampled_from(["\n", "\r\n"])))
    tail = draw(st.sampled_from(["rows next\n", "", "+"]))
    return "".join(rows) + tail, n, m, alphabet


@settings(max_examples=400, deadline=None)
@given(blocks())
@example(("++\n-+\nrows next\n", 2, 2, "+-"))
@example(("\n\n", 3, 0, "+-"))        # a missing row of an m = 0 block is named ''
@example(("+x\n+\n", 3, 2, "+-"))    # a bad letter before a short row is named first
def test_parse_rows_matches_the_readline_reader(block):
    text, n, m, alphabet = block
    got = outcome(read_signs, text, n, m, alphabet)
    assert got == outcome(readline_signs, text, n, m, alphabet)
    if not isinstance(got, str) and text.count("\n") > n:
        assert got[2] == text.splitlines(keepends=True)[n]


def test_parse_rows_leaves_a_file_at_the_next_header(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("+-\r\n--\nrows 1 2\n++\n")
    with open(path) as fh:
        assert parse_signs(fh, 2, 2, "test").tolist() == [[1, -1], [-1, -1]]
        assert fh.readline() == "rows 1 2\n"
        assert parse_signs(fh, 1, 2, "test").tolist() == [[1, 1]]


@pytest.mark.parametrize("lines, m, codes, first", [
    ([], 3, [], 0),
    (["IXYZ", "ZZII"], 4, [[0, 1, 2, 3], [3, 3, 0, 0]], 2),
    (["IXYZ", "IXY", "IQYZ"], 4, [[0, 1, 2, 3]], 1),
    (["IXYZ", "IQYZ", "IXY"], 4, [[0, 1, 2, 3], [0, -1, 2, 3]], 1),
    (["", "", "I"], 0, [[], []], 2),
])
def test_decode_rows_cuts_at_a_wrong_length(lines, m, codes, first):
    got, bad = decode_rows(lines, m, GATES)
    assert got.dtype == np.int8 and got.shape == (len(codes), m)
    assert got.tolist() == codes and bad == first


# ---------------------------------------------------------------------------
# gate layers

def letter_simplify(p):
    """simplify as one Pauli product a letter: each layer multiplies into
    the one pending since the last interval."""
    idle = "I" * p.qubits
    steps, pending = [], idle
    for s in p.steps:
        if s is None:
            steps += [pending, None]
            pending = idle
        else:
            pending = "".join(GATES[GATES.index(x) ^ GATES.index(y)]
                              for x, y in zip(pending, s))
    steps.append(pending)
    return PulseSchedule(p.qubits, p.tau, tuple(steps))


def letter_gate_count(p):
    return sum(c != "I" for layer in p.layers for c in layer)


@st.composite
def schedules(draw):
    qubits = draw(st.integers(0, 4))
    layer = st.text(GATES, min_size=qubits, max_size=qubits)
    steps = draw(st.lists(st.one_of(st.none(), layer), max_size=12))
    return PulseSchedule(qubits, 0.5, tuple(steps))


@settings(max_examples=400, deadline=None)
@given(schedules())
@example(PulseSchedule(2, 0.5, ()))
@example(PulseSchedule(0, 0.5, (None, "", None)))
@example(PulseSchedule(3, 0.5, ("XYZ", "ZZI", None, None, "YII", "IXX", "XXI")))
def test_simplify_and_gate_count_match_the_letter_loops(p):
    merged = simplify(p)
    assert merged == letter_simplify(p)
    assert merged.total_intervals == p.total_intervals
    for schedule in (p, merged):
        count = gate_count(schedule)
        assert type(count) is int and count == letter_gate_count(schedule)


@pytest.mark.parametrize("kind, framework", [("decouple", "zz"), ("reverse", "zz"),
                                             ("decouple", "general"), ("reverse", "general")])
def test_merged_lowering_is_the_simplified_raw_lowering(kind, framework):
    scheme = synth(TaskSpec(kind, framework), 7)
    raw = compile_general(scheme, 0.25, merged=False)
    assert compile_general(scheme, 0.25) == letter_simplify(raw) == simplify(raw)
