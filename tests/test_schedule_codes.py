"""A schedule kept as gate codes against the same schedule built from its
text.  The lowering, `simplify` and `_alternating` build a schedule from
codes and never format a layer; the constructor and `read_schedule` decode
text steps.  Both must be one value: `==`, `hash`, `steps`, `layers`,
`gate_count` and the bytes `write_schedule` writes, which are checked
against the letter-by-letter lowering of the scheme's sign columns."""

import copy
import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.pulses import (PulseSchedule, compile_general, gate_count, read_schedule,
                              simplify, write_schedule)
from decoupler.schemes import Scheme, TaskSpec, synth

# sign column (x, y, z) -> the conjugating gate
LETTER = {(1, 1, 1): "I", (1, -1, -1): "X", (-1, 1, -1): "Y", (-1, -1, 1): "Z"}
PRODUCT = {frozenset("I"): "I", frozenset("IX"): "X", frozenset("IY"): "Y", frozenset("IZ"): "Z",
           frozenset("XY"): "Z", frozenset("XZ"): "Y", frozenset("YZ"): "X"}


def product(a: str, b: str) -> str:
    return "".join("I" if x == y else PRODUCT[frozenset((x, y))] for x, y in zip(a, b))


def letter_layers(scheme) -> list[str]:
    """The gate layer of each interval, a letter a qubit from its sign column."""
    if len(scheme.blocks) == 1:
        (s,) = scheme.blocks
        blocks = (np.ones_like(s), s, s)
    else:
        blocks = scheme.blocks
    n, m = blocks[0].shape
    return ["".join(LETTER[tuple(int(b[q, a]) for b in blocks)] for q in range(n))
            for a in range(m)]


def letter_steps(scheme, merged: bool) -> tuple:
    """Raw: layer a, interval a, layer a.  Merged: column 0, the products of
    neighbouring columns, the last column, intervals between them."""
    layers = letter_layers(scheme)
    if not merged:
        return tuple(step for layer in layers for step in (layer, None, layer))
    idle = "I" * scheme.qubits
    merged_layers = [product(a, b) for a, b in zip([idle] + layers, layers + [idle])]
    steps = [None] * (2 * len(merged_layers) - 1)
    steps[::2] = merged_layers
    return tuple(steps)


@st.composite
def schemes(draw):
    """A zz sign matrix or a general sign triple with S_x * S_y = S_z."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    signs = st.lists(st.sampled_from([1, -1]), min_size=n * m, max_size=n * m)
    sx = np.array(draw(signs), dtype=np.int8).reshape(n, m)
    if draw(st.booleans()):
        return Scheme((sx,))
    sy = np.array(draw(signs), dtype=np.int8).reshape(n, m)
    return Scheme((sx, sy, sx * sy))


def text_of(p: PulseSchedule) -> str:
    buf = io.StringIO()
    write_schedule(p, buf)
    return buf.getvalue()


def assert_one_value(of_codes: PulseSchedule, of_text: PulseSchedule, steps: tuple) -> None:
    lines = [f"pulses n={of_text.qubits} m={of_text.total_intervals} tau={of_text.tau!r}"]
    lines += [f"F {of_text.tau!r}" if s is None else f"G {s}" for s in steps]
    text = "\n".join(lines) + "\n"
    # the text first, so that the writer formats layers no steps were cached for
    assert text_of(of_codes) == text_of(of_text) == text
    assert of_codes == of_text and hash(of_codes) == hash(of_text)
    assert of_codes.steps == of_text.steps == steps
    assert of_codes.layers == of_text.layers == [s for s in steps if s is not None]
    assert gate_count(of_codes) == gate_count(of_text) == sum(
        c != "I" for s in steps if s is not None for c in s)
    assert of_codes.total_intervals == of_text.total_intervals
    assert read_schedule(io.StringIO(text)) == of_codes
    assert of_codes.codes.dtype == np.uint8 and not of_codes.codes.flags.writeable
    assert of_codes.codes.shape == (len(of_codes.layers), of_codes.qubits)


@settings(max_examples=300, deadline=None)
@given(schemes(), st.booleans(), st.sampled_from([0.1, 0.25, 1.0, 1 / 3]))
def test_a_schedule_of_codes_is_the_schedule_of_its_text(scheme, merged, tau):
    steps = letter_steps(scheme, merged)
    of_codes = compile_general(scheme, tau, merged)
    assert_one_value(of_codes, PulseSchedule(scheme.qubits, tau, steps), steps)
    # simplify builds from codes too, from either schedule
    merged_steps = letter_steps(scheme, True)
    for p in (of_codes, PulseSchedule(scheme.qubits, tau, steps)):
        assert_one_value(simplify(p), PulseSchedule(scheme.qubits, tau, merged_steps),
                         merged_steps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_simplify_of_any_text_schedule_is_its_text(qubits, data):
    layer = st.text("IXYZ", min_size=qubits, max_size=qubits)
    steps = tuple(data.draw(st.lists(st.one_of(st.none(), layer), max_size=10)))
    p = PulseSchedule(qubits, 0.5, steps)
    merged = simplify(p)
    assert_one_value(merged, PulseSchedule(qubits, 0.5, merged.steps), merged.steps)
    # a text schedule of any shape writes its steps in order
    assert text_of(p).splitlines()[1:] == ["F 0.5" if s is None else f"G {s}" for s in steps]


def test_a_schedule_is_immutable_and_copies_as_its_value():
    p = compile_general(synth(TaskSpec("decouple", "general"), 5), 0.25)
    for name, value in (("tau", 1.0), ("codes", p.codes), ("steps", ())):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(ValueError):
        p.codes[0, 0] = 1
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and hash(twin) == hash(p) and twin.steps == p.steps
