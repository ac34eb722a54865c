"""Each scheme is scanned and lowered from the sign blocks it stores.

A zz scheme stores one block S and stands for the general triple (1, S, S),
which is never built: it has no Schur cell to scan, and its gate codes are
S < 0 (X).  A general triple's one Schur scan lists the cells where
S_x * S_y != S_z in row-major order; lowering refuses the first of them in
(interval, qubit) order, and check reports them all.
"""

import io
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decoupler.cli import main
from decoupler.pulses import compile_general
from decoupler.schemes import (
    Scheme,
    TaskSpec,
    check_scheme,
    gate_codes,
    synth,
    synth_decouple_general,
    synth_decouple_zz,
    write_scheme,
)

GENERAL_TASKS = [
    TaskSpec("decouple", "general"),
    TaskSpec("select", "general", (0, 2), ("x", "y")),
    TaskSpec("select", "general", (2, 1), ("z", "z")),
    TaskSpec("select_pair", "general", (1, 2)),
    TaskSpec("reverse", "general"),
]


def _refusal(sx, sy, sz, q, a) -> str:
    signs = (int(sx[q, a]), int(sy[q, a]), int(sz[q, a]))
    return (f"sign column {signs} at qubit {q}, interval {a} "
            "is not realizable (corrupted input)")


def _compile(scheme, task) -> tuple[int, str, str]:
    """`decoupler compile` of the scheme written to a file: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scheme.txt")
        with path.open("w") as fh:
            write_scheme(scheme, task, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compile", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind,qubits", [("decouple", ()), ("select", (0, 2)),
                                         ("reverse", ())])
@pytest.mark.parametrize("local", [True, False])
def test_zz_scheme_stores_and_lowers_one_block(kind, qubits, local):
    scheme = synth(TaskSpec(kind, "zz", qubits, remove_local_terms=local), 5)
    (block,) = scheme.blocks
    codes = gate_codes(scheme)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, (block < 0).astype(np.uint8))  # X where S is '-'


@settings(max_examples=60, deadline=None)
@given(arrays(np.int8, st.tuples(st.integers(1, 6), st.integers(1, 9)),
              elements=st.sampled_from([-1, 1])))
def test_zz_block_lowers_as_its_triple(s):
    scheme = Scheme((s,))
    triple = Scheme((np.ones_like(s), s, s))
    assert np.array_equal(gate_codes(scheme), gate_codes(triple))
    assert compile_general(scheme) == compile_general(triple)
    assert compile_general(scheme, merged=False) == compile_general(triple, merged=False)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GENERAL_TASKS), st.integers(3, 12), st.data())
def test_lowering_refuses_the_first_unrealizable_cell(task, n, data):
    scheme = synth(task, n)
    mats = [b.copy() for b in scheme.blocks]
    m = scheme.intervals
    cells = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, n - 1),
                                         st.integers(0, m - 1)),
                               min_size=1, max_size=6, unique=True))
    for t, q, a in cells:
        mats[t][q, a] *= -1
    bad = sorted((a, q) for q in range(n) for a in range(m)
                 if mats[0][q, a] * mats[1][q, a] != mats[2][q, a])
    assume(bad)  # two flips of one cell's column can cancel
    a, q = bad[0]
    text = _refusal(*mats, q, a)
    corrupted = Scheme(tuple(mats))
    with pytest.raises(ValueError) as exc:
        gate_codes(corrupted)
    assert str(exc.value) == text
    assert _compile(corrupted, task) == (2, "", f"error: {text}\n")
    report = check_scheme(corrupted, task)
    assert not report.checks["schur_product"].passed and report.gate_count == 0


def test_refusal_orders_cells_by_interval_before_qubit():
    # row-major order would name qubit 0 first; lowering names interval 1 first
    task = GENERAL_TASKS[0]
    mats = [b.copy() for b in synth(task, 4).blocks]
    mats[2][0, 5] *= -1
    mats[0][3, 1] *= -1
    mats[1][2, 1] *= -1
    corrupted = Scheme(tuple(mats))
    text = _refusal(*mats, 2, 1)
    with pytest.raises(ValueError) as exc:
        gate_codes(corrupted)
    assert str(exc.value) == text
    assert _compile(corrupted, task) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize("n", [1000, 4090])
def test_certified_zz_check_peak_is_linear_in_the_scheme(n):
    # a zz check holds no all-+ S_x and no Schur scan: its peak is the gate
    # count's codes, padded codes and their XOR, 3 n m bytes, plus 2 MB for
    # one-time set-up, the bound a general check keeps (test_walsh_certificate)
    task = TaskSpec("decouple", "zz")
    scheme = synth_decouple_zz(n)
    bound = 3 * n * scheme.intervals + (2 << 20)
    tracemalloc.start()
    try:
        report = check_scheme(scheme, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"


@pytest.mark.parametrize("call", ["check_scheme", "gate_codes"])
def test_certified_general_check_and_codes_peak_at_two_blocks(call):
    # the gate codes are built in place from S_x < 0, shifted, then ORed with
    # S_y < 0: besides them one n x m mask at a time, the peak of the Schur
    # scan too, plus 1 MiB for one-time set-up
    task = TaskSpec("decouple", "general")
    scheme = synth_decouple_general(1365)
    n, m = scheme.qubits, scheme.intervals
    bound = 2 * n * m + (1 << 20)
    tracemalloc.start()
    try:
        result = check_scheme(scheme, task) if call == "check_scheme" else gate_codes(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if call == "check_scheme":
        assert result.passed and result.gate_count == 4194304
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"
