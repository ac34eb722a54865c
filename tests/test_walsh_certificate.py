"""Sylvester rows are checked by their indices.

Row k of sylvester(r) is (-1)^popcount(k & j), so every criterion of
check_scheme is a statement about row indices: `walsh_indices` reads them in
O(N m) and certifies a pass without a Gram (rows of other orders are looked
up in their own matrix: test_canonical_certificate).  Any other rows, and any
scheme that fails a criterion, take the exact Gram path, so every report must
equal the target-and-mask reference of test_gram_scan whatever path it took.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_gram_scan import reference_check, tasks

from decoupler import schemes
from decoupler.ghm import compose_sylvester, gh_for_lambda
from decoupler.hadamard import build_hadamard, normalize, sylvester, walsh_indices
from decoupler.schemes import (
    Scheme,
    TaskSpec,
    check_scheme,
    synth,
)

CORRUPTIONS = ["valid", "cell", "duplicate", "negate", "swap", "walsh", "restore"]


def _walsh_row(k: int, size: int, dropped_first: bool) -> np.ndarray:
    return sylvester(size.bit_length() - 1, cap=size).entries[k, int(dropped_first):]


@settings(max_examples=400, deadline=None)
@given(tasks(), st.sampled_from(CORRUPTIONS), st.data())
def test_report_equals_reference_on_every_path(spec, corruption, data):
    task, n = spec
    try:
        scheme = synth(task, n, 256)
    except ValueError:  # a zz reversal with no interval left
        assume(False)
    zz = len(scheme.blocks) == 1
    mats = [b.copy() for b in scheme.blocks]
    m = scheme.intervals
    reverse = task.kind == "reverse"
    # a task's own qubits, half the time: their rows carry its exceptions
    q = data.draw(st.one_of(st.sampled_from(task.qubits or (0,)), st.integers(0, n - 1)))
    some = data.draw(st.lists(st.sampled_from(range(len(mats))), min_size=1, unique=True))
    if corruption == "cell":
        a = data.draw(st.integers(0, m - 1))
        for t in some:
            mats[t][q, a] *= -1
    elif corruption == "duplicate":  # every block, so S_x * S_y = S_z still holds
        assume(n > 1)
        p = data.draw(st.integers(0, n - 1).filter(lambda p: p != q))
        for t in mats:
            t[q] = t[p]
    elif corruption == "negate":
        for t in some:
            mats[t][q] *= -1
    elif corruption == "swap":
        assume(m > 1)
        a, b = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        for t in mats:
            t[:, [a, b]] = t[:, [b, a]]
    elif corruption == "walsh":  # another Sylvester row: the indices decide
        size = m + reverse
        assume(size & (size - 1) == 0)
        kx, ky = (data.draw(st.integers(0, size - 1)) for _ in range(2))
        for t, k in zip(mats, [ky] if zz else [kx, ky, kx ^ ky]):
            t[q] = _walsh_row(k, size, reverse)
    elif corruption == "restore":  # a reversal with its all-+ column put back
        assume(reverse)
        mats = [np.hstack([np.ones((n, 1), dtype=np.int8), t]) for t in mats]
    scheme = Scheme(tuple(mats))
    expected = reference_check(scheme, task)
    walsh = all(walsh_indices(t, reverse) is not None for t in mats)
    # a passing scheme of Sylvester rows is certified without a Gram
    no_gram = mock.patch.object(schemes, "gram", side_effect=AssertionError("Gram built"))
    with no_gram if walsh and expected.passed else contextlib.nullcontext():
        report = check_scheme(scheme, task)
    assert report == expected
    assert report.lines() == expected.lines()


@pytest.mark.parametrize("task,n", [
    (TaskSpec("select", "zz", qubits=(0, 2)), 3),
    (TaskSpec("select", "general", qubits=(0, 2), labels=("x", "y")), 4),
    (TaskSpec("select_pair", "general", qubits=(0, 2)), 4),
], ids=["zz-select", "general-select", "pair"])
def test_every_sylvester_row_at_a_task_qubit_equals_the_reference(task, n):
    # still Sylvester rows, so only the indices can refuse the certificate
    scheme = synth(task, n)
    zz = len(scheme.blocks) == 1
    size = scheme.intervals
    for kx in range(size):
        for ky in [kx] if zz else range(size):
            mats = [b.copy() for b in scheme.blocks]
            for t, k in zip(mats, [ky] if zz else [kx, ky, kx ^ ky]):
                t[task.qubits[1]] = _walsh_row(k, size, False)
            bad = Scheme(tuple(mats))
            assert check_scheme(bad, task) == reference_check(bad, task)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.booleans(), st.data())
def test_walsh_indices_equal_a_lookup_in_sylvester(r, dropped_first, data):
    size = 1 << r
    assume(size > dropped_first)
    h = sylvester(r, cap=size).entries[:, int(dropped_first):]
    width = h.shape[1]
    rows = data.draw(st.lists(st.one_of(
        st.integers(0, size - 1).map(lambda k: h[k]),
        arrays(np.int8, width, elements=st.sampled_from([-1, 1]))), min_size=1, max_size=8))
    rows = np.array(rows, dtype=np.int8).reshape(len(rows), width)
    found = [np.flatnonzero((h == x).all(axis=1)) for x in rows]
    expected = None if any(len(f) == 0 for f in found) else [int(f[0]) for f in found]
    got = walsh_indices(rows, dropped_first)
    assert (got if got is None else got.tolist()) == expected


@pytest.mark.parametrize("recipe", [("paley1", 11), ("paley2", 5), ("paley1", 31),
                                    ("kron", ("sylvester", 1), ("paley1", 11))])
@pytest.mark.parametrize("normalized", [False, True])
def test_walsh_indices_refuse_other_constructions(recipe, normalized):
    h = build_hadamard(recipe)
    rows = (normalize(h) if normalized else h).entries
    assert walsh_indices(rows) is None
    assert walsh_indices(rows[:, 1:], dropped_first=True) is None


@pytest.mark.parametrize("lam", [1, 2, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_composed_rows_are_sylvester_rows(r, lam):
    # GH(4,1), GH(4,2) and their Kronecker powers compose into Sylvester rows
    # in another order, which the indices name exactly; one flipped cell
    # leaves no Sylvester row
    rows = compose_sylvester(r, gh_for_lambda(lam)).hprime.entries
    idx = walsh_indices(rows)
    assert idx is not None and sorted(idx.tolist()) == list(range(len(rows)))
    assert np.array_equal(sylvester(len(rows).bit_length() - 1).entries[idx], rows)
    bad = rows.copy()
    bad[len(rows) // 2, 3] *= -1
    assert walsh_indices(bad) is None


@pytest.mark.parametrize("r", [2, 3, 6])
@pytest.mark.parametrize("dropped_first", [False, True])
def test_walsh_indices_refuse_any_one_flipped_cell(r, dropped_first):
    # distinct Sylvester rows of order >= 4 differ in half their columns
    # (column 0 never), so one flip leaves no Sylvester row
    h = sylvester(r).entries[:, int(dropped_first):]
    for a in range(h.shape[1]):
        bad = h.copy()
        bad[a % len(h), a] *= -1
        assert walsh_indices(bad, dropped_first) is None


@pytest.mark.parametrize("n", [400, 1365], ids=["general-decouple-400", "general-decouple-1365"])
def test_certified_check_peak_is_linear_in_the_scheme(n):
    # a certified check holds at most three n x m byte arrays at once (the
    # Schur product and its mask, or gate_codes' two sign masks and its codes;
    # walsh_indices needs one), plus 2 MB for one-time set-up: 3 n m + 2 MB.
    # At n = 1365 (m = 4096, 4095 rows) that is 19 MB, where the Gram alone,
    # 4 (3n)^2 bytes, would be 67 MB.
    task = TaskSpec("decouple", "general")
    scheme = synth(task, n)
    bound = 3 * n * scheme.intervals + (2 << 20)
    tracemalloc.start()
    try:
        report = check_scheme(scheme, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"
