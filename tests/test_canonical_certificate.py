"""Paley and Kronecker rows are checked by their indices too.

The zz synthesizers take their rows from the canonical matrix of an order,
`best_matrix(w, cap=w)`: Sylvester at a power of two, else Paley or a
Kronecker product with Paley.  Row 0 and column 0 of that normalized matrix
are all +, so every criterion of check_scheme is a statement about row
indices at any order.  `canonical_indices` finds each row in the matrix it
came from, and a pass is certified without a Gram.  Rows it cannot name,
and every failing scheme, take the exact Gram path, so every report must
equal the target-and-mask reference of test_gram_scan.
"""

import contextlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_gram_scan import reference_check

from decoupler import schemes
from decoupler.hadamard import (_recipe, best_matrix, build_hadamard, canonical_indices,
                                is_hadamard, is_normalized, normalize)
from decoupler.schemes import Scheme, TaskSpec, check_scheme, synth


def _other_orders(limit):
    """Every order <= limit with a recipe that is not a power of two."""
    return [w for w in range(3, limit + 1) if _recipe(w) and w & (w - 1)]


def no_gram():
    return mock.patch.object(schemes, "gram", side_effect=AssertionError("Gram built"))


@pytest.mark.parametrize("w", [w for w in range(1, 1025) if _recipe(w)] + [1008, 4088, 4092])
def test_canonical_matrix_is_a_normalized_hadamard_matrix(w):
    # the trust base of the certificate: every index rule rests on this
    h = best_matrix(w, cap=w)
    assert h.order == w and is_normalized(h)
    assert is_hadamard(h.entries).ok


def _zz_task(kind, n, local):
    return TaskSpec(kind, "zz", qubits=(0, n - 1) if kind == "select" else (),
                    remove_local_terms=local)


def test_every_synthesized_zz_scheme_up_to_1024_is_certified():
    # n = w - 1 and n = w with zero-sum rows and without, and selection's
    # one row more, land on order w; reversal drops its first column
    with no_gram():
        for w in _other_orders(1024):
            for kind, local in itertools.product(("decouple", "select", "reverse"), (True, False)):
                n = w - local + (kind == "select")
                task = _zz_task(kind, n, local)
                scheme = synth(task, n)
                assert scheme.intervals + (kind == "reverse") == w
                assert check_scheme(scheme, task).passed


@pytest.mark.parametrize("w", [1008, 2044, 4088, 4092])
@pytest.mark.parametrize("kind", ["decouple", "select", "reverse"])
def test_large_synthesized_zz_schemes_are_certified(w, kind):
    n = w - 1 + (kind == "select")
    task = _zz_task(kind, n, True)
    scheme = synth(task, n)
    with no_gram():
        assert check_scheme(scheme, task).passed


CORRUPTIONS = ["valid", "cell", "duplicate", "negate", "swap", "canonical", "other", "restore"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["decouple", "select", "reverse"]), st.booleans(),
       st.integers(2, 60), st.sampled_from(CORRUPTIONS), st.data())
def test_report_equals_reference_at_other_orders(kind, local, n, corruption, data):
    qubits = ()
    if kind == "select":
        qubits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                          unique=True)))
    task = TaskSpec(kind, "zz", qubits=qubits, remove_local_terms=local)
    reverse = kind == "reverse"
    s = synth(task, n).blocks[0].copy()
    size = s.shape[1] + reverse
    assume(size & (size - 1))
    m = s.shape[1]
    # a task's own qubits, half the time: their rows carry its exceptions
    q = data.draw(st.one_of(st.sampled_from(task.qubits or (0,)), st.integers(0, n - 1)))
    if corruption == "cell":
        s[q, data.draw(st.integers(0, m - 1))] *= -1
    elif corruption == "duplicate":
        s[q] = s[data.draw(st.integers(0, n - 1).filter(lambda p: p != q))]
    elif corruption == "negate":
        s[q] *= -1
    elif corruption == "swap":
        a, b = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        s[:, [a, b]] = s[:, [b, a]]
    elif corruption == "canonical":  # another row of the same matrix: the indices decide
        s[q] = best_matrix(size, cap=size).entries[data.draw(st.integers(0, size - 1)), reverse:]
    elif corruption == "other":  # a row of the same order's unnormalized matrix
        s[q] = build_hadamard(_recipe(size)).entries[data.draw(st.integers(0, size - 1)), reverse:]
    elif corruption == "restore":  # a reversal with its all-+ column put back
        assume(reverse)
        s = np.hstack([np.ones((n, 1), dtype=np.int8), s])
    scheme = Scheme((s,))
    expected = reference_check(scheme, task)
    # a passing scheme of canonical rows is certified without a Gram
    named = canonical_indices([s], reverse) is not None
    with no_gram() if named and expected.passed else contextlib.nullcontext():
        report = check_scheme(scheme, task)
    assert report == expected
    assert report.lines() == expected.lines()


@pytest.mark.parametrize("task,n", [
    (_zz_task("select", 12, True), 12),
    (_zz_task("select", 12, False), 12),
    (TaskSpec("select", "zz", qubits=(3, 7)), 20),
], ids=["select-12", "select-12-no-local", "select-20"])
def test_every_canonical_row_at_a_task_qubit_equals_the_reference(task, n):
    # still canonical rows, so only the indices can refuse the certificate
    scheme = synth(task, n)
    table = best_matrix(scheme.intervals).entries
    for k in range(len(table)):
        s = scheme.blocks[0].copy()
        s[task.qubits[1]] = table[k]
        bad = Scheme((s,))
        assert check_scheme(bad, task) == reference_check(bad, task)


def _lookup(table, rows):
    """Brute force: the index of each row in the table, or None."""
    found = [np.flatnonzero((table == x).all(axis=1)) for x in rows]
    return None if any(len(f) == 0 for f in found) else [int(f[0]) for f in found]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_other_orders(64)), st.booleans(), st.data())
def test_canonical_indices_equal_a_lookup_in_the_canonical_matrix(w, dropped_first, data):
    table = best_matrix(w, cap=w).entries[:, int(dropped_first):]
    width = table.shape[1]
    rows = data.draw(st.lists(st.one_of(
        st.integers(0, w - 1).map(lambda k: table[k]),
        arrays(np.int8, width, elements=st.sampled_from([-1, 1]))), min_size=1, max_size=w))
    rows = np.array(rows, dtype=np.int8).reshape(len(rows), width)
    # the matrix is built only while it is no larger than the rows' float32 Gram
    small = w * w <= 4 * len(rows) * (width + len(rows))
    expected = _lookup(table, rows) if small else None
    got = canonical_indices([rows], dropped_first)
    assert (got if got is None else got[0].tolist()) == expected


@pytest.mark.parametrize("w", [12, 20, 24, 28, 44, 48, 1008])
@pytest.mark.parametrize("dropped_first", [False, True])
def test_canonical_indices_refuse_any_one_flipped_cell(w, dropped_first):
    # distinct rows of a Hadamard matrix of order >= 4 differ in w/2 columns,
    # so one flip leaves a row that is no row of it
    h = best_matrix(w, cap=w).entries[:, int(dropped_first):]
    assert canonical_indices([h], dropped_first)[0].tolist() == list(range(w))
    for a in range(0, h.shape[1], max(1, h.shape[1] // 40)):
        bad = h.copy()
        bad[a % w, a] *= -1
        assert canonical_indices([bad], dropped_first) is None


@pytest.mark.parametrize("w,other", [
    (12, ("paley2", 5)),
    (24, ("kron", ("sylvester", 1), ("paley1", 11))),
    (48, ("kron", ("sylvester", 2), ("paley1", 11))),
    (48, ("kron", ("paley1", 11), ("sylvester", 2))),
])
@pytest.mark.parametrize("normalized", [False, True])
def test_canonical_indices_refuse_other_constructions(w, other, normalized):
    assert _recipe(w) != other
    h = build_hadamard(other)
    rows = (normalize(h) if normalized else h).entries
    assert canonical_indices([rows]) is None
    assert canonical_indices([rows[:, 1:]], dropped_first=True) is None


def test_no_matrix_for_fewer_rows_than_it_is_worth():
    # one Paley row of order 4092: its Gram is 4 bytes, the matrix 16 MB
    row = best_matrix(4092).entries[1:2]
    tracemalloc.start()
    try:
        assert canonical_indices([row]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_general_triple_of_paley_rows_is_not_read_by_xor():
    # S_z = S_x * S_y of Paley rows is in general no row of the matrix, and
    # the index of a product is not the XOR of the indices: Sylvester only.
    # Every (S_x, S_y) row choice of two qubits at m = 12, one with zero-sum
    # rows, must give the reference's report.
    h = best_matrix(12).entries
    task = TaskSpec("decouple", "general")
    xor_would_pass = 0
    for a, b, c, d in itertools.product(range(1, 12), repeat=4):
        if (a, b, c, d) != tuple(sorted((a, b, c, d))):
            continue
        sx, sy = h[[a, c]], h[[b, d]]
        scheme = Scheme((sx, sy, sx * sy))
        expected = reference_check(scheme, task)
        assert check_scheme(scheme, task) == expected
        idx = [a, b, a ^ b, c, d, c ^ d]
        if len(set(idx)) == 6 and 0 not in idx and not expected.passed:
            xor_would_pass += 1
    assert xor_would_pass  # the XOR rule would have certified these


@pytest.mark.parametrize("n", [1000, 4090], ids=["zz-decouple-1000", "zz-decouple-4090"])
def test_certified_check_peak_is_below_the_gram(n):
    # the Gram path holds the float32 rows and their Gram, 4 N m + 4 N^2
    # bytes; the certificate holds the canonical matrix and its build, a few
    # m^2 bytes, for this call only
    task = TaskSpec("decouple", "zz")
    scheme = synth(task, n)
    m = scheme.intervals
    bound = 4 * n * m + 4 * n * n
    tracemalloc.start()
    try:
        with no_gram():
            report = check_scheme(scheme, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound, f"peak {peak} B over the Gram's {bound} B"
