"""Every exact check is one Gram compared with one scalar.

check_scheme writes its task's one exception into the Gram (select subtracts
m at the designated pair, pair sets its block to the target) and scans the
upper triangle against 0, or -1 for reverse.  Its reports must equal the
formulation with an N x N target matrix and an N x N skip mask, kept here as
the reference, and its memory is bounded, in advance, by the Gram alone.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decoupler.ghm import GhMatrix, gh_for_lambda, verify_gh
from decoupler.hadamard import build_hadamard, is_hadamard
from decoupler.schemes import (
    LABELS,
    CheckOutcome,
    SchemeReport,
    Scheme,
    TaskSpec,
    _outcome,
    check_scheme,
    gate_codes,
    synth,
)
from test_block_scans import merged_codes


def embedded(scheme):
    """(S_x, S_y, S_z) of a scheme, a zz S as the triple (1, S, S)."""
    if len(scheme.blocks) == 1:
        (s,) = scheme.blocks
        return np.ones_like(s), s, s
    return scheme.blocks


def reference_check(scheme, task):
    """check_scheme with a target Gram matrix plus a mask of skipped pairs."""
    checks = {}
    n, m = scheme.qubits, scheme.intervals
    zz = len(scheme.blocks) == 1
    sx, sy, sz = embedded(scheme)
    bad_cells = np.argwhere(sx * sy != sz)
    if not zz:
        checks["schur_product"] = _outcome(bad_cells, "cells violating S_x*S_y=S_z")
    labels = ("z",) if zz else LABELS
    mats = dict(zip(LABELS, (sx, sy, sz)))
    rows = np.stack([mats[l] for l in labels], axis=1).reshape(len(labels) * n, m)

    def row(label, qubit):
        return len(labels) * qubit + labels.index(label)

    total = len(rows)
    skip = np.tri(total, dtype=bool)
    reverse = task.kind == "reverse"
    target = np.full((total, total), -1 if reverse else 0, dtype=np.int64)
    if task.kind == "select":
        l, k = task.qubits
        g, e = ("z", "z") if zz else task.labels
        a, b = row(g, l), row(e, k)
        target[a, b] = target[b, a] = m
        detail = (f"rows {l} and {k} must be identical" if zz
                  else f"S_{g} row {l} must equal S_{e} row {k}")
        checks["designated_pair"] = CheckOutcome(
            bool(np.array_equal(rows[a], rows[b])), detail)
    elif task.kind == "select_pair":
        i, j = task.qubits
        pair = [row(lb, q) for q in (i, j) for lb in labels]
        skip[np.ix_(pair, pair)] = True
        checks["pair_rows_all_plus"] = CheckOutcome(
            bool(np.all(rows[pair] == 1)), f"rows of qubits {i},{j} must be all +")
    wide = rows.astype(np.int64)
    bad = np.argwhere((wide @ wide.T != target) & ~skip)
    if reverse:
        checks["inner_products"] = _outcome(bad, "row pairs with inner product != -1")
    else:
        checks["orthogonality"] = _outcome(bad)
    if task.remove_local_terms and task.kind != "select_pair":
        bad_sums = np.nonzero(rows.sum(axis=1) != (-1 if reverse else 0))[0]
        if reverse:
            checks["row_sums"] = _outcome(bad_sums, "rows with sum != -1")
        else:
            checks["zero_row_sums"] = _outcome(bad_sums, "rows with nonzero sum")
    gates = 0 if len(bad_cells) else np.count_nonzero(merged_codes(gate_codes(scheme)))
    return SchemeReport(n, task.framework, m, m / total, int(gates), checks)


@st.composite
def tasks(draw):
    """(task, n) over both frameworks, every task kind and local on/off."""
    framework = draw(st.sampled_from(["zz", "general"]))
    kinds = ["decouple", "select", "reverse"] + (["select_pair"] if framework == "general" else [])
    kind = draw(st.sampled_from(kinds))
    local = draw(st.booleans())
    n = draw(st.integers(2 if kind.startswith("select") else 1, 12))
    if kind == "decouple" or kind == "reverse":
        return TaskSpec(kind, framework, remove_local_terms=local), n
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    labels = (tuple(draw(st.sampled_from(LABELS)) for _ in range(2))
              if kind == "select" and framework == "general" else None)
    return TaskSpec(kind, framework, qubits=(i, j), labels=labels, remove_local_terms=local), n


@settings(max_examples=300, deadline=None)
@given(tasks(), st.sampled_from(["valid", "cell", "row"]), st.data())
def test_report_equals_target_and_mask_reference(spec, corruption, data):
    task, n = spec
    try:
        scheme = synth(task, n, 256)
    except ValueError:  # a zz reversal with no interval left
        assume(False)
    mats = [b.copy() for b in scheme.blocks]
    m = scheme.intervals
    if corruption != "valid" and m:
        hit = data.draw(st.lists(st.sampled_from(range(len(mats))), min_size=1, unique=True))
        q = data.draw(st.integers(0, n - 1))
        a = data.draw(st.integers(0, m - 1))
        for t in hit:
            if corruption == "cell":
                mats[t][q, a] *= -1
            else:
                mats[t][q] = data.draw(arrays(np.int8, m, elements=st.sampled_from([-1, 1])))
    scheme = Scheme(tuple(mats))
    assert check_scheme(scheme, task).lines() == reference_check(scheme, task).lines()


def _pair_loop(e):
    return tuple((i, j) for i in range(len(e)) for j in range(i + 1, len(e))
                 if int(np.dot(e[i].astype(np.int64), e[j])) != 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("paley1", 11), ("paley2", 5), ("paley1", 19),
                        ("kron", ("sylvester", 1), ("paley1", 11))]), st.data())
def test_is_hadamard_row_corruption_equals_pair_loop(recipe, data):
    e = build_hadamard(recipe).entries.copy()
    q = data.draw(st.integers(0, len(e) - 1))
    e[q] = data.draw(arrays(np.int8, len(e), elements=st.sampled_from([-1, 1])))
    assert is_hadamard(e).offending_pairs == _pair_loop(e)


@pytest.mark.parametrize("lam", [1, 2, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_gh_row_corruption_equals_bincount_loop(lam, data):
    e = gh_for_lambda(lam).entries.copy()
    q = data.draw(st.integers(0, len(e) - 1))
    e[q] = data.draw(arrays(np.uint8, len(e), elements=st.integers(0, 3)))
    expected = tuple((i, j) for i in range(len(e)) for j in range(i + 1, len(e))
                     if not np.all(np.bincount(e[i] ^ e[j], minlength=4) == lam))
    assert verify_gh(GhMatrix(e, lam=lam)).offending_pairs == expected


@pytest.mark.parametrize("task,n", [
    (TaskSpec("decouple", "general"), 400),
    (TaskSpec("select_pair", "general", qubits=(0, 299)), 300),
    (TaskSpec("decouple", "zz"), 1000),
], ids=["general-decouple-400", "general-pair-300", "zz-decouple-1000"])
def test_check_peak_is_bounded_by_the_gram(task, n):
    # N checked rows of width m: the float32 Gram is 4 N^2 bytes and the
    # scan's two bool masks N^2 each; the int8 row stack is N m and its
    # float32 copy 4 N m
    scheme = synth(task, n)
    rows = n if task.framework == "zz" else 3 * n
    bound = 6 * rows ** 2 + 5 * rows * scheme.intervals
    tracemalloc.start()
    try:
        report = check_scheme(scheme, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"
