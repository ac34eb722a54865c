"""`check` and `compile` hold the scheme, the schedule and one block.

A Sylvester scheme's Schur product and gate count are read from its row
indices: Walsh rows k and k' multiply to row k ^ k', and the gate codes of
columns j - 1 and j differ by the parity of the indices' low bits.  Every
other scan (the Schur cells, the gate codes, the merged layers, the Gram)
runs a block at a time.  The full-size scans they replace are the oracle
here: one n x m Schur product, one n x m code array and its (m+1) x n merged
layers, and one N x N Gram.  The block sizes are also shrunk, so that small
schemes are scanned in many blocks.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decoupler import hadamard, schemes
from decoupler.ghm import compose_sylvester, gh_for_lambda
from decoupler.hadamard import gram, upper_pairs, walsh_rows
from decoupler.pulses import compile_general
from decoupler.schemes import (LABELS, CheckOutcome, Scheme, SchemeReport, TaskSpec, _gather,
                               _outcome, check_scheme, synth)


def full_codes(scheme: Scheme) -> np.ndarray:
    """The n x m gate codes after one n x m Schur scan, which raises on the
    first column no gate realizes, by interval and then qubit."""
    if len(scheme.blocks) == 1:
        return (scheme.blocks[0] < 0).astype(np.uint8)
    sx, sy, sz = scheme.blocks
    bad = np.argwhere(sx * sy != sz)
    if len(bad):
        q, a = min(bad.tolist(), key=lambda cell: (cell[1], cell[0]))
        signs = (int(sx[q, a]), int(sy[q, a]), int(sz[q, a]))
        raise ValueError(f"sign column {signs} at qubit {q}, interval {a} "
                         "is not realizable (corrupted input)")
    return ((sx < 0).astype(np.uint8) << 1) | (sy < 0)


def merged_codes(codes: np.ndarray) -> np.ndarray:
    """The m+1 layers of the merged schedule as the rows of a C-contiguous
    (m+1) x n array: codes[:, 0] before the first interval, codes[:, a-1] ^
    codes[:, a] between intervals a-1 and a, and codes[:, -1] after the last."""
    padded = np.zeros((codes.shape[0], codes.shape[1] + 2), dtype=np.uint8)
    padded[:, 1:-1] = codes
    return np.ascontiguousarray((padded[:, 1:] ^ padded[:, :-1]).T)


def full_check(scheme: Scheme, task: TaskSpec) -> SchemeReport:
    """check_scheme as full-size scans: the Schur product, one N x N Gram with
    the task's exception written into it, and the merged gate codes."""
    n, m = scheme.qubits, scheme.intervals
    blocks = scheme.blocks
    zz = len(blocks) == 1
    checks = {}
    bad_cells = () if zz else np.argwhere(blocks[0] * blocks[1] != blocks[2])
    if not zz:
        checks["schur_product"] = _outcome(bad_cells, "cells violating S_x*S_y=S_z")
    labels = LABELS[-len(blocks):]
    rows = np.stack(blocks, axis=1).reshape(len(labels) * n, m)

    def row(label, qubit):
        return len(labels) * qubit + labels.index(label)

    reverse = task.kind == "reverse"
    target = -1 if reverse else 0
    g = gram(rows)
    if task.kind == "select":
        (l, gamma), (k, eta) = task.selected
        a, b = row(gamma, l), row(eta, k)
        checks["designated_pair"] = CheckOutcome(
            bool(g[a, b] == m), f"rows {l} and {k} must be identical" if zz
            else f"S_{gamma} row {l} must equal S_{eta} row {k}")
        g[[a, b], [b, a]] -= m
    elif task.kind == "select_pair":
        i, j = task.qubits
        pair = [row(lb, q) for q in (i, j) for lb in labels]
        g[np.ix_(pair, pair)] = target
        checks["pair_rows_all_plus"] = CheckOutcome(
            bool(np.all(rows[pair] == 1)), f"rows of qubits {i},{j} must be all +")
    bad = upper_pairs(g != target)
    if reverse:
        checks["inner_products"] = _outcome(bad, "row pairs with inner product != -1")
    else:
        checks["orthogonality"] = _outcome(bad)
    if task.remove_local_terms and task.kind != "select_pair":
        bad_sums = np.nonzero(rows.sum(axis=1) != target)[0]
        if reverse:
            checks["row_sums"] = _outcome(bad_sums, "rows with sum != -1")
        else:
            checks["zero_row_sums"] = _outcome(bad_sums, "rows with nonzero sum")
    gates = 0 if len(bad_cells) else np.count_nonzero(merged_codes(full_codes(scheme)))
    return SchemeReport(n, task.framework, m, m / len(rows), int(gates), checks)


def composed(r: int, lam: int, n: int, reverse: bool) -> Scheme:
    """n Schur triples of compose(sylvester(r), gh(4, lam)): Walsh rows in
    another order, which no synthesizer picks for decoupling."""
    comp = compose_sylvester(r, gh_for_lambda(lam))
    return _gather(comp.rows, np.array(comp.triples[:n], dtype=np.intp), reverse)


@st.composite
def cases(draw):
    """(scheme, task): every task of both frameworks with local terms on and
    off at n <= 64, or a composed general scheme, with at most one flipped
    cell in any block."""
    framework = draw(st.sampled_from(["zz", "general"]))
    kinds = ["decouple", "select", "reverse"] + (["select_pair"] if framework == "general" else [])
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2 if kind.startswith("select") else 1, 64))
    qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
                   if kind.startswith("select") else ())
    labels = (tuple(draw(st.sampled_from(LABELS)) for _ in range(2))
              if (kind, framework) == ("select", "general") else None)
    task = TaskSpec(kind, framework, qubits, labels, draw(st.booleans()))
    if framework == "general" and kind in ("decouple", "reverse") and draw(st.booleans()):
        r, lam = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (4, 1), (3, 2)]))
        scheme = composed(r, lam, n, kind == "reverse")
        task = TaskSpec(kind, framework, remove_local_terms=task.remove_local_terms)
    else:
        try:
            scheme = synth(task, n)
        except ValueError:  # a zz reversal with no interval left
            assume(False)
    if draw(st.booleans()):
        mats = [b.copy() for b in scheme.blocks]
        t = draw(st.integers(0, len(mats) - 1))
        mats[t][draw(st.integers(0, scheme.qubits - 1)),
                draw(st.integers(0, scheme.intervals - 1))] *= -1
        scheme = Scheme(tuple(mats))
    return scheme, task


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from([1, 100, 1 << 18]), st.sampled_from([1, 6000, 1 << 22]))
def test_check_and_compile_equal_the_full_size_scans(case, scan_bytes, gram_bytes):
    scheme, task = case
    with mock.patch.object(hadamard, "_SCAN_BYTES", scan_bytes), \
            mock.patch.object(hadamard, "_BLOCK_BYTES", scan_bytes // 4 or 1), \
            mock.patch.object(schemes, "_GRAM_BYTES", gram_bytes):
        report = check_scheme(scheme, task).lines()
        try:
            got = (compile_general(scheme).codes, compile_general(scheme, merged=False).codes)
        except ValueError as exc:
            got = str(exc)
    assert report == full_check(scheme, task).lines()
    try:
        codes = full_codes(scheme)
    except ValueError as exc:
        assert got == str(exc)
        return
    unmerged = np.repeat(codes.T, 2, axis=0)  # layer a before and after interval a
    assert np.array_equal(got[0], merged_codes(codes))
    assert np.array_equal(got[1], unmerged)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.booleans(), st.data())
def test_walsh_gate_count_equals_the_merged_codes(r, reverse, data):
    # any Walsh indices, with S_z = S_x * S_y so that the index rule applies
    assume(r or not reverse)
    n = data.draw(st.integers(1, 12))
    kx, ky = (np.array(data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=n, max_size=n)))
              for _ in range(2))
    sx, sy, sz = (walsh_rows(k, r)[:, int(reverse):] for k in (kx, ky, kx ^ ky))
    kind = "reverse" if reverse else "decouple"
    for scheme, framework in ((Scheme((sx, sy, sz)), "general"), (Scheme((sy,)), "zz")):
        report = check_scheme(scheme, TaskSpec(kind, framework, remove_local_terms=False))
        assert report.gate_count == np.count_nonzero(merged_codes(full_codes(scheme)))


def _traced(call) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [400, 1365], ids=["general-decouple-400", "general-decouple-1365"])
def test_certified_check_traces_at_most_1_mib(n):
    # the certificate regenerates a 256 KiB block of rows and compares it;
    # the Schur product and gate count are read from the indices, where two
    # n x m byte arrays (1.6 MiB at n = 400, 10.7 MiB at n = 1365) held them
    task = TaskSpec("decouple", "general")
    scheme = synth(task, n)
    report, peak = _traced(lambda: check_scheme(scheme, task))
    assert report.passed
    assert peak <= 1 << 20, f"peak {peak} B over 1 MiB"


def test_compile_traces_its_layers_and_one_block():
    scheme = synth(TaskSpec("decouple", "general"), 1365)
    layers = (scheme.intervals + 1) * scheme.qubits
    schedule, peak = _traced(lambda: compile_general(scheme))
    assert schedule.codes.nbytes == layers
    assert peak <= layers + (2 << 20), f"peak {peak} B over the layers ({layers} B) + 2 MiB"


def test_corrupted_check_traces_at_most_twice_the_scheme():
    # one flipped cell: the Gram path computes and scans a strip of rows at a
    # time, where the whole float32 Gram of 4095 rows would be 64 MiB
    task = TaskSpec("decouple", "general")
    mats = [b.copy() for b in synth(task, 1365).blocks]
    mats[1][682, 7] *= -1
    scheme = Scheme(tuple(mats))
    size = sum(b.nbytes for b in scheme.blocks)
    report, peak = _traced(lambda: check_scheme(scheme, task))
    assert not report.passed
    assert peak <= 2 * size, f"peak {peak} B over twice the scheme ({size} B)"
