"""A zz scheme S is the general-framework triple (1, S, S): it lowers and is
checked through the same code as any sign triple."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.pulses import compile_general, compile_zz, gate_count
from decoupler.schemes import Scheme, TaskSpec, check_scheme, synth

# sign column (s_x, s_y, s_z) of each conjugating gate
SIGNS = {0: (1, 1, 1), 1: (1, -1, -1), 2: (-1, 1, -1), 3: (-1, -1, 1)}


def zz_matrix(n, m, seed):
    return Scheme((np.random.default_rng(seed).choice([-1, 1], size=(n, m)),))


def triple_from_codes(codes):
    signs = np.array([SIGNS[c] for c in range(4)])[codes]  # n x m x 3
    return Scheme(tuple(signs[..., t] for t in range(3)))


@given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_zz_lowers_as_embedded_triple(n, m, seed):
    s = zz_matrix(n, m, seed)
    (block,) = s.blocks
    embedded = Scheme((np.ones((n, m), dtype=int), block, block))
    for merged in (True, False):
        assert (compile_zz(s, 0.3, merged).steps
                == compile_general(embedded, 0.3, merged).steps)


@given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_check_gate_count_matches_lowering(n, m, seed):
    rng = np.random.default_rng(seed)
    schemes = [
        (zz_matrix(n, m, seed), TaskSpec("decouple", "zz")),
        (triple_from_codes(rng.integers(0, 4, size=(n, m))), TaskSpec("decouple", "general")),
    ]
    for scheme, task in schemes:
        assert check_scheme(scheme, task).gate_count == gate_count(compile_general(scheme))


def _flip(entries, cells):
    e = entries.copy()
    for q, a in cells:
        e[q, a] = -e[q, a]
    return e


# (task, n, cells to flip per matrix ("s" for zz), expected report lines)
CORRUPTED = [
    (TaskSpec("decouple", "zz"), 4, {"s": [(1, 2)]}, [
        "qubits=4", "framework=zz", "intervals=8", "overhead=2", "gates=18",
        "check.orthogonality=FAIL (non-orthogonal row pairs: (0, 1), (1, 2), (1, 3))",
        "check.zero_row_sums=FAIL (rows with nonzero sum: 1)",
        "result=FAIL"]),
    (TaskSpec("select", "zz", qubits=(0, 3)), 5, {"s": [(3, 1)]}, [
        "qubits=5", "framework=zz", "intervals=8", "overhead=1.6", "gates=24",
        "check.designated_pair=FAIL (rows 0 and 3 must be identical)",
        "check.orthogonality=FAIL (non-orthogonal row pairs: (0, 3), (1, 3), (2, 3), (3, 4))",
        "check.zero_row_sums=FAIL (rows with nonzero sum: 3)",
        "result=FAIL"]),
    (TaskSpec("reverse", "zz"), 4, {"s": [(2, 0)]}, [
        "qubits=4", "framework=zz", "intervals=7", "overhead=1.75", "gates=18",
        "check.inner_products=FAIL (row pairs with inner product != -1: (0, 2), (1, 2), (2, 3))",
        "check.row_sums=FAIL (rows with sum != -1: 2)",
        "result=FAIL"]),
    (TaskSpec("decouple", "general"), 3, {"z": [(1, 3)]}, [
        "qubits=3", "framework=general", "intervals=16", "overhead=1.77778", "gates=0",
        "check.orthogonality=FAIL (non-orthogonal row pairs: (0, 5), (1, 5), (2, 5), "
        "(3, 5), (4, 5), (5, 6), (5, 7), (5, 8))",
        "check.schur_product=FAIL (cells violating S_x*S_y=S_z: (1, 3))",
        "check.zero_row_sums=FAIL (rows with nonzero sum: 5)",
        "result=FAIL"]),
    (TaskSpec("select", "general", qubits=(0, 2), labels=("x", "y")), 3,
     {"x": [(0, 5)], "z": [(0, 5)]}, [
        "qubits=3", "framework=general", "intervals=16", "overhead=1.77778", "gates=45",
        "check.designated_pair=FAIL (S_x row 0 must equal S_y row 2)",
        "check.orthogonality=FAIL (non-orthogonal row pairs: (0, 1), (0, 3), (0, 4), "
        "(0, 5), (0, 6), (0, 7), (0, 8), (1, 2) (+6 more))",
        "check.schur_product=pass",
        "check.zero_row_sums=FAIL (rows with nonzero sum: 0, 2)",
        "result=FAIL"]),
    (TaskSpec("select_pair", "general", qubits=(0, 2)), 4, {"y": [(2, 1)], "z": [(2, 1)]}, [
        "qubits=4", "framework=general", "intervals=16", "overhead=1.33333", "gates=30",
        "check.orthogonality=FAIL (non-orthogonal row pairs: (3, 7), (3, 8), (4, 7), "
        "(4, 8), (5, 7), (5, 8), (7, 9), (7, 10) (+4 more))",
        "check.pair_rows_all_plus=FAIL (rows of qubits 0,2 must be all +)",
        "check.schur_product=pass",
        "result=FAIL"]),
    (TaskSpec("reverse", "general"), 2, {"y": [(0, 2)]}, [
        "qubits=2", "framework=general", "intervals=15", "overhead=2.5", "gates=0",
        "check.inner_products=FAIL (row pairs with inner product != -1: (0, 1), (1, 2), "
        "(1, 3), (1, 4), (1, 5))",
        "check.row_sums=FAIL (rows with sum != -1: 1)",
        "check.schur_product=FAIL (cells violating S_x*S_y=S_z: (0, 2))",
        "result=FAIL"]),
]


@pytest.mark.parametrize("task,n,cells,expected", CORRUPTED,
                         ids=[f"{t.framework}-{t.kind}" for t, *_ in CORRUPTED])
def test_corrupted_report_lines(task, n, cells, expected):
    scheme = synth(task, n)
    labels = "s" if len(scheme.blocks) == 1 else "xyz"
    scheme = Scheme(tuple(_flip(b, cells.get(l, [])) for b, l in zip(scheme.blocks, labels)))
    assert check_scheme(scheme, task).lines() == expected
