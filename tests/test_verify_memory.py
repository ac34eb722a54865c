"""verify holds a fixed number of operators of its backend's size, however
many distinct gate layers its scheme has: a pass applies each Pauli layer as
the signed permutation it is, P|x> = phase[x] |x ^ flip>, and keeps none."""

import tracemalloc

import numpy as np
import pytest

from decoupler.hadamard import sylvester
from decoupler.schemes import Scheme, TaskSpec, synth
from decoupler.simulate import DIAGONAL_QUBIT_CAP, PauliHamiltonian, pair_words, verify

# operators of the backend's size a pass may hold at once, and room for the
# scheme's own O(n m) data (its check and its schedule) at m <= 4096
OPERATORS = 8
SLACK = 1 << 20


def spanning_scheme(framework, n, r):
    """A decoupling scheme on rows of sylvester(r) whose indices span all r
    bits, columns in a random order: the 2^r columns are distinct, so about
    63% of the 2^r + 1 gate layers are too."""
    rows = sylvester(r).entries[:, np.random.default_rng(r).permutation(1 << r)]
    if framework == "zz":
        return Scheme((rows[[1 << k for k in range(r)] + [3, 5][:n - r]],))
    # triples (a, b, a ^ b) of distinct nonzero indices: row a times row b is row a ^ b
    half = r // 2
    idx = (np.array([(1, 2, 3)] * half + [(5, 10, 15)] * half)
           << 2 * (np.arange(2 * half) % half)[:, None])[:n]
    return Scheme(tuple(rows[idx[:, t]] for t in range(3)))


def coupling_hamiltonian(framework, n):
    """Every pair's couplings, coefficients uniform in [-1, 1]."""
    rng = np.random.default_rng(n)
    words = [w for i in range(n) for j in range(i + 1, n)
             for w in pair_words(n, i, j, framework)]
    return PauliHamiltonian(n, tuple((float(rng.uniform(-1, 1)), w) for w in words))


def operator_bytes(framework, n):
    """One complex128 operator: 2^n x 2^n dense, a 2^n vector for zz."""
    return 16 * (4 ** n if framework == "general" else 2 ** n)


DENSE_TASKS = {
    "reverse": TaskSpec("reverse", "general"),
    "select": TaskSpec("select", "general", (1, 5), ("x", "y")),
    "select_pair": TaskSpec("select_pair", "general", (5, 1)),
}


@pytest.mark.parametrize("framework,n,r,task,reps,tolerance", [
    pytest.param(*case, TaskSpec("decouple", case[0]), 1, None, id="-".join(map(str, case)))
    for case in [("general", 6, 10), ("general", 6, 12), ("general", 7, 10),
                 ("zz", 12, 12), ("zz", 14, 12),
                 # r None: the synthesized natural-order scheme, its pass by doubling
                 ("general", 7, None)]
] + [
    # every other dense task; the pair's Trotter error at reps 1 is 0.023,
    # above the general default tolerance of 0.02
    pytest.param("general", 7, None, task, reps, 0.05, id=f"general-7-None-{kind}-{reps}")
    for kind, task in DENSE_TASKS.items() for reps in (1, 16)
])
def test_verify_peak_is_a_few_operators_whatever_m(framework, n, r, task, reps, tolerance):
    scheme = synth(task, n) if r is None else spanning_scheme(framework, n, r)
    h = coupling_hamiltonian(framework, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = verify(task, scheme, h, 0.1, reps=reps, tolerance=tolerance)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= OPERATORS * operator_bytes(framework, n) + SLACK


def test_zz_verify_peak_at_the_diagonal_cap():
    """The largest vector verify runs: a synthesized decoupling scheme against
    every ZZ pair and Z local at DIAGONAL_QUBIT_CAP qubits."""
    n = DIAGONAL_QUBIT_CAP
    rng = np.random.default_rng(n)
    words = [w for i in range(n) for j in range(i + 1, n) for w in pair_words(n, i, j, "zz")]
    words += ["I" * i + "Z" + "I" * (n - i - 1) for i in range(n)]
    h = PauliHamiltonian(n, tuple((float(rng.uniform(-1, 1)), w) for w in words))
    task = TaskSpec("decouple", "zz")
    scheme = synth(task, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = verify(task, scheme, h, 0.1, reps=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= OPERATORS * operator_bytes("zz", n) + SLACK
