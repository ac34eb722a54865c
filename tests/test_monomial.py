"""The Pauli-monomial backend for Z-diagonal Hamiltonians against the dense
oracle (run_schedule, evolve, phase_aligned_distance), and the bounds verify
enforces before it allocates anything."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler import simulate
from decoupler.pulses import PulseSchedule, compile_general
from decoupler.schemes import (
    Scheme,
    TaskSpec,
    synth_decouple_general,
    synth_decouple_zz,
    synth_reverse_general,
    synth_reverse_zz,
    synth_select_general,
    synth_select_zz,
)
from decoupler.simulate import (
    PauliHamiltonian,
    monomial_distance,
    monomial_matrix,
    monomial_power,
    pair_words,
    phase_aligned_distance,
    run_schedule,
    run_schedule_diagonal,
    target_unitary,
    verify,
    word_matrix,
)

ORACLE_TOL = 1e-12
# sign column (s_x, s_y, s_z) of each conjugating gate I/X/Y/Z
SIGNS = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
KRON_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def kron_word(word):
    out = np.array([[1]], dtype=np.complex128)
    for c in word:
        out = np.kron(out, KRON_PAULI[c])
    return out


def diagonal_hamiltonian(n, rng, local=True):
    """Every ZZ pair plus (optionally) every Z local, coefficients in [-1, 1]."""
    words = [w for i in range(n) for j in range(i + 1, n) for w in pair_words(n, i, j, "zz")]
    if local:
        words += ["I" * i + "Z" + "I" * (n - i - 1) for i in range(n)]
    return PauliHamiltonian(n, tuple((float(rng.uniform(-1, 1)), w) for w in words))


def random_scheme(n, m, rng):
    """A random zz sign matrix or a random realizable sign triple."""
    if rng.random() < 0.5:
        return Scheme((rng.choice([-1, 1], size=(n, m)),))
    cols = SIGNS[rng.integers(0, 4, size=(n, m))]
    return Scheme(tuple(cols[..., t] for t in range(3)))


def max_diff(a, b):
    return float(np.abs(a - b).max())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_matrix_equals_kron_reference(n):
    for letters in itertools.product("IXYZ", repeat=n):
        word = "".join(letters)
        assert np.array_equal(word_matrix(word), kron_word(word)), word


@st.composite
def pauli_sums(draw, letters="XYZ"):
    """A PauliHamiltonian on n <= 4 qubits: words with at most two non-identity
    letters drawn from a small pool, so words repeat, and possibly no term."""
    n = draw(st.integers(1, 4))
    word = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(letters)),
                    max_size=2, unique_by=lambda qc: qc[0]).map(
        lambda qcs: "".join(dict(qcs).get(q, "I") for q in range(n)))
    pool = draw(st.lists(word, min_size=1, max_size=5))
    coeff = st.one_of(st.just(0.0), st.floats(-4, 4, allow_subnormal=False))
    terms = draw(st.lists(st.tuples(coeff, st.sampled_from(pool)), max_size=12))
    return PauliHamiltonian(n, tuple(terms))


def kron_sum(h):
    out = np.zeros((2 ** h.qubits,) * 2, dtype=np.complex128)
    for coeff, word in h.terms:
        out += coeff * kron_word(word)
    return out


@given(pauli_sums())
@settings(max_examples=200, deadline=None)
def test_hamiltonian_matrix_equals_the_kron_sum_exactly(h):
    assert np.array_equal(simulate.hamiltonian_matrix(h), kron_sum(h))


@given(pauli_sums(letters="Z"), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_diagonal_evolve_exponentiates_the_kron_sum_exactly(h, t):
    diag = np.diag(kron_sum(h)).real
    assert np.array_equal(simulate.evolve(h, t), np.diag(np.exp(-1j * t * diag)))


@given(st.text("IXYZ", min_size=1, max_size=6))
@settings(deadline=None)
def test_word_monomial_phase_is_real_for_an_even_number_of_y(word):
    flip, phase = simulate.word_monomial(word)
    assert phase.dtype == (np.complex128 if word.count("Y") % 2 else np.float64)
    assert np.array_equal(monomial_matrix(flip, phase), kron_word(word))


@given(st.integers(1, 6), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_compiled_scheme_pass_matches_run_schedule(n, m, merged, seed):
    rng = np.random.default_rng(seed)
    h = diagonal_hamiltonian(n, rng)
    p = compile_general(random_scheme(n, m, rng), float(rng.uniform(0.01, 1.0)), merged)
    dense = run_schedule(p, h)
    assert max_diff(monomial_matrix(*run_schedule_diagonal(p, h)), dense) <= ORACLE_TOL


def layer_product(p, h):
    """run_schedule as the product of one word_matrix per gate layer and
    evolve per interval, later operations on the left: the reference."""
    u_free = simulate.evolve(h, p.tau)
    u = np.eye(2 ** p.qubits, dtype=np.complex128)
    for step in p.steps:
        u = (u_free if step is None else word_matrix(step)) @ u
    return u


@given(st.integers(1, 6), st.integers(0, 12), st.sampled_from(["zz", "general"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_run_schedule_equals_the_product_of_layer_matrices(n, length, kind, seed):
    """Each layer applied as a signed row permutation, bit for bit."""
    rng = np.random.default_rng(seed)
    steps = tuple(None if rng.random() < 0.4 else "".join(rng.choice(list("IXYZ"), size=n))
                  for _ in range(length))
    p = PulseSchedule(n, float(rng.uniform(0.01, 1.0)), steps)
    h = simulate.random_hamiltonian(n, seed, kind, with_local=bool(rng.integers(2)))
    assert np.array_equal(run_schedule(p, h), layer_product(p, h))


@given(st.integers(1, 6), st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_pauli_schedule_with_net_flip_matches_dense(n, length, k, seed):
    """Arbitrary X/Y/Z layers, so the pass may end with a nonzero flip; its
    power and its distance to a diagonal target follow the dense oracle."""
    rng = np.random.default_rng(seed)
    steps = [None if rng.random() < 0.4 else "".join(rng.choice(list("IXYZ"), size=n))
             for _ in range(length)]
    steps.append("".join(rng.choice(list("XY"), size=n)))   # a nonzero net flip is likely
    p = PulseSchedule(n, float(rng.uniform(0.01, 1.0)), tuple(steps))
    h = diagonal_hamiltonian(n, rng, local=bool(rng.integers(2)))
    flip, u = run_schedule_diagonal(p, h)
    dense = run_schedule(p, h)
    assert max_diff(monomial_matrix(flip, u), dense) <= ORACLE_TOL

    flip_k, u_k = monomial_power(flip, u, k)
    dense_k = np.linalg.matrix_power(dense, k)
    assert max_diff(monomial_matrix(flip_k, u_k), dense_k) <= ORACLE_TOL

    target = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2**n))
    assert abs(monomial_distance(flip_k, u_k, target)
               - phase_aligned_distance(dense_k, np.diag(target))) <= ORACLE_TOL


def dense_verify_distance(task, scheme, h, total_time, reps):
    """verify's distance computed on 2^n x 2^n matrices, the oracle."""
    m = scheme.intervals
    u = run_schedule(compile_general(scheme, total_time / (m * reps)), h)
    return phase_aligned_distance(np.linalg.matrix_power(u, reps),
                                  target_unitary(task, h, total_time, m))


def diagonal_cases(n, rng):
    i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
    label = str(rng.choice(list("xyz")))
    return [
        (TaskSpec("decouple", "zz"), synth_decouple_zz(n)),
        (TaskSpec("select", "zz", qubits=(i, j)), synth_select_zz(n, i, j)),
        (TaskSpec("reverse", "zz"), synth_reverse_zz(n)),
        (TaskSpec("decouple", "general"), synth_decouple_general(n)),
        (TaskSpec("select", "general", qubits=(i, j), labels=("z", label)),
         synth_select_general(n, i, j, "z", label)),
        (TaskSpec("reverse", "general"), synth_reverse_general(n)),
    ]


@given(st.integers(2, 6), st.sampled_from([1, 2, 3, 16]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_verify_diagonal_path_matches_dense_oracle(n, reps, seed):
    rng = np.random.default_rng(seed)
    h = diagonal_hamiltonian(n, rng)
    total_time = float(rng.uniform(0.05, 2.0))
    for task, scheme in diagonal_cases(n, rng):
        got = verify(task, scheme, h, total_time, reps).distance
        want = dense_verify_distance(task, scheme, h, total_time, reps)
        assert abs(got - want) <= ORACLE_TOL, (task, got, want)


def _refuse(*args, **kwargs):
    raise AssertionError("dense simulation called")


@pytest.mark.parametrize("kind", ["decouple", "select", "reverse"])
def test_zz_verify_above_dense_cap_allocates_no_matrix(monkeypatch, kind):
    n = 12
    for name in ("run_schedule", "hamiltonian_matrix", "evolve", "word_matrix",
                 "phase_aligned_distance"):
        monkeypatch.setattr(simulate, name, _refuse)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    monkeypatch.setattr(np.linalg, "matrix_power", _refuse)
    h = diagonal_hamiltonian(n, np.random.default_rng(12))
    task, scheme = {
        "decouple": (TaskSpec("decouple", "zz"), synth_decouple_zz(n)),
        "select": (TaskSpec("select", "zz", qubits=(2, 9)), synth_select_zz(n, 2, 9)),
        "reverse": (TaskSpec("reverse", "zz"), synth_reverse_zz(n)),
    }[kind]
    res = verify(task, scheme, h, total_time=0.7, reps=3)
    assert res.passed and res.distance <= 1e-10


@pytest.mark.parametrize("n,h", [
    (simulate.DENSE_QUBIT_CAP + 1, "XX"),
    (simulate.DIAGONAL_QUBIT_CAP + 1, "ZZ"),
])
def test_verify_refuses_n_above_backend_cap_before_compiling(monkeypatch, n, h):
    monkeypatch.setattr(simulate, "compile_general", _refuse)
    monkeypatch.setattr(simulate, "check_scheme", _refuse)
    ham = PauliHamiltonian(n, ((0.5, h + "I" * (n - 2)),))
    with pytest.raises(ValueError, match="cap"):
        verify(TaskSpec("decouple", "zz"), synth_decouple_zz(n), ham, 0.1, 1)


@pytest.mark.parametrize("total_time", [float("inf"), float("-inf"), float("nan")])
def test_verify_rejects_non_finite_time(total_time):
    h = PauliHamiltonian(2, ((0.5, "ZZ"),))
    with pytest.raises(ValueError, match="finite"):
        verify(TaskSpec("decouple", "zz"), synth_decouple_zz(2), h, total_time, 1)
