"""verify's dense path against the reference it replaces.  A schedule whose
frames obey the group law of GF(2)^r, a reversal's once a frame-0 interval is
put first, runs its pass by doubling over the r generators; the
phase-aligned distance comes from a Hermitian eigenproblem when every
eigenphase lies within 60 degrees of the trace's; the free evolution is a
Taylor series and each target acts without a second exponential of h.  The
reference is run_schedule, np.linalg.matrix_power, evolve (through
target_unitary) and the general eigenvalues: the two round differently, so
they agree within TOL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.hadamard import kron_product, normalize, paley, sylvester
from decoupler.pulses import compile_general
from decoupler.schemes import Scheme, TaskSpec, synth
from decoupler.simulate import (
    _arc_distance,
    _pass,
    _walsh_frames,
    evolve,
    phase_aligned_distance,
    random_hamiltonian,
    run_schedule,
    target_unitary,
    verify,
)

TOL = 1e-12


def tasks(framework, n, local=False):
    yield TaskSpec("decouple", framework, remove_local_terms=local)
    yield TaskSpec("reverse", framework, remove_local_terms=local)
    if framework == "zz":
        yield TaskSpec("select", "zz", (0, n - 1), remove_local_terms=local)
        return
    yield TaskSpec("select", "general", (0, n - 1), ("x", "y"), local)
    yield TaskSpec("select", "general", (n - 1, n - 2), ("z", "z"), local)
    yield TaskSpec("select_pair", "general", (n // 2, 0), remove_local_terms=local)


def reference_distance(task, scheme, h, total_time, reps):
    m = scheme.intervals
    u = run_schedule(compile_general(scheme, total_time / (m * reps)), h)
    w = target_unitary(task, h, total_time, m).conj().T @ np.linalg.matrix_power(u, reps)
    return _arc_distance(np.linalg.eigvals(w))


@given(st.integers(2, 6), st.sampled_from([("general", "general"), ("zz", "general"), ("zz", "zz")]),
       st.booleans(), st.booleans(), st.sampled_from([1, 16]),
       st.floats(0.05, 3.0), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_verify_matches_the_reference_path(n, frameworks, local, with_local, reps,
                                           total_time, seed):
    framework, kind = frameworks
    h = random_hamiltonian(n, seed, kind, with_local)
    for task in tasks(framework, n, local):
        scheme = synth(task, n)
        got = verify(task, scheme, h, total_time, reps).distance
        want = reference_distance(task, scheme, h, total_time, reps)
        assert abs(got - want) <= TOL, (task, got, want)


def natural_order_schemes():
    """Synthesized schemes on Sylvester rows in natural column order, at
    power-of-two orders: every task but reverse, and reverse (column 0
    dropped) with a frame-0 interval put first."""
    for n in range(2, 7):
        for task in tasks("general", n):
            if task.kind != "reverse":
                yield pytest.param(synth(task, n), id=f"general-{task.kind}-{task.labels}-{n}")
    for n in (2, 3, 4, 5, 6, 7):  # zz orders 4 and 8, decouple and select alike
        for task in tasks("zz", n):
            if task.kind != "reverse":
                yield pytest.param(synth(task, n), id=f"zz-{task.kind}-{n}")
    for framework, n in (("general", 3), ("general", 6), ("zz", 5)):
        task = TaskSpec("reverse", framework)
        yield pytest.param(synth(task, n), id=f"{framework}-reverse-{n}")


def refused_schemes():
    yield pytest.param(synth(TaskSpec("reverse", "zz"), 9), id="zz-reverse-9")  # order 12
    natural = synth(TaskSpec("decouple", "general"), 6)
    order = np.random.default_rng(6).permutation(natural.intervals)
    yield pytest.param(Scheme(tuple(b[:, order] for b in natural.blocks)), id="column-permuted")
    yield pytest.param(synth(TaskSpec("decouple", "zz"), 9), id="zz-order-12")
    for name, h in (("paley-8", paley(7, 1)), ("paley-32", paley(31, 1)),
                    ("kron-paley-8-sylvester-2", kron_product(paley(7, 1), sylvester(1)))):
        yield pytest.param(Scheme((normalize(h).entries[1:6],)), id=name)


def pass_distance(got, want):
    """max |got - e^{i phi} want| at the phase that aligns them best."""
    phase = np.vdot(want, got)
    return np.abs(got - phase / abs(phase) * want).max()


@pytest.mark.parametrize("scheme", natural_order_schemes())
def test_frame_law_holds_and_the_doubled_pass_is_the_schedules(scheme):
    """The pass by doubling is run_schedule's, up to a global phase."""
    p = compile_general(scheme, 0.37)
    frames, lead = _walsh_frames(p)
    assert len(frames) == (p.total_intervals + lead).bit_length()
    h = random_hamiltonian(scheme.qubits, 11, "general", with_local=True)
    assert pass_distance(_pass(p, evolve(h, p.tau)), run_schedule(p, h)) <= TOL


@pytest.mark.parametrize("scheme", refused_schemes())
def test_frame_law_refuses_other_orders(scheme):
    """A zz reversal at order 12, permuted columns and Paley or Kronecker
    orders keep the schedule's own product, bit for bit."""
    p = compile_general(scheme, 0.21)
    assert _walsh_frames(p) is None
    if scheme.qubits <= 6:
        h = random_hamiltonian(scheme.qubits, 4, "general", with_local=True)
        assert np.array_equal(_pass(p, evolve(h, p.tau)), run_schedule(p, h))


def test_frame_law_needs_a_merged_schedule():
    p = compile_general(synth(TaskSpec("decouple", "general"), 3), 0.5, merged=False)
    assert _walsh_frames(p) is None


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / abs(np.diag(r)))


def with_phases(phases, rng):
    """A unitary with the given eigenphases, in a random basis."""
    q = random_unitary(len(phases), rng)
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


WIDE_ARCS = {  # eigenvalues; the first two and X's sum to exactly 0
    "diag(1,-1)": [1, -1],
    "diag(1,i,-1,-i)": [1, 1j, -1, -1j],
    "three-at-120-degrees": np.exp(1j * (0.3 + np.array([0, 2, -2]) * np.pi / 3)),
    "one-opposite": [1, 1, 1, -1],
    "past-60-degrees": np.exp(1j * np.array([1.2, -1.2, 0.1, 0.2])),
}


@pytest.mark.parametrize("values", WIDE_ARCS.values(), ids=WIDE_ARCS)
@pytest.mark.parametrize("basis", ["diagonal", "rotated"])
def test_wide_arcs_take_the_general_eigenvalues_bit_for_bit(values, basis):
    rng = np.random.default_rng(len(values))
    u, target = np.diag(np.array(values, dtype=complex)), np.eye(len(values))
    if basis == "rotated":
        target = random_unitary(len(values), rng)
        u = target @ with_phases(np.angle(values), rng)
    want = _arc_distance(np.linalg.eigvals(target.conj().T @ u))
    assert phase_aligned_distance(u, target) == want


def test_zero_trace_takes_the_general_eigenvalues():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert phase_aligned_distance(x, np.eye(2)) == _arc_distance(np.linalg.eigvals(x))


@pytest.mark.parametrize("dim", [2, 16, 64])
@pytest.mark.parametrize("spread", [0.0, 1e-9, 1e-3, 0.5])
def test_narrow_arcs_take_the_hermitian_path(monkeypatch, dim, spread):
    """Phases within spread/2 of e^{i phi}: the distance agrees with the
    general eigenvalues', and never calls them."""
    rng = np.random.default_rng(dim)
    u = with_phases(rng.uniform(-np.pi, np.pi) + spread * rng.uniform(-0.5, 0.5, dim), rng)
    target = random_unitary(dim, rng)
    u = target @ u
    want = _arc_distance(np.linalg.eigvals(target.conj().T @ u))

    def refuse(*args):
        raise AssertionError("general eigenvalues called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert abs(phase_aligned_distance(u, target) - want) <= 1e-13
