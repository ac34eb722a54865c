import io

import numpy as np
import pytest

from decoupler.pulses import PulseSchedule, compile_general, compile_zz, simplify
from decoupler.schemes import (
    Scheme,
    TaskSpec,
    synth_decouple_general,
    synth_decouple_zz,
    synth_reverse_zz,
    synth_select_zz,
)
from decoupler.simulate import (
    DENSE_QUBIT_CAP,
    DIAGONAL_QUBIT_CAP,
    PauliHamiltonian,
    evolve,
    hamiltonian_matrix,
    phase_aligned_distance,
    random_hamiltonian,
    read_hamiltonian,
    run_schedule,
    selection_word,
    verify,
    word_matrix,
    write_hamiltonian,
)

S2 = Scheme((np.array([[1, 1], [1, -1]]),))
S4 = Scheme((np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
    [1, -1, 1, -1],
]),))

TOL = 1e-10


class TestRandomHamiltonian:
    def test_two_qubit_zz_is_single_coupling(self):
        h = random_hamiltonian(2, seed=42, kind="zz", with_local=False)
        assert len(h.terms) == 1
        assert h.terms[0][1] == "ZZ"

    def test_two_qubit_general_with_locals_has_fifteen_terms(self):
        h = random_hamiltonian(2, seed=1, kind="general", with_local=True)
        assert len(h.terms) == 15  # 9 couplings + 6 locals

    def test_deterministic(self):
        a = random_hamiltonian(4, seed=9, kind="general", with_local=True)
        b = random_hamiltonian(4, seed=9, kind="general", with_local=True)
        assert a == b

    def test_words_in_draw_order(self):
        # pairs in (i, j) order with their nine products, then three locals
        # per qubit: each word takes the next uniform draw of the seed
        h = random_hamiltonian(3, seed=5, kind="general", with_local=True)
        products = [a + b for a in "XYZ" for b in "XYZ"]
        pairs = ([f"{a}{b}I" for a, b in products] + [f"{a}I{b}" for a, b in products]
                 + [f"I{a}{b}" for a, b in products])
        locals_ = ["I" * q + a + "I" * (2 - q) for q in range(3) for a in "XYZ"]
        assert [w for _, w in h.terms] == pairs + locals_
        draws = np.random.default_rng(5).uniform(-1, 1, len(h.terms))
        assert [c for c, _ in h.terms] == draws.tolist()

    def test_selection_word(self):
        assert selection_word(TaskSpec("select", "zz", (0, 2)), 3) == "ZIZ"
        assert selection_word(TaskSpec("select", "general", (2, 0), ("x", "y")), 4) == "YIXI"

    def test_coefficients_bounded(self):
        h = random_hamiltonian(5, seed=3, kind="zz", with_local=True)
        assert all(-1 <= c <= 1 for c, _ in h.terms)

    def test_caps(self):
        # each kind is capped by the backend verify runs it on
        with pytest.raises(ValueError):
            random_hamiltonian(DENSE_QUBIT_CAP + 1, seed=0, kind="general")
        with pytest.raises(ValueError):
            random_hamiltonian(DIAGONAL_QUBIT_CAP + 1, seed=0, kind="zz")
        assert random_hamiltonian(7, seed=0, kind="general").qubits == 7
        assert random_hamiltonian(11, seed=0, kind="zz").qubits == 11

    def test_word_validation(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(2, ((1.0, "XYZ"),))
        with pytest.raises(ValueError):
            PauliHamiltonian(3, ((1.0, "XYZ"),))  # three non-identity letters
        with pytest.raises(ValueError):
            PauliHamiltonian(2, ((float("nan"), "ZZ"),))


class TestEvolve:
    def test_zero_hamiltonian_gives_identity(self):
        h = PauliHamiltonian(2, ())
        assert np.allclose(evolve(h, 1.7), np.eye(4), atol=TOL)

    def test_single_zz_closed_form(self):
        g, t = 0.83, 1.9
        h = PauliHamiltonian(2, ((g, "ZZ"),))
        expected = np.diag(np.exp(-1j * g * t * np.array([1, -1, -1, 1])))
        assert np.allclose(evolve(h, t), expected, atol=TOL)

    def test_inverse_property(self):
        h = random_hamiltonian(3, seed=5, kind="general", with_local=True)
        u = evolve(h, 0.37) @ evolve(h, -0.37)
        assert np.allclose(u, np.eye(8), atol=TOL)

    def test_diagonal_fast_path_matches_dense(self):
        h = random_hamiltonian(3, seed=8, kind="zz", with_local=True)
        m = hamiltonian_matrix(h)
        vals, vecs = np.linalg.eigh(m)
        dense = (vecs * np.exp(-1j * vals * 0.51)) @ vecs.conj().T
        assert np.allclose(evolve(h, 0.51), dense, atol=TOL)

    def test_unitarity(self):
        h = random_hamiltonian(4, seed=2, kind="general")
        u = evolve(h, 2.3)
        assert np.allclose(u @ u.conj().T, np.eye(16), atol=TOL)


class TestConjugationIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_pauli_conjugation_moves_into_exponent(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        g = word_matrix(word)
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hmat = (a + a.conj().T) / 2
        t = float(rng.uniform(0.1, 2.0))
        vals, vecs = np.linalg.eigh(hmat)
        exp_h = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
        conj = g @ exp_h @ g.conj().T
        hmat2 = g @ hmat @ g.conj().T
        vals2, vecs2 = np.linalg.eigh(hmat2)
        exp_h2 = (vecs2 * np.exp(-1j * vals2 * t)) @ vecs2.conj().T
        assert np.allclose(conj, exp_h2, atol=TOL)


class TestRunSchedule:
    def test_two_qubit_refocusing_is_exact_identity(self):
        h = PauliHamiltonian(2, ((0.9, "ZZ"),))
        p = compile_zz(S2, tau=0.77)
        u = run_schedule(p, h)
        assert phase_aligned_distance(u, np.eye(4)) <= TOL

    def test_four_qubit_scheme_cancels_all_six_couplings(self):
        h = random_hamiltonian(4, seed=21, kind="zz", with_local=False)
        assert len(h.terms) == 6
        p = compile_zz(S4, tau=0.3)
        u = run_schedule(p, h)
        assert phase_aligned_distance(u, np.eye(16)) <= TOL

    def test_empty_schedule_is_identity(self):
        h = random_hamiltonian(2, seed=1, kind="zz")
        p = PulseSchedule(2, 1.0, ())
        assert np.allclose(run_schedule(p, h), np.eye(4), atol=TOL)

    def test_qubit_mismatch(self):
        h = random_hamiltonian(3, seed=1, kind="zz")
        with pytest.raises(ValueError):
            run_schedule(compile_zz(S2), h)


class TestPhaseAlignment:
    def test_global_phase_is_free(self):
        h = random_hamiltonian(2, seed=4, kind="general")
        u = evolve(h, 0.4)
        assert phase_aligned_distance(u, np.exp(1j * 1.234) * u) <= TOL

    def test_detects_differences(self):
        assert phase_aligned_distance(np.eye(2), np.diag([1, -1])) > 0.5


class TestVerify:
    def test_zz_decouple_exact(self):
        task = TaskSpec("decouple", "zz")
        scheme = synth_decouple_zz(5)
        h = random_hamiltonian(5, seed=77, kind="zz", with_local=True)
        res = verify(task, scheme, h, total_time=1.1, reps=1)
        assert res.passed and res.distance <= TOL

    def test_zz_exactness_independent_of_reps(self):
        task = TaskSpec("decouple", "zz")
        scheme = synth_decouple_zz(4)
        h = random_hamiltonian(4, seed=50, kind="zz", with_local=True)
        for reps in (1, 2, 4, 8):
            assert verify(task, scheme, h, 1.0, reps).distance <= TOL

    def test_zz_select_exact(self):
        task = TaskSpec("select", "zz", qubits=(1, 3))
        scheme = synth_select_zz(5, 1, 3)
        h = random_hamiltonian(5, seed=78, kind="zz", with_local=True)
        res = verify(task, scheme, h, total_time=0.9, reps=1)
        assert res.distance <= TOL

    def test_zz_select_zero_coefficient_targets_identity(self):
        task = TaskSpec("select", "zz", qubits=(0, 1))
        scheme = synth_select_zz(3, 0, 1)
        h = PauliHamiltonian(3, ((0.4, "ZIZ"), (-0.2, "IZZ")))
        res = verify(task, scheme, h, total_time=0.9, reps=1)
        assert res.distance <= TOL

    def test_zz_reverse_exact(self):
        task = TaskSpec("reverse", "zz")
        scheme = synth_reverse_zz(3)
        h = random_hamiltonian(3, seed=79, kind="zz", with_local=True)
        res = verify(task, scheme, h, total_time=0.8, reps=1)
        assert res.distance <= TOL
        target = evolve(h, -0.8 / scheme.intervals)
        u = run_schedule(compile_zz(scheme, 0.8 / scheme.intervals), h)
        assert phase_aligned_distance(u, target) <= TOL

    def test_reversal_scheme_is_hamiltonian_independent(self):
        task = TaskSpec("reverse", "zz")
        scheme = synth_reverse_zz(3)
        for seed in range(20):
            h = random_hamiltonian(3, seed=seed, kind="zz", with_local=True)
            assert verify(task, scheme, h, 0.6, 1).distance <= TOL

    def test_failing_scheme_rejected(self):
        task = TaskSpec("decouple", "zz", remove_local_terms=False)
        bad = Scheme((np.ones((2, 2), dtype=int),))
        h = random_hamiltonian(2, seed=0, kind="zz")
        with pytest.raises(ValueError, match="criteria"):
            verify(task, bad, h, 0.1, 1)

    def test_trotter_slope_is_first_order(self):
        task = TaskSpec("decouple", "general")
        scheme = synth_decouple_general(2)
        h = random_hamiltonian(2, seed=11, kind="general", with_local=True)
        reps = np.array([1, 2, 4, 8, 16])
        dist = np.array([
            verify(task, scheme, h, total_time=0.1, reps=int(k)).distance
            for k in reps
        ])
        slope = np.polyfit(np.log(reps), np.log(dist), 1)[0]
        assert -1.35 <= slope <= -0.65

    def test_local_terms_removed_by_zero_row_sums(self):
        task = TaskSpec("decouple", "general")
        scheme = synth_decouple_general(2)
        bare = random_hamiltonian(2, seed=6, kind="general", with_local=False)
        full = PauliHamiltonian(2, bare.terms + (
            (0.7, "ZI"), (0.35, "XI"), (-0.6, "IY")))
        d_bare = verify(task, scheme, bare, 0.1, 16).distance
        d_full = verify(task, scheme, full, 0.1, 16).distance
        assert abs(d_bare - d_full) <= 5e-3  # both within Trotter error

    def test_result_lines(self):
        task = TaskSpec("decouple", "zz")
        scheme = synth_decouple_zz(2)
        h = random_hamiltonian(2, seed=0, kind="zz", with_local=True)
        res = verify(task, scheme, h, 0.5, 1)
        assert any(line.startswith("distance=") for line in res.lines())
        assert "result=pass" in res.lines()[-1]


class TestSimplifierSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_raw_and_simplified_agree_zz(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        s = Scheme((rng.choice([-1, 1], size=(n, m)),))
        h = random_hamiltonian(n, seed=seed, kind="zz", with_local=True) \
            if n > 1 else PauliHamiltonian(1, ((0.5, "Z"),))
        raw = compile_zz(s, tau=0.2, merged=False)
        merged = simplify(raw)
        assert phase_aligned_distance(run_schedule(raw, h),
                                      run_schedule(merged, h)) <= TOL

    @pytest.mark.parametrize("seed", range(8))
    def test_raw_and_simplified_agree_general(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        gates = rng.integers(0, 4, size=(n, m))
        signs = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
        cols = signs[gates]  # (n, m, 3)
        t = Scheme((cols[:, :, 0], cols[:, :, 1], cols[:, :, 2]))
        h = random_hamiltonian(n, seed=seed, kind="general", with_local=True) \
            if n > 1 else PauliHamiltonian(1, ((0.5, "Z"), (0.3, "X")))
        raw = compile_general(t, tau=0.15, merged=False)
        merged = simplify(raw)
        assert phase_aligned_distance(run_schedule(raw, h),
                                      run_schedule(merged, h)) <= TOL


class TestHamiltonianFormat:
    def test_round_trip(self):
        h = random_hamiltonian(3, seed=15, kind="general", with_local=True)
        buf = io.StringIO()
        write_hamiltonian(h, buf)
        buf.seek(0)
        assert read_hamiltonian(buf) == h

    def test_example_line(self):
        h = read_hamiltonian(io.StringIO("0.37 ZIZ\n-0.2 IZZ\n"))
        assert h.qubits == 3
        assert h.terms == ((0.37, "ZIZ"), (-0.2, "IZZ"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_hamiltonian(io.StringIO(""))
