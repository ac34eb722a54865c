"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import time

import numpy as np

from decoupler.cli import analyze_rows
from decoupler.ghm import compose_sylvester, gh4_base, gh_search, verify_gh
from decoupler.hadamard import (
    best_order,
    is_hadamard,
    kron_product,
    paley,
    sylvester,
    walsh_rows,
)
from decoupler.pulses import compile_general, compile_zz, gate_count, simplify
from decoupler.schemes import (
    Scheme,
    TaskSpec,
    check_scheme,
    synth_decouple_general,
    synth_decouple_zz,
    synth_reverse_general,
    synth_reverse_zz,
    synth_select_general,
    synth_select_zz,
)
from decoupler.schur import five_rows, partition_sylvester
from decoupler.simulate import (
    phase_aligned_distance,
    random_hamiltonian,
    run_schedule,
    verify,
)

EXACT = 1e-10
TROTTER = 2e-2


def report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS  {text}")


def test_criterion_01_hadamard_validity():
    start = time.monotonic()
    bases = [sylvester(r) for r in range(0, 11)]
    bases += [paley(q, 1) for q in (3, 7, 11, 19, 23)]
    bases += [paley(q, 2) for q in (5, 13)]
    checked = 0
    for h in bases:
        assert is_hadamard(h.entries).ok, h.provenance
        checked += 1
    # all pairwise Kronecker combinations of the constructions, up to order 512
    for a in bases:
        for b in bases:
            if a.order > 1 and b.order > 1 and a.order * b.order <= 512:
                ab = kron_product(a, b)
                assert is_hadamard(ab.entries).ok, ab.provenance
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"{checked} matrices exactly orthogonal in {elapsed:.1f}s")


def test_criterion_02_schur_partition_counts():
    start = time.monotonic()
    for r in range(2, 17):
        p = partition_sylvester(r)
        expected = (2**r - 1) // 3 if r % 2 == 0 else (2**r - 5) // 3
        assert len(p.triples) == expected
        seen = sorted([i for t in p.triples for i in t] + list(p.remainder))
        assert seen == list(range(2**r))
        for a, b, c in p.triples:
            assert a ^ b ^ c == 0
    assert list(partition_sylvester(4).triples) == [
        (0b0101, 0b1010, 0b1111),
        (0b0110, 0b1011, 0b1101),
        (0b0111, 0b1001, 0b1110),
        (0b0001, 0b0010, 0b0011),
        (0b0100, 0b1000, 0b1100),
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(2, f"r=2..16 counts/coverage/xor exact in {elapsed:.1f}s")


def test_criterion_03_five_row_property():
    for r in range(3, 11):
        rows = walsh_rows(five_rows(r).indices, r)
        assert np.array_equal(rows[0] * rows[1], rows[4])
        assert np.array_equal(rows[2] * rows[3], rows[4])
    report(3, "f1*f2 = f3*f4 = f5 exact for r=3..10")


def test_criterion_04_composition():
    small = compose_sylvester(2, gh4_base())
    assert small.hprime.order == 16
    assert len(small.triples) == 4
    assert small.hprime.order - 3 * len(small.triples) == 4
    assert is_hadamard(small.hprime.entries).ok
    assert int(np.sum(np.all(small.hprime.entries == 1, axis=1))) == 1
    large = compose_sylvester(4, gh4_base())
    assert large.hprime.order == 64
    assert len(large.triples) == 20
    assert is_hadamard(large.hprime.entries).ok
    assert int(np.sum(np.all(large.hprime.entries == 1, axis=1))) == 1
    report(4, "16x16 (4 triples) and 64x64 (20 triples) compositions valid")


def test_criterion_05_gh_search():
    g = gh_search(2, budget=10_000_000)
    assert g.order == 8
    assert verify_gh(g).ok
    report(5, "GH(4,2) found within the node budget and verified")


def test_criterion_06_zz_decoupling_exact():
    start = time.monotonic()
    task = TaskSpec("decouple", "zz")
    worst = 0.0
    for n in range(2, 9):
        scheme = synth_decouple_zz(n)
        for seed in range(20):
            h = random_hamiltonian(n, seed=seed, kind="zz", with_local=True)
            res = verify(task, scheme, h, total_time=1.0, reps=1)
            worst = max(worst, res.distance)
            assert res.distance <= EXACT, (n, seed, res.distance)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(6, f"n=2..8 x 20 seeds, worst distance {worst:.2e} in {elapsed:.1f}s")


def test_criterion_07_zz_selective_coupling():
    worst = 0.0
    rng = np.random.default_rng(2024)
    for n in range(3, 9):
        i, j = map(int, rng.choice(n, size=2, replace=False))
        task = TaskSpec("select", "zz", qubits=(i, j))
        scheme = synth_select_zz(n, i, j)
        for seed in range(5):
            h = random_hamiltonian(n, seed=seed, kind="zz", with_local=True)
            res = verify(task, scheme, h, total_time=0.9, reps=1)
            worst = max(worst, res.distance)
            assert res.distance <= EXACT, (n, (i, j), seed, res.distance)
    report(7, f"n=3..8 random pairs with local terms, worst {worst:.2e}")


def test_criterion_08_zz_reversal():
    task = TaskSpec("reverse", "zz")
    worst = 0.0
    for n in range(2, 7):
        scheme = synth_reverse_zz(n)
        entry = best_order(n + 1)
        assert scheme.intervals == entry.achieved - 1
        if entry.achieved - (n + 1) <= 4:
            assert scheme.intervals <= n + 3, (n, scheme.intervals)
        for seed in range(5):
            h = random_hamiltonian(n, seed=seed, kind="zz", with_local=True)
            res = verify(task, scheme, h, total_time=0.8, reps=1)
            worst = max(worst, res.distance)
            assert res.distance <= EXACT, (n, seed, res.distance)
    report(8, f"n=2..6 reversal exact (worst {worst:.2e}), n_I within n+3")


def test_criterion_09_general_decoupling_trotter():
    task = TaskSpec("decouple", "general")
    worst16 = 0.0
    ratios = []
    for n in (2, 3, 4):
        scheme = synth_decouple_general(n)
        for seed in range(10):
            h = random_hamiltonian(n, seed=seed, kind="general", with_local=True)
            d16 = verify(task, scheme, h, total_time=0.1, reps=16).distance
            d32 = verify(task, scheme, h, total_time=0.1, reps=32).distance
            worst16 = max(worst16, d16)
            assert d16 < TROTTER, (n, seed, d16)
            ratio = d16 / d32
            ratios.append(ratio)
            assert 1.6 <= ratio <= 2.4, (n, seed, ratio)
    report(9, f"n=2..4 x 10 seeds: worst d(16)={worst16:.2e}, "
              f"halving ratio in [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_10_general_selective_coupling():
    h = random_hamiltonian(3, seed=100, kind="general", with_local=True)
    worst = 0.0
    for g in "xyz":
        for e in "xyz":
            scheme = synth_select_general(3, 0, 2, g, e)
            task = TaskSpec("select", "general", qubits=(0, 2), labels=(g, e))
            assert check_scheme(scheme, task).passed, (g, e)
            res = verify(task, scheme, h, total_time=0.1, reps=16)
            worst = max(worst, res.distance)
            assert res.distance < TROTTER, (g, e, res.distance)
    report(10, f"all 9 label pairs on qubits (1,3): Gram exact, worst {worst:.2e}")


def test_criterion_11_general_reversal():
    task = TaskSpec("reverse", "general")
    worst = 0.0
    for n in (2, 3):
        scheme = synth_reverse_general(n)
        for seed in range(10):
            h = random_hamiltonian(n, seed=seed, kind="general", with_local=True)
            res = verify(task, scheme, h, total_time=0.1, reps=16)
            worst = max(worst, res.distance)
            assert res.distance < TROTTER, (n, seed, res.distance)
    report(11, f"n=2,3: one scheme each reverses 10 unknown Hamiltonians, "
               f"worst {worst:.2e}")


def test_criterion_12_overhead_curve():
    sylv = analyze_rows(100, "general", sylvester_only=True)
    for row in sylv:
        assert 1.0 <= row.c <= 2.2, (row.n, row.c)
    full = analyze_rows(100, "general")
    for a, b in zip(full, sylv):
        assert a.intervals <= b.intervals, (a.n, a.intervals, b.intervals)
    cmax = max(r.c for r in sylv)
    cmin = min(r.c for r in sylv)
    report(12, f"n<=100 Sylvester-only c in [{cmin:.3f}, {cmax:.3f}]; "
               "composition never increases intervals")


def test_criterion_13_gate_bound():
    for n in range(3, 21):
        for (i, j) in [(0, n - 1), (n // 2, n // 2 + 1)]:
            for local in (True, False):
                scheme = synth_select_zz(n, i, j, remove_local_terms=local)
                schedule = compile_zz(scheme)
                m = scheme.intervals
                assert gate_count(schedule) <= n * m, (n, i, j, local)
    report(13, "compiled zz selection schedules use <= n*m gates up to n=20")


def test_criterion_14_simplifier_soundness():
    from decoupler.simulate import PauliHamiltonian

    rng = np.random.default_rng(7)
    signs = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        if n > 1:
            h = random_hamiltonian(n, seed=case, kind="general", with_local=True)
        else:
            coeffs = rng.uniform(-1, 1, size=3)
            h = PauliHamiltonian(1, tuple(
                (float(c), w) for c, w in zip(coeffs, ("X", "Y", "Z"))))
        if case % 2 == 0:
            s = Scheme((rng.choice([-1, 1], size=(n, m)),))
            raw = compile_zz(s, tau=0.2, merged=False)
        else:
            cols = signs[rng.integers(0, 4, size=(n, m))]
            t = Scheme((cols[:, :, 0], cols[:, :, 1], cols[:, :, 2]))
            raw = compile_general(t, tau=0.2, merged=False)
        merged = simplify(raw)
        d = phase_aligned_distance(run_schedule(raw, h), run_schedule(merged, h))
        worst = max(worst, d)
        assert d <= EXACT, (case, d)
    report(14, f"100 random schemes: raw vs simplified worst distance {worst:.2e}")
