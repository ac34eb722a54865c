"""Every argument guard of the library raises the error it names, before any
work: one table of (call, error, message) cases, one per guard."""

import tracemalloc

import numpy as np
import pytest

from decoupler.cli import analyze_rows
from decoupler.errors import SizeCapExceeded
from decoupler.ghm import GhMatrix, compose, gh4_base
from decoupler.hadamard import HadamardMatrix, build_hadamard, normalize, paley, sylvester
from decoupler.pulses import PulseSchedule
from decoupler.schemes import (Scheme, TaskSpec, check_scheme, synth_decouple_zz,
                               synth_reverse_zz, synth_select_zz)
from decoupler.simulate import PauliHamiltonian, random_hamiltonian, run_schedule_diagonal

ZZ_2 = PauliHamiltonian(2, ((0.5, "ZZ"),))

GUARDS = {
    "hadamard-not-square": (lambda: HadamardMatrix(np.ones((2, 4))),
                            ValueError, "must be square"),
    "hadamard-not-signs": (lambda: HadamardMatrix(np.zeros((2, 2))),
                           ValueError, r"\+1/-1"),
    "hadamard-order-3": (lambda: HadamardMatrix(np.ones((3, 3))),
                         ValueError, "order 3 is not a possible Hadamard order"),
    **{f"hadamard-entry-{name}": (lambda e=e: HadamardMatrix(np.array([[e, 1], [1, -1]])),
                                  ValueError, "entries must be exact int8 values")
       for name, e in (("1.5", 1.5), ("257", 257), ("nan", np.nan), ("inf", np.inf),
                       ("1j", 1j))},
    "sylvester-cap-negative": (lambda: sylvester(2, cap=-5),
                               SizeCapExceeded, r"2\^2 exceeds cap -5"),
    "sylvester-order-1-cap-negative": (lambda: sylvester(0, cap=-1),
                                       SizeCapExceeded, r"2\^0 exceeds cap -1"),
    "sylvester-order-1-cap-0": (lambda: sylvester(0, cap=0),
                                SizeCapExceeded, r"2\^0 exceeds cap 0"),
    "paley-variant-3": (lambda: paley(3, 3), ValueError, "variant must be 1 or 2"),
    "paley-q-1": (lambda: paley(1, 1), ValueError, "q=1 is not an odd prime"),
    "paley-over-cap": (lambda: paley(11, 1, cap=8),
                       SizeCapExceeded, "paley order 12 exceeds cap 8"),
    "recipe-unknown": (lambda: build_hadamard(("hadamard", 4)),
                       ValueError, "unknown recipe"),
    "sign-matrix-not-signs": (lambda: Scheme((np.zeros((2, 2)),)),
                              ValueError, "2-d array of"),
    "sign-matrix-1d": (lambda: Scheme((np.ones(3),)), ValueError, "2-d array of"),
    "sign-triple-shapes": (lambda: Scheme((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3)))),
                           ValueError, "identical shape"),
    **{f"scheme-{k}-blocks": (lambda k=k: Scheme((np.ones((2, 2)),) * k),
                              ValueError, f"1 \\(zz\\) or 3 \\(general\\) sign blocks, got {k}")
       for k in (0, 2, 4)},
    **{f"scheme-entry-{name}": (lambda e=e: Scheme((np.array([[e, -e]]),)),
                                ValueError, "entries must be exact int8 values")
       for name, e in (("1.5", 1.5), ("257", 257))},
    # n = 0 is refused as read_scheme refuses it in a file, so check_scheme
    # never divides by 3n = 0
    "scheme-no-qubit": (lambda: check_scheme(Scheme((np.ones((0, 4)),) * 3),
                                             TaskSpec("decouple", "general")),
                        ValueError, "bad sign-matrix shape 0 x 4"),
    # a field the task's kind never reads is refused, not lost in its file
    "task-zz-select-labels": (lambda: TaskSpec("select", "zz", (0, 1), ("x", "y")),
                              ValueError, r"labels=\('x', 'y'\) for a zz select task"),
    "task-decouple-labels": (lambda: TaskSpec("decouple", "general", (), ("x", "y")),
                             ValueError, r"labels=\('x', 'y'\) for a general decouple task"),
    "task-pair-labels": (lambda: TaskSpec("select_pair", "general", (0, 1), ("x", "y")),
                         ValueError, r"labels=\('x', 'y'\) for a general select_pair task"),
    "task-one-label": (lambda: TaskSpec("select", "general", (0, 1), ("x",)),
                       ValueError, "general selection needs two Pauli labels x/y/z"),
    "task-decouple-qubits": (lambda: TaskSpec("decouple", "zz", (3,)),
                             ValueError, r"decouple task takes no qubits, got qubits=\(3,\)"),
    "gh-entry-4": (lambda: GhMatrix(np.full((4, 4), 4), lam=1),
                   ValueError, r"entries must be 0\.\.3"),
    **{f"gh-entry-{name}": (lambda d=d: GhMatrix(gh4_base().entries.astype(np.int64)
                                                 + d * np.eye(4, dtype=np.int64), lam=1),
                            ValueError, "entries must be exact uint8 values")
       for name, d in (("256", 256), ("-256", -256))},
    "compose-over-cap": (lambda: compose(normalize(sylvester(2)), [1, 2, 3], [0],
                                         gh4_base(), cap=8),
                         SizeCapExceeded, "composed order 16 exceeds cap 8"),
    "compose-schur-rows-not-triples": (lambda: compose(normalize(sylvester(2)), [1, 2],
                                                       [0, 3], gh4_base()),
                                       ValueError, "multiple of 3"),
    "compose-five-outside-h": (lambda: compose(sylvester(3), [1, 4, 5], [2, 3, 6, 7, 0],
                                               gh4_base(), five=(2, 3, 6, 7, 99)),
                               ValueError, "five row 99 is not a row of the order-8 base"),
    "hamiltonian-kind": (lambda: random_hamiltonian(2, 0, kind="xy"),
                         ValueError, "unknown kind 'xy'"),
    "diagonal-run-qubits": (lambda: run_schedule_diagonal(PulseSchedule(3, 1.0, ()), ZZ_2),
                            ValueError, "schedule is for 3 qubits, Hamiltonian for 2"),
    "diagonal-run-not-diagonal": (lambda: run_schedule_diagonal(
                                      PulseSchedule(2, 1.0, ()),
                                      PauliHamiltonian(2, ((0.5, "XX"),))),
                                  ValueError, "not Z-diagonal"),
    "analyze-framework": (lambda: analyze_rows(3, "xy"),
                          ValueError, "unknown framework 'xy'"),
    **{f"hamiltonian-coefficient-{name}": (
        lambda c=c: PauliHamiltonian(2, ((c, "ZZ"),)),
        TypeError, "coefficients must be real numbers")
       for name, c in (("complex", 1j), ("text", "1.0"), ("none", None))},
}


@pytest.mark.parametrize("call,error,message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("synth", [
    synth_decouple_zz, synth_reverse_zz, lambda n: synth_select_zz(n, 0, n - 1)],
    ids=["decouple", "reverse", "select"])
def test_zz_synth_past_the_cap_is_refused_before_its_positions(synth):
    # no array of n positions (8 MB here) is built before the refusal
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="no constructible order"):
            synth(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"peak {peak} B"
