"""The dense pass's free evolution e^{-iH tau} as a Taylor series.

x = tau sum |c| bounds ||H tau||_2.  For x <= 1 verify takes the series of the
least degree k >= 1 whose remainder bound x^{k+1}/(k+1)! e^x is at most 2^-53,
evaluated Paterson-Stockmeyer; past 1 it takes evolve's spectrum, bit for bit.
The series agrees with evolve within 1e-14 at every degree the bound picks,
and its relative accuracy keeps a general decoupling's distance on the
1/reps line of its Trotter error out to reps = 10^17."""

import math

import numpy as np
import pytest

from decoupler.cli import main
from decoupler.pulses import compile_general
from decoupler.schemes import TaskSpec, synth
from decoupler.simulate import (
    _exp,
    _interval_exponential,
    _pass,
    _series,
    _series_degree,
    _spectrum,
    evolve,
    hamiltonian_matrix,
    random_hamiltonian,
)


def remainder_bound(x, k):
    return x ** (k + 1) / math.factorial(k + 1) * math.exp(x)


def one_x_per_degree():
    """{degree: the smallest x of a log grid over [1e-12, 1] that picks it}."""
    picked = {}
    for x in np.logspace(-12, 0, 400):
        picked.setdefault(_series_degree(float(x)), float(x))
    return picked


def test_the_degree_is_the_least_that_meets_the_bound():
    picked = one_x_per_degree()
    assert sorted(picked) == list(range(1, max(picked) + 1))   # every degree, 1 to 18
    assert max(picked) == _series_degree(1.0) == 18
    for x in [*picked.values(), 1e-300, 1e-17, 2.0 ** -27, 0.016, 1.0]:
        k = _series_degree(x)
        assert remainder_bound(x, k) <= 2.0 ** -53
        assert k == 1 or remainder_bound(x, k - 1) > 2.0 ** -53


@pytest.mark.parametrize("k", range(1, 19))
def test_paterson_stockmeyer_is_the_taylor_sum(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a *= 0.9 / np.linalg.norm(a, 2)
    want, term = np.eye(8, dtype=complex), np.eye(8, dtype=complex)
    for j in range(1, k + 1):
        term = term @ a / j
        want += term
    assert np.abs(_series(a.copy(), k) - want).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 19))
def test_series_matches_evolve_and_is_unitary_at_every_degree(n, k):
    h = random_hamiltonian(n, 40 + k, "general", with_local=True)
    x = one_x_per_degree()[k]
    tau = x / np.abs(h.coefficients).sum()
    u, first = _interval_exponential(h, tau)
    assert np.abs(u - evolve(h, tau)).max() <= 1e-14
    assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-14
    # at degree 1 the series is I + A to the last bit, and A comes with it
    if k == 1:
        assert np.array_equal(u - np.eye(len(u)), first)
        assert np.array_equal(first, hamiltonian_matrix(h) * (-1j * tau))
    else:
        assert first is None


@pytest.mark.parametrize("x", [1 + 2.0 ** -52, 1.5, 7.0, 1e3, 1e200])
def test_past_x_1_the_exponential_is_the_spectrums_bit_for_bit(x):
    h = random_hamiltonian(3, 9, "general", with_local=True)
    tau = x / np.abs(h.coefficients).sum()
    u, first = _interval_exponential(h, tau)
    assert first is None
    assert np.array_equal(u, _exp(_spectrum(h), tau))


@pytest.mark.parametrize("task", [TaskSpec("decouple", "general"), TaskSpec("reverse", "general")],
                         ids=["decouple", "reverse"])
def test_a_pass_with_its_first_order_part_apart_is_the_same_pass(task):
    """At degree 1 the doubling carries A's images apart from the higher
    orders; where both fit in a float it is the same pass."""
    h = random_hamiltonian(4, 2, "general", with_local=True)
    p = compile_general(synth(task, 4), 1e-9 / np.abs(h.coefficients).sum())
    u, first = _interval_exponential(h, p.tau)
    assert first is not None
    assert np.abs(_pass(p, u, first) - _pass(p, u)).max() <= 1e-15


def test_decoupling_distance_stays_on_the_one_over_reps_line(tmp_path, capsys):
    """General n = 3 decouple against random:1: distance * reps, the Trotter
    error's coefficient, holds within 1 % from reps = 10^2 to 10^17 and every
    run passes.  An eigendecomposed e^{-iH tau} rounds each entry to about
    1e-16, so its distance left the line near 10^7 and read 1.66 at 10^16."""
    path = str(tmp_path / "scheme.txt")
    assert main(["synth", "--task", "decouple", "--framework", "general", "--n", "3",
                 "--out", path]) == 0
    capsys.readouterr()
    products = []
    for e in range(2, 18):
        assert main(["verify", path, "--ham", "random:1", "--reps", str(10 ** e)]) == 0
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
        assert lines["result"] == "pass"
        products.append(float(lines["distance"]) * 10 ** e)
    assert max(products) <= 1.01 * min(products), products
