"""One kernel builds every Pauli sum, a chunk of x at a time.  Past one chunk
its rows stay bit for bit the term-order sums they replace: the diagonal
against the broadcast product of per-qubit sign rows, and a non-diagonal
Hamiltonian against its words' monomial rows."""

import numpy as np
import pytest

from decoupler import simulate
from decoupler.simulate import (
    PauliHamiltonian,
    pair_words,
    random_hamiltonian,
    word_monomial,
)

SIGN = np.array([1.0, -1.0])


def broadcast_diagonal(h):
    """The diagonal of a Z-diagonal H: each term adds c times the broadcast
    product of its at most two per-qubit sign rows, in term order from 0.0."""
    n = h.qubits
    rows = [SIGN.reshape((1,) * q + (2,) + (1,) * (n - q - 1)) for q in range(n)]
    out = np.zeros((2,) * n)
    for c, word in h.terms:
        f = [rows[q] for q, letter in enumerate(word) if letter == "Z"]
        out += c * (f[0] * f[1] if len(f) == 2 else f[0] if f else 1.0)
    return out.reshape(-1)


def monomial_sums(h):
    """(flips, sums) as each word's monomial row times c, added in term order
    from 0.0 to its flip's row."""
    monomials = [word_monomial(word) for _, word in h.terms]
    flips = sorted({flip for flip, _ in monomials})
    sums = np.zeros((len(flips), 2 ** h.qubits), dtype=np.complex128)
    for (c, _), (flip, phase) in zip(h.terms, monomials):
        sums[flips.index(flip)] += c * phase
    return np.array(flips), sums


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [14, 17, 20])
def test_diagonal_past_one_chunk_is_the_broadcast_sum(n):
    """Every ZZ pair and Z local, the identity, a 0.0 coefficient and
    repeated words, over 2, 16 and 128 chunks of x."""
    h = random_hamiltonian(n, n, "zz", with_local=True)
    repeats = h.terms[::7] + ((0.0, h.terms[1][1]), (0.25, "I" * n), (-0.5, "I" * n))
    h = PauliHamiltonian(n, h.terms + repeats + h.terms[:3])
    flips, sums = simulate._pauli_sums(h)
    assert flips.tolist() == [0] and sums.dtype == np.float64
    assert np.array_equal(bits(sums[0]), bits(broadcast_diagonal(h)))


def test_empty_hamiltonian_has_no_flip_and_evolves_to_ones():
    h = PauliHamiltonian(15, ())
    flips, sums = simulate._pauli_sums(h)
    assert flips.size == 0 and sums.shape == (0, 2 ** 15)
    assert np.array_equal(bits(simulate._diagonal_evolution(h, 0.7)),
                          bits(np.exp(-1j * broadcast_diagonal(h) * 0.7)))
    assert (simulate._diagonal_evolution(h, 0.7) == 1).all()


@pytest.mark.parametrize("n", [14, 16])
def test_non_diagonal_past_one_chunk_is_the_monomial_sum(n):
    """About 50 words of at most two letters, X, Y and Z on high and low
    qubits alike, some repeated: every flip's row over 2 or 8 chunks."""
    rng = np.random.default_rng(n)
    words = []
    for _ in range(40):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        words.append(str(rng.choice(pair_words(n, i, j, "general"))))
    words += ["I" * q + "Y" + "I" * (n - q - 1) for q in (0, n - 1)]
    words += words[:8] + ["I" * n]
    h = PauliHamiltonian(n, tuple((float(rng.uniform(-1, 1)), w) for w in words))
    flips, sums = simulate._pauli_sums(h)
    want_flips, want = monomial_sums(h)
    assert np.array_equal(flips, want_flips)
    assert np.array_equal(bits(sums), bits(want))
