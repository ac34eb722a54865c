"""Pauli words decoded once into masks.  A PauliHamiltonian's checks and reads
agree with the letter-by-letter rule they replace, its tables agree bit for
bit with a term-by-term sum however many blocks they take, and one verify
exponentiates each Hamiltonian it needs once, with nothing kept for the next
call."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler import simulate
from decoupler.hadamard import sylvester, walsh_rows
from decoupler.schemes import GATES, TaskSpec, synth
from decoupler.simulate import (
    PauliHamiltonian,
    _diagonal_evolution,
    _target_hamiltonian,
    evolve,
    hamiltonian_matrix,
    random_hamiltonian,
    selection_word,
    target_unitary,
    verify,
    word_masks,
    word_monomial,
)

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def letter_check(n, terms):
    """The message of the first term the per-term letter loop refuses, or None."""
    for coeff, word in terms:
        if len(word) != n or set(word) - set(GATES):
            return f"bad Pauli word {word!r} for n={n}"
        if sum(c != "I" for c in word) > 2:
            return f"word {word!r} has more than two non-identity letters"
        if not np.isfinite(coeff):
            return f"non-finite coefficient for {word!r}"
    return None


@st.composite
def term_lists(draw):
    """Terms on n <= 4 qubits, mostly valid, some with a word of the wrong
    length, a letter outside IXYZ, three or more letters, or a non-finite
    coefficient, so the first offender may sit anywhere."""
    n = draw(st.integers(1, 4))
    pair = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ")),
                    max_size=2, unique_by=lambda qc: qc[0]).map(
        lambda qcs: "".join(dict(qcs).get(q, "I") for q in range(n)))
    word = st.one_of(pair, pair, st.text("IXYZ", min_size=n, max_size=n),
                     st.text("IXYZxa? é", min_size=0, max_size=n + 1))
    coeff = st.one_of(st.floats(-2, 2), st.floats(allow_nan=True, allow_infinity=True))
    return n, draw(st.lists(st.tuples(coeff, word), max_size=8))


@given(term_lists())
@settings(max_examples=300, deadline=None)
def test_first_bad_term_is_named_as_the_letter_loop_names_it(case):
    n, terms = case
    want = letter_check(n, terms)
    if want is None:
        PauliHamiltonian(n, tuple(terms))
        return
    with pytest.raises(ValueError) as err:
        PauliHamiltonian(n, tuple(terms))
    assert str(err.value) == want


def letter_target(task, h, total_time, intervals):
    """The target rule the mask over h.codes replaces, read letter by letter:
    no term for decouple, the selected word with its coefficients summed (no
    term when they sum to 0) for select, the terms on the pair for
    select_pair, and h for one interval backwards for reverse."""
    n = h.qubits
    if task.kind == "reverse":
        return h, -total_time / intervals
    if task.kind == "decouple":
        return PauliHamiltonian(n, ()), total_time
    if task.kind == "select":
        l, k = task.qubits
        g, e = ("Z", "Z") if task.framework == "zz" else (x.upper() for x in task.labels)
        word = "".join({l: g, k: e}.get(q, "I") for q in range(n))
        c = float(sum(c for c, w in h.terms if w == word))
        return PauliHamiltonian(n, ((c, word),) if c else ()), total_time
    return PauliHamiltonian(n, tuple((c, w) for c, w in h.terms
                                     if all(ch == "I" or q in task.qubits
                                            for q, ch in enumerate(w)))), total_time


@st.composite
def targets(draw):
    """(task, h): any task in either framework at n <= 6, h drawn around the
    words the rule tells apart: the selected word, repeated, words on the
    pair, the all-I word, coefficients 0.0 and -0.0, and pairs that cancel."""
    framework = draw(st.sampled_from(["zz", "general"]))
    kinds = ["decouple", "select", "reverse"] + (["select_pair"] if framework == "general" else [])
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2 if kind.startswith("select") else 1, 6))
    qubits = (tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
              if kind.startswith("select") else ())
    labels = (tuple(draw(st.sampled_from("xyz")) for _ in range(2))
              if kind == "select" and framework == "general" else None)
    task = TaskSpec(kind, framework, qubits, labels)
    letters = draw(st.sampled_from(["Z", "XYZ"]))
    spots = st.lists(st.integers(0, n - 1), max_size=2, unique=True)
    words = st.builds(lambda spots, ls: "".join(dict(zip(spots, ls)).get(q, "I") for q in range(n)),
                      spots, st.lists(st.sampled_from(letters), min_size=2, max_size=2))
    if kind == "select":
        words = st.one_of(st.just(selection_word(task, n)), words)
    coefficient = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                            st.floats(-2, 2, allow_nan=False))
    terms = []
    for c, w, cancel in draw(st.lists(st.tuples(coefficient, words, st.booleans()), max_size=12)):
        terms += [(c, w), (-c, w)] if cancel else [(c, w)]
    return task, PauliHamiltonian(n, tuple(terms))


@given(targets(), st.floats(0.01, 3), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_target_unitary_is_bit_for_bit_the_letter_rule(target, total_time, intervals):
    """The kept terms, summed by _pauli_sums in term order from 0.0, give the
    bytes of the letter rule's pre-summed target: dense, or its diagonal for
    a Z-diagonal h, as verify computes them."""
    task, h = target
    want = letter_target(task, h, total_time, intervals)
    if h.is_diagonal():
        got = _diagonal_evolution(*_target_hamiltonian(task, h, total_time, intervals))
        assert got.tobytes() == _diagonal_evolution(*want).tobytes()
    else:
        got = target_unitary(task, h, total_time, intervals)
        assert got.tobytes() == evolve(*want).tobytes()


def test_word_masks_follow_the_letter_rule():
    for letters in itertools.product("IXYZ", repeat=3):
        word = "".join(letters)
        codes = np.array([[GATES.index(c) for c in word]])
        flip, z, y = (int(a[0]) for a in word_masks(codes))
        assert flip == sum(4 >> q for q, c in enumerate(word) if c in "XY")
        assert z == sum(4 >> q for q, c in enumerate(word) if c in "YZ")
        assert y == word.count("Y")
        assert word_monomial(word)[0] == flip


def test_masks_hold_qubit_0_in_the_top_bit_up_to_63_qubits():
    for n in (56, 57, 60, 63):
        codes = np.zeros((2, n), dtype=np.uint8)
        codes[0, 0] = GATES.index("Y")
        codes[1, [0, n - 1]] = GATES.index("Z")
        flip, z, y = word_masks(codes)
        assert flip.tolist() == [1 << (n - 1), 0]
        assert z.tolist() == [1 << (n - 1), (1 << (n - 1)) | 1]
        assert y.tolist() == [1, 0]
    with pytest.raises(ValueError, match="at most 63 qubits"):
        word_masks(np.zeros((1, 64), dtype=np.uint8))


@pytest.mark.parametrize("n", range(8))
def test_parity_rows_are_the_sylvester_rows(n):
    """The parity rows the simulator reads, walsh_rows(z, n) < 0, are the
    rows z of sylvester(n): False where it is +1 and True where it is -1."""
    rows = walsh_rows(np.arange(1 << n), n) < 0
    assert rows.dtype == bool
    assert np.array_equal(rows, sylvester(n).entries < 0)


def test_the_simulator_needs_no_numpy_2_popcount(monkeypatch):
    """numpy.bitwise_count first appeared in numpy 2.0; numpy 1.23 is supported."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for kind, n in (("general", 3), ("zz", 5)):
        task = TaskSpec("reverse", kind)
        h = random_hamiltonian(n, 2, kind, with_local=True)
        assert verify(task, synth(task, n), h, 0.1, 3).passed
    assert word_monomial("XYZ")[0] == 0b110


def test_a_bad_letter_is_not_read_as_a_gate():
    with pytest.raises(ValueError, match="bad Pauli word"):
        word_monomial("XQ")


def kron_sum(h):
    """The term-by-term reference: each term's matrix added in term order."""
    out = np.zeros((2 ** h.qubits,) * 2, dtype=np.complex128)
    for coeff, word in h.terms:
        m = np.array([[1]], dtype=np.complex128)
        for c in word:
            m = np.kron(m, PAULI[c])
        out += coeff * m
    return out


@pytest.mark.parametrize("n,count", [(2, 3000), (3, 1500), (6, 400)])
def test_tables_over_many_blocks_add_in_term_order(n, count):
    """More terms than one table block holds, repeated words and all: every
    flip's running sum carries over from block to block, bit for bit."""
    rng = np.random.default_rng(count)
    pool = [w for w in map("".join, itertools.product("IXYZ", repeat=n))
            if sum(c != "I" for c in w) <= 2]
    terms = tuple((float(rng.uniform(-1, 1)), pool[k])
                  for k in rng.integers(0, len(pool), count))
    h = PauliHamiltonian(n, terms)
    assert np.array_equal(hamiltonian_matrix(h), kron_sum(h))
    diagonal = PauliHamiltonian(n, tuple((c, w.replace("X", "Z").replace("Y", "I"))
                                         for c, w in terms))
    energies = np.diag(kron_sum(diagonal)).real
    assert np.array_equal(evolve(diagonal, 0.3), np.diag(np.exp(-1j * 0.3 * energies)))


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's first argument."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("task", [
    TaskSpec("decouple", "general"),
    TaskSpec("reverse", "general"),
    TaskSpec("select", "general", (0, 2), ("x", "y")),
    TaskSpec("select_pair", "general", (0, 2)),
], ids=["decouple", "reverse", "select", "pair"])
def test_dense_verify_eigendecomposes_once_per_evolution(monkeypatch, task):
    """A dense verify solves one 2^n x 2^n eigenproblem, the distance's, and
    eigendecomposes no Hamiltonian at that size: the pass's e^{-iH tau} is a
    Taylor series, a reversal's target a power of it, and a select or
    select_pair target a 4 x 4 operator on its pair."""
    h = random_hamiltonian(4, 3, "general", with_local=True)
    eighs = counted(monkeypatch, np.linalg, "eigh")
    hermitian = counted(monkeypatch, np.linalg, "eigvalsh")
    general = counted(monkeypatch, np.linalg, "eigvals")
    result = verify(task, synth(task, 4), h, 0.1, 4)
    assert not [m for m in eighs if len(m) == 16]
    assert len([m for m in hermitian + general if len(m) == 16]) == 1
    assert result.passed


@pytest.mark.parametrize("kind", ["decouple", "select", "reverse"])
def test_diagonal_verify_sums_one_diagonal_per_evolution(monkeypatch, kind):
    """The pass sums h's diagonal once and the target sums its own: h's again
    for a reversal."""
    h = random_hamiltonian(5, 3, "zz", with_local=True)
    task = TaskSpec(kind, "zz", (1, 3) if kind == "select" else ())
    calls = counted(monkeypatch, simulate, "_pauli_sums")
    assert verify(task, synth(task, 5), h, 0.1, 4).passed
    assert sum(arg is h for arg in calls) == (2 if kind == "reverse" else 1)
    assert len(calls) == 2


def test_no_state_crosses_verify_calls(monkeypatch):
    """Equal Hamiltonians, and the same one twice: each call exponentiates its own."""
    task = TaskSpec("decouple", "general")
    scheme = synth(task, 3)
    first = random_hamiltonian(3, 8, "general", with_local=True)
    second = random_hamiltonian(3, 8, "general", with_local=True)
    assert first == second and first is not second
    calls = counted(monkeypatch, simulate, "_interval_exponential")
    distances = [verify(task, scheme, h, 0.2, 2).distance for h in (first, second, first)]
    assert [c is h for c, h in zip(calls, (first, second, first))] == [True] * 3
    assert distances[0] == distances[1] == distances[2]


def test_term_tables_are_built_a_block_at_a_time():
    """20000 terms at n = 6 would table 20 MB at once; blocks of one 64 x 64
    operator keep the peak to the per-term masks and a few operators."""
    rng = np.random.default_rng(6)
    pool = [w for w in map("".join, itertools.product("IXYZ", repeat=6))
            if sum(c != "I" for c in w) <= 2]
    h = PauliHamiltonian(6, tuple((float(rng.uniform(-1, 1)), pool[k])
                                  for k in rng.integers(0, len(pool), 20000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hamiltonian_matrix(h)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
