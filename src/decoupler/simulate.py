"""Simulator: executes pulse schedules against concrete pairwise Pauli
Hamiltonians and certifies decoupling, selection and reversal.

Evolution follows e^{-iHt}; reversal targets e^{+iHt}.  Distances are
spectral norms after optimal global-phase alignment, which for unitary
operands reduces to the spread of the eigenphases of U_target^dag U_scheme.

A Pauli word, and every pass of a schedule under a Z-diagonal Hamiltonian,
is a monomial (flip, u): U|x> = u[x] |x ^ flip>.  Those run on 2^n vectors;
any other Hamiltonian runs on dense 2^n x 2^n matrices, which stay the
reference the vector path is tested against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .pulses import PulseSchedule, compile_general
from .schemes import GATES, Scheme, TaskSpec, check_scheme

# verify runs a Z-diagonal Hamiltonian on 2^n vectors, any other on 2^n x 2^n
# matrices; each backend refuses n above its cap before allocating
DENSE_QUBIT_CAP = 10
DIAGONAL_QUBIT_CAP = 20
UNITARITY_TOL = 1e-10

_SIGN = np.array([1.0, -1.0])
_I_POWERS = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Sum of real-coefficient Pauli words with at most two non-identity
    letters per word (pairwise couplings plus local terms)."""

    qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        for coeff, word in self.terms:
            if len(word) != self.qubits or set(word) - set(GATES):
                raise ValueError(f"bad Pauli word {word!r} for n={self.qubits}")
            if sum(c != "I" for c in word) > 2:
                raise ValueError(f"word {word!r} has more than two non-identity letters")
            if not np.isfinite(coeff):
                raise ValueError(f"non-finite coefficient for {word!r}")

    def coefficient(self, word: str) -> float:
        return float(sum(c for c, w in self.terms if w == word))

    def restricted(self, qubits: Iterable[int]) -> "PauliHamiltonian":
        """Terms supported entirely on the given qubits (identity elsewhere)."""
        keep = set(qubits)
        terms = tuple(
            (c, w) for c, w in self.terms
            if all(ch == "I" or q in keep for q, ch in enumerate(w))
        )
        return PauliHamiltonian(self.qubits, terms)

    def is_diagonal(self) -> bool:
        return all(set(w) <= {"I", "Z"} for _, w in self.terms)


@dataclass(frozen=True)
class VerificationResult:
    task: TaskSpec
    distance: float
    trotter_steps: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.tolerance

    def lines(self) -> list[str]:
        return [
            f"task={self.task.kind}",
            f"framework={self.task.framework}",
            f"reps={self.trotter_steps}",
            f"distance={self.distance:.6e}",
            f"tolerance={self.tolerance:g}",
            f"result={'pass' if self.passed else 'FAIL'}",
        ]


def _word(n: int, letters: dict[int, str]) -> str:
    """The n-qubit Pauli word with letters[q] at qubit q and I elsewhere."""
    return "".join(letters.get(q, "I") for q in range(n))


def pair_words(n: int, i: int, j: int, kind: str) -> list[str]:
    """Coupling words for one qubit pair: ZZ only, or all nine products."""
    labels = "Z" if kind == "zz" else "XYZ"
    return [_word(n, {i: a, j: b}) for a in labels for b in labels]


def random_hamiltonian(n: int, seed: int, kind: str = "zz",
                       with_local: bool = False) -> PauliHamiltonian:
    """Deterministic random Hamiltonian; coefficients uniform in [-1, 1].

    zz: one ZZ word per pair (plus Z locals); general: all nine pairwise
    Pauli products per pair (plus three locals per qubit).  n is capped by the
    backend verify runs that kind on: vectors for zz, dense matrices for general.
    """
    if kind not in ("zz", "general"):
        raise ValueError(f"unknown kind {kind!r}")
    cap = DIAGONAL_QUBIT_CAP if kind == "zz" else DENSE_QUBIT_CAP
    if not 1 <= n <= cap:
        raise ValueError(f"n={n} outside supported range 1..{cap} for kind={kind}")
    rng = np.random.default_rng(seed)
    terms: list[tuple[float, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for word in pair_words(n, i, j, kind):
                terms.append((float(rng.uniform(-1, 1)), word))
    if with_local:
        for i in range(n):
            for a in "Z" if kind == "zz" else "XYZ":
                terms.append((float(rng.uniform(-1, 1)), _word(n, {i: a})))
    return PauliHamiltonian(n, tuple(terms))


def _word_phase(word: str) -> tuple[int, np.ndarray]:
    """A Pauli word P as (flip, phase), P|x> = phase[x] |x ^ flip>, with phase
    broadcastable over (2,)*n and qubit 0 the most significant bit of x (np.kron
    order): X and Y flip their qubit, Y and Z give (-1)^bit, each Y a factor i."""
    n = len(word)
    flip, phase = 0, np.ones((1,) * n)
    for q, c in enumerate(word):
        if c in "XY":
            flip |= 1 << (n - 1 - q)
        if c in "YZ":
            phase = phase * _SIGN.reshape((1,) * q + (2,) + (1,) * (n - q - 1))
    return flip, phase * _I_POWERS[word.count("Y") % 4]


def _flip_sums(h: PauliHamiltonian) -> dict[int, np.ndarray]:
    """H as one signed permutation per flip, {flip: u} with H|x> = sum of u[x] |x ^ flip>:
    each u is (2,)*n, real unless a word has an odd number of Y, and zero for a new flip."""
    words = [(coeff, *_word_phase(word)) for coeff, word in h.terms]
    dtype = np.result_type(np.float64, *{phase.dtype for _, _, phase in words})
    sums = defaultdict(lambda: np.zeros((2,) * h.qubits, dtype))
    for coeff, flip, phase in words:
        sums[flip] += coeff * phase
    return sums


def word_monomial(word: str) -> tuple[int, np.ndarray]:
    """A Pauli word as the (flip, phase) of _word_phase, phase a flat 2^n vector."""
    flip, phase = _word_phase(word)
    return flip, np.broadcast_to(phase, (2,) * len(word)).flatten()


def monomial_matrix(flip: int, u: np.ndarray) -> np.ndarray:
    """Dense matrix of the monomial U|x> = u[x] |x ^ flip>."""
    idx = np.arange(u.size)
    out = np.zeros((u.size, u.size), dtype=np.complex128)
    out[idx ^ flip, idx] = u
    return out


def word_matrix(word: str) -> np.ndarray:
    return monomial_matrix(*word_monomial(word))


def hamiltonian_matrix(h: PauliHamiltonian) -> np.ndarray:
    out = np.zeros((2 ** h.qubits,) * 2, dtype=np.complex128)
    idx = np.arange(len(out))
    for flip, u in _flip_sums(h).items():
        out[idx ^ flip, idx] = u.reshape(-1)
    return out


def _diagonal_evolution(h: PauliHamiltonian, t: float) -> np.ndarray:
    """Diagonal of e^{-iHt} for a Z/I-only Hamiltonian: its flip-0 sum."""
    return np.exp(-1j * _flip_sums(h)[0].reshape(-1) * t)


def evolve(h: PauliHamiltonian, t: float) -> np.ndarray:
    """Exact e^{-iHt} via eigendecomposition (diagonal fast path for Z/I)."""
    if h.is_diagonal():
        return np.diag(_diagonal_evolution(h, t))
    m = hamiltonian_matrix(h)
    if not np.allclose(m, m.conj().T, atol=1e-12):
        raise ValueError("assembled Hamiltonian is not Hermitian")
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def run_schedule(p: PulseSchedule, h: PauliHamiltonian) -> np.ndarray:
    """Multiply gate layers and free evolutions in schedule order; later
    operations act on the left.  A layer P|x> = phase[x] |x ^ flip> permutes
    and signs rows, exactly word_matrix(step) @ u, so a pass holds a fixed
    number of 2^n x 2^n matrices however many layers it has."""
    if p.qubits != h.qubits:
        raise ValueError(f"schedule is for {p.qubits} qubits, Hamiltonian for {h.qubits}")
    dim = 2 ** h.qubits
    u_free = evolve(h, p.tau)
    idx = np.arange(dim)
    u = np.eye(dim, dtype=np.complex128)
    for step in p.steps:
        if step is None:
            u = u_free @ u
        else:
            flip, phase = word_monomial(step)
            u = u[idx ^ flip]
            u *= phase[idx ^ flip, None]
    return u


def run_schedule_diagonal(p: PulseSchedule, h: PauliHamiltonian) -> tuple[int, np.ndarray]:
    """run_schedule for a Z-diagonal Hamiltonian, as the monomial (flip, u)
    with U|x> = u[x] |x ^ flip>: every step is a phase or a Pauli flip, so a
    pass costs O(steps * 2^n) and no 2^n x 2^n matrix is built."""
    if p.qubits != h.qubits:
        raise ValueError(f"schedule is for {p.qubits} qubits, Hamiltonian for {h.qubits}")
    if not h.is_diagonal():
        raise ValueError("Hamiltonian is not Z-diagonal")
    d = _diagonal_evolution(h, p.tau)
    idx = np.arange(d.size)
    flip, u = 0, np.ones_like(d)
    for step in p.steps:
        if step is None:
            u *= d[idx ^ flip]
            continue
        layer_flip, phase = word_monomial(step)
        u *= phase[idx ^ flip]
        flip ^= layer_flip
    return flip, u


def monomial_power(flip: int, u: np.ndarray, k: int) -> tuple[int, np.ndarray]:
    """U^k (k >= 1) of the monomial U|x> = u[x] |x ^ flip>."""
    if flip == 0:
        return 0, u ** k
    # U^2 is diagonal, v[x] = u[x] u[x ^ flip], and U^(2j+1) = U (U^2)^j
    v = u * u[np.arange(u.size) ^ flip]
    j, odd = divmod(k, 2)
    return (flip, u * v ** j) if odd else (0, v ** j)


def _arc_distance(eigenvalues: np.ndarray) -> float:
    """min over phi of max |lambda - e^{i phi}| for unit-modulus eigenvalues:
    the optimum phi is the midpoint of the smallest arc enclosing them."""
    angles = np.sort(np.angle(eigenvalues))
    if len(angles) == 1:
        return 0.0
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    width = 2 * np.pi - gaps.max()
    return float(2 * np.sin(min(width / 4, np.pi / 2)))


def phase_aligned_distance(u: np.ndarray, target: np.ndarray) -> float:
    """min over phi of the spectral norm of (u - e^{i phi} target).

    Both operands unitary: W = target^dag u is normal, so the norm equals the
    largest eigenvalue distance to e^{i phi}.
    """
    return _arc_distance(np.linalg.eigvals(target.conj().T @ u))


def monomial_distance(flip: int, u: np.ndarray, target: np.ndarray) -> float:
    """phase_aligned_distance of the monomial (flip, u) to diag(target),
    with the eigenvalues of W = target^dag U read off directly."""
    idx = np.arange(u.size)
    w = u * target[idx ^ flip].conj()   # W|x> = w[x] |x ^ flip>
    if flip:
        # W swaps |x> and |x ^ flip>: eigenvalues +-sqrt(w[x] w[x ^ flip]) per pair
        lower = idx[(idx & (1 << (flip.bit_length() - 1))) == 0]
        root = np.sqrt(w[lower] * w[lower ^ flip])
        w = np.concatenate([root, -root])
    return _arc_distance(w)


def selection_word(task: TaskSpec, n: int) -> str:
    """The coupling a select task keeps; a zz selection keeps Z_l Z_k."""
    l, k = task.qubits
    g, e = ("z", "z") if task.framework == "zz" else task.labels
    return _word(n, {l: g.upper(), k: e.upper()})


def _target_hamiltonian(task: TaskSpec, h: PauliHamiltonian, total_time: float,
                        intervals: int) -> tuple[PauliHamiltonian, float]:
    """(H', t') such that the task's target unitary is e^{-iH't'}; H' is
    Z-diagonal whenever h is."""
    if task.kind == "decouple":
        return PauliHamiltonian(h.qubits, ()), total_time
    if task.kind == "select":
        word = selection_word(task, h.qubits)
        g = h.coefficient(word)
        # a word h lacks (g = 0) targets the identity, Z-diagonal or not
        return PauliHamiltonian(h.qubits, ((g, word),) if g else ()), total_time
    if task.kind == "select_pair":
        return h.restricted(task.qubits), total_time
    if task.kind == "reverse":
        # one pass reverses for the duration of a single interval
        return h, -total_time / intervals
    raise ValueError(f"unknown task kind {task.kind!r}")


def target_unitary(task: TaskSpec, h: PauliHamiltonian, total_time: float,
                   intervals: int) -> np.ndarray:
    return evolve(*_target_hamiltonian(task, h, total_time, intervals))


def _dense_distance(task: TaskSpec, schedule: PulseSchedule, h: PauliHamiltonian,
                    total_time: float, reps: int, intervals: int) -> float:
    u_pass = run_schedule(schedule, h)
    if not np.allclose(u_pass @ u_pass.conj().T, np.eye(u_pass.shape[0]),
                       atol=UNITARITY_TOL):
        raise AssertionError("schedule unitary failed the unitarity check")
    u = np.linalg.matrix_power(u_pass, reps)
    return phase_aligned_distance(u, target_unitary(task, h, total_time, intervals))


def _diagonal_distance(task: TaskSpec, schedule: PulseSchedule, h: PauliHamiltonian,
                       total_time: float, reps: int, intervals: int) -> float:
    flip, u_pass = run_schedule_diagonal(schedule, h)
    # a monomial is unitary exactly when every |u[x]| = 1
    if not np.allclose(np.abs(u_pass) ** 2, 1, atol=UNITARITY_TOL):
        raise AssertionError("schedule unitary failed the unitarity check")
    target = _diagonal_evolution(*_target_hamiltonian(task, h, total_time, intervals))
    return monomial_distance(*monomial_power(flip, u_pass, reps), target)


def verify(task: TaskSpec, scheme: Scheme, h: PauliHamiltonian,
           total_time: float, reps: int, tolerance: float | None = None) -> VerificationResult:
    """Compile and run the scheme `reps` times with tau = T/(m*reps), compare
    against the task's target unitary after global-phase alignment.

    A Z-diagonal h runs on 2^n vectors (up to DIAGONAL_QUBIT_CAP qubits), any
    other h on dense 2^n x 2^n matrices (up to DENSE_QUBIT_CAP)."""
    if scheme.intervals < 1:
        raise ValueError("scheme has no interval")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if tolerance is not None and not 0 <= tolerance < float("inf"):  # false for nan
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    # covers a non-finite time too: inf * 0 is nan
    if not np.isfinite(total_time * sum(abs(c) for c, _ in h.terms)):
        raise ValueError(f"time * sum of |coefficients| must be finite (time={total_time})")
    if not total_time > 0:
        raise ValueError(f"time must be > 0, got {total_time}")
    if scheme.qubits != h.qubits:
        raise ValueError("scheme and Hamiltonian qubit counts differ")
    diagonal = h.is_diagonal()
    cap = DIAGONAL_QUBIT_CAP if diagonal else DENSE_QUBIT_CAP
    if h.qubits > cap:
        kind = "Z-diagonal" if diagonal else "non-diagonal"
        raise ValueError(f"n={h.qubits} exceeds the {cap}-qubit simulation cap "
                         f"for a {kind} Hamiltonian")
    report = check_scheme(scheme, task)
    if not report.passed:
        failed = [k for k, v in report.checks.items() if not v.passed]
        raise ValueError(f"scheme fails its criteria: {failed}")
    m = scheme.intervals
    schedule = compile_general(scheme, total_time / (m * reps))
    backend = _diagonal_distance if diagonal else _dense_distance
    if tolerance is None:
        tolerance = 1e-10 if task.framework == "zz" else 2e-2
    return VerificationResult(
        task=task,
        distance=backend(task, schedule, h, total_time, reps, m),
        trotter_steps=reps,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Hamiltonian text format: lines "<coeff> <word>".

def write_hamiltonian(h: PauliHamiltonian, stream: IO[str]) -> None:
    for coeff, word in h.terms:
        stream.write(f"{coeff!r} {word}\n")


def read_hamiltonian(stream: IO[str]) -> PauliHamiltonian:
    terms = []
    n = None
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"bad hamiltonian line {line!r}")
        coeff, word = float(parts[0]), parts[1]
        if n is None:
            n = len(word)
        terms.append((coeff, word))
    if n is None:
        raise ValueError("empty hamiltonian file")
    return PauliHamiltonian(n, tuple(terms))
