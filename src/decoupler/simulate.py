"""Dense-matrix simulator: executes pulse schedules against concrete
pairwise Pauli Hamiltonians and certifies decoupling, selection and reversal.

Evolution follows e^{-iHt}; reversal targets e^{+iHt}.  Distances are
spectral norms after optimal global-phase alignment, which for unitary
operands reduces to the spread of the eigenphases of U_target^dag U_scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .pulses import PulseSchedule, compile_general
from .schemes import Scheme, TaskSpec, check_scheme

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

GENERAL_QUBIT_CAP = 6
ZZ_QUBIT_CAP = 10
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class PauliHamiltonian:
    """Sum of real-coefficient Pauli words with at most two non-identity
    letters per word (pairwise couplings plus local terms)."""

    qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        for coeff, word in self.terms:
            if len(word) != self.qubits or set(word) - set("IXYZ"):
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


def pair_words(n: int, i: int, j: int, kind: str) -> list[str]:
    """Coupling words for one qubit pair: ZZ only, or all nine products."""
    labels = ["Z"] if kind == "zz" else ["X", "Y", "Z"]
    out = []
    for a in labels:
        for b in labels:
            word = ["I"] * n
            word[i], word[j] = a, b
            out.append("".join(word))
    return out


def random_hamiltonian(n: int, seed: int, kind: str = "zz",
                       with_local: bool = False) -> PauliHamiltonian:
    """Deterministic random Hamiltonian; coefficients uniform in [-1, 1].

    zz: one ZZ word per pair (plus Z locals); general: all nine pairwise
    Pauli products per pair (plus three locals per qubit).
    """
    if kind not in ("zz", "general"):
        raise ValueError(f"unknown kind {kind!r}")
    cap = ZZ_QUBIT_CAP if kind == "zz" else GENERAL_QUBIT_CAP
    if not 1 <= n <= cap:
        raise ValueError(f"n={n} outside supported range 1..{cap} for kind={kind}")
    rng = np.random.default_rng(seed)
    terms: list[tuple[float, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for word in pair_words(n, i, j, kind):
                terms.append((float(rng.uniform(-1, 1)), word))
    if with_local:
        locals_ = ["Z"] if kind == "zz" else ["X", "Y", "Z"]
        for i in range(n):
            for a in locals_:
                word = ["I"] * n
                word[i] = a
                terms.append((float(rng.uniform(-1, 1)), "".join(word)))
    return PauliHamiltonian(n, tuple(terms))


def word_matrix(word: str) -> np.ndarray:
    out = np.array([[1]], dtype=np.complex128)
    for c in word:
        out = np.kron(out, PAULI[c])
    return out


def hamiltonian_matrix(h: PauliHamiltonian) -> np.ndarray:
    dim = 2 ** h.qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, word in h.terms:
        out += coeff * word_matrix(word)
    return out


def _diagonal_phases(h: PauliHamiltonian) -> np.ndarray:
    """Diagonal of a Z/I-only Hamiltonian without building the matrix."""
    dim = 2 ** h.qubits
    diag = np.zeros(dim, dtype=np.float64)
    for coeff, word in h.terms:
        sign = np.array([1.0])
        for c in word:
            sign = np.kron(sign, np.array([1.0, -1.0]) if c == "Z" else np.ones(2))
        diag += coeff * sign
    return diag


def evolve(h: PauliHamiltonian, t: float) -> np.ndarray:
    """Exact e^{-iHt} via eigendecomposition (diagonal fast path for Z/I)."""
    if h.is_diagonal():
        return np.diag(np.exp(-1j * _diagonal_phases(h) * t))
    m = hamiltonian_matrix(h)
    if not np.allclose(m, m.conj().T, atol=1e-12):
        raise ValueError("assembled Hamiltonian is not Hermitian")
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def run_schedule(p: PulseSchedule, h: PauliHamiltonian, tau: float | None = None) -> np.ndarray:
    """Multiply gate layers and free evolutions in schedule order; later
    operations act on the left."""
    if p.qubits != h.qubits:
        raise ValueError(f"schedule is for {p.qubits} qubits, Hamiltonian for {h.qubits}")
    tau = p.tau if tau is None else tau
    dim = 2 ** h.qubits
    u_free = evolve(h, tau)
    cache: dict[str, np.ndarray] = {}
    u = np.eye(dim, dtype=np.complex128)
    for step in p.steps:
        if step is None:
            u = u_free @ u
        else:
            if step not in cache:
                cache[step] = word_matrix(step)
            u = cache[step] @ u
    return u


def phase_aligned_distance(u: np.ndarray, target: np.ndarray) -> float:
    """min over phi of the spectral norm of (u - e^{i phi} target).

    Both operands unitary: W = target^dag u is normal, so the norm equals the
    largest eigenvalue distance to e^{i phi}; the optimum phi is the midpoint
    of the smallest arc enclosing the eigenphases of W.
    """
    w = target.conj().T @ u
    angles = np.sort(np.angle(np.linalg.eigvals(w)))
    if len(angles) == 1:
        return 0.0
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    width = 2 * np.pi - gaps.max()
    return float(2 * np.sin(min(width / 4, np.pi / 2)))


def selection_word(task: TaskSpec, n: int) -> str:
    if task.framework == "zz":
        i, j = task.qubits
        word = ["I"] * n
        word[i] = word[j] = "Z"
    else:
        (l, k), (g, e) = task.qubits, task.labels
        word = ["I"] * n
        word[l], word[k] = g.upper(), e.upper()
    return "".join(word)


def target_unitary(task: TaskSpec, h: PauliHamiltonian, total_time: float,
                   intervals: int) -> np.ndarray:
    dim = 2 ** h.qubits
    if task.kind == "decouple":
        return np.eye(dim, dtype=np.complex128)
    if task.kind == "select":
        word = selection_word(task, h.qubits)
        g = h.coefficient(word)
        return evolve(PauliHamiltonian(h.qubits, ((g, word),)), total_time)
    if task.kind == "select_pair":
        return evolve(h.restricted(task.qubits), total_time)
    if task.kind == "reverse":
        # one pass reverses for the duration of a single interval
        return evolve(h, -total_time / intervals)
    raise ValueError(f"unknown task kind {task.kind!r}")


def verify(task: TaskSpec, scheme: Scheme, h: PauliHamiltonian,
           total_time: float, reps: int, tolerance: float | None = None) -> VerificationResult:
    """Compile and run the scheme `reps` times with tau = T/(m*reps), compare
    against the task's target unitary after global-phase alignment."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    report = check_scheme(scheme, task)
    if not report.passed:
        failed = [k for k, v in report.checks.items() if not v.passed]
        raise ValueError(f"scheme fails its criteria: {failed}")
    if scheme.qubits != h.qubits:
        raise ValueError("scheme and Hamiltonian qubit counts differ")
    m = scheme.intervals
    tau = total_time / (m * reps)
    schedule = compile_general(scheme, tau)
    u_pass = run_schedule(schedule, h)
    if not np.allclose(u_pass @ u_pass.conj().T, np.eye(u_pass.shape[0]),
                       atol=UNITARITY_TOL):
        raise AssertionError("schedule unitary failed the unitarity check")
    u = np.linalg.matrix_power(u_pass, reps)
    target = target_unitary(task, h, total_time, m)
    if tolerance is None:
        tolerance = 1e-10 if task.framework == "zz" else 2e-2
    return VerificationResult(
        task=task,
        distance=phase_aligned_distance(u, target),
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
