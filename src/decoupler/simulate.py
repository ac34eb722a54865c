"""Simulator: executes pulse schedules against concrete pairwise Pauli
Hamiltonians and certifies decoupling, selection and reversal.

Evolution follows e^{-iHt}; reversal targets e^{+iHt}.  Distances are
spectral norms after optimal global-phase alignment, which for unitary
operands reduces to the spread of the eigenphases of U_target^dag U_scheme.

A Pauli word is decoded once, a Hamiltonian's when it is built, into gate
codes, and a schedule keeps its layers as gate codes; a pass reads them as
bit masks (the binary symplectic form): flip, its X/Y qubits, z, its Y/Z
qubits, and y, its number of Y.  With qubit 0 the most significant bit of x
(np.kron order) it is the monomial P|x> = i^y (-1)^popcount(x & z)
|x ^ flip>, and its sign over x is row z of sylvester(n), a Walsh function,
whose parity row, popcount(x & z) odd, hadamard.walsh_rows builds.  A
layer's phase is that row's signs times i^y.

One kernel, _pauli_sums, builds every Pauli sum as one row per distinct flip:
the dense path scatters the rows into a 2^n x 2^n matrix, the vector path
exponentiates the flip-0 row, the diagonal.  Row z of sylvester(n) is row
z >> low of sylvester(n - low) times row z mod 2^low of sylvester(low), so x
runs in cache-sized chunks of 2^low entries with fixed high bits, low =
min(n, _CHUNK_BITS), one chunk at every dense size: each term's low row times
c i^y is tabled once and added to each chunk of its flip's row, subtracted
where popcount(chunk & z >> low) is odd.  Term rows and layer sign rows are
tabled a block of at most _TABLE entries at a time, and an empty H, the
target of every decouple task, has no flip and skips the kernel.

Every pass of a schedule under a Z-diagonal Hamiltonian is a monomial too,
(flip, u) with U|x> = u[x] |x ^ flip>, and runs on 2^n vectors; any other
Hamiltonian runs on dense 2^n x 2^n matrices.  run_schedule and evolve stay
the reference both verify paths are tested against.  A dense verify solves
one 2^n x 2^n eigenproblem, the distance's.  The pass's e^{-iH tau} is the
Taylor series of the least degree k >= 1 with x^{k+1}/(k+1)! e^x <= 2^-53,
x = tau sum |c| >= ||H tau||_2, evaluated Paterson-Stockmeyer while x <= 1,
and evolve's spectrum past 1.  When a schedule's frames, the XORs of its
layer codes up to each interval, obey the group law of GF(2)^r once a
frame-0 interval is put first where the first frame is not 0 (every
natural-order Sylvester scheme, a reversal's columns 1..2^r - 1 included),
its pass is built by doubling over the r generators in r products instead
of m, and one more takes the leading interval off.  The doubling carries
B - I, so first-order terms cancel exactly and a pass's Trotter error keeps
its relative precision at any reps.  A decoupling's target is I and
multiplies nothing, a reversal's, e^{+iHT/m}, is the inverse interval
exponential to the power reps, and a select or select_pair target is a 4 x 4
unitary on its qubit pair.  The distance is read from a Hermitian
eigenproblem when every eigenphase lies within 60 degrees of the trace's.
All of these round differently from the reference, within 1e-12 of it.
Nothing outlives the call.

Every array is bit for bit what the letter-by-letter rule gives: each entry
of a flip's row adds c i^y (-1)^popcount(x & z) of its terms in term order
from 0.0, whatever the chunks, and a phase is a float +/-1 row times i^y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from .hadamard import decode_rows, frozen, walsh_rows
from .pulses import PulseSchedule, compile_general
from .schemes import GATES, Scheme, TaskSpec, check_scheme

# verify runs a Z-diagonal Hamiltonian on 2^n vectors, any other on 2^n x 2^n
# matrices; each backend refuses n above its cap before allocating
DENSE_QUBIT_CAP = 10
DIAGONAL_QUBIT_CAP = 20
UNITARITY_TOL = 1e-10

_SIGN = np.array([1.0, -1.0])
_I_POWERS = (1, 1j, -1, -1j)
_POWERS = np.array(_I_POWERS)
# the letter rule, by gate code (I, X, Y, Z = 0..3): X and Y flip their qubit,
# Y and Z sign it by its bit, and each Y is a factor i
_FLIPS = np.array([False, True, True, False])
_SIGNED = np.array([False, False, True, True])
_Y = GATES.index("Y")
# the most entries a table block holds, of term rows or layer sign rows
_TABLE = 1 << 15
# _pauli_sums runs over x in chunks of at most 2^_CHUNK_BITS entries
_CHUNK_BITS = 13


def _packed(bits: np.ndarray) -> np.ndarray:
    """Each row of a words x n bool array as a non-negative int64, column 0
    the most significant bit (n <= 63)."""
    n = bits.shape[1]
    if n > 63:
        raise ValueError(f"bit masks hold at most 63 qubits, got {n}")
    out = np.zeros(len(bits), dtype=np.uint64)
    for byte in np.packbits(bits, axis=1).T:
        out = out << np.uint64(8) | byte
    return (out >> np.uint64(-n % 8)).astype(np.int64)


def word_masks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flip, z, y) of each row of a words x n code array: the X/Y and the Y/Z
    qubits as int64 bit masks, qubit 0 the most significant bit of x (np.kron
    order), and the number of Y.  n <= 63."""
    return (_packed(_FLIPS[codes]), _packed(_SIGNED[codes]),
            np.count_nonzero(codes == _Y, axis=1))


def _first(flags: np.ndarray) -> int:
    """The index of the first True in flags, len(flags) if none."""
    return int(np.argmax(flags)) if flags.any() else len(flags)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Sum of real-coefficient Pauli words with at most two non-identity
    letters per word (pairwise couplings plus local terms)."""

    qubits: int
    terms: tuple[tuple[float, str], ...]
    # the terms decoded once, read-only: each word's gate codes (I, X, Y, Z =
    # 0..3) and each coefficient as a float64
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes, bad = decode_rows([w for _, w in self.terms], self.qubits, GATES)
        heavy = np.count_nonzero(codes[:bad], axis=1) > 2
        coefficients = np.array([c for c, _ in self.terms])
        if coefficients.dtype.kind not in "biuf":  # numpy would parse strings, for one
            raise TypeError(f"coefficients must be real numbers, not {coefficients.dtype}")
        coefficients = coefficients.astype(np.float64)
        finite = np.isfinite(coefficients)
        # the first term failing a check, named by the first check it fails
        k = min(bad, _first(heavy), _first(~finite))
        if k < len(self.terms):
            word = self.terms[k][1]
            if k == bad:
                raise ValueError(f"bad Pauli word {word!r} for n={self.qubits}")
            if heavy[k]:
                raise ValueError(f"word {word!r} has more than two non-identity letters")
            raise ValueError(f"non-finite coefficient for {word!r}")
        object.__setattr__(self, "codes", frozen(codes))
        object.__setattr__(self, "coefficients", frozen(coefficients))

    def is_diagonal(self) -> bool:
        return not _FLIPS[self.codes].any()


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


def _phase(z: int, y: int, parity: np.ndarray, shift: int = 0) -> np.ndarray:
    """phase[x ^ shift] over x for the word P|x> = phase[x] |x ^ flip> with
    masks z and y and `parity` the bool row walsh_rows(z, n, parity=True),
    each entry one of +/-1.0 times the scalar i^y.  (x ^ shift) & z has the
    parity of x & z flipped by that of shift & z, so no index is permuted."""
    plus, minus = _SIGN * _I_POWERS[y % 4]
    if (shift & z).bit_count() & 1:
        plus, minus = minus, plus
    return np.where(parity, minus, plus)


def _layers(p: PulseSchedule) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """(flip, z, y, parity row) of each gate layer of p in order, read from its
    codes, their parity rows built a block at a time."""
    flips, z, y = word_masks(p.codes)
    rows = max(1, _TABLE >> p.qubits)
    for start in range(0, len(flips), rows):
        block = slice(start, start + rows)
        yield from zip(flips[block].tolist(), z[block].tolist(), y[block].tolist(),
                       walsh_rows(z[block], p.qubits, parity=True))


def word_monomial(word: str) -> tuple[int, np.ndarray]:
    """A Pauli word P as (flip, phase), P|x> = phase[x] |x ^ flip>, phase a
    flat 2^n vector, real unless the word has an odd number of Y."""
    codes, valid = decode_rows([word], len(word), GATES)
    if not valid:
        raise ValueError(f"bad Pauli word {word!r}")
    flip, z, y = word_masks(codes)
    return int(flip[0]), _phase(int(z[0]), int(y[0]), walsh_rows(z[0], len(word), parity=True))


def _pauli_sums(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """H as one signed permutation per flip: (flips, sums), ascending flips,
    with H|x> = sum over k of sums[k, x] |x ^ flips[k]>, complex when some
    word has an odd number of Y.  Each entry of row k adds
    c i^y (-1)^popcount(x & z) of the terms with flip k in term order from
    0.0, a chunk of x at a time as the module docstring describes."""
    if not h.terms:  # every decouple target: no flip, and nothing to decode
        return np.zeros(0, np.int64), np.zeros((0, 1 << h.qubits))
    low = min(h.qubits, _CHUNK_BITS)
    flips, z, y = word_masks(h.codes)
    keys, group = np.unique(flips, return_inverse=True)
    weights = h.coefficients * _POWERS[y % 4]
    if not (y % 2).any():
        weights = weights.real
    sums = np.zeros((len(keys), 1 << h.qubits), weights.dtype)
    chunks = sums.reshape(len(keys), 1 << (h.qubits - low), 1 << low)
    high = (z >> low).tolist()
    rows = _TABLE >> low
    for start in range(0, len(flips), rows):
        block = slice(start, start + rows)
        w = weights[block, None]
        table = np.where(walsh_rows(z[block], low, parity=True), -w, w)
        for chunk in range(chunks.shape[1]):
            for k, zh, row in zip(group[block].tolist(), high[block], table):
                if (chunk & zh).bit_count() & 1:
                    chunks[k, chunk] -= row
                else:
                    chunks[k, chunk] += row
    return keys, sums


def monomial_matrix(flip: int, u: np.ndarray) -> np.ndarray:
    """Dense matrix of the monomial U|x> = u[x] |x ^ flip>."""
    idx = np.arange(u.size)
    out = np.zeros((u.size, u.size), dtype=np.complex128)
    out[idx ^ flip, idx] = u
    return out


def word_matrix(word: str) -> np.ndarray:
    return monomial_matrix(*word_monomial(word))


def hamiltonian_matrix(h: PauliHamiltonian) -> np.ndarray:
    """The dense H, checked Hermitian first on the entries it can hold:
    (x ^ f, x) is row f's sum at x, so (x, x ^ f), the same row at x ^ f, must
    be its conjugate, every other entry being 0."""
    flips, sums = _pauli_sums(h)
    idx = np.arange(sums.shape[1])
    pairs = idx ^ flips[:, None]
    if not np.allclose(np.take_along_axis(sums, pairs, axis=1), sums.conj(),
                                     atol=1e-12):
        raise ValueError("assembled Hamiltonian is not Hermitian")
    out = np.zeros((len(idx),) * 2, dtype=np.complex128)
    out[pairs, idx] = sums
    return out


def _diagonal_evolution(h: PauliHamiltonian, t: float) -> np.ndarray:
    """Diagonal of e^{-iHt} for a Z/I-only Hamiltonian: the exponential of its
    flip-0 sum, or of zeros when H has no term."""
    flips, sums = _pauli_sums(h)
    return np.exp(-1j * (sums[0] if len(flips) else np.zeros(1 << h.qubits)) * t)


def _spectrum(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the dense H."""
    return np.linalg.eigh(hamiltonian_matrix(h))


def _exp(spectrum: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """e^{-iHt} from H's spectrum (eigenvalues, eigenvectors)."""
    vals, vecs = spectrum
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def _series_degree(x: float) -> int:
    """The least degree k >= 1 with x^{k+1}/(k+1)! e^x <= 2^-53: for
    ||A||_2 <= x that bounds the norm of what the degree-k Taylor series of
    e^A leaves out.  Never 0, however small x: I + A rounds none of A's
    entries (its diagonal is imaginary), and a pass's Trotter error is made of
    their products."""
    k, rest = 1, x * x / 2 * math.exp(x)
    while rest > 2.0 ** -53:
        k += 1
        rest *= x / (k + 1)
    return k


def _add_identity(u: np.ndarray, c: float) -> None:
    """u += c I, in place."""
    idx = np.arange(len(u))
    u[idx, idx] += c


def _series(a: np.ndarray, k: int) -> np.ndarray:
    """sum over j <= k of a^j / j! by Paterson-Stockmeyer: a^2..a^s once, then
    Horner's rule in a^s over blocks of s coefficients, with s the block size
    of fewest products, s - 1 + floor(k/s) less one when s divides k (the top
    block is then a scalar)."""
    s = min(range(1, k + 1), key=lambda s: s - 1 + k // s - (k % s == 0))
    powers = [a]
    while len(powers) < s:
        powers.append(powers[-1] @ a)
    c = [1 / math.factorial(j) for j in range(k + 1)]

    def block(q: int, u: np.ndarray) -> None:
        """u += the sum over l < s, sq + l <= k, of c[sq + l] a^l."""
        for l in range(1, min(s, k - s * q + 1)):
            u += powers[l - 1] * c[s * q + l]
        _add_identity(u, c[s * q])

    q = k // s
    if k % s:
        u = np.zeros_like(a)
    else:   # the top block is c[k] I, so a^s times it is a scaling
        q -= 1
        u = powers[-1] * c[k]
    block(q, u)
    while q:
        q -= 1
        u = powers[-1] @ u   # the old u is released before its block adds in
        block(q, u)
    return u


def _interval_exponential(h: PauliHamiltonian,
                          tau: float) -> tuple[np.ndarray, np.ndarray | None]:
    """(e^{-iH tau}, A) for a dense pass, A = -iH tau when e^{-iH tau} is
    I + A to the last bit (else None).  x = tau sum |c| bounds ||H tau||_2
    (each word has norm 1); for x <= 1 it is the Taylor series of degree
    _series_degree(x), about 3 products at x ~ 0.016 and no eigensolve; past 1
    the series would need squaring, whose rounding grows as 2^s, so it is
    evolve's _exp(_spectrum(h), tau), bit for bit."""
    x = tau * float(np.abs(h.coefficients).sum())
    if not x <= 1:
        return _exp(_spectrum(h), tau), None
    a = hamiltonian_matrix(h)
    a *= -1j * tau   # in place: no second operator beside a and its powers
    k = _series_degree(x)
    return _series(a, k), a if k == 1 else None


def evolve(h: PauliHamiltonian, t: float) -> np.ndarray:
    """Exact e^{-iHt} via eigendecomposition (diagonal fast path for Z/I)."""
    if h.is_diagonal():
        return np.diag(_diagonal_evolution(h, t))
    return _exp(_spectrum(h), t)


def run_schedule(p: PulseSchedule, h: PauliHamiltonian) -> np.ndarray:
    """Multiply gate layers and free evolutions in schedule order; later
    operations act on the left.  A layer P|x> = phase[x] |x ^ flip> permutes
    and signs rows, exactly word_matrix(step) @ u, so a pass holds a fixed
    number of 2^n x 2^n matrices however many layers it has."""
    if p.qubits != h.qubits:
        raise ValueError(f"schedule is for {p.qubits} qubits, Hamiltonian for {h.qubits}")
    return _run(p, evolve(h, p.tau))


def _apply(u: np.ndarray, flip: int, z: int, y: int, parity: np.ndarray) -> np.ndarray:
    """P u for the word P|x> = phase[x] |x ^ flip>: u's rows permuted and signed."""
    u = u[np.arange(len(u)) ^ flip]
    u *= _phase(z, y, parity, flip)[:, None]
    return u


def _run(p: PulseSchedule, u_free: np.ndarray) -> np.ndarray:
    """run_schedule with the free evolution u_free given."""
    layers = _layers(p)
    u = np.eye(len(u_free), dtype=np.complex128)
    for free in p.free.tolist():
        u = u_free @ u if free else _apply(u, *next(layers))
    return u


def _walsh_frames(p: PulseSchedule) -> tuple[np.ndarray, bool] | None:
    """(the frames F_1, F_2, F_4, ..., F_{m/2} and F_m, lead) of a merged
    schedule (layer, interval, ..., layer) whose frames obey the group law
    once a frame-0 interval is put first where F_0 is not 0 (lead), else
    None.  Frame F_t is the XOR of the codes of layers 0..t, and the law is:
    m = 2^r intervals, F_0 = 0, and F_t the XOR of F_{2^b} over the set bits
    b of t for t < m.  A reversal's columns 1..2^r - 1 obey it with the lead."""
    m = p.total_intervals
    if p.free.tobytes() != b"\0\1" * m + b"\0":
        return None
    frames = np.bitwise_xor.accumulate(p.codes, axis=0)
    lead = bool(frames[0].any())
    if lead:
        frames = np.concatenate([np.zeros_like(frames[:1]), frames])
        m += 1
    if m & (m - 1):
        return None
    law = np.zeros_like(frames[:1])
    while len(law) < m:
        law = np.concatenate([law, law ^ frames[len(law)]])
    if not np.array_equal(law, frames[:m]):
        return None
    return frames[[1 << j for j in range(m.bit_length() - 1)] + [m]], lead


def _pass(p: PulseSchedule, u_free: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """The pass of p with free evolution u_free, up to a global phase.  When
    its frames obey the group law it is P B_r, P the word of F_m, B_0 = u_free
    and B_{j+1} = (Q_j^dag B_j Q_j) B_j with Q_j the word of F_{2^j}: log2(m)
    products, and one more, B_r u_free^dag, to take a leading frame-0
    interval off.  Q^dag B Q is B[a ^ flip, b ^ flip] s[a] s[b], s Q's sign
    row.  Any other schedule runs step by step.

    The doubling carries D_j = B_j - I, D_{j+1} = (Q^dag D_j Q + D_j) +
    (Q^dag D_j Q) D_j: first-order terms, signed copies of each other, cancel
    exactly before the second-order ones, a pass's Trotter error, are added.
    With first, the A of u_free = I + A to the last bit, A's images are kept
    apart from the higher orders, which they would otherwise round away once
    ||A|| is near the unit roundoff."""
    walsh = _walsh_frames(p)
    if walsh is None:
        return _run(p, u_free)
    frames, lead = walsh
    flips, z, y = word_masks(frames)
    parity = walsh_rows(z, p.qubits, parity=True)
    if first is None:
        d = u_free.copy()
        _add_identity(d, -1)
    else:
        d = np.zeros_like(first)
    idx = np.arange(len(d))
    for flip, zj, row in zip(flips[:-1].tolist(), z[:-1].tolist(), parity):
        perm = idx ^ flip
        signs = _phase(zj, 0, row)
        signs = signs[:, None] * signs
        conjugated = d.take(perm, axis=0).take(perm, axis=1)
        conjugated *= signs
        if first is None:
            product = conjugated @ d
        else:
            images = first.take(perm, axis=0).take(perm, axis=1)
            images *= signs
            product = (images + conjugated) @ (first + d)
            images += first
            first = images
        conjugated += d
        conjugated += product
        d = conjugated
    if first is not None:
        d += first
    _add_identity(d, 1)
    if lead:
        d = d @ u_free.conj().T
    return _apply(d, int(flips[-1]), int(z[-1]), int(y[-1]), parity[-1])


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
    layers = _layers(p)
    flip, u = 0, np.ones_like(d)
    for free in p.free.tolist():
        if free:
            u *= d[idx ^ flip]
            continue
        layer_flip, z, y, parity = next(layers)
        u *= _phase(z, y, parity, flip)
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
    """min over phi of the spectral norm of (u - e^{i phi} target), both
    operands unitary: _aligned_distance of W = target^dag u."""
    return _aligned_distance(target.conj().T @ u)


def _aligned_distance(w: np.ndarray) -> float:
    """phase_aligned_distance read from W = target^dag u.

    W is normal, so the norm equals the largest eigenvalue distance to
    e^{i phi}.  With V = e^{-i phi0} W, phi0 the phase of tr W, C = (V + V^dag)/2
    and K = (V - V^dag)/2i are Hermitian and hold the cosines and sines of V's
    eigenphases.  When Gershgorin's discs put every eigenvalue of C above 1/2,
    every phase is within 60 degrees of phi0 and is the arcsine of an
    eigenvalue of K; any other W, tr W = 0 included, takes the general
    eigenvalues.
    """
    trace = np.trace(w)
    if trace:
        phase = trace / abs(trace)
        k = w.conj().T * phase   # V^dag
        c = w * phase.conjugate()
        c += k   # V + V^dag = 2C
        if (2 * c.diagonal().real - np.abs(c).sum(axis=1) > 1).all():  # Gershgorin
            c *= 0.5
            k -= c
            k *= 1j   # K = (V^dag - V) i/2 = (V^dag - C) i
            s = np.arcsin(np.linalg.eigvalsh(k))
            return float(2 * np.sin((s[-1] - s[0]) / 4))
    return _arc_distance(np.linalg.eigvals(w))


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
    """The coupling a select task keeps, `TaskSpec.selected`, as a word."""
    return _word(n, {q: label.upper() for q, label in task.selected})


def _target_hamiltonian(task: TaskSpec, h: PauliHamiltonian, total_time: float,
                        intervals: int) -> tuple[PauliHamiltonian, float]:
    """(H', t') such that the task's target unitary is e^{-iH't'}: h run back
    for reverse, else the terms of h the task keeps, for the whole time: none
    for decouple, those whose codes are the selected word's for select, those
    with no letter off the pair for select_pair.  H' is Z-diagonal if h is."""
    if task.kind == "reverse":
        # one pass reverses for the duration of a single interval
        return h, -total_time / intervals
    keep = np.zeros(len(h.terms), dtype=bool)  # decouple keeps no term
    if task.kind == "select":
        word, _ = decode_rows([selection_word(task, h.qubits)], h.qubits, GATES)
        keep = (h.codes == word).all(axis=1)
    elif task.kind == "select_pair":
        keep = ~np.delete(h.codes, task.qubits, axis=1).any(axis=1)
    return PauliHamiltonian(h.qubits, tuple(t for t, k in zip(h.terms, keep) if k)), total_time


def target_unitary(task: TaskSpec, h: PauliHamiltonian, total_time: float,
                   intervals: int) -> np.ndarray:
    return evolve(*_target_hamiltonian(task, h, total_time, intervals))


def _pair_target(task: TaskSpec, h: PauliHamiltonian,
                 total_time: float) -> tuple[tuple[int, int], np.ndarray]:
    """A select or select_pair target as ((q0, q1), G), q0 < q1: the target is
    the 4 x 4 unitary G on qubits q0 and q1 times I elsewhere, since the terms
    it keeps act on that pair only.  select keeps one word P, so G is
    cos(cT) I - i sin(cT) P with c their summed coefficient; select_pair
    exponentiates its kept terms as two-qubit words."""
    target_h, t = _target_hamiltonian(task, h, total_time, 1)
    pair = tuple(sorted(task.qubits))
    if task.kind == "select":
        angle = t * sum(c for c, _ in target_h.terms)
        p = word_matrix("".join(selection_word(task, h.qubits)[q] for q in pair))
        return pair, np.cos(angle) * np.eye(4) - 1j * np.sin(angle) * p
    terms = tuple((c, "".join(w[q] for q in pair)) for c, w in target_h.terms)
    return pair, evolve(PauliHamiltonian(2, terms), t)


def _on_pair(g: np.ndarray, pair: tuple[int, int], u: np.ndarray) -> np.ndarray:
    """(G on qubits pair = (q0, q1), q0 < q1, times I elsewhere) u, qubit 0
    the most significant bit of a row index: one 4 x 4 product over the pair's
    row bits."""
    q0, q1 = pair
    split = (1 << q0, 1 << (q1 - q0 - 1))
    rows = u.reshape(split[0], 2, split[1], 2, -1).transpose(1, 3, 0, 2, 4)
    out = (g @ rows.reshape(4, -1)).reshape(2, 2, *split, -1)
    return out.transpose(2, 0, 3, 1, 4).reshape(u.shape)


def _is_unitary(u: np.ndarray) -> bool:
    """Every entry of u u^dag - I within UNITARITY_TOL of 0."""
    g = u @ u.conj().T
    _add_identity(g, -1)
    return bool(np.abs(g).max() <= UNITARITY_TOL)


def _dense_distance(task: TaskSpec, schedule: PulseSchedule, h: PauliHamiltonian,
                    total_time: float, reps: int, intervals: int) -> float:
    u_free, first = _interval_exponential(h, schedule.tau)
    u = _pass(schedule, u_free, first)
    del first
    if not _is_unitary(u):
        raise AssertionError("schedule unitary failed the unitarity check")
    # the pass's rounding grows with the power, past float range for a huge reps
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.linalg.matrix_power(u, reps)
        del u
        # W = target^dag w: a decouple target is I, a reversal's, e^{+iHT/m},
        # is (u_free^dag)^reps, and any other is G on a pair
        if task.kind == "reverse":
            w = np.linalg.matrix_power(u_free, reps) @ w
        elif task.kind != "decouple":
            pair, g = _pair_target(task, h, total_time)
            w = _on_pair(g.conj().T, pair, w)
    del u_free   # the distance holds no operator it does not read
    if not np.isfinite(w).all():
        raise ValueError(f"the pass to the power --reps {reps} is not finite; "
                         "use a smaller --reps")
    return _aligned_distance(w)


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
    m = scheme.intervals
    try:
        tau = total_time / (m * reps)
    except OverflowError:  # m * reps beyond float range
        tau = 0.0
    if not tau > 0:
        raise ValueError(f"--time {total_time!r} / (m={m} intervals * --reps {reps}) "
                         "leaves an interval of 0 s; raise --time or lower --reps")
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
    schedule = compile_general(scheme, tau)
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
