"""Generalized Hadamard matrices over GF(4) and the composition that turns
a Schur-partitioned Hadamard matrix into a larger one with the same features.

GF(4) elements are the four sign triples (+,+,+), (+,-,-), (-,+,-), (-,-,+),
encoded as ints 0..3.  The group law (entry-wise product of triples) is then
XOR, and every element is its own inverse, so row "division" is again the
entry-wise product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Sequence

import numpy as np

from .errors import DesignNotFound, SearchBudgetExceeded, SizeCapExceeded
from .hadamard import (DEFAULT_SIZE_CAP, HadamardMatrix, format_rows, gram,
                       is_normalized, parse_rows)
from .schur import five_rows, partition_sylvester, sylvester

# sign of coordinate t for element g: rows e, x, y, z
TRIPLE_SIGNS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.int8
)
ELEMENT_CHARS = "exyz"


@dataclass(frozen=True)
class GhMatrix:
    """(4 lam) x (4 lam) array over GF(4); every row-pair quotient sequence
    contains each element exactly lam times."""

    entries: np.ndarray  # uint8 values 0..3
    lam: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.uint8)
        n = 4 * self.lam
        if self.lam < 1 or e.shape != (n, n):
            raise ValueError(f"expected {n}x{n} entries for lambda={self.lam}")
        if e.max(initial=0) > 3:
            raise ValueError("entries must be 0..3")
        object.__setattr__(self, "entries", e)

    @property
    def order(self) -> int:
        return 4 * self.lam

    @property
    def normalized(self) -> bool:
        return bool(np.all(self.entries[0] == 0) and np.all(self.entries[:, 0] == 0))


@dataclass(frozen=True)
class GhValidityReport:
    lam: int
    offending_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.offending_pairs


def gh4_base() -> GhMatrix:
    """The 4x4 GH(4,1) used as composition seed."""
    entries = np.array(
        [[0, 0, 0, 0],
         [0, 3, 1, 2],
         [0, 2, 3, 1],
         [0, 1, 2, 3]],
        dtype=np.uint8,
    )
    return GhMatrix(entries, lam=1)


def verify_gh(g: GhMatrix) -> GhValidityReport:
    """Check the quotient-count property for every row pair.

    The three sign coordinates are the nontrivial characters of GF(4)'s
    additive group, so rows i and j have every quotient element exactly lam
    times iff rows 3i+t and 3j+t of level(g) are orthogonal for t = 0, 1, 2.
    """
    bad = np.any([gram(TRIPLE_SIGNS[g.entries, t]) != 0 for t in range(3)], axis=0)
    pairs = np.argwhere(np.triu(bad, 1))
    return GhValidityReport(lam=g.lam, offending_pairs=tuple(map(tuple, pairs.tolist())))


def gh_kron(a: GhMatrix, b: GhMatrix, cap: int = DEFAULT_SIZE_CAP) -> GhMatrix:
    """Kronecker product under the group law; lambda becomes 4*la*lb."""
    order = a.order * b.order
    if order > cap:
        raise SizeCapExceeded(f"gh kron order {order} exceeds cap {cap}")
    prod = np.bitwise_xor.outer(a.entries, b.entries)  # [i,j,k,l]
    entries = prod.transpose(0, 2, 1, 3).reshape(order, order)
    return GhMatrix(entries, lam=4 * a.lam * b.lam)


def gh_search(lam: int, budget: int = 10_000_000) -> GhMatrix:
    """Backtracking search for a normalized GH(4, lam).

    Column permutations let us fix the first row to all-identity, the first
    column to identity and the second row to the sorted multiset, so the
    search is complete for existence.  Raises SearchBudgetExceeded when the
    node budget runs out (inconclusive) and DesignNotFound when the space is
    exhausted (nonexistence within the canonical form, hence nonexistence).
    """
    n = 4 * lam
    grid = [[0] * n for _ in range(n)]
    grid[1] = [0] + sorted([0] * (lam - 1) + [1, 2, 3] * lam)
    nodes = 0

    def fill(row: int) -> bool:
        nonlocal nodes
        if row == n:
            return True
        # counts[r][g]: occurrences of quotient element g between the row
        # being built and earlier row r; column 0 contributes identity.
        counts = [[1, 0, 0, 0] for _ in range(row)]

        def place(col: int) -> bool:
            nonlocal nodes
            if col == n:
                return fill(row + 1)
            for v in range(4):
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(
                        f"gh_search(lambda={lam}) exhausted {budget} nodes")
                ok = True
                for r in range(row):
                    if counts[r][grid[r][col] ^ v] >= lam:
                        ok = False
                        break
                if not ok:
                    continue
                grid[row][col] = v
                for r in range(row):
                    counts[r][grid[r][col] ^ v] += 1
                if place(col + 1):
                    return True
                for r in range(row):
                    counts[r][grid[r][col] ^ v] -= 1
                grid[row][col] = 0
            return False

        return place(1)

    if fill(2):
        result = GhMatrix(np.array(grid, dtype=np.uint8), lam=lam)
        report = verify_gh(result)
        assert report.ok, "search postcondition violated"
        return result
    raise DesignNotFound(f"no GH(4,{lam}) in canonical form")


# GH(4,2) exactly as gh_search(2) finds it; tests check it against the search
# and verify_gh, so no process pays the backtracking to rebuild it.
_GH_4_2_ROWS = "eeeeeeee eexxyyzz exyzexyz exzyyzxe eyeyzxzx eyxzxzey ezyxzexy ezzexyyx"


@lru_cache(maxsize=None)
def _gh_for_lambda(lam: int, cap: int) -> GhMatrix:
    if lam == 1:
        return gh4_base()
    if lam == 2:
        rows = [[ELEMENT_CHARS.index(c) for c in row] for row in _GH_4_2_ROWS.split()]
        return GhMatrix(np.array(rows, dtype=np.uint8), lam=2)
    if lam % 4 == 0:
        return gh_kron(gh_for_lambda(lam // 4, cap), gh4_base(), cap=cap)
    raise ValueError(f"lambda={lam} is not constructible here")


def gh_for_lambda(lam: int, cap: int = DEFAULT_SIZE_CAP) -> GhMatrix:
    """Constructible GH(4, lam) for lam in {1, 2, 4^k, 2*4^k}, cached once
    per (lam, cap) however the arguments are passed."""
    if lam < 1:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    return _gh_for_lambda(lam, cap)


gh_for_lambda.cache_info = _gh_for_lambda.cache_info
gh_for_lambda.cache_clear = _gh_for_lambda.cache_clear


def constructible_lambdas(cap: int = DEFAULT_SIZE_CAP) -> list[int]:
    out = []
    lam = 1
    while 4 * lam <= cap:
        out.append(lam)
        lam *= 2
    return out


def level(g: GhMatrix) -> np.ndarray:
    """Convert the triple array into a (12 lam) x (4 lam) array of +/-1:
    row 3b+t holds coordinate t of row b."""
    return TRIPLE_SIGNS[g.entries].transpose(0, 2, 1).reshape(3 * g.order, g.order)


@dataclass(frozen=True)
class CompositionResult:
    hprime: HadamardMatrix
    triples: tuple[tuple[int, int, int], ...]   # row-index triples of hprime
    f_rows: tuple[int, int, int, int, int] | None  # indices of f1..f5 in hprime
    n_base_triples: int
    base_order: int
    lam: int
    index_map: tuple[tuple[int, int], ...]  # hprime row -> (base row pos, leveled gh row)


def compose(
    h: HadamardMatrix,
    schur_rows: Sequence[int],
    leftover_rows: Sequence[int],
    gamma: GhMatrix,
    five: Sequence[int] | None = None,
    cap: int = DEFAULT_SIZE_CAP,
) -> CompositionResult:
    """Compose a normalized Hadamard matrix with a normalized GH(4, lam).

    schur_rows lists 3n row indices of h, three consecutive indices per
    Schur-set; leftover_rows lists the remaining rows.  The result is a
    Hadamard matrix of order 4*lam*m whose first 3n*4lam rows split into
    4lam*n Schur triples (consecutive threes) and which inherits the
    five-row feature as f_i x (all +1) when `five` gives base row indices.
    """
    m = h.order
    lam = gamma.lam
    big = 4 * lam * m
    if big > cap:
        raise SizeCapExceeded(f"composed order {big} exceeds cap {cap}")
    if len(schur_rows) % 3 != 0:
        raise ValueError("schur_rows length must be a multiple of 3")
    n = len(schur_rows) // 3
    if sorted(list(schur_rows) + list(leftover_rows)) != list(range(m)):
        raise ValueError("schur_rows + leftover_rows must cover all rows once")
    if not is_normalized(h):
        raise ValueError("base Hadamard matrix must be normalized")
    if not gamma.normalized:
        raise ValueError("gamma must be normalized")
    base = h.entries[list(schur_rows)].reshape(n, 3, m)
    bad = np.flatnonzero(np.any(base.prod(axis=1) != 1, axis=1))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"rows {schur_rows[3*k:3*k+3]} are not a Schur-set")

    # row (i, b, t) is kron(base row 3i+t, coordinate t of gamma row b) and
    # leftover row (q, b) is kron(leftover q, coordinate 0 of gamma row b):
    # one broadcast each, written straight into the composed matrix
    L = 4 * lam
    eps = level(gamma).reshape(L, 3, L)  # [b, t, c]
    rows = np.empty((big, big), dtype=np.int8)
    np.multiply(base[:, None, :, :, None], eps[:, :, None, :],
                out=rows[:3 * n * L].reshape(n, L, 3, m, L))
    left = h.entries[list(leftover_rows)]
    np.multiply(left[:, None, :, None], eps[:, 0, None, :],
                out=rows[3 * n * L:].reshape(len(left), L, m, L))
    index_map = [(3 * i + t, 3 * b + t) for i in range(n) for b in range(L) for t in range(3)]
    index_map += [(3 * n + q, 3 * b) for q in range(len(left)) for b in range(L)]

    hprime = HadamardMatrix(
        rows, provenance=f"composed({h.provenance},gh(4,{lam}))")
    triples = tuple((3 * k, 3 * k + 1, 3 * k + 2) for k in range(n * L))

    f_indices = None
    if five is not None:
        position = {r: p for p, r in enumerate(schur_rows)}
        position.update({r: 3 * n + q for q, r in enumerate(leftover_rows)})
        out = []
        for base_row in five:
            p = position[base_row]
            if p < 3 * n:
                i, t = divmod(p, 3)
                out.append(i * 3 * L + t)       # b = 0 block
            else:
                out.append(3 * n * L + (p - 3 * n) * L)
        f_indices = tuple(out)

    return CompositionResult(
        hprime=hprime,
        triples=triples,
        f_rows=f_indices,
        n_base_triples=n,
        base_order=m,
        lam=lam,
        index_map=tuple(index_map),
    )


def compose_sylvester(r: int, gamma: GhMatrix, cap: int = DEFAULT_SIZE_CAP) -> CompositionResult:
    """Compose sylvester(r) (all its Schur triples) with gamma."""
    # r >= cap.bit_length() is 2^r > cap, and keeps 2 ** r small otherwise
    if r >= cap.bit_length() or 4 * gamma.lam * 2 ** r > cap:
        raise SizeCapExceeded(f"composed order 4*{gamma.lam}*2^{r} exceeds cap {cap}")
    p = partition_sylvester(r)
    schur_rows = [i for t in p.triples for i in t]
    leftover = list(p.remainder)
    five = five_rows(r).indices if r >= 3 else None
    return compose(sylvester(r, cap), schur_rows, leftover, gamma, five=five, cap=cap)


def interval_bound(r: int, t: int) -> tuple[int, int]:
    """(qubits handled, intervals) for composing H(2)^(x)(r-2) with GH(4,3^(t+1)).

    Planning arithmetic only; the GH factor itself is constructible here only
    for selected lambdas.
    """
    if r < 5:
        raise ValueError("r must be >= 5")
    if t < 0:
        raise ValueError("t must be >= 0")
    return ((2 ** r - 20) * 3 ** t, 2 ** r * 3 ** (t + 1))


# ---------------------------------------------------------------------------
# GH text format: header "gh 4 <lambda>", rows of chars e/x/y/z.

def write_gh(g: GhMatrix, stream: IO[str]) -> None:
    stream.write(f"gh 4 {g.lam}\n")
    stream.write(format_rows(g.entries, ELEMENT_CHARS))


def read_gh(stream: IO[str]) -> GhMatrix:
    header = stream.readline().split()
    if len(header) != 3 or header[0] != "gh" or header[1] != "4":
        raise ValueError("gh file must start with 'gh 4 <lambda>'")
    lam = int(header[2])
    return GhMatrix(parse_rows(stream, 4 * lam, 4 * lam, ELEMENT_CHARS, "gh"), lam=lam)
