"""Generalized Hadamard matrices over GF(4) and the composition that turns
a Schur-partitioned Hadamard matrix into a larger one with the same features.

GF(4) elements are the four sign triples (+,+,+), (+,-,-), (-,+,-), (-,-,+),
encoded as ints 0..3.  The group law (entry-wise product of triples) is then
XOR, and every element is its own inverse, so row "division" is again the
entry-wise product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DesignNotFound, SearchBudgetExceeded, SizeCapExceeded
from .hadamard import (DEFAULT_SIZE_CAP, HadamardMatrix, ValidityReport, _block_rows,
                       decode_rows, exceeds_cap, gram, frozen, is_normalized, read_only,
                       sylvester, upper_pairs)
from .schur import five_rows, partition_sylvester

# sign of coordinate t for element g: rows e, x, y, z
TRIPLE_SIGNS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.int8
)
ELEMENT_CHARS = "exyz"


@dataclass(frozen=True, eq=False)
class GhMatrix:
    """(4 lam) x (4 lam) array over GF(4); every row-pair quotient sequence
    contains each element exactly lam times."""

    entries: np.ndarray  # uint8 values 0..3, read-only
    lam: int

    def __post_init__(self):
        e = read_only(self.entries, np.uint8)
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


# GH(4,1) and GH(4,2), the seeds of every constructible lambda; GH(4,2) as
# gh_search(2) finds it (tests check), so no process pays the backtracking.
_GH_ROWS = {1: "eeee ezxy eyzx exyz",
            2: "eeeeeeee eexxyyzz exyzexyz exzyyzxe eyeyzxzx eyxzxzey ezyxzexy ezzexyyx"}


def _gh_literal(lam: int) -> GhMatrix:
    codes, _ = decode_rows(_GH_ROWS[lam].split(), 4 * lam, ELEMENT_CHARS)
    return GhMatrix(frozen(codes.view(np.uint8)), lam=lam)


def gh4_base() -> GhMatrix:
    """The 4x4 GH(4,1) used as composition seed."""
    return _gh_literal(1)


def verify_gh(g: GhMatrix) -> ValidityReport:
    """Check the quotient-count property for every row pair.

    The three sign coordinates are the nontrivial characters of GF(4)'s
    additive group, so rows i and j have every quotient element exactly lam
    times iff rows 3i+t and 3j+t of level(g) are orthogonal for t = 0, 1, 2.
    """
    bad = np.any([gram(TRIPLE_SIGNS[g.entries, t]) != 0 for t in range(3)], axis=0)
    pairs = upper_pairs(bad)
    return ValidityReport(order=g.order, offending_pairs=tuple(map(tuple, pairs.tolist())))


def gh_kron(a: GhMatrix, b: GhMatrix, cap: int = DEFAULT_SIZE_CAP) -> GhMatrix:
    """Kronecker product under the group law; lambda becomes 4*la*lb."""
    order = a.order * b.order
    if order > cap:
        raise SizeCapExceeded(f"gh kron order {order} exceeds cap {cap}")
    prod = np.bitwise_xor.outer(a.entries, b.entries)  # [i,j,k,l]
    entries = prod.transpose(0, 2, 1, 3).reshape(order, order)
    return GhMatrix(frozen(entries), lam=4 * a.lam * b.lam)


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


@lru_cache(maxsize=None)
def _gh_for_lambda(lam: int, cap: int) -> GhMatrix:
    if lam in _GH_ROWS:
        return _gh_literal(lam)
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
    """Each lam of _GH_ROWS times each 4^k with GH order 4 lam 4^k <= cap."""
    return sorted(lam * 4**k for lam in _GH_ROWS for k in range(cap.bit_length())
                  if 4 * lam * 4**k <= cap)


def level(g: GhMatrix) -> np.ndarray:
    """Convert the triple array into a (12 lam) x (4 lam) array of +/-1:
    row 3b+t holds coordinate t of row b."""
    return TRIPLE_SIGNS[g.entries].transpose(0, 2, 1).reshape(3 * g.order, g.order)


class Composition:
    """The composition of a normalized Hadamard matrix h with a normalized
    GH(4, lam): a Hadamard matrix of order 4*lam*m, checked and laid out
    with none of its rows built.  `rows` builds the rows asked for, and
    `hprime` the whole matrix, once, on first use.

    schur_rows lists 3n row indices of h, three consecutive indices per
    Schur-set; leftover_rows lists the remaining rows.  The first 3n*4lam
    composed rows split into 4lam*n Schur triples (consecutive threes), and
    the composition inherits the five-row feature as f_i x (all +1) when
    `five` gives base row indices.  Composed row k is kron(base row pos[k],
    row g[k] of level(gamma)), base rows schur_rows then leftover_rows:
    row (i, b, t), the 3 L i + 3 b + t-th (L = 4 lam), takes base row 3i+t
    and coordinate t of gamma row b, and leftover row (q, b), the
    3 n L + L q + b-th, leftover q and coordinate 0 of gamma row b.  Every
    refusal is raised by the constructor.  The layout holds h and the
    read-only arrays base_rows, pos, g and level(gamma) tiled m times
    (3 L order entries), never the order x order matrix.
    """

    def __init__(self, h: HadamardMatrix, schur_rows: Sequence[int],
                 leftover_rows: Sequence[int], gamma: GhMatrix,
                 five: Sequence[int] | None = None, cap: int = DEFAULT_SIZE_CAP):
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
        outside = [f for f in (() if five is None else five) if not 0 <= f < m]
        if outside:
            raise ValueError(f"five row {outside[0]} is not a row of the order-{m} base")
        if not is_normalized(h):
            raise ValueError("base Hadamard matrix must be normalized")
        if not gamma.normalized:
            raise ValueError("gamma must be normalized")
        bad_pairs = verify_gh(gamma).offending_pairs
        if bad_pairs:
            raise ValueError(f"gamma is not a GH(4,{lam}): rows {bad_pairs[0]} "
                             "fail the quotient count")
        base = h.entries[list(schur_rows)].reshape(n, 3, m)
        # rows a, b, c of +/-1 multiply to all + exactly when a * b = c
        bad = np.flatnonzero(np.any(base[:, 0] * base[:, 1] != base[:, 2], axis=1))
        del base
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"rows {schur_rows[3*k:3*k+3]} are not a Schur-set")

        L = 4 * lam
        schur = 3 * n * L  # the rows of Schur triples come first
        k = np.arange(big)
        self.h, self.lam, self.n_base_triples = h, lam, n
        # the row of h at each base position: schur_rows, then leftover_rows
        self.base_rows = frozen(np.array([*schur_rows, *leftover_rows], dtype=np.intp))
        self.pos = frozen(np.where(k < schur, 3 * (k // (3 * L)) + k % 3,
                                   3 * n + (k - schur) // L))
        self.g = frozen(np.where(k < schur, 3 * (k // 3 % L) + k % 3, 3 * ((k - schur) % L)))
        self.eps = frozen(np.tile(level(gamma), (1, m)))  # eps[g] = tile(level(gamma)[g], m)
        self.f_rows = None
        if five is not None:
            # f x (all +1) is the composed row of base row f and leveled row
            # t < 3, coordinate t of gamma's all-identity row 0
            base_row = np.where(self.g < 3, self.base_rows[self.pos], -1)
            self.f_rows = tuple(int(np.flatnonzero(base_row == f)[0]) for f in five)
        self.provenance = f"composed({h.provenance},gh(4,{lam}))"

    @property
    def order(self) -> int:
        return len(self.pos)

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((3 * k, 3 * k + 1, 3 * k + 2)
                     for k in range(4 * self.lam * self.n_base_triples))

    @cached_property
    def hprime(self) -> HadamardMatrix:
        """The composed matrix, built by `rows` over all rows on first use:
        the one place the whole matrix is built."""
        return HadamardMatrix(frozen(self.rows(np.arange(self.order))),
                              provenance=self.provenance)

    def rows(self, k) -> np.ndarray:
        """Rows k of the composed matrix as a new int8 array of shape
        k.shape + (order,), the one composition kernel.  Entry jL + c of
        kron(x, y) is repeat(x, L) times tile(y, m) there, so each codec
        block of rows is one multiply whose inner loop runs over order
        contiguous entries; a block's repeated base rows and gathered gamma
        rows are its only temporaries."""
        k = np.asarray(k, dtype=np.intp)
        flat, order, L = k.reshape(-1), self.order, 4 * self.lam
        out = np.empty((len(flat), order), dtype=np.int8)
        step = _block_rows(order)
        for start in range(0, len(flat), step):
            block = flat[start:start + step]
            np.multiply(_repeat(self.h.entries[self.base_rows[self.pos[block]]], L),
                        self.eps[self.g[block]], out=out[start:start + len(block)])
        return out.reshape(k.shape + (order,))


def _repeat(x: np.ndarray, L: int) -> np.ndarray:
    """np.repeat(x, L, axis=1) of int8 rows.  numpy repeats a byte L times
    slowly for L < 16, so for L = 4 and 8 each byte is instead spread over
    a word of L bytes by one multiply of its zero-extended value by 0x01..01."""
    if L not in (4, 8):
        return np.repeat(x, L, axis=1)
    word = np.dtype(f"u{L}")
    ones = word.type(int.from_bytes(b"\x01" * L, "little"))
    return (x.view(np.uint8).astype(word) * ones).view(np.int8)


def compose(
    h: HadamardMatrix,
    schur_rows: Sequence[int],
    leftover_rows: Sequence[int],
    gamma: GhMatrix,
    five: Sequence[int] | None = None,
    cap: int = DEFAULT_SIZE_CAP,
) -> Composition:
    """Compose a normalized Hadamard matrix with a normalized GH(4, lam):
    the checked `Composition`, none of its rows built."""
    return Composition(h, schur_rows, leftover_rows, gamma, five, cap)


def check_composed_order(r: int, lam: int, cap: int = DEFAULT_SIZE_CAP) -> None:
    """Refuse sylvester(r) composed with GH(4, lam) past the cap, before either
    factor is built; lam < 1 is left to `gh_for_lambda`."""
    if lam >= 1 and exceeds_cap(r, cap // (4 * lam)):  # 4 lam 2^r > cap
        raise SizeCapExceeded(f"composed order 4*{lam}*2^{r} exceeds cap {cap}")


def compose_sylvester(r: int, gamma: GhMatrix, cap: int = DEFAULT_SIZE_CAP) -> Composition:
    """The `Composition` of sylvester(r), all its Schur triples, with gamma;
    an order past the cap is refused before the partition is built."""
    check_composed_order(r, gamma.lam, cap)
    p = partition_sylvester(r)
    schur_rows = [i for t in p.triples for i in t]
    leftover = list(p.remainder)
    five = five_rows(r).indices if r >= 3 else None
    return Composition(sylvester(r, cap), schur_rows, leftover, gamma, five=five, cap=cap)


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

