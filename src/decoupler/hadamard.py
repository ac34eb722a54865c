"""Hadamard matrix constructions and the constructible-order catalog, plus
the two kernels every sign matrix goes through: `gram`, the exact integer
Gram matrix by which all orthogonality is tested, and `format_rows` /
`parse_rows`, the one codec between code matrices and lines of letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import IO

import numpy as np

from .errors import SizeCapExceeded

DEFAULT_SIZE_CAP = 4096

# Recipes are nested tuples, e.g. ("kron", ("sylvester", 1), ("paley1", 11)).
Recipe = tuple


def recipe_str(recipe: Recipe) -> str:
    head = recipe[0]
    if head == "kron":
        return f"kron({recipe_str(recipe[1])},{recipe_str(recipe[2])})"
    if head == "literal":
        return "literal"
    return f"{head}({recipe[1]})"


@dataclass(frozen=True)
class HadamardMatrix:
    """A square +/-1 matrix with pairwise orthogonal rows."""

    entries: np.ndarray
    provenance: str = "literal"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.int8)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        if not np.all(np.abs(e) == 1):
            raise ValueError("entries must be +1/-1")
        m = e.shape[0]
        if m not in (1, 2) and m % 4 != 0:
            raise ValueError(f"order {m} is not a possible Hadamard order")
        object.__setattr__(self, "entries", e)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.entries[i]


@dataclass(frozen=True)
class ValidityReport:
    """Result of an orthogonality check; empty offending list means valid."""

    order: int
    offending_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.offending_pairs


@dataclass(frozen=True)
class OrderCatalogEntry:
    requested: int
    achieved: int
    recipe: Recipe

    def __str__(self) -> str:
        return (
            f"requested={self.requested} achieved={self.achieved} "
            f"recipe={recipe_str(self.recipe)}"
        )


def gram(rows) -> np.ndarray:
    """Exact int64 rows @ rows.T of +/-1 rows, by float32 BLAS: every partial
    sum is an integer of magnitude <= the row width, exact in float32 in any
    summation order while the width is <= 2^24; wider rows raise ValueError."""
    rows = np.asarray(rows)
    if rows.shape[1] > 1 << 24:
        raise ValueError(f"row width {rows.shape[1]} exceeds the exact float32 bound 2^24")
    f = rows.astype(np.float32)
    return (f @ f.T).astype(np.int64)


def is_hadamard(entries) -> ValidityReport:
    """Exact orthogonality check; reports every non-orthogonal row pair
    (i < j, row-major order)."""
    e = np.asarray(entries)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError(f"matrix must be square, got shape {e.shape}")
    if not np.all(np.abs(e) == 1):
        raise ValueError("matrix entries must be +1/-1")
    bad = np.argwhere(np.triu(gram(e) != 0, 1))
    return ValidityReport(order=e.shape[0], offending_pairs=tuple(map(tuple, bad.tolist())))


def sylvester(r: int, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    """The r-fold Kronecker power of [[+,+],[+,-]]; entry (i,j) = (-1)^(i.j)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    m = 1 << r
    if m > cap:
        raise SizeCapExceeded(f"sylvester order {m} exceeds cap {cap}")
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int8)
    entries = reduce(np.kron, [h2] * r, np.ones((1, 1), dtype=np.int8))
    return HadamardMatrix(entries, provenance=f"sylvester({r})")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _jacobsthal(q: int) -> np.ndarray:
    """Q[a,b] = chi(a-b) with chi the quadratic-residue character mod q."""
    chi = np.full(q, -1, dtype=np.int8)
    chi[0] = 0
    for x in range(1, q):
        chi[(x * x) % q] = 1
    a = np.arange(q)
    return chi[(a[:, None] - a[None, :]) % q]


def paley(q: int, variant: int, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    """Paley construction I (order q+1, q = 3 mod 4) or II (order 2(q+1), q = 1 mod 4).

    Only prime q is supported; prime powers would need GF(q) arithmetic that
    the catalog never requires.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if q % 2 == 0 or not _is_prime(q):
        raise ValueError(f"q={q} is not an odd prime (prime powers unsupported)")
    if variant == 1 and q % 4 != 3:
        raise ValueError(f"variant 1 needs q = 3 mod 4, got q={q}")
    if variant == 2 and q % 4 != 1:
        raise ValueError(f"variant 2 needs q = 1 mod 4, got q={q}")
    order = q + 1 if variant == 1 else 2 * (q + 1)
    if order > cap:
        raise SizeCapExceeded(f"paley order {order} exceeds cap {cap}")
    Q = _jacobsthal(q)
    if variant == 1:
        s = np.zeros((q + 1, q + 1), dtype=np.int8)
        s[0, 1:] = 1
        s[1:, 0] = -1
        s[1:, 1:] = Q
        entries = s + np.eye(q + 1, dtype=np.int8)
        return HadamardMatrix(entries, provenance=f"paley1({q})")
    c = np.zeros((q + 1, q + 1), dtype=np.int8)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = Q
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int8)
    k2 = np.array([[1, -1], [-1, -1]], dtype=np.int8)
    entries = np.kron(c, h2) + np.kron(np.eye(q + 1, dtype=np.int8), k2)
    return HadamardMatrix(entries, provenance=f"paley2({q})")


def kron_product(a: HadamardMatrix, b: HadamardMatrix, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    if a.order * b.order > cap:
        raise SizeCapExceeded(f"kron order {a.order * b.order} exceeds cap {cap}")
    return HadamardMatrix(
        np.kron(a.entries, b.entries),
        provenance=f"kron({a.provenance},{b.provenance})",
    )


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows/columns until the first row and column are all +1.

    Every row except the first then has zero row sum.
    """
    e = h.entries * h.entries[0][None, :]  # fix first row
    e = e * e[:, 0][:, None]    # fix first column
    return HadamardMatrix(e, provenance=h.provenance)


def is_normalized(h: HadamardMatrix) -> bool:
    return bool(np.all(h.entries[0] == 1) and np.all(h.entries[:, 0] == 1))


@lru_cache(maxsize=None)
def _catalog(cap: int) -> dict[int, Recipe]:
    """Smallest-order-first map of constructible orders to recipes.

    Priority for a given order: sylvester, paley I, paley II, then Kronecker
    products of smaller catalog entries (smallest left factor first).
    """
    orders: dict[int, Recipe] = {}
    r = 0
    while (1 << r) <= cap:
        orders[1 << r] = ("sylvester", r)
        r += 1
    for q in range(3, cap, 4):
        if q + 1 not in orders and _is_prime(q):
            orders[q + 1] = ("paley1", q)
    for q in range(5, cap // 2, 4):
        if 2 * (q + 1) not in orders and _is_prime(q):
            orders[2 * (q + 1)] = ("paley2", q)
    # Kronecker closure: one ascending pass suffices since both factors of
    # any product are strictly smaller than the product.
    for m in range(4, cap + 1, 4):
        if m in orders:
            continue
        for a in range(2, m):
            if m % a == 0 and a in orders and (m // a) in orders and m // a > 1:
                orders[m] = ("kron", orders[a], orders[m // a])
                break
    return orders


def build_hadamard(recipe: Recipe, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    head = recipe[0]
    if head == "sylvester":
        return sylvester(recipe[1], cap=cap)
    if head == "paley1":
        return paley(recipe[1], 1, cap=cap)
    if head == "paley2":
        return paley(recipe[1], 2, cap=cap)
    if head == "kron":
        return kron_product(build_hadamard(recipe[1], cap), build_hadamard(recipe[2], cap), cap=cap)
    raise ValueError(f"unknown recipe {recipe!r}")


def best_order(n: int, cap: int = DEFAULT_SIZE_CAP) -> OrderCatalogEntry:
    """Smallest constructible Hadamard order >= n, with its recipe."""
    if n < 1:
        raise ValueError("n must be >= 1")
    catalog = _catalog(cap)
    for m in range(n, cap + 1):
        if m in catalog:
            return OrderCatalogEntry(requested=n, achieved=m, recipe=catalog[m])
    raise SizeCapExceeded(f"no constructible order >= {n} within cap {cap}")


def best_matrix(n: int, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    """Normalized Hadamard matrix of order best_order(n)."""
    return normalize(build_hadamard(best_order(n, cap).recipe, cap=cap))


def catalog_gaps(limit: int, cap: int = DEFAULT_SIZE_CAP) -> list[tuple[int, int]]:
    """(n, gap) for every n <= limit where best_order(n) - n > 8.

    Reported rather than asserted: the full literature catalog would close
    these, the implemented constructions may not.
    """
    out = []
    for n in range(1, limit + 1):
        gap = best_order(n, cap).achieved - n
        if gap > 8:
            out.append((n, gap))
    return out


# ---------------------------------------------------------------------------
# Text formats, all through one row codec.  Matrix files: first line
# "order m", then m lines of m chars from {+,-}.

def format_rows(codes, alphabet: str) -> str:
    """The row codec of every text format: row i of a 2-d array of codes
    0..len(alphabet)-1 becomes a line whose character j is alphabet[codes[i, j]]."""
    codes = np.asarray(codes, dtype=np.uint8)
    n, m = codes.shape
    text = np.full((n, m + 1), ord("\n"), dtype=np.uint8)
    text[:, :m] = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)[codes]
    return text.tobytes().decode("ascii")


@lru_cache(maxsize=None)
def _decoder(alphabet: str) -> np.ndarray:
    """Byte -> code table; -1 marks a byte outside the alphabet."""
    table = np.full(256, -1, dtype=np.int8)
    table[np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)] = np.arange(len(alphabet))
    return table


def parse_rows(stream: IO[str], n: int, m: int, alphabet: str, what: str) -> np.ndarray:
    """Read n >= 1 lines of m letters from alphabet as an n x m int8 code
    array.  The first line of the wrong length or with a letter outside the
    alphabet raises ValueError("bad <what> row '...'")."""
    if n < 1 or m < 0:
        raise ValueError(f"bad {what} shape {n} x {m}")
    lines: list[str] = []
    while len(lines) < n and len(line := stream.readline().strip()) == m:
        lines.append(line)
    raw = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8)
    codes = _decoder(alphabet)[raw].reshape(len(lines), m)
    bad = np.flatnonzero((codes < 0).any(axis=1))
    if len(bad) or len(lines) < n:
        raise ValueError(f"bad {what} row {lines[bad[0]] if len(bad) else line!r}")
    return codes


def write_matrix(h: HadamardMatrix | np.ndarray, stream: IO[str]) -> None:
    e = h.entries if isinstance(h, HadamardMatrix) else np.asarray(h)
    stream.write(f"order {e.shape[0]}\n")
    stream.write(format_rows(e < 0, "+-"))


def read_matrix(stream: IO[str]) -> HadamardMatrix:
    header = stream.readline().split()
    if len(header) != 2 or header[0] != "order":
        raise ValueError("matrix file must start with 'order m'")
    m = int(header[1])
    return HadamardMatrix(1 - 2 * parse_rows(stream, m, m, "+-", "matrix"),
                          provenance="literal")
