"""Hadamard matrix constructions and the recipe of each constructible order,
plus the kernels every sign matrix goes through: `walsh_rows`, which builds
every Sylvester row (sylvester(r), the rows a general scheme takes and the
simulator's sign rows); `gram`, the exact float32 Gram by which all
orthogonality is tested, with `upper_pairs` its one scan;
`canonical_indices`, which names rows by their index in the canonical matrix
of their order instead, Sylvester rows by `walsh_indices` (`walsh_rows`
undone, and checked by redoing it a block of rows at a time) with no matrix,
other rows by binary search in the matrix they came from;
and the one row codec, `write_signs` / `parse_signs` for '+'/'-' rows and
`format_rows` / `decode_rows` for letters.  `parse_signs` is the one reader
of rows from a file; `decode_rows` decodes letters already held in memory.

The codec works on one block of about 64 KiB of text at a time, so what it
holds beyond its input and output is one block.  Sign rows are written and
read as 44 - x: letter = 44 - sign into one text buffer, with no sign mask,
and sign = 44 - byte straight into the reader's int8 rows, accepted only
where `all_signs` holds.  The other alphabets (IXYZ, exyz) go through a
`bytes.translate` table.  The reader takes each block of n rows of
m signs with one read of n (m + 1) characters.  A canonical block, a
newline after every m letters (the last row of the stream may lack it), is
decoded over its bytes into its rows of one int8 array, allocated as the
rows arrive.  Any other block (CRLF or padded rows, a short or missing row)
is read line by line and stripped, as a line reader would, and so is a
canonical block with a bad letter, so that the first bad row is named.
Only a short row makes the one read take text past the block, at most one
more block, and it is always an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import IO

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import SizeCapExceeded

DEFAULT_SIZE_CAP = 4096

# Recipes are nested tuples, e.g. ("kron", ("sylvester", 1), ("paley1", 11)).
Recipe = tuple


def recipe_str(recipe: Recipe) -> str:
    head = recipe[0]
    if head == "kron":
        return f"kron({recipe_str(recipe[1])},{recipe_str(recipe[2])})"
    return f"{head}({recipe[1]})"


def read_only(entries, dtype) -> np.ndarray:
    """`entries` as a read-only array of `dtype`: the stored entries of every
    value.  An array the caller could still write to is copied first, and
    entries that the cast to `dtype` would change (1.5, 257, nan, 1j) raise."""
    e = given = np.asarray(entries)
    if e.dtype != dtype:
        with np.errstate(invalid="ignore"):  # nan and inf are refused below
            e = np.real(given).astype(dtype)
        if not np.array_equal(e, given):
            raise ValueError(f"entries must be exact {np.dtype(dtype)} values")
    if e.flags.writeable and (e is entries or e.base is not None):
        e = e.copy()
    e.flags.writeable = False
    return e


def frozen(e: np.ndarray) -> np.ndarray:
    """`e` made read-only in place: how a builder hands a value an array that
    nothing else holds, so the value need not copy it."""
    e.flags.writeable = False
    return e


def all_signs(e: np.ndarray) -> bool:
    """Every entry of the int8 array e is +1 or -1, found without
    array-sized temporaries."""
    return np.count_nonzero(e) == e.size and e.min(initial=-1) >= -1 and e.max(initial=1) <= 1


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """A square +/-1 matrix with pairwise orthogonal rows; read-only entries."""

    entries: np.ndarray
    provenance: str = "literal"

    def __post_init__(self):
        e = read_only(self.entries, np.int8)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        if not all_signs(e):
            raise ValueError("entries must be +1/-1")
        m = e.shape[0]
        if m not in (1, 2) and m % 4 != 0:
            raise ValueError(f"order {m} is not a possible Hadamard order")
        object.__setattr__(self, "entries", e)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def row(self, i) -> np.ndarray:  # rows i, a new array, for an index array i
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


_SCAN_BYTES = 1 << 18  # a block of every full-size scan of the sign rows or codes


def _scan_rows(width: int) -> int:  # rows of `width` bytes in one scan block, at least 1
    return max(1, _SCAN_BYTES // max(width, 1))


def gram(rows, other=None) -> np.ndarray:
    """Exact rows @ other.T (other defaults to rows) of +/-1 rows, in float32
    by BLAS: every partial sum is an integer of magnitude <= the row width,
    exact in float32 in any summation order while the width is <= 2^24;
    wider rows raise ValueError.  float32 rows are used as they are."""
    rows = np.asarray(rows)
    if rows.shape[1] > 1 << 24:
        raise ValueError(f"row width {rows.shape[1]} exceeds the exact float32 bound 2^24")
    f = rows.astype(np.float32, copy=False)
    return f @ (f if other is None else np.asarray(other, dtype=np.float32)).T


def walsh_indices(rows, dropped_first: bool = False) -> np.ndarray | None:
    """The index k of every row when each +/-1 row is row k of sylvester(r),
    (-1)^popcount(k & j) at column j, else None.  With `dropped_first` the
    rows lack that matrix's first (all +) column.

    Two such rows are orthogonal exactly when their indices differ, and a
    row sums to zero exactly when its index is not 0.  Checked in O(N m)
    with no 2^r x 2^r matrix: bit b of k is x[2^b] < 0, and x must be
    walsh_rows(k), regenerated and compared a scan block of rows at a time;
    at widths up to 2, x[0] = 1 alone makes x a Walsh row.
    """
    rows = np.asarray(rows)
    off = int(dropped_first)  # x[:, j] is rows[:, j - off]
    size = rows.shape[1] + off
    if size & (size - 1) or not size or not (off or (rows[:, 0] == 1).all()):
        return None
    r = size.bit_length() - 1
    powers = 1 << np.arange(r)
    keys = (rows[:, powers - off] < 0) @ powers
    step = _scan_rows(size)
    for start in range(0, len(rows) if r > 1 else 0, step):
        block = rows[start:start + step]
        if not (walsh_rows(keys[start:start + step], r)[:, off:] == block).all():
            return None
    return keys


# Rows 0..63 of sylvester(6) as walsh_rows' bytes: the parity of
# popcount(k & j), folded from its six bits, and the signs' bytes, 0x01 for
# +1 and 0xFF for -1.
_NARROW_BITS = 6
_NARROW_PARITY = np.arange(64, dtype=np.uint8)[:, None] & np.arange(64, dtype=np.uint8)
_NARROW_PARITY ^= _NARROW_PARITY >> 4
_NARROW_PARITY ^= _NARROW_PARITY >> 2
_NARROW_PARITY = (_NARROW_PARITY ^ _NARROW_PARITY >> 1) & 1
_NARROW = {True: _NARROW_PARITY, False: _NARROW_PARITY * np.uint8(0xFE) ^ np.uint8(1)}


def walsh_rows(k, r: int, parity: bool = False) -> np.ndarray:
    """Rows k of sylvester(r), bits of k from r up ignored, as a new +/-1 int8
    array of shape k.shape + (2^r,), or with `parity` as the bool array of
    their signs < 0, popcount(k & j) odd: `walsh_indices`' recurrence run
    forward, x[2^b:2^(b+1)] = x[:2^b] * (-1)^(bit b of k), each level one XOR
    of the bytes (0x01 for +1, 0xFF for -1; 0 and 1 for the parity) with 0xFE
    (1) where bit b is set.  The first 2^min(r, 6) entries of each row are
    copied from one table of sylvester(6), so that no level is narrower than
    64 entries a row, where numpy's per-row overhead would dominate; up to
    r = 6 the rows are that one copy."""
    k = np.asarray(k, dtype=np.int64)
    if r <= _NARROW_BITS:
        return _NARROW[parity][k & 63, :1 << r].view(bool if parity else np.int8)
    x = np.empty(k.shape + (1 << r,), dtype=np.uint8)
    s = min(r, _NARROW_BITS)
    x[..., :1 << s] = _NARROW[parity][k & 63, :1 << s]
    masks = ((k[..., None] >> np.arange(s, r) & 1).astype(np.uint8)
             * np.uint8(1 if parity else 0xFE))
    for b in range(s, r):
        np.bitwise_xor(x[..., :1 << b], masks[..., b - s, None], out=x[..., 1 << b:2 << b])
    return x.view(bool if parity else np.int8)


def upper_pairs(mismatch: np.ndarray) -> np.ndarray:
    """Every (i, j) with i < j where the square bool matrix is set, in
    row-major order: the one pair scan of every orthogonality test."""
    return np.argwhere(np.triu(mismatch, 1))


def is_hadamard(entries) -> ValidityReport:
    """Exact orthogonality check; reports every non-orthogonal row pair
    (i < j, row-major order)."""
    e = np.asarray(entries)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError(f"matrix must be square, got shape {e.shape}")
    if not np.all(np.abs(e) == 1):
        raise ValueError("matrix entries must be +1/-1")
    bad = upper_pairs(gram(e) != 0)
    return ValidityReport(order=e.shape[0], offending_pairs=tuple(map(tuple, bad.tolist())))


def exceeds_cap(r: int, cap: int) -> bool:
    """2^r > cap for r >= 0, without building 2^r; true for every cap below 1."""
    return cap < 1 or r >= cap.bit_length()


def sylvester(r: int, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    """The r-fold Kronecker power of [[+,+],[+,-]]; entry (i,j) = (-1)^(i.j)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if exceeds_cap(r, cap):
        raise SizeCapExceeded(f"sylvester order 2^{r} exceeds cap {cap}")
    return HadamardMatrix(frozen(walsh_rows(np.arange(1 << r), r)), provenance=f"sylvester({r})")


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
    """Q[a,b] = chi(a-b) with chi the quadratic-residue character mod q.

    Q is a circulant: row a is window q-1-a, v[q-1-a:2q-1-a], of the one
    vector v[k] = chi(q-1-k), k < 2q-1, so it is copied from those windows
    (a strided view that stays inside v) with no q x q index array."""
    chi = np.full(q, -1, dtype=np.int8)
    chi[0] = 0
    chi[np.arange(1, q) ** 2 % q] = 1
    v = chi[(q - 1 - np.arange(2 * q - 1)) % q]
    return as_strided(v, (q, q), (1, 1), writeable=False)[::-1].copy()


def paley(q: int, variant: int, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    """Paley construction I (order q+1, q = 3 mod 4) or II (order 2(q+1), q = 1 mod 4).

    Only prime q is supported; prime powers would need GF(q) arithmetic that
    no recipe requires.
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
    # S = [[0, 1], [-1, Q]] (variant 1) or C = [[0, 1], [1, Q]] (variant 2),
    # with zero diagonal since chi(0) = 0
    c = np.empty((q + 1, q + 1), dtype=np.int8)
    c[0, 0] = 0
    c[0, 1:] = 1
    c[1:, 0] = 1 if variant == 2 else -1
    c[1:, 1:] = _jacobsthal(q)
    diagonal = np.arange(q + 1)
    if variant == 1:  # S + I
        c[diagonal, diagonal] = 1
        return HadamardMatrix(frozen(c), provenance=f"paley1({q})")
    # C x [[1, 1], [1, -1]] + I x [[1, -1], [-1, -1]]: the second term fills
    # the zero 2 x 2 diagonal blocks of the first
    entries = np.kron(c, np.array([[1, 1], [1, -1]], dtype=np.int8))
    entries.reshape(q + 1, 2, q + 1, 2)[diagonal, :, diagonal] = [[1, -1], [-1, -1]]
    return HadamardMatrix(frozen(entries), provenance=f"paley2({q})")


def kron_product(a: HadamardMatrix, b: HadamardMatrix, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    if a.order * b.order > cap:
        raise SizeCapExceeded(f"kron order {a.order * b.order} exceeds cap {cap}")
    return HadamardMatrix(
        frozen(np.kron(a.entries, b.entries)),
        provenance=f"kron({a.provenance},{b.provenance})",
    )


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows/columns until the first row and column are all +1.

    Every row except the first then has zero row sum.
    """
    e = h.entries * h.entries[0]  # fix first row
    e *= e[:, :1].copy()  # fix first column
    return HadamardMatrix(frozen(e), provenance=h.provenance)


def is_normalized(h: HadamardMatrix) -> bool:
    return bool(np.all(h.entries[0] == 1) and np.all(h.entries[:, 0] == 1))


@lru_cache(maxsize=None)
def _recipe(m: int) -> Recipe | None:
    """The recipe for order m, a function of m alone, or None when no
    construction reaches m.  Priority: sylvester, paley I (q = m-1), paley II
    (q = m/2-1), then the Kronecker product with the smallest left factor."""
    if m & (m - 1) == 0:
        return ("sylvester", m.bit_length() - 1)
    if m % 4:
        return None
    if _is_prime(m - 1):  # m = 0 mod 4 and no power of 2: q = m-1 >= 11, 3 mod 4
        return ("paley1", m - 1)
    if m % 8 == 4 and _is_prime(m // 2 - 1):  # q = m/2-1 = 1 mod 4
        return ("paley2", m // 2 - 1)
    for a in range(2, m // 2 + 1):
        if m % a == 0 and (left := _recipe(a)) and (right := _recipe(m // a)):
            return ("kron", left, right)
    return None


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
    """Smallest constructible Hadamard order in n..cap, with its recipe."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for m in range(n, cap + 1):
        if (recipe := _recipe(m)) is not None:
            return OrderCatalogEntry(requested=n, achieved=m, recipe=recipe)
    raise SizeCapExceeded(f"no constructible order >= {n} within cap {cap}")


def best_matrix(n: int, cap: int = DEFAULT_SIZE_CAP) -> HadamardMatrix:
    """Normalized Hadamard matrix of order best_order(n)."""
    return normalize(build_hadamard(best_order(n, cap).recipe, cap=cap))


def canonical_indices(blocks, dropped_first: bool = False) -> list[np.ndarray] | None:
    """The index k of every row of each block when every +/-1 row is row k
    of the canonical matrix of order w, `best_matrix(w, cap=w)`, else None.
    w is the row width, plus 1 with `dropped_first`, where the rows lack that
    matrix's first (all +) column.

    Row 0 and column 0 of a normalized Hadamard matrix are all +, so two of
    its rows are orthogonal (inner product -1 without column 0) exactly when
    their indices differ, and a row sums to zero (-1) exactly when its index
    is not 0.  A Sylvester width is read by `walsh_indices`, with no matrix.
    Any other width with a recipe builds the matrix for this call only, and
    only while it is no larger than the float32 Gram of all the rows, and
    finds each row by binary search among its sorted packed rows.
    """
    width = blocks[0].shape[1]
    size = width + dropped_first
    if not size & (size - 1):
        keys = [walsh_indices(b, dropped_first) for b in blocks]
        return None if any(k is None for k in keys) else keys
    rows = sum(len(b) for b in blocks)
    if size * size > 4 * rows * (width + rows) or _recipe(size) is None:
        return None
    table = _packed(best_matrix(size, cap=size).entries[:, int(dropped_first):])
    order = np.argsort(table)
    table = table[order]
    keys = []
    for b in blocks:
        packed = _packed(b)
        at = np.searchsorted(table, packed) % size  # past the end: row 0, which is smaller
        if not (table[at] == packed).all():
            return None
        keys.append(order[at])
    return keys


def _packed(rows: np.ndarray) -> np.ndarray:
    """The bits rows < 0 of each row as one np.void key, packed a scan block of rows at a time."""
    step = _scan_rows(rows.shape[1])
    packed = (np.packbits(rows < 0, axis=1) if len(rows) <= step else np.concatenate(
        [np.packbits(rows[i:i + step] < 0, axis=1) for i in range(0, len(rows), step)]))
    return packed.view(f"V{packed.shape[1]}").reshape(-1)


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

# Each step of the codec handles a block of about this many bytes of text, so
# its temporaries stay in cache and never grow with the matrix.
_BLOCK_BYTES = 1 << 16
# A reader allocates codes for at most this many bytes of rows before it has read them.
_RESERVE_BYTES = 1 << 22


def _block_rows(m: int) -> int:
    """Rows of m letters (and a newline) in one codec block, at least 1."""
    return max(1, _BLOCK_BYTES // (m + 1))


def format_rows(codes, alphabet: str, prefix: str = "", suffix: str = "") -> str:
    """The row codec of every letter format: row i of a 2-d array of codes
    0..len(alphabet)-1 becomes a line whose character j is alphabet[codes[i, j]],
    after `prefix` and followed by `suffix`; any other code raises IndexError."""
    codes = np.asarray(codes)
    codes = codes.view(np.uint8) if codes.dtype.itemsize == 1 else codes.astype(np.uint8)
    top = codes.max(initial=0)
    if top >= len(alphabet):
        raise IndexError(f"code {top} is outside the alphabet {alphabet!r}")
    n, m = codes.shape
    head = np.frombuffer(prefix.encode("ascii"), dtype=np.uint8)
    tail = np.frombuffer(f"\n{suffix}".encode("ascii"), dtype=np.uint8)
    text = np.empty((n, len(head) + m + len(tail)), dtype=np.uint8)
    text[:, :len(head)] = head
    text[:, len(head) + m:] = tail
    table = alphabet.encode("ascii").ljust(256, b"\0")
    step = _block_rows(text.shape[1] - 1)
    for start in range(0, n, step):  # bytes.translate: no intp copy of the codes, as in np.take
        block = codes[start:start + step]
        text[start:start + step, len(head):len(head) + m] = np.frombuffer(
            block.tobytes().translate(table), dtype=np.uint8).reshape(block.shape)
    return str(text.reshape(-1).data, "ascii")


def write_signs(entries: np.ndarray, stream: IO[str]) -> None:
    """Write the rows of a +/-1 integer array as lines of '+'/'-', letter =
    44 - sign, a codec block at a time through one text buffer: no mask or
    text as large as the array is ever held.  Other entries raise ValueError."""
    step = _block_rows(entries.shape[1])
    text = np.full((min(step, len(entries)), entries.shape[1] + 1), ord("\n"), dtype=np.int8)
    for start in range(0, len(entries), step):
        block = entries[start:start + step]
        if block.dtype.kind != "i" or not all_signs(block):
            raise ValueError("sign entries must be +1/-1 integers")
        np.subtract(44, block, out=text[:len(block), :-1])
        stream.write(str(text[:len(block)].reshape(-1).data, "ascii"))


def _translate(table: bytes, out: np.ndarray, raw: bytes, width: int) -> bool:
    """Decode raw, rows of `width` bytes led by len(out[0]) letters, into out
    by a bytes.translate table.  True when every letter was in the alphabet."""
    codes = np.frombuffer(raw.translate(table), dtype=np.int8).reshape(len(out), width)
    out[:] = codes[:, :out.shape[1]]
    return out.min(initial=0) >= 0


def _signs(out: np.ndarray, raw: bytes, width: int) -> bool:
    """`_translate` of '+'/'-' straight to signs, 44 - byte in int8: only '+'
    and '-' give +/-1 (',' gives 0, '*' 2), so True when all_signs holds."""
    letters = np.frombuffer(raw, dtype=np.int8).reshape(len(out), width)[:, :out.shape[1]]
    return all_signs(np.subtract(44, letters, out=out))


@lru_cache(maxsize=None)
def _decoder(alphabet: str):
    """An alphabet's block decoder: `_translate` by its byte -> code table, -1 for other bytes."""
    table = np.full(256, -1, dtype=np.int8)
    table[np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)] = np.arange(len(alphabet))
    return partial(_translate, table.tobytes())


def _decode_into(codes: np.ndarray, lines: list[str], decode) -> int:
    """Decode lines[:len(codes)], each of m letters, into the n x m int8
    codes by the block decoder `decode`, one codec block at a time.  The
    index of the first row holding a letter it refuses, else n."""
    n, m = codes.shape
    step, first = _block_rows(m), n
    for start in range(0, n, step):
        block = codes[start:start + step]
        raw = "".join(lines[start:start + len(block)]).encode("ascii", "replace")
        if not decode(block, raw, m) and first == n:
            first = start + next(i for i in range(len(block))
                                 if not decode(block[i:i + 1], raw[i * m:(i + 1) * m], m))
    return first


def decode_rows(lines: list[str], m: int, alphabet: str) -> tuple[np.ndarray, int]:
    """`format_rows` undone: the writable int8 codes of the lines before the
    first of another length than m, and the index of the first that is not m
    letters of the alphabet (len(lines) if none)."""
    codes = np.empty((_short(lines, m), m), dtype=np.int8)
    return codes, _decode_into(codes, lines, _decoder(alphabet))


def _read(stream: IO[str], size: int) -> str:
    """stream.read(size) in pieces of _BLOCK_BYTES characters, stopped after
    the first piece that holds a newline: a file read allocates what it is
    asked for, however little the file holds.  Only a block of one row takes
    more than one piece, and a newline before its end ends a short row, an
    error, so a header claiming rows longer than the file reads one more
    piece past the first line, not the rest of the file."""
    parts = [stream.read(min(size, _BLOCK_BYTES))]
    size -= len(parts[-1])
    while size > 0 and parts[-1] and "\n" not in parts[-1]:
        parts.append(stream.read(min(size, _BLOCK_BYTES)))
        size -= len(parts[-1])
    return "".join(parts)


def _canonical(text: str, rows: int, m: int) -> bytes | None:
    """The bytes of a canonical block, `rows` lines of m characters each
    ended by a newline (the last line of the stream may lack it), read as
    one string of rows (m + 1) characters or up to the end of the stream;
    None for any other text."""
    if m and len(text) == rows * (m + 1) - 1:  # a short read: the stream has ended
        text += "\n"
    if len(text) != rows * (m + 1):
        return None
    raw = text.encode("ascii", "replace")  # one byte a character
    newlines = np.frombuffer(raw, dtype=np.uint8)[m::m + 1]
    return raw if (newlines == ord("\n")).all() else None


def _lines(text: str, stream: IO[str], rows: int) -> list[str]:
    """The next `rows` lines of the stream, stripped, where `text` is what one
    read of the block returned: a row it cut completed by readline, then one
    readline a line up to `rows` or the end of the stream.  Text past the
    block is read only after a short row, an error, and is dropped."""
    lines = text.split("\n")
    cut = lines.pop()
    if cut and len(lines) < rows:
        lines.append(cut + stream.readline())
    while len(lines) < rows and (line := stream.readline()):
        lines.append(line)
    return [line.strip() for line in lines[:rows]]


def _short(lines: list[str], m: int) -> int:
    """The index of the first line of another length than m, else len(lines)."""
    return next((i for i, line in enumerate(lines) if len(line) != m), len(lines))


def parse_signs(stream: IO[str], n: int, m: int, what: str) -> np.ndarray:
    """The one file-row reader: n >= 1 lines of m '+'/'-' as a read-only
    n x m int8 array of their +/-1 signs.  The first line of the wrong
    length or with another letter raises ValueError("bad <what> row '...'").
    Each block of rows is one read of its rows (m + 1) characters: a
    canonical block is decoded over its bytes; any other, and one with a bad
    letter, line by line, so that the first bad row is named."""
    if n < 1 or m < 0:
        raise ValueError(f"bad {what} shape {n} x {m}")
    step = _block_rows(m)
    codes = np.empty((0, m), dtype=np.int8)
    done = 0
    while done < n:
        # a missing row, named '', ends the block, however large n claims it to be
        want = min(step, n - done)
        text = _read(stream, want * (m + 1))
        raw = _canonical(text, want, m)
        lines = _lines(text, stream, want) if raw is None else None
        short = _short(lines, m) if lines is not None else want
        if done + short > len(codes):
            # room for the rows read, _RESERVE_BYTES at first, then twice as
            # many: a header that claims more or longer rows than the stream
            # holds allocates at most _RESERVE_BYTES or twice what was read
            rows = min(n, max(done + short, 2 * len(codes), _RESERVE_BYTES // max(m, 1)))
            if done:  # grown in place, not copied
                codes.resize((rows, m), refcheck=False)
            else:
                codes = np.empty((rows, m), dtype=np.int8)
        if lines is None and not _signs(codes[done:done + want], raw, m + 1):
            lines = _lines(text, stream, want)
            short = _short(lines, m)
        if lines is not None:
            first = _decode_into(codes[done:done + short], lines, _signs)
            if first < want:
                raise ValueError(f"bad {what} row {lines[first] if first < len(lines) else ''!r}")
        done += want
    return frozen(codes)


def expect_end(stream: IO[str], what: str) -> None:
    """The rest of a file after its last block: blank lines only, else a
    ValueError naming the first other line."""
    for line in stream:
        if line.strip():
            raise ValueError(f"{what} file has content after its last row: {line.strip()!r}")


def write_matrix(h, stream: IO[str]) -> None:
    """Write "order n" and the n sign rows of an array, a HadamardMatrix or a
    matrix with `order` and `rows(k)` (a `Composition`), which are built a
    codec block of rows at a time, never whole."""
    if not hasattr(h, "rows"):
        e = h.entries if isinstance(h, HadamardMatrix) else np.asarray(h)
        stream.write(f"order {e.shape[0]}\n")
        return write_signs(e, stream)
    stream.write(f"order {h.order}\n")
    step = _block_rows(h.order)
    for start in range(0, h.order, step):
        write_signs(h.rows(np.arange(start, min(start + step, h.order))), stream)


def read_matrix(stream: IO[str]) -> HadamardMatrix:
    header = stream.readline().split()
    if len(header) != 2 or header[0] != "order":
        raise ValueError("matrix file must start with 'order m'")
    m = int(header[1])
    entries = parse_signs(stream, m, m, "matrix")
    expect_end(stream, "matrix")
    return HadamardMatrix(entries, provenance="literal")
