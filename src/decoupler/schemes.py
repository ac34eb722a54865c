"""Sign-matrix synthesis and checking for decoupling, selective coupling,
pair coupling and time reversal.

A `Scheme` is its sign blocks: one n x m sign matrix S in the zz framework,
three S_x, S_y, S_z tied by the entry-wise product S_x * S_y = S_z in the
general one.  Each is one gather of construction rows (`_gather`), which
builds only the rows it takes and which `check` reads back by one index
lookup for every block.  A zz scheme S is the triple (1, S, S), so both are
checked and lowered by one path, from `Scheme.blocks`; the embedding is
never built, since 1 * S = S cannot fail.
Beyond the scheme, a certified check of Sylvester rows holds one scan block
(256 KiB) and reads the Schur product and gate count from the row indices;
a zz S at n = 4090 (m = 4092) traces 32 MiB, the peak of its index lookup
in the canonical matrix; every other scan runs a block at a time.  Each
sign column names one conjugating gate, coded 0..3 for I/X/Y/Z; the
phaseless product of two gates is the XOR of their codes.  Qubit indices in
the public API are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import IO, Callable

import numpy as np

from .errors import SizeCapExceeded
from .hadamard import (DEFAULT_SIZE_CAP, _scan_rows, all_signs, best_matrix, canonical_indices,
                       expect_end, frozen, gram, parse_signs, read_only, sylvester, upper_pairs,
                       walsh_rows, write_signs)
from .ghm import compose_sylvester, constructible_lambdas, gh_for_lambda
from .schur import five_rows, partition_sylvester

LABELS = ("x", "y", "z")
GATES = "IXYZ"  # gate code c conjugates with GATES[c]


@dataclass(frozen=True, eq=False)
class Scheme:
    """A zz scheme, blocks (S,), or a general one, blocks (S_x, S_y, S_z):
    read-only n x m int8 arrays of +/-1, all of one shape, with n >= 1.  A
    zz S stands for the triple (1, S, S), which is never built."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(read_only(b, np.int8) for b in self.blocks)
        if len(blocks) not in (1, 3):
            raise ValueError(f"a scheme has 1 (zz) or 3 (general) sign blocks, got {len(blocks)}")
        if any(b.ndim != 2 or not all_signs(b) for b in blocks):
            raise ValueError("sign matrix must be a 2-d array of +1/-1")
        if len({b.shape for b in blocks}) != 1:
            raise ValueError("S_x, S_y, S_z must have identical shape")
        if not blocks[0].shape[0]:
            raise ValueError(f"bad sign-matrix shape 0 x {blocks[0].shape[1]}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def qubits(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def intervals(self) -> int:
        return self.blocks[0].shape[1]


@dataclass(frozen=True)
class TaskSpec:
    """What a scheme is supposed to do.

    kind: decouple | select | select_pair | reverse.
    select carries (l, k) in `qubits` plus Pauli `labels` (general framework);
    select_pair carries (i, j); decouple and reverse carry neither.
    """

    kind: str
    framework: str
    qubits: tuple[int, ...] = ()
    labels: tuple[str, str] | None = None
    remove_local_terms: bool = True

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))  # lists too: hashable, equal
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind not in ("decouple", "select", "select_pair", "reverse"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.framework not in ("zz", "general"):
            raise ValueError(f"unknown framework {self.framework!r}")
        if min(self.qubits, default=0) < 0:
            raise ValueError(f"task qubits {self.qubits} must be >= 0 "
                             "(>= 1 in files and on the command line)")
        if self.kind in ("select", "select_pair"):
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("select tasks need two distinct qubit indices")
        if self.kind == "select" and self.framework == "general":
            if len(self.labels or ()) != 2 or any(l not in LABELS for l in self.labels):
                raise ValueError("general selection needs two Pauli labels x/y/z")
        if self.kind == "select_pair" and self.framework != "general":
            raise ValueError("pair selection only exists in the general framework")
        if self.qubits and self.kind in ("decouple", "reverse"):
            raise ValueError(f"a {self.kind} task takes no qubits, got qubits={self.qubits}")
        if self.labels is not None and (self.kind, self.framework) != ("select", "general"):
            raise ValueError(f"only a general selection takes labels, got labels={self.labels} "
                             f"for a {self.framework} {self.kind} task")

    @property
    def selected(self) -> tuple[tuple[int, str], ...]:
        """The coupling a select task keeps, ((l, gamma), (k, eta)), Z_l Z_k in
        the zz framework; () for every other kind."""
        labels = ("z", "z") if self.framework == "zz" else self.labels
        return tuple(zip(self.qubits, labels)) if self.kind == "select" else ()


@dataclass(frozen=True)
class CheckOutcome:
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SchemeReport:
    qubits: int
    framework: str
    intervals: int
    overhead: float
    gate_count: int
    checks: dict[str, CheckOutcome] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def lines(self) -> list[str]:
        out = [
            f"qubits={self.qubits}",
            f"framework={self.framework}",
            f"intervals={self.intervals}",
            f"overhead={self.overhead:.6g}",
            f"gates={self.gate_count}",
        ]
        for name, c in sorted(self.checks.items()):
            out.append(f"check.{name}={'pass' if c.passed else 'FAIL'}"
                       + (f" ({c.detail})" if c.detail and not c.passed else ""))
        out.append(f"result={'pass' if self.passed else 'FAIL'}")
        return out


# ---------------------------------------------------------------------------
# synthesis: every scheme is rows(idx) for an n x k array idx of row indices
# into one construction, qubit q taking rows idx[q]: its one row (zz, k = 1)
# or its (S_x, S_y, S_z) rows (general, k = 3).  `rows` is the function that
# builds a construction's rows k, and no other row: `HadamardMatrix.row`,
# `walsh_rows` or `Composition.rows`.

def _gather(rows: Callable, idx: np.ndarray, reverse: bool = False) -> Scheme:
    """The scheme rows(idx) of the construction whose rows k are rows(k),
    which builds those n k m entries and no other row.  For reversal,
    without the construction's first column, which must be all + on the
    rows taken."""
    blocks = frozen(rows(idx.T))
    if reverse:
        if not np.all(blocks[..., 0] == 1):
            raise AssertionError("construction must yield an all-+ first column")
        if blocks.shape[-1] < 2:
            raise ValueError(f"reversal scheme for n={len(idx)} would have no interval")
        blocks = blocks[..., 1:]
    return Scheme(tuple(blocks))


def _zz_scheme(n: int, zero_sums: bool, cap: int, reverse: bool = False,
               pair: tuple[int, int] | None = None) -> Scheme:
    """The n qubits take pairwise-orthogonal rows of a normalized Hadamard
    matrix in order: rows 1.. (zero row sums) when zero_sums, rows 0..
    otherwise.  With pair (i, j), qubit j takes qubit i's row instead of one
    of its own.  The matrix is built, or refused, before the n positions."""
    rows = best_matrix(n - (pair is not None) + zero_sums, cap).row
    pos = np.arange(int(zero_sums), n + zero_sums)
    if pair is not None:
        i, j = pair
        pos[j + 1:] -= 1
        pos[j] = pos[i]
    return _gather(rows, pos[:, None], reverse)


def _check_pair(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("need two distinct qubit indices in range")


def _check_task_pair(task: TaskSpec, n: int) -> None:
    """_check_pair for a select or pair task, as read from a file or the
    command line: the refusal names its qubits, in both numberings, and n."""
    if task.kind in ("select", "select_pair"):
        try:
            _check_pair(n, *task.qubits)
        except ValueError as exc:
            shown = ", ".join(str(q + 1) for q in task.qubits)
            raise ValueError(f"{exc}: task qubits {task.qubits} for n={n} "
                             f"({shown} in files and on the command line)") from None


def synth_decouple_zz(n: int, remove_local_terms: bool = True,
                      cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """n orthogonal rows; m = best constructible order holding them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _zz_scheme(n, remove_local_terms, cap)


def synth_select_zz(n: int, i: int, j: int, remove_local_terms: bool = True,
                    cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """All rows orthogonal except rows i and j, which are identical."""
    _check_pair(n, i, j)
    return _zz_scheme(n, remove_local_terms, cap, pair=(i, j))


def synth_reverse_zz(n: int, remove_local_terms: bool = True,
                     cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """Drop the first (all +) column of a decoupling matrix: every row pair
    then has inner product -1, and with zero-sum rows every row sum is -1."""
    return _zz_scheme(n, remove_local_terms, cap, reverse=True)


# general-framework constructions: Sylvester or composed, with their Schur
# triples

@dataclass(frozen=True)
class _Candidate:
    intervals: int
    kind: str              # "sylvester" | "composed"
    r: int
    lam: int = 0

    def describe(self) -> str:
        if self.kind == "sylvester":
            return f"sylvester({self.r})"
        return f"compose(sylvester({self.r}),gh(4,{self.lam}))"

    @property
    def triples(self) -> int:
        """Schur triples of the construction: (2^r - 1)/3 for even r,
        (2^r - 5)/3 for odd r, and 4 lam times that once composed."""
        base = (2 ** self.r - 1) // 3 if self.r % 2 == 0 else (2 ** self.r - 5) // 3
        return base if self.kind == "sylvester" else 4 * self.lam * base


def _candidates(cap: int) -> list[_Candidate]:
    """All constructions under the cap, cheapest first, Sylvester preferred
    on ties."""
    out = []
    r = 2
    while (1 << r) <= cap:
        out.append(_Candidate(1 << r, "sylvester", r))
        r += 1
    for lam in constructible_lambdas(cap):
        r0 = 2
        while 4 * lam * (1 << r0) <= cap:
            out.append(_Candidate(4 * lam * (1 << r0), "composed", r0, lam))
            r0 += 1
    out.sort(key=lambda c: (c.intervals, c.kind != "sylvester", c.r, c.lam))
    return out


def _construction_rows(cand: _Candidate, cap: int):
    """(rows, T x 3 index triples, five-row indices or None) for a
    candidate, with none of its rows built: Sylvester rows k are
    walsh_rows(k, r), composed rows k the composition's `rows` kernel."""
    if cand.kind == "sylvester":
        five = five_rows(cand.r).indices if cand.r >= 3 else None
        rows = partial(walsh_rows, r=cand.r)
        triples = partition_sylvester(cand.r).triples
    else:
        comp = compose_sylvester(cand.r, gh_for_lambda(cand.lam), cap=cap)
        rows, triples, five = comp.rows, comp.triples, comp.f_rows
    return rows, np.array(triples, dtype=np.intp), five


def _schur_rows(need: int, cap: int, five: bool = False):
    """(rows, the first `need` triples, five) of the cheapest construction
    holding `need` Schur triples.  With `five`, the construction must carry
    the five-row feature (base r >= 3) and only the triples clear of those
    rows count."""
    for cand in _candidates(cap):
        if cand.triples < need or (five and cand.r < 3):
            continue
        rows, triples, f = _construction_rows(cand, cap)
        if five:
            triples = triples[~np.isin(triples, f).any(axis=1)]
            if len(triples) < need:
                continue
        return rows, triples[:need], f
    if five:  # selection needs n - 2 free triples
        raise SizeCapExceeded(f"no construction with enough free Schur triples "
                              f"for n={need + 2} under cap {cap}")
    raise SizeCapExceeded(f"no construction with {need} Schur triples under cap {cap}")


def _decoupling(n: int, cap: int) -> tuple[Callable, np.ndarray]:
    """(rows, idx) of the decoupling scheme: one Schur triple per qubit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _schur_rows(n, cap)[:2]


def synth_decouple_general(n: int, cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """One Schur triple of Hadamard rows per qubit; every pair of distinct
    rows orthogonal, S_x*S_y=S_z by the triple structure, zero row sums."""
    return _gather(*_decoupling(n, cap))


def _third_label(a: str, b: str) -> str:
    return next(l for l in LABELS if l not in (a, b))


def synth_select_general(n: int, l: int, k: int, gamma: str, eta: str,
                         cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """Decoupling scheme modified so row l of S_gamma equals row k of S_eta.

    Uses the five-row feature f1*f2 = f3*f4 = f5: with labels in the order
    (gamma, aux, nu), qubit l takes (f5, f1, f2), qubit k takes (f3, f5, f4),
    and any Schur triple containing one of the five rows is excluded from
    the remaining qubits.  A same-label selection (eta = gamma, aux another
    label) swaps qubit k's first two rows to (f5, f3, f4).
    """
    _check_pair(n, l, k)
    if gamma not in LABELS or eta not in LABELS:
        raise ValueError("labels must be x, y or z")
    aux = eta if eta != gamma else ("x" if gamma != "x" else "y")
    order = [LABELS.index(x) for x in (gamma, aux, _third_label(gamma, aux))]
    rows, free, (f1, f2, f3, f4, f5) = _schur_rows(n - 2, cap, five=True)
    idx = np.empty((n, 3), dtype=np.intp)
    idx[[q for q in range(n) if q not in (l, k)]] = free
    idx[l, order] = f5, f1, f2
    idx[k, order] = (f3, f5, f4) if eta != gamma else (f5, f3, f4)
    return _gather(rows, idx)


def synth_select_pair(n: int, i: int, j: int, cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """Keep every coupling between qubits i and j: they take row 0 (all +)
    of the construction in S_x, S_y, S_z and the other n-2 qubits are
    decoupled as usual (n = 2 leaves the one interval of sylvester(0))."""
    _check_pair(n, i, j)
    if n == 2:
        rows, free = sylvester(0).row, np.empty((0, 3), dtype=np.intp)
    else:
        rows, free = _decoupling(n - 2, cap)
    idx = np.zeros((n, 3), dtype=np.intp)
    idx[[q for q in range(n) if q not in (i, j)]] = free
    return _gather(rows, idx)


def synth_reverse_general(n: int, cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """Drop the first column of a general decoupling scheme; the construction
    guarantees that column is all +."""
    return _gather(*_decoupling(n, cap), reverse=True)


def synth(task: TaskSpec, n: int, cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """Dispatch a TaskSpec to the matching synthesizer."""
    _check_task_pair(task, n)
    if task.framework == "zz":
        if task.kind == "decouple":
            return synth_decouple_zz(n, task.remove_local_terms, cap)
        if task.kind == "select":
            return synth_select_zz(n, *task.qubits, task.remove_local_terms, cap)
        if task.kind == "reverse":
            return synth_reverse_zz(n, task.remove_local_terms, cap)
        raise ValueError(f"task {task.kind} unsupported in zz framework")
    if task.kind == "decouple":
        return synth_decouple_general(n, cap)
    if task.kind == "select":
        return synth_select_general(n, *task.qubits, *task.labels, cap)
    if task.kind == "select_pair":
        return synth_select_pair(n, *task.qubits, cap)
    if task.kind == "reverse":
        return synth_reverse_general(n, cap)
    raise ValueError(f"task {task.kind} unsupported in general framework")


# ---------------------------------------------------------------------------
# criteria checking

def _row_blocks(blocks) -> list[tuple[int, list[np.ndarray]]]:
    """(start, the rows start.. of each block) for each scan block of rows."""
    step = _scan_rows(blocks[0].shape[1])
    return [(0, blocks)] if len(blocks[0]) <= step else [
        (i, [b[i:i + step] for b in blocks]) for i in range(0, len(blocks[0]), step)]


def _schur_cells(blocks) -> np.ndarray | tuple:
    """Every (row, column) where S_x * S_y != S_z, in row-major order, found a
    scan block of rows at a time; an empty tuple when there is none, so a
    valid scheme skips argwhere, the slow part of the scan.  A zz block is
    (1, S, S), which has none."""
    if len(blocks) == 1:
        return ()
    cells = []
    for start, (sx, sy, sz) in _row_blocks(blocks):
        bad = sx * sy != sz
        if bad.any():
            cells.append(np.argwhere(bad) + (start, 0))
    return np.concatenate(cells) if cells else ()


def gate_codes(scheme: Scheme, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The conjugating gates of intervals start..stop-1 (all by default) as
    n x (stop - start) codes 0..3 for I/X/Y/Z: sign column
    (+,+,+)/(+,-,-)/(-,+,-)/(-,-,+) maps to I/X/Y/Z.  The phaseless product
    of two gates is the XOR of their codes.  The first of those columns, by
    interval and then qubit, that no gate realizes raises ValueError."""
    blocks = scheme.blocks
    if start or stop is not None and stop < scheme.intervals:
        blocks = [b[:, start:stop] for b in blocks]
    bad = _schur_cells(blocks)
    if len(bad):
        q, a = (int(v) for v in bad[np.lexsort(bad.T)[0]])  # first by interval, then qubit
        signs = tuple(int(b[q, a]) for b in blocks)
        raise ValueError(f"sign column {signs} at qubit {q}, interval {start + a} "
                         "is not realizable (corrupted input)")
    return _codes(blocks)


def _codes(blocks) -> np.ndarray:  # where S_x * S_y = S_z
    # a sign's byte is 0x01 for +1 and 0xFF for -1: its bit 1 and bit 7 are set for -1
    if len(blocks) == 1:  # a zz S is S_y of (1, S, S): its '-' entries are X
        return blocks[0].view(np.uint8) >> 7
    sx, sy, _ = blocks
    codes = sx.view(np.uint8) & 2
    codes |= sy.view(np.uint8) >> 7
    return codes


def merged_gate_count(blocks) -> int:
    """The gates of the merged schedule of the blocks' gate codes, counted
    without it a scan block of rows at a time: the gates of the first and
    last column, and every change along a row."""
    count = 0
    for _, part in _row_blocks(blocks):
        codes = _codes(part)
        count += (np.count_nonzero(codes[:, :1]) + np.count_nonzero(codes[:, -1:])
                  + np.count_nonzero(codes[:, 1:] != codes[:, :-1]))
    return count


def _walsh_gate_count(keys: list[np.ndarray], size: int) -> int:
    """`merged_gate_count` of rows k of sylvester(r), 2^r = size, from their
    indices (k_x, k_y, k_z), or (k,) for zz's (0, k, k).  Codes change from
    column j - 1 to j iff popcount(k & (2^(b+1) - 1)) is odd for k_x or k_y,
    b the trailing zeros of j, which 2^(r-1-b) columns j >= 1 have; the last
    column adds 1 at b = r - 1, column 0 holds no gate, and without it (reverse)
    column 1 counts as first instead of as a change, the same."""
    r = size.bit_length() - 1
    bits = np.array(keys[:2])[..., None] >> np.arange(r) & 1
    odd = (np.cumsum(bits, axis=-1) & 1).any(axis=0)  # the parity of bits 0..b, k_x or k_y
    weights = 1 << np.arange(r - 1, -1, -1)
    weights[-1:] += 1
    return int(odd.sum(axis=0) @ weights)


# The fallback Gram's blocks: a strip's float32 rows take at most this many
# bytes, and a strip at most 1024 rows (a 4 MiB Gram block).
_GRAM_BYTES = 1 << 22


def _gram_blocks(blocks: tuple[np.ndarray, ...]):
    """(i, j, g) for each block on or above the diagonal of the Gram of the
    stacked rows (row L q + l is row q of the l-th of L blocks): g is the
    exact Gram of the strip of rows from i with the strip from j >= i."""
    n, m = blocks[0].shape
    step = max(1, min(1024, _GRAM_BYTES // max(4 * m, 1)) // len(blocks))  # qubits a strip

    def rows(q: int) -> np.ndarray:  # the float32 rows of qubits q..q+step-1
        part = np.stack([b[q:q + step] for b in blocks], axis=1)
        return part.reshape(len(part) * len(blocks), m).astype(np.float32)

    for q in range(0, n, step):
        strip = rows(q)
        for p in range(q, n, step):
            yield len(blocks) * q, len(blocks) * p, gram(strip, strip if p == q else rows(p))


def check_scheme(scheme: Scheme, task: TaskSpec) -> SchemeReport:
    """Evaluate every applicable criterion with exact integer arithmetic.

    The criteria act on the rows that matter: S for zz (the S_z rows of the
    embedding (1, S, S)), S_x/S_y/S_z stacked at index 3q + label for
    general.  When every row is a row of the canonical Hadamard matrix of
    its order (`canonical_indices`: Sylvester rows read in O(N m), Paley and
    Kronecker rows looked up in the matrix they came from), each criterion
    is a statement about row indices: a pass is certified from them.  Walsh
    rows k and k' multiply to row k ^ k', so a Sylvester triple's Schur
    product and every Sylvester scheme's gate count are read from them too.
    Otherwise, or when any criterion fails, each task compares the
    off-diagonal Gram with one scalar, 0, or -1 for reverse, after writing
    its one exception into the Gram, and names every offender; the Gram is
    computed and scanned a strip of rows at a time.
    """
    checks: dict[str, CheckOutcome] = {}
    n = scheme.qubits
    m = scheme.intervals
    _check_task_pair(task, n)
    blocks = scheme.blocks
    zz = len(blocks) == 1
    if task.framework != ("zz" if zz else "general"):
        raise ValueError("single sign matrix is a zz-framework scheme" if zz
                         else "a sign triple is a general-framework scheme")

    reverse = task.kind == "reverse"
    size = m + reverse  # the order of the canonical matrix the rows may come from
    keys = canonical_indices(blocks, reverse)
    walsh = keys is not None and not size & (size - 1)  # rows k, k' multiply to row k ^ k'
    xor = walsh and (zz or np.array_equal(keys[0] ^ keys[1], keys[2]))
    bad_cells = () if xor else _schur_cells(blocks)
    if not zz:
        checks["schur_product"] = _outcome(bad_cells, "cells violating S_x*S_y=S_z")
    labels = LABELS[-len(blocks):]  # a zz S is the S_z of (1, S, S)

    def row(label: str, qubit: int) -> int:
        return len(labels) * qubit + labels.index(label)

    local = task.remove_local_terms and task.kind != "select_pair"
    twins, pair = (), []  # the rows each task exempts
    if task.kind == "select":
        (l, gamma), (k, eta) = task.selected
        twins = row(gamma, l), row(eta, k)
    elif task.kind == "select_pair":
        i, j = task.qubits
        pair = [row(lb, q) for q in (i, j) for lb in labels]
    if not len(bad_cells) and keys is not None and _certify(keys, local, twins, pair):
        bad = bad_sums = ()
        same = all_plus = True
    else:
        target = -1 if reverse else 0
        found = []
        for i0, j0, g in _gram_blocks(blocks):
            lo, hi = (min(twins) - i0, max(twins) - j0) if twins else (-1, -1)
            if 0 <= lo < len(g) and 0 <= hi < g.shape[1]:
                same = bool(g[lo, hi] == m)  # +/-1 rows are identical iff their inner product is m
                g[lo, hi] -= m  # an even integer within 2^25: exact in float32
            if mine := [p - i0 for p in pair if 0 <= p - i0 < len(g)]:
                # the pair's couplings are kept, not checked
                g[np.ix_(mine, [p - j0 for p in pair if 0 <= p - j0 < g.shape[1]])] = target
            found.append((upper_pairs(g != target) if i0 == j0 else np.argwhere(g != target))
                         + (i0, j0))
        bad = np.concatenate(found)
        if len(found) > 1:  # by row, stably: the blocks of a row come in column order
            bad = bad[np.argsort(bad[:, 0], kind="stable")]
        if pair:
            all_plus = all(np.all(s[[i, j]] == 1) for s in blocks)
        sums = np.stack([s.sum(axis=1) for s in blocks], axis=1).reshape(-1)
        bad_sums = np.nonzero(sums != target)[0] if local else ()
    if task.kind == "select":
        checks["designated_pair"] = CheckOutcome(
            same, f"rows {l} and {k} must be identical" if zz
            else f"S_{gamma} row {l} must equal S_{eta} row {k}")
    elif task.kind == "select_pair":
        checks["pair_rows_all_plus"] = CheckOutcome(
            all_plus, f"rows of qubits {i},{j} must be all +")
    if reverse:
        checks["inner_products"] = _outcome(bad, "row pairs with inner product != -1")
    else:
        checks["orthogonality"] = _outcome(bad)
    if local:
        if reverse:
            checks["row_sums"] = _outcome(bad_sums, "rows with sum != -1")
        else:
            checks["zero_row_sums"] = _outcome(bad_sums, "rows with nonzero sum")

    # a triple violating the Schur constraint has no gate realization
    gates = (0 if len(bad_cells) else _walsh_gate_count(keys, size) if walsh
             else merged_gate_count(blocks))
    return SchemeReport(
        qubits=n,
        framework=task.framework,
        intervals=m,
        overhead=m / (len(labels) * n),
        gate_count=int(gates),
        checks=checks,
    )


def _certify(keys: list[np.ndarray], local: bool, twins: tuple, plus: list) -> bool:
    """True when the indices of the rows of each block, `canonical_indices`
    in the canonical Hadamard matrix of order M (the width, +1 for reverse),
    S_z's as any other, pass every criterion.  Gram entry (i, j) is
    M [k_i = k_j] - c and row sum M [k_i = 0] - c, for c = 1 when the first
    column is dropped (reverse), else 0.  So the indices must be distinct,
    and nonzero when local terms are removed, once the exempt rows are set
    aside: the `twins` (a, b) must share an index, the `plus` rows must have
    index 0 (all +)."""
    idx = np.stack(keys, axis=1).reshape(-1)
    keep = np.ones(len(idx), dtype=bool)
    keep[[*twins[:1], *plus[1:]] or slice(0)] = False
    rest = np.sort(idx[keep])  # not np.unique: its first call costs 15 ms and 1.6 MB
    return ((not twins or idx[twins[0]] == idx[twins[1]]) and not (plus and idx[plus].any())
            and not (rest[1:] == rest[:-1]).any() and not (local and (rest == 0).any()))


def _outcome(bad: np.ndarray, what: str = "non-orthogonal row pairs") -> CheckOutcome:
    """Offending row pairs, cells or rows; text shows the first eight."""
    if not len(bad):
        return CheckOutcome(True)
    shown = ", ".join(str(tuple(b) if isinstance(b, list) else b) for b in bad[:8].tolist())
    more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
    return CheckOutcome(False, f"{what}: {shown}{more}")


# ---------------------------------------------------------------------------
# scheme file format

# The task text "<head>[:<arguments>]": each kind's head and its number of
# comma-separated arguments in the zz and in the general framework.  The
# arguments are the 1-based qubits, then a general selection's two labels.
_TASK_TEXT = {"decouple": ("decouple", 0, 0), "select": ("select", 2, 4),
              "select_pair": ("pair", 2, 2), "reverse": ("reverse", 0, 0)}
_TASK_KIND = {head: kind for kind, (head, *_) in _TASK_TEXT.items()}


def _format_task(task: TaskSpec) -> str:
    args = [str(q + 1) for q in task.qubits] + list(task.labels or ())
    head = _TASK_TEXT[task.kind][0]
    return f"{head}:{','.join(args)}" if args else head


def parse_task(body: str, framework: str, remove_local_terms: bool) -> TaskSpec:
    """Parse the task=... field; qubit indices in files are 1-based."""
    head, colon, rest = body.partition(":")
    kind = _TASK_KIND.get(head)
    args = rest.split(",") if colon else []
    if kind is None or len(args) != _TASK_TEXT[kind][2 if framework == "general" else 1]:
        raise ValueError(f"cannot parse task {body!r}")
    return TaskSpec(kind, framework, tuple(int(q) - 1 for q in args[:2]),
                    tuple(args[2:]) or None, remove_local_terms)


def _write_block(entries: np.ndarray, stream: IO[str]) -> None:
    n, m = entries.shape
    stream.write(f"rows {n} {m}\n")
    write_signs(entries, stream)


def _read_block(stream: IO[str]) -> np.ndarray:
    header = stream.readline().split()
    if len(header) != 3 or header[0] != "rows":
        raise ValueError("sign-matrix block must start with 'rows n m'")
    n, m = int(header[1]), int(header[2])
    return parse_signs(stream, n, m, "sign-matrix")


def write_scheme(scheme: Scheme, task: TaskSpec, stream: IO[str]) -> None:
    header = (f"scheme {task.framework} n={scheme.qubits} m={scheme.intervals} "
              f"task={_format_task(task)} local={int(task.remove_local_terms)}\n")
    stream.write(header)
    for block in scheme.blocks:
        _write_block(block, stream)


def header_fields(parts: list[str], required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> dict[str, str]:
    """Parse `key=value` header words; a word without a key or a value, a key
    outside required + optional, a repeated key or a missing required key is
    a ValueError naming it."""
    allowed = required + optional
    fields: dict[str, str] = {}
    for part in parts:
        key, _, value = part.partition("=")
        if not key or not value:
            raise ValueError(f"header word {part!r} is not key=value")
        if key not in allowed:
            raise ValueError(f"header field {key}= is not one of "
                             f"{', '.join(f'{k}=' for k in allowed)}")
        if key in fields:
            raise ValueError(f"header repeats field {key}=")
        fields[key] = value
    missing = [key for key in required if key not in fields]
    if missing:
        raise ValueError(f"header lacks field(s) {', '.join(f'{k}=' for k in missing)}")
    return fields


def read_scheme(stream: IO[str]) -> tuple[Scheme, TaskSpec]:
    header = stream.readline().split()
    if len(header) < 2 or header[0] != "scheme":
        raise ValueError("scheme file must start with 'scheme <framework> ...'")
    framework = header[1]
    fields = header_fields(header[2:], ("n", "m", "task"), ("local",))
    local = fields.get("local", "1")
    if local not in ("0", "1"):
        raise ValueError(f"header field local={local} must be 0 or 1")
    task = parse_task(fields["task"], framework, local == "1")
    blocks = tuple(_read_block(stream) for _ in range(1 if framework == "zz" else 3))
    expect_end(stream, "scheme")
    scheme = Scheme(blocks)
    if scheme.qubits != int(fields["n"]) or scheme.intervals != int(fields["m"]):
        raise ValueError("scheme header does not match matrix block shape")
    # a scheme with no interval runs for no time and so realizes no task
    if scheme.intervals < 1:
        raise ValueError("scheme has no interval")
    _check_task_pair(task, scheme.qubits)
    return scheme, task
