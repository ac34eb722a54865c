"""Sign-matrix synthesis and checking for decoupling, selective coupling,
pair coupling and time reversal.

A zz-framework scheme is one n x m sign matrix; a general-framework scheme is
three sign matrices S_x, S_y, S_z tied by the entry-wise product
S_x * S_y = S_z.  A zz scheme S is the triple (1, S, S), so both are checked
and lowered by one path.  Each sign column names one conjugating gate, coded
0..3 for I/X/Y/Z; the phaseless product of two gates is the XOR of their
codes.  Qubit indices in the public API are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import SizeCapExceeded
from .hadamard import DEFAULT_SIZE_CAP, best_matrix, format_rows, gram, parse_rows
from .ghm import compose_sylvester, constructible_lambdas, gh_for_lambda
from .schur import five_rows, partition_sylvester, sylvester

LABELS = ("x", "y", "z")
GATES = "IXYZ"  # gate code c conjugates with GATES[c]


@dataclass(frozen=True)
class SignMatrix:
    entries: np.ndarray  # n x m, +/-1

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.int8)
        if e.ndim != 2 or not np.all(np.abs(e) == 1):
            raise ValueError("sign matrix must be a 2-d array of +1/-1")
        object.__setattr__(self, "entries", e)

    @property
    def qubits(self) -> int:
        return self.entries.shape[0]

    @property
    def intervals(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SignTriple:
    sx: SignMatrix
    sy: SignMatrix
    sz: SignMatrix

    def __post_init__(self):
        shapes = {self.sx.entries.shape, self.sy.entries.shape, self.sz.entries.shape}
        if len(shapes) != 1:
            raise ValueError("S_x, S_y, S_z must have identical shape")

    def schur_consistent(self) -> bool:
        """True when S_x * S_y = S_z entry-wise (checked, not assumed, so a
        corrupted scheme can still be loaded and reported on)."""
        return bool(np.all(self.sx.entries * self.sy.entries == self.sz.entries))

    @property
    def qubits(self) -> int:
        return self.sx.qubits

    @property
    def intervals(self) -> int:
        return self.sx.intervals

    def matrix(self, label: str) -> SignMatrix:
        return {"x": self.sx, "y": self.sy, "z": self.sz}[label]


Scheme = SignMatrix | SignTriple


@dataclass(frozen=True)
class TaskSpec:
    """What a scheme is supposed to do.

    kind: decouple | select | select_pair | reverse.
    select carries (l, k) in `qubits` plus Pauli `labels` (general framework);
    select_pair carries (i, j).
    """

    kind: str
    framework: str
    qubits: tuple[int, ...] = ()
    labels: tuple[str, str] | None = None
    remove_local_terms: bool = True

    def __post_init__(self):
        if self.kind not in ("decouple", "select", "select_pair", "reverse"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.framework not in ("zz", "general"):
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.kind in ("select", "select_pair"):
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("select tasks need two distinct qubit indices")
        if self.kind == "select" and self.framework == "general":
            if self.labels is None or any(l not in LABELS for l in self.labels):
                raise ValueError("general selection needs two Pauli labels x/y/z")
        if self.kind == "select_pair" and self.framework != "general":
            raise ValueError("pair selection only exists in the general framework")


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
# zz-framework synthesis

def _zz_rows(count: int, zero_sums: bool, cap: int) -> np.ndarray:
    """`count` pairwise-orthogonal rows of a normalized Hadamard matrix;
    rows 2.. (zero row sums) when zero_sums, rows 1.. otherwise."""
    want = count + 1 if zero_sums else count
    h = best_matrix(want, cap)
    start = 1 if zero_sums else 0
    return h.entries[start:start + count]


def _check_pair(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("need two distinct qubit indices in range")


def synth_decouple_zz(n: int, remove_local_terms: bool = True,
                      cap: int = DEFAULT_SIZE_CAP) -> SignMatrix:
    """n orthogonal rows; m = best constructible order holding them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SignMatrix(_zz_rows(n, remove_local_terms, cap))


def synth_select_zz(n: int, i: int, j: int, remove_local_terms: bool = True,
                    cap: int = DEFAULT_SIZE_CAP) -> SignMatrix:
    """All rows orthogonal except rows i and j, which are identical."""
    _check_pair(n, i, j)
    rows = _zz_rows(n - 1, remove_local_terms, cap)
    pos = np.arange(n) - (np.arange(n) > j)  # every qubit but j, in order
    pos[j] = pos[i]
    return SignMatrix(rows[pos])


def synth_reverse_zz(n: int, remove_local_terms: bool = True,
                     cap: int = DEFAULT_SIZE_CAP) -> SignMatrix:
    """Drop the first (all +) column of a decoupling matrix: every row pair
    then has inner product -1, and with zero-sum rows every row sum is -1."""
    rows = _zz_rows(n, remove_local_terms, cap)
    if rows.shape[1] < 2:
        raise ValueError(f"reversal scheme for n={n} would have no interval")
    return SignMatrix(rows[:, 1:])


# ---------------------------------------------------------------------------
# general-framework synthesis: every scheme is rows[idx] for an n x 3 array
# idx of row indices into one construction, qubit q taking rows idx[q] as
# its (S_x, S_y, S_z) rows

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
    """(rows, T x 3 index triples, five-row indices or None) for a candidate."""
    if cand.kind == "sylvester":
        five = five_rows(cand.r).indices if cand.r >= 3 else None
        rows, triples = sylvester(cand.r, cap).entries, partition_sylvester(cand.r).triples
    else:
        comp = compose_sylvester(cand.r, gh_for_lambda(cand.lam), cap=cap)
        rows, triples, five = comp.hprime.entries, comp.triples, comp.f_rows
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


def _triple(signs: np.ndarray) -> SignTriple:
    """The scheme whose S_x, S_y, S_z are the three n x m blocks of signs."""
    return SignTriple(*map(SignMatrix, signs))


def _decoupling(n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, idx) of the decoupling scheme: one Schur triple per qubit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _schur_rows(n, cap)[:2]


def synth_decouple_general(n: int, cap: int = DEFAULT_SIZE_CAP) -> SignTriple:
    """One Schur triple of Hadamard rows per qubit; every pair of distinct
    rows orthogonal, S_x*S_y=S_z by the triple structure, zero row sums."""
    rows, idx = _decoupling(n, cap)
    return _triple(rows[idx.T])


def _third_label(a: str, b: str) -> str:
    return next(l for l in LABELS if l not in (a, b))


def synth_select_general(n: int, l: int, k: int, gamma: str, eta: str,
                         cap: int = DEFAULT_SIZE_CAP) -> SignTriple:
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
    return _triple(rows[idx.T])


def synth_select_pair(n: int, i: int, j: int, cap: int = DEFAULT_SIZE_CAP) -> SignTriple:
    """Keep every coupling between qubits i and j: their rows are all +1 in
    S_x, S_y, S_z and the other n-2 qubits are decoupled as usual (n = 2
    leaves one all-+ interval)."""
    _check_pair(n, i, j)
    if n == 2:
        signs = np.ones((3, 0, 1), dtype=np.int8)
    else:
        rows, idx = _decoupling(n - 2, cap)
        signs = rows[idx.T]
    out = np.ones((3, n, signs.shape[2]), dtype=np.int8)
    out[:, [q for q in range(n) if q not in (i, j)]] = signs
    return _triple(out)


def synth_reverse_general(n: int, cap: int = DEFAULT_SIZE_CAP) -> SignTriple:
    """Drop the first column of a general decoupling scheme; the construction
    guarantees that column is all +."""
    rows, idx = _decoupling(n, cap)
    if not np.all(rows[idx, 0] == 1):
        raise AssertionError("construction must yield an all-+ first column")
    return _triple(rows[:, 1:][idx.T])


def synth(task: TaskSpec, n: int, cap: int = DEFAULT_SIZE_CAP) -> Scheme:
    """Dispatch a TaskSpec to the matching synthesizer."""
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

def sign_columns(scheme: Scheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x, S_y, S_z) of a scheme.  A zz scheme S embeds as (1, S, S): a '-'
    entry is X conjugation, whose sign column is (+,-,-)."""
    if isinstance(scheme, SignMatrix):
        return np.ones_like(scheme.entries), scheme.entries, scheme.entries
    return scheme.sx.entries, scheme.sy.entries, scheme.sz.entries


def gate_codes(scheme: Scheme) -> np.ndarray:
    """n x m conjugating gates as codes 0..3 for I/X/Y/Z: sign column
    (+,+,+)/(+,-,-)/(-,+,-)/(-,-,+) maps to I/X/Y/Z.  The phaseless product
    of two gates is the XOR of their codes."""
    sx, sy, sz = sign_columns(scheme)
    bad = np.argwhere((sx * sy != sz).T)
    if len(bad):
        a, q = (int(v) for v in bad[0])
        signs = (int(sx[q, a]), int(sy[q, a]), int(sz[q, a]))
        raise ValueError(f"sign column {signs} at qubit {q}, interval {a} "
                         "is not realizable (corrupted input)")
    return (sy < 0).astype(np.uint8) | ((sx < 0).astype(np.uint8) << 1)


def merged_codes(codes: np.ndarray) -> np.ndarray:
    """The m+1 layers of the merged schedule: codes[:, 0] before the first
    interval, codes[:, a-1] ^ codes[:, a] between intervals a-1 and a, and
    codes[:, -1] after the last."""
    padded = np.pad(codes, ((0, 0), (1, 1)))
    return padded[:, :-1] ^ padded[:, 1:]


def check_scheme(scheme: Scheme, task: TaskSpec) -> SchemeReport:
    """Evaluate every applicable criterion with exact integer arithmetic.

    The criteria act on the rows that matter: S for zz (the S_z rows of the
    embedding (1, S, S)), S_x/S_y/S_z stacked at index 3q + label for
    general.  Each task is a target Gram matrix plus a mask of skipped pairs.
    """
    checks: dict[str, CheckOutcome] = {}
    n = scheme.qubits
    m = scheme.intervals
    if task.kind in ("select", "select_pair") and max(task.qubits) >= n:
        raise ValueError("task qubit index out of range for scheme")
    zz = isinstance(scheme, SignMatrix)
    if task.framework != ("zz" if zz else "general"):
        raise ValueError("single sign matrix is a zz-framework scheme" if zz
                         else "a sign triple is a general-framework scheme")

    sx, sy, sz = sign_columns(scheme)
    bad_cells = np.argwhere(sx * sy != sz)
    if not zz:
        checks["schur_product"] = _outcome(bad_cells, "cells violating S_x*S_y=S_z")
    labels = ("z",) if zz else LABELS
    mats = dict(zip(LABELS, (sx, sy, sz)))
    rows = np.stack([mats[l] for l in labels], axis=1).reshape(len(labels) * n, m)

    def row(label: str, qubit: int) -> int:
        return len(labels) * qubit + labels.index(label)

    total = len(rows)
    skip = np.tri(total, dtype=bool)  # each unordered pair once, diagonal never
    reverse = task.kind == "reverse"
    target = np.full((total, total), -1 if reverse else 0, dtype=np.int64)
    if task.kind == "select":
        l, k = task.qubits
        g, e = ("z", "z") if zz else task.labels
        a, b = row(g, l), row(e, k)
        target[a, b] = target[b, a] = m
        detail = (f"rows {l} and {k} must be identical" if zz
                  else f"S_{g} row {l} must equal S_{e} row {k}")
        checks["designated_pair"] = CheckOutcome(
            bool(np.array_equal(rows[a], rows[b])), detail)
    elif task.kind == "select_pair":
        i, j = task.qubits
        pair = [row(lb, q) for q in (i, j) for lb in labels]
        skip[np.ix_(pair, pair)] = True
        checks["pair_rows_all_plus"] = CheckOutcome(
            bool(np.all(rows[pair] == 1)), f"rows of qubits {i},{j} must be all +")
    bad = np.argwhere((gram(rows) != target) & ~skip)
    if reverse:
        checks["inner_products"] = _outcome(bad, "row pairs with inner product != -1")
    else:
        checks["orthogonality"] = _outcome(bad)
    if task.remove_local_terms and task.kind != "select_pair":
        bad_sums = np.nonzero(rows.sum(axis=1) != (-1 if reverse else 0))[0]
        if reverse:
            checks["row_sums"] = _outcome(bad_sums, "rows with sum != -1")
        else:
            checks["zero_row_sums"] = _outcome(bad_sums, "rows with nonzero sum")

    # a triple violating the Schur constraint has no gate realization
    gates = 0 if len(bad_cells) else np.count_nonzero(merged_codes(gate_codes(scheme)))
    return SchemeReport(
        qubits=n,
        framework=task.framework,
        intervals=m,
        overhead=m / total,
        gate_count=int(gates),
        checks=checks,
    )


def _outcome(bad: np.ndarray, what: str = "non-orthogonal row pairs") -> CheckOutcome:
    """Offending row pairs, cells or rows; text shows the first eight."""
    if not len(bad):
        return CheckOutcome(True)
    shown = ", ".join(str(tuple(b) if isinstance(b, list) else b) for b in bad[:8].tolist())
    more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
    return CheckOutcome(False, f"{what}: {shown}{more}")


# ---------------------------------------------------------------------------
# scheme file format

def _format_task(task: TaskSpec) -> str:
    if task.kind == "decouple":
        body = "decouple"
    elif task.kind == "reverse":
        body = "reverse"
    elif task.kind == "select" and task.framework == "zz":
        i, j = task.qubits
        body = f"select:{i + 1},{j + 1}"
    elif task.kind == "select":
        l, k = task.qubits
        g, e = task.labels
        body = f"select:{l + 1},{k + 1},{g},{e}"
    else:
        i, j = task.qubits
        body = f"pair:{i + 1},{j + 1}"
    return body


def parse_task(body: str, framework: str, remove_local_terms: bool) -> TaskSpec:
    """Parse the task=... field; qubit indices in files are 1-based."""
    if body == "decouple" or body == "reverse":
        return TaskSpec(body, framework, remove_local_terms=remove_local_terms)
    head, _, rest = body.partition(":")
    parts = rest.split(",") if rest else []
    if head == "select" and framework == "zz" and len(parts) == 2:
        return TaskSpec("select", framework, qubits=(int(parts[0]) - 1, int(parts[1]) - 1),
                        remove_local_terms=remove_local_terms)
    if head == "select" and framework == "general" and len(parts) == 4:
        return TaskSpec("select", framework,
                        qubits=(int(parts[0]) - 1, int(parts[1]) - 1),
                        labels=(parts[2], parts[3]),
                        remove_local_terms=remove_local_terms)
    if head == "pair" and len(parts) == 2:
        return TaskSpec("select_pair", framework,
                        qubits=(int(parts[0]) - 1, int(parts[1]) - 1),
                        remove_local_terms=remove_local_terms)
    raise ValueError(f"cannot parse task {body!r}")


def _write_block(entries: np.ndarray, stream: IO[str]) -> None:
    n, m = entries.shape
    stream.write(f"rows {n} {m}\n")
    stream.write(format_rows(entries < 0, "+-"))


def _read_block(stream: IO[str]) -> np.ndarray:
    header = stream.readline().split()
    if len(header) != 3 or header[0] != "rows":
        raise ValueError("sign-matrix block must start with 'rows n m'")
    n, m = int(header[1]), int(header[2])
    return 1 - 2 * parse_rows(stream, n, m, "+-", "sign-matrix")


def write_scheme(scheme: Scheme, task: TaskSpec, stream: IO[str]) -> None:
    header = (f"scheme {task.framework} n={scheme.qubits} m={scheme.intervals} "
              f"task={_format_task(task)} local={int(task.remove_local_terms)}\n")
    stream.write(header)
    if isinstance(scheme, SignMatrix):
        _write_block(scheme.entries, stream)
    else:
        for l in LABELS:
            _write_block(scheme.matrix(l).entries, stream)


def header_fields(parts: list[str], required: tuple[str, ...]) -> dict[str, str]:
    """Parse `key=value` header words; a missing required key is a ValueError."""
    fields = dict(part.split("=", 1) for part in parts)
    missing = [key for key in required if key not in fields]
    if missing:
        raise ValueError(f"header lacks field(s) {', '.join(f'{k}=' for k in missing)}")
    return fields


def read_scheme(stream: IO[str]) -> tuple[Scheme, TaskSpec]:
    header = stream.readline().split()
    if len(header) < 2 or header[0] != "scheme":
        raise ValueError("scheme file must start with 'scheme <framework> ...'")
    framework = header[1]
    fields = header_fields(header[2:], ("n", "m", "task"))
    task = parse_task(fields["task"], framework, bool(int(fields.get("local", "1"))))
    if framework == "zz":
        scheme: Scheme = SignMatrix(_read_block(stream))
    else:
        mats = [_read_block(stream) for _ in range(3)]
        scheme = SignTriple(SignMatrix(mats[0]), SignMatrix(mats[1]), SignMatrix(mats[2]))
    if scheme.qubits != int(fields["n"]) or scheme.intervals != int(fields["m"]):
        raise ValueError("scheme header does not match matrix block shape")
    return scheme, task
