"""Lower sign matrices to schedules of single-qubit Pauli conjugations
interleaved with free evolution, and merge adjacent gate layers.

A schedule is a sequence of steps: a gate layer is a string over I/X/Y/Z
(one character per qubit), a free-evolution interval is None.  Raw compiled
schedules carry the conjugating layer before and after every interval;
simplification multiplies adjacent layers (Pauli product with global phase
discarded, which is safe because the gates act purely by conjugation).
With I/X/Y/Z coded as 0..3 that product is the XOR of the codes.

A schedule keeps its layers as gate codes, one read-only (layers x n) uint8
array, and which steps are intervals as one bool array: the lowering builds
them from the scheme's signs a block of columns at a time and never formats
a layer, a schedule given as text decodes its layers once, and `steps` and
`layers` are formatted on first use.  `simplify`, `gate_count`, the
simulator and the writer read the codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from .hadamard import _block_rows, decode_rows, format_rows, frozen
from .schemes import GATES, Scheme, gate_codes, header_fields

Step = str | None


@dataclass(frozen=True, eq=False, init=False, repr=False)
class PulseSchedule:
    """Gate layers and free evolutions of `tau` each on `qubits` qubits:
    `codes` holds the layers' gate codes, one read-only uint8 row a layer,
    and `free` is True at each interval.  Equal to a schedule of the same
    steps."""

    qubits: int
    tau: float
    codes: np.ndarray
    free: np.ndarray

    def __init__(self, qubits: int, tau: float, steps: Iterable[Step] = (), *,
                 codes: np.ndarray | None = None, free: np.ndarray | None = None):
        """The schedule of `steps`, its layers decoded once; or, given `codes`
        and `free`, the one whose layers are the rows of the uint8 gate codes,
        in order at the steps where `free` is False (both kept read-only)."""
        _check_tau(tau)
        if codes is None:
            steps = tuple(steps)
            layers = [s for s in steps if s is not None]
            codes, first = decode_rows(layers, qubits, GATES)
            if first < len(layers):
                raise ValueError(f"bad gate layer {layers[first]!r}")
            codes, free = codes.view(np.uint8), np.array([s is None for s in steps], dtype=bool)
            object.__setattr__(self, "steps", steps)
        for name, value in (("qubits", qubits), ("tau", tau), ("codes", frozen(codes)),
                            ("free", frozen(free))):
            object.__setattr__(self, name, value)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        layers = iter(format_rows(self.codes, GATES).splitlines())
        return tuple(None if free else next(layers) for free in self.free.tolist())

    @property
    def layers(self) -> list[str]:
        return [s for s in self.steps if s is not None]

    @property
    def total_intervals(self) -> int:
        return int(np.count_nonzero(self.free))

    def _key(self) -> tuple:
        return self.qubits, self.tau, self.free.tobytes(), self.codes.tobytes()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"PulseSchedule(qubits={self.qubits!r}, tau={self.tau!r}, steps={self.steps!r})"


def _check_tau(tau: float) -> None:
    if not 0 < tau < float("inf"):  # false for nan as for +/-inf
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")


def compile_zz(s: Scheme, tau: float = 1.0, merged: bool = True) -> PulseSchedule:
    """A '-' entry at (i, a) puts X on qubit i before and after interval a."""
    return compile_general(s, tau, merged)


def compile_general(scheme: Scheme, tau: float = 1.0, merged: bool = True) -> PulseSchedule:
    """Sign column (+,+,+)/(+,-,-)/(-,+,-)/(-,-,+) maps to I/X/Y/Z conjugation;
    a zz scheme S lowers as the triple (1, S, S).  The gate codes are written
    transposed into the layers (merged, then XORed in place; unmerged, layer
    a, interval a, layer a again), a zz S's in one pass and a triple's a codec
    block of columns at a time: no n x m codes."""
    n, m = scheme.qubits, scheme.intervals
    layers = np.zeros((m + 1, n) if merged else (m, 2, n), dtype=np.uint8)
    codes = layers[:m] if merged else layers[:, 0]
    step = _block_rows(n)
    if len(scheme.blocks) == 1:  # no Schur cell to scan: S's '-' entries are X, in one pass
        np.right_shift(scheme.blocks[0].view(np.uint8).T, 7, out=codes)
    else:
        for start in range(0, m, step):
            codes[start:start + step] = gate_codes(scheme, start, start + step).T
    if not merged:
        layers[:, 1] = codes
        return PulseSchedule(n, tau, codes=layers.reshape(-1, n),
                             free=np.tile([False, True, False], m))
    # row a ^= row a-1, from the last row up a block at a time: numpy copies
    # the rows a block reads, which overlap it, so the copy is one block
    for stop in range(m + 1, 1, -step):
        start = max(1, stop - step)
        layers[start:stop] ^= layers[start - 1:stop - 1]
    return _alternating(n, tau, layers)


def _alternating(qubits: int, tau: float, layers: np.ndarray) -> PulseSchedule:
    """Layer 0, an interval, layer 1, ..., layer m: rows of an (m+1) x n code array."""
    free = np.zeros(2 * len(layers) - 1, dtype=bool)
    free[1::2] = True
    return PulseSchedule(qubits, tau, codes=layers.view(np.uint8), free=free)


def simplify(p: PulseSchedule) -> PulseSchedule:
    """Merge adjacent gate layers; keep explicit (possibly identity) boundary
    layers and exactly one layer between consecutive intervals."""
    merged = np.zeros((p.total_intervals + 1, p.qubits), dtype=np.uint8)
    # a layer merges into the row of the intervals before it
    np.bitwise_xor.at(merged, np.cumsum(p.free)[~p.free], p.codes)
    return _alternating(p.qubits, p.tau, merged)


def gate_count(p: PulseSchedule) -> int:
    """Non-identity gate entries across all layers (at most n*(m+1))."""
    return int(np.count_nonzero(p.codes))


# ---------------------------------------------------------------------------
# Schedule text format: header "pulses n=<n> m=<m> tau=<tau>", then lines
# "G <layer>" and "F <tau>".

def write_schedule(p: PulseSchedule, stream: IO[str]) -> None:
    """The header, then the steps a codec block of text at a time, never all
    of it.  A merged schedule (layer, interval, layer, ..., layer) is written
    as its layers' G lines, each followed by an F line but the last,
    formatted from the codes into one buffer a block; any other joins each
    block's G lines with its F lines."""
    free = f"F {p.tau!r}\n"
    stream.write(f"pulses n={p.qubits} m={p.total_intervals} tau={p.tau!r}\n")
    if p.free.tobytes() == b"\0\1" * (len(p.free) // 2) + b"\0":  # a merged schedule
        block, rows = _block_rows(p.qubits + 2 + len(free)), len(p.codes)
        for start in range(0, rows, block):
            text = format_rows(p.codes[start:start + block], GATES, "G ", free)
            stream.write(text if start + block < rows else text[:-len(free)])
        return
    block, done = _block_rows(p.qubits + 2), 0  # a "G <layer>" line has n + 3 characters
    for i in range(0, len(p.free), block):
        kinds = p.free[i:i + block].tolist()
        layers = kinds.count(False)
        lines = iter(format_rows(p.codes[done:done + layers], GATES, "G ").splitlines(True))
        stream.write("".join(free if kind else next(lines) for kind in kinds))
        done += layers


def read_schedule(stream: IO[str]) -> PulseSchedule:
    header = stream.readline().split()
    if not header or header[0] != "pulses":
        raise ValueError("schedule file must start with 'pulses ...'")
    fields = header_fields(header[1:], ("n", "m", "tau"))
    n = int(fields["n"])
    tau = float(fields["tau"])
    steps: list[Step] = []
    free: list[str] = []
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "G" and len(parts) <= 2:  # "G" alone is a zero-qubit layer
            steps.append("".join(parts[1:]))
        elif parts[0] == "F" and len(parts) == 2:
            steps.append(None)
            free.append(parts[1])
        else:
            raise ValueError(f"bad schedule line {line!r}")
    p = PulseSchedule(n, tau, tuple(steps))
    if p.total_intervals != int(fields["m"]):
        raise ValueError("schedule header interval count mismatch")
    # every free evolution lasts tau; checked once PulseSchedule accepts tau
    stray = [t for t in free if float(t) != tau]
    if stray:
        raise ValueError(f"free evolution 'F {stray[0]}' differs from tau={tau!r}")
    return p
