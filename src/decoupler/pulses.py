"""Lower sign matrices to schedules of single-qubit Pauli conjugations
interleaved with free evolution, and merge adjacent gate layers.

A schedule is a sequence of steps: a gate layer is a string over I/X/Y/Z
(one character per qubit), a free-evolution interval is None.  Raw compiled
schedules carry the conjugating layer before and after every interval;
simplification multiplies adjacent layers (Pauli product with global phase
discarded, which is safe because the gates act purely by conjugation).
With I/X/Y/Z coded as 0..3 that product is the XOR of the codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .hadamard import _block_rows, decode_rows, format_rows
from .schemes import GATES, Scheme, SignMatrix, gate_codes, header_fields, merged_codes

Step = str | None


@dataclass(frozen=True)
class PulseSchedule:
    qubits: int
    tau: float
    steps: tuple[Step, ...]

    def __post_init__(self):
        if not 0 < self.tau < float("inf"):  # false for nan as for +/-inf
            raise ValueError(f"tau must be finite and > 0, got {self.tau!r}")
        layers = self.layers
        first = decode_rows(layers, self.qubits, GATES)[1]
        if first < len(layers):
            raise ValueError(f"bad gate layer {layers[first]!r}")

    @property
    def total_intervals(self) -> int:
        return sum(1 for s in self.steps if s is None)

    @property
    def layers(self) -> list[str]:
        return [s for s in self.steps if s is not None]


def compile_zz(s: SignMatrix, tau: float = 1.0, merged: bool = True) -> PulseSchedule:
    """A '-' entry at (i, a) puts X on qubit i before and after interval a."""
    return compile_general(s, tau, merged)


def compile_general(scheme: Scheme, tau: float = 1.0, merged: bool = True) -> PulseSchedule:
    """Sign column (+,+,+)/(+,-,-)/(-,+,-)/(-,-,+) maps to I/X/Y/Z conjugation;
    a zz scheme S lowers as the triple (1, S, S)."""
    if merged:  # the gate codes are freed once merged, before the layers are formatted
        return _alternating(scheme.qubits, tau, merged_codes(gate_codes(scheme)))
    layers = format_rows(gate_codes(scheme).T, GATES).splitlines()
    steps = [step for layer in layers for step in (layer, None, layer)]
    return PulseSchedule(scheme.qubits, tau, tuple(steps))


def _alternating(qubits: int, tau: float, layers: np.ndarray) -> PulseSchedule:
    """Layer 0, an interval, layer 1, ..., layer m: rows of an (m+1) x n code array."""
    steps: list[Step] = [None] * (2 * len(layers) - 1)
    steps[::2] = format_rows(layers, GATES).splitlines()
    return PulseSchedule(qubits, tau, tuple(steps))


def simplify(p: PulseSchedule) -> PulseSchedule:
    """Merge adjacent gate layers; keep explicit (possibly identity) boundary
    layers and exactly one layer between consecutive intervals."""
    free = np.array([s is None for s in p.steps], dtype=bool)
    merged = np.zeros((p.total_intervals + 1, p.qubits), dtype=np.int8)
    # a layer merges into the row of the intervals before it
    np.bitwise_xor.at(merged, np.cumsum(free)[~free], decode_rows(p.layers, p.qubits, GATES)[0])
    return _alternating(p.qubits, p.tau, merged)


def gate_count(p: PulseSchedule) -> int:
    """Non-identity gate entries across all layers (at most n*(m+1))."""
    return int(np.count_nonzero(decode_rows(p.layers, p.qubits, GATES)[0]))


# ---------------------------------------------------------------------------
# Schedule text format: header "pulses n=<n> m=<m> tau=<tau>", then lines
# "G <layer>" and "F <tau>".

def write_schedule(p: PulseSchedule, stream: IO[str]) -> None:
    """The header, then the steps a codec block of text at a time, never all of it."""
    free = f"F {p.tau!r}\n"
    stream.write(f"pulses n={p.qubits} m={p.total_intervals} tau={p.tau!r}\n")
    block = _block_rows(p.qubits + 2)  # a "G <layer>" line has n + 3 characters
    for i in range(0, len(p.steps), block):
        stream.write("".join(free if s is None else f"G {s}\n" for s in p.steps[i:i + block]))


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
