"""Partition of Sylvester-matrix rows into Schur-subsets.

Row indices are r-bit strings kept as plain ints; three rows of H(2)^(x)r
entry-wise multiply to all-ones exactly when their indices XOR to zero, so
the whole construction works on indices and only touches matrix rows at the
very end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import IO

import numpy as np

from .hadamard import HadamardMatrix

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Distinguished:
    """The last triple {k1,k2,k3} and remainder {w1..w4} of an odd-r partition.

    Satisfies k1 = w1^w2 = w3^w4 and k2 = w1^w3 = w2^w4.
    """

    k1: int
    k2: int
    k3: int
    w1: int
    w2: int
    w3: int
    w4: int


@dataclass(frozen=True)
class SchurPartition:
    r: int
    triples: tuple[Triple, ...]
    remainder: tuple[int, ...]          # includes 0, always last
    distinguished: Distinguished | None  # odd r only

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.r}b")


def _prefix(p: int, x: int, r: int) -> int:
    """Prepend the 2-bit prefix p to the r-bit string x."""
    return (p << r) | x


def _expand_triple(t: Triple, r: int) -> list[Triple]:
    """The four (r+2)-bit Schur-sets induced by one r-bit Schur-set."""
    i1, i2, i3 = t
    return [
        (_prefix(0b01, i1, r), _prefix(0b10, i2, r), _prefix(0b11, i3, r)),
        (_prefix(0b01, i2, r), _prefix(0b10, i3, r), _prefix(0b11, i1, r)),
        (_prefix(0b01, i3, r), _prefix(0b10, i1, r), _prefix(0b11, i2, r)),
        (_prefix(0b00, i1, r), _prefix(0b00, i2, r), _prefix(0b00, i3, r)),
    ]


def _odd_completion(d: Distinguished, r: int) -> list[Triple]:
    """Eight disjoint (r+2)-bit Schur-sets covering {00,01,10,11} x
    {k1,k2,w1..w4}.

    Each uses one of the four XOR-zero index patterns {k1,w1,w2}, {k1,w3,w4},
    {k2,w1,w3}, {k2,w2,w4} twice, with prefixes arranged so every
    (prefix, suffix) cell is hit exactly once and prefixes XOR to 00.
    """
    k1, k2 = d.k1, d.k2
    w1, w2, w3, w4 = d.w1, d.w2, d.w3, d.w4
    pattern = [
        ((0b01, k1), (0b10, w1), (0b11, w2)),
        ((0b00, k1), (0b00, w1), (0b00, w2)),
        ((0b10, k1), (0b01, w3), (0b11, w4)),
        ((0b11, k1), (0b10, w3), (0b01, w4)),
        ((0b01, k2), (0b01, w1), (0b00, w3)),
        ((0b00, k2), (0b11, w1), (0b11, w3)),
        ((0b10, k2), (0b10, w2), (0b00, w4)),
        ((0b11, k2), (0b01, w2), (0b10, w4)),
    ]
    return [tuple(_prefix(p, s, r) for p, s in t) for t in pattern]


@lru_cache(maxsize=None)
def partition_sylvester(r: int) -> SchurPartition:
    """Partition the nonzero r-bit strings into Schur-sets.

    Even r: (2^r - 1)/3 triples and remainder {0}; induction in steps of two
    from the base {01,10,11}.  Odd r: (2^r - 5)/3 triples and a 5-element
    remainder carrying the distinguished structure; induction from the base
    triple {001,100,101}.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if r == 2:
        return SchurPartition(2, ((0b01, 0b10, 0b11),), (0b00,), None)
    if r == 3:
        return SchurPartition(
            3,
            ((0b001, 0b100, 0b101),),
            (0b010, 0b011, 0b110, 0b111, 0b000),
            Distinguished(k1=0b001, k2=0b100, k3=0b101,
                          w1=0b010, w2=0b011, w3=0b110, w4=0b111),
        )
    prev = partition_sylvester(r - 2)
    if r % 2 == 0:
        triples: list[Triple] = []
        for t in prev.triples:
            triples.extend(_expand_triple(t, r - 2))
        triples.append((_prefix(0b01, 0, r - 2), _prefix(0b10, 0, r - 2),
                        _prefix(0b11, 0, r - 2)))
        return SchurPartition(r, tuple(triples), (0,), None)
    d = prev.distinguished
    assert d is not None
    triples = []
    for t in prev.triples[:-1]:
        triples.extend(_expand_triple(t, r - 2))
    triples.extend(_odd_completion(d, r - 2))
    new_d = Distinguished(
        k1=_prefix(0b11, 0, r - 2),
        k2=_prefix(0b01, d.k3, r - 2),
        k3=_prefix(0b10, d.k3, r - 2),
        w1=_prefix(0b00, d.k3, r - 2),
        w2=_prefix(0b11, d.k3, r - 2),
        w3=_prefix(0b01, 0, r - 2),
        w4=_prefix(0b10, 0, r - 2),
    )
    triples.append((new_d.k1, new_d.k2, new_d.k3))
    remainder = (new_d.w1, new_d.w2, new_d.w3, new_d.w4, 0)
    return SchurPartition(r, tuple(triples), remainder, new_d)


def sorted_triples(partition: SchurPartition) -> list[Triple]:
    """Reporting order: sorted within each triple, then by first element."""
    return sorted(tuple(sorted(t)) for t in partition.triples)


def rows_of(partition: SchurPartition, h: HadamardMatrix):
    """Map index triples to row triples of the Sylvester matrix h.

    Returns (triple_rows, remainder_rows) where each element of triple_rows
    is a 3 x m array whose entry-wise row product is all +1.
    """
    if h.order != 1 << partition.r:
        raise ValueError(
            f"matrix order {h.order} does not match r={partition.r}")
    triple_rows = [np.stack([h.row(i) for i in t]) for t in partition.triples]
    remainder_rows = [h.row(i) for i in partition.remainder]
    return triple_rows, remainder_rows


@dataclass(frozen=True)
class FiveRows:
    """Rows f1..f5 of sylvester(r) with f1*f2 = f3*f4 = f5 entry-wise, by
    index: `walsh_rows(indices, r)` builds them."""

    r: int
    indices: tuple[int, int, int, int, int]  # f1..f5


def five_rows(r: int) -> FiveRows:
    """Indices (f1..f5) into sylvester(r) realizing f1*f2 = f3*f4 = f5.

    For odd r these are (w1, w2, w3, w4, k1) from the partition's
    distinguished structure; even r reuses the (r-1)-bit answer with a zero
    bit prepended (which leaves the integer indices unchanged).
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    rr = r if r % 2 == 1 else r - 1
    d = partition_sylvester(rr).distinguished
    assert d is not None
    return FiveRows(r=r, indices=(d.w1, d.w2, d.w3, d.w4, d.k1))


# ---------------------------------------------------------------------------
# Partition text format: lines "T b1 b2 b3" and "R b" with bitstrings.

def write_partition(p: SchurPartition, stream: IO[str]) -> None:
    for t in p.triples:
        stream.write("T " + " ".join(p.bitstring(i) for i in t) + "\n")
    for x in p.remainder:
        stream.write("R " + p.bitstring(x) + "\n")


def read_partition(stream: IO[str]) -> tuple[int, list[Triple], list[int]]:
    """(r, triples, remainder) of a partition file: r is the width of the
    first bitstring, which every other one must share, and each triple must
    XOR to zero."""
    triples: list[Triple] = []
    remainder: list[int] = []
    r = None
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        head, bits = parts[0], parts[1:]
        if (head, len(bits)) not in (("T", 3), ("R", 1)):
            raise ValueError(f"bad partition line {line!r}")
        r = len(bits[0]) if r is None else r
        if any(len(b) != r or set(b) - {"0", "1"} for b in bits):
            raise ValueError(f"partition line {line!r} does not hold {r}-bit strings")
        values = tuple(int(b, 2) for b in bits)
        if head == "R":
            remainder.append(values[0])
        elif values[0] ^ values[1] ^ values[2]:
            raise ValueError(f"partition triple {line!r} does not XOR to zero")
        else:
            triples.append(values)
    if r is None:
        raise ValueError("empty partition file")
    return r, triples, remainder
