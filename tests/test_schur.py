import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.hadamard import sylvester, walsh_rows
from decoupler.schur import (
    five_rows,
    partition_sylvester,
    read_partition,
    rows_of,
    sorted_triples,
    write_partition,
)


def expected_triple_count(r: int) -> int:
    return (2**r - 1) // 3 if r % 2 == 0 else (2**r - 5) // 3


def max_packing(r: int) -> int:
    """Branch-and-bound maximum number of disjoint XOR-zero triples among
    the nonzero r-bit strings.

    Bounds used: floor(remaining/3), and the XOR invariant (each chosen
    triple XORs to zero, so the eventual uncovered remainder XORs to the
    current uncovered XOR; remainders of size 0/1 are then decidable).
    """
    popcount = int.bit_count
    best = 0

    def xor_all(mask: int) -> int:
        x = 0
        while mask:
            x ^= (mask & -mask).bit_length() - 1
            mask &= mask - 1
        return x

    def dfs(uncovered: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        p = popcount(uncovered)
        needed = best + 1 - count
        slack = p - 3 * needed
        if slack < 0:
            return
        if slack <= 1:
            x = xor_all(uncovered)
            if slack == 0 and x != 0:
                return
            if slack == 1 and (x == 0 or not (uncovered >> x) & 1):
                return
        e = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << e)
        bb = rest
        while bb:
            b = (bb & -bb).bit_length() - 1
            bb &= bb - 1
            c = e ^ b
            if c > b and (rest >> c) & 1:
                dfs(rest & ~(1 << b) & ~(1 << c), count + 1)
        dfs(rest, count)

    dfs((1 << (1 << r)) - 2, 0)
    return best


class TestBaseCases:
    def test_r2(self):
        p = partition_sylvester(2)
        assert p.triples == ((0b01, 0b10, 0b11),)
        assert p.remainder == (0b00,)
        assert p.distinguished is None

    def test_r3(self):
        p = partition_sylvester(3)
        assert p.triples == ((0b001, 0b100, 0b101),)
        assert p.remainder == (0b010, 0b011, 0b110, 0b111, 0b000)
        d = p.distinguished
        assert (d.k1, d.k2, d.k3) == (0b001, 0b100, 0b101)
        assert (d.w1, d.w2, d.w3, d.w4) == (0b010, 0b011, 0b110, 0b111)

    def test_r4_matches_published_listing(self):
        p = partition_sylvester(4)
        expected = [
            (0b0101, 0b1010, 0b1111),
            (0b0110, 0b1011, 0b1101),
            (0b0111, 0b1001, 0b1110),
            (0b0001, 0b0010, 0b0011),
            (0b0100, 0b1000, 0b1100),
        ]
        assert list(p.triples) == expected
        assert p.remainder == (0,)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            partition_sylvester(1)


class TestInvariants:
    @pytest.mark.parametrize("r", range(2, 17))
    def test_counts_coverage_disjointness_xor(self, r):
        p = partition_sylvester(r)
        assert len(p.triples) == expected_triple_count(r)
        assert len(p.remainder) == (1 if r % 2 == 0 else 5)
        seen = [i for t in p.triples for i in t] + list(p.remainder)
        assert sorted(seen) == list(range(2**r))
        for a, b, c in p.triples:
            assert a ^ b ^ c == 0
            assert len({a, b, c}) == 3 and 0 not in (a, b, c)

    @pytest.mark.parametrize("r", [3, 5, 7, 9, 11, 13])
    def test_odd_distinguished_structure(self, r):
        p = partition_sylvester(r)
        d = p.distinguished
        assert p.triples[-1] == (d.k1, d.k2, d.k3)
        assert set(p.remainder) == {d.w1, d.w2, d.w3, d.w4, 0}
        assert d.k1 == d.w1 ^ d.w2 == d.w3 ^ d.w4
        assert d.k2 == d.w1 ^ d.w3 == d.w2 ^ d.w4

    @pytest.mark.parametrize("r", [3, 5, 7])
    def test_odd_remainder_admits_no_further_triple(self, r):
        w = set(partition_sylvester(r).remainder) - {0}
        for a in w:
            for b in w:
                if b > a and (a ^ b) in w:
                    pytest.fail(f"remainder contains triple {a},{b},{a ^ b}")

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_matches_exhaustive_maximum_packing(self, r):
        assert len(partition_sylvester(r).triples) == max_packing(r)


class TestRowsOf:
    def test_r2_rows(self):
        p = partition_sylvester(2)
        triples, remainder = rows_of(p, sylvester(2))
        assert triples[0].tolist() == [
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
        assert np.all(triples[0].prod(axis=0) == 1)
        assert remainder[0].tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("r", [2, 3, 4, 6, 8])
    def test_all_triple_products_are_all_ones(self, r):
        triples, _ = rows_of(partition_sylvester(r), sylvester(r))
        for block in triples:
            assert np.all(block.prod(axis=0) == 1)

    def test_mismatched_r_rejected(self):
        with pytest.raises(ValueError):
            rows_of(partition_sylvester(3), sylvester(4))

    @given(st.integers(min_value=2, max_value=10), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_triple_row_product(self, r, data):
        p = partition_sylvester(r)
        t = data.draw(st.sampled_from(list(p.triples)))
        h = sylvester(r)
        prod = h.row(t[0]) * h.row(t[1]) * h.row(t[2])
        assert np.all(prod == 1)


class TestFiveRows:
    def test_r3_instance(self):
        f = five_rows(3)
        assert f.indices == (0b010, 0b011, 0b110, 0b111, 0b001)
        assert f.indices[0] ^ f.indices[1] == f.indices[4]
        assert f.indices[2] ^ f.indices[3] == f.indices[4]

    def test_r4_is_prefixed_r3(self):
        assert five_rows(4).indices == five_rows(3).indices

    @pytest.mark.parametrize("r", range(3, 11))
    def test_product_identity(self, r):
        rows = walsh_rows(five_rows(r).indices, r)
        assert np.array_equal(rows[0] * rows[1], rows[4])
        assert np.array_equal(rows[2] * rows[3], rows[4])
        assert len({tuple(row) for row in rows}) == 5

    def test_r_below_three_rejected(self):
        with pytest.raises(ValueError):
            five_rows(2)


class TestReportingAndFormat:
    def test_sorted_triples_reporting_order(self):
        p = partition_sylvester(4)
        ts = sorted_triples(p)
        assert ts == sorted(tuple(sorted(t)) for t in p.triples)
        assert all(t[0] < t[1] < t[2] for t in ts)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_round_trip(self, r):
        p = partition_sylvester(r)
        buf = io.StringIO()
        write_partition(p, buf)
        buf.seek(0)
        rr, triples, remainder = read_partition(buf)
        assert rr == r
        assert triples == list(p.triples)
        assert remainder == list(p.remainder)

    def test_blank_lines_are_skipped(self):
        buf = io.StringIO()
        write_partition(partition_sylvester(4), buf)
        spaced = "\n" + buf.getvalue().replace("\n", "\n \n") + "\t\n"
        assert read_partition(io.StringIO(spaced)) == read_partition(io.StringIO(buf.getvalue()))

    def test_bad_line(self):
        with pytest.raises(ValueError):
            read_partition(io.StringIO("Q 010\n"))

    def test_empty_file(self):
        with pytest.raises(ValueError):
            read_partition(io.StringIO(""))
