import io

import numpy as np
import pytest

from decoupler.errors import SizeCapExceeded
from decoupler.hadamard import (
    HadamardMatrix,
    best_matrix,
    best_order,
    build_hadamard,
    catalog_gaps,
    is_hadamard,
    is_normalized,
    kron_product,
    normalize,
    paley,
    read_matrix,
    recipe_str,
    sylvester,
    write_matrix,
)

# Known valid order-12 matrix (Paley type), kept as a literal fixture.
H12_TEXT = [
    "++++++++++++",
    "+++--+--+--+",
    "++++---+-+--",
    "+-+++---+-+-",
    "+--+++---+-+",
    "++--++-+--+-",
    "+------+++++",
    "+-+--++--++-",
    "++-+--+---++",
    "+-+-+-++---+",
    "+--+-++++---",
    "++--+-+-++--",
]


def parse_rows(rows):
    return np.array([[1 if c == "+" else -1 for c in r] for r in rows], dtype=np.int8)


H12 = parse_rows(H12_TEXT)


class TestSylvester:
    def test_r0_is_trivial(self):
        assert sylvester(0).entries.tolist() == [[1]]

    def test_r1_matches_base(self):
        assert sylvester(1).entries.tolist() == [[1, 1], [1, -1]]

    def test_r2_equals_hand_expanded_kronecker_square(self):
        h2 = np.array([[1, 1], [1, -1]], dtype=np.int8)
        assert np.array_equal(sylvester(2).entries, np.kron(h2, h2))

    def test_r2_rows_match_four_qubit_sign_pattern_up_to_order(self):
        # the canonical 4x4 decoupling sign matrix, as a set of rows
        s4 = {(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, -1, 1), (1, -1, 1, -1)}
        assert {tuple(r) for r in sylvester(2).entries} == s4

    @pytest.mark.parametrize("r", range(0, 9))
    def test_entry_formula(self, r):
        h = sylvester(r).entries
        m = 1 << r
        i = np.random.default_rng(r).integers(0, m, size=20)
        j = np.random.default_rng(r + 1).integers(0, m, size=20)
        for a, b in zip(i, j):
            assert h[a, b] == (-1) ** int(a & b).bit_count()

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            sylvester(13)

    @pytest.mark.parametrize("r", [10 ** 8, 2 ** 64])
    def test_huge_r_refused_before_building_2_to_the_r(self, r):
        # building 1 << r first would fail on the integer, not on the cap
        with pytest.raises(SizeCapExceeded, match=rf"2\^{r} exceeds cap 4096"):
            sylvester(r)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            sylvester(-1)


class TestPaley:
    def test_q3_gives_order_4(self):
        h = paley(3, 1)
        assert h.order == 4
        assert is_hadamard(h.entries).ok

    def test_q11_gives_valid_order_12(self):
        h = normalize(paley(11, 1))
        assert h.order == 12
        assert is_hadamard(h.entries).ok
        assert np.all(h.entries[1:].sum(axis=1) == 0)

    def test_q5_variant_two_gives_order_12(self):
        h = paley(5, 2)
        assert h.order == 12
        assert is_hadamard(h.entries).ok

    @pytest.mark.parametrize("q", [7, 19, 23])
    def test_variant_one_orders(self, q):
        h = paley(q, 1)
        assert h.order == q + 1
        assert is_hadamard(h.entries).ok

    @pytest.mark.parametrize("q", [13, 17])
    def test_variant_two_orders(self, q):
        h = paley(q, 2)
        assert h.order == 2 * (q + 1)
        assert is_hadamard(h.entries).ok

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError, match="3 mod 4"):
            paley(5, 1)
        with pytest.raises(ValueError, match="1 mod 4"):
            paley(3, 2)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            paley(9, 2)  # prime power, unsupported
        with pytest.raises(ValueError, match="prime"):
            paley(15, 1)


class TestKron:
    def test_identity_factor(self):
        h = paley(3, 1)
        out = kron_product(sylvester(0), h)
        assert np.array_equal(out.entries, h.entries)

    def test_two_by_two_square(self):
        out = kron_product(sylvester(1), sylvester(1))
        assert np.array_equal(out.entries, sylvester(2).entries)

    def test_order_24(self):
        out = kron_product(sylvester(1), paley(11, 1))
        assert out.order == 24
        assert is_hadamard(out.entries).ok

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            kron_product(sylvester(10), sylvester(10))


class TestNormalize:
    def test_idempotent_and_normalized(self):
        h = normalize(paley(11, 1))
        assert is_normalized(h)
        assert np.array_equal(normalize(h).entries, h.entries)

    def test_unchanged_when_already_normalized(self):
        h = sylvester(3)
        assert np.array_equal(normalize(h).entries, h.entries)

    def test_flipped_row_restored(self):
        e = sylvester(1).entries.copy()
        e[1] = -e[1]
        h = normalize(HadamardMatrix(e))
        assert np.array_equal(h.entries, sylvester(1).entries)

    def test_preserves_validity_and_zero_row_sums(self):
        for q in (3, 7, 11):
            h = normalize(paley(q, 1))
            assert is_hadamard(h.entries).ok
            assert np.all(h.entries[1:].sum(axis=1) == 0)


class TestIsHadamard:
    def test_two_by_two_sign_matrix_is_valid(self):
        assert is_hadamard(np.array([[1, 1], [1, -1]])).ok

    def test_all_ones_invalid_with_offending_pair(self):
        report = is_hadamard(np.ones((2, 2), dtype=int))
        assert not report.ok
        assert report.offending_pairs == ((0, 1),)

    def test_order12_fixture_is_valid(self):
        assert is_hadamard(H12).ok

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_hadamard(np.ones((2, 3)))

    def test_non_sign_entries_rejected(self):
        with pytest.raises(ValueError):
            is_hadamard(np.array([[1, 0], [0, 1]]))


class TestBestOrder:
    def test_nine_goes_to_twelve_via_paley(self):
        entry = best_order(9)
        assert entry.achieved == 12
        assert entry.recipe == ("paley1", 11)

    def test_two_is_exact(self):
        assert best_order(2).achieved == 2

    def test_five_goes_to_eight(self):
        entry = best_order(5)
        assert entry.achieved == 8
        assert entry.recipe == ("sylvester", 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 13, 37, 90, 257])
    def test_achieved_is_valid_order(self, n):
        entry = best_order(n)
        assert entry.achieved >= n
        if n >= 3:
            assert entry.achieved % 4 == 0
        h = build_hadamard(entry.recipe)
        assert h.order == entry.achieved
        assert is_hadamard(h.entries).ok

    def test_deterministic(self):
        assert best_order(100) == best_order(100)

    def test_gap_report_for_small_n(self):
        # the implemented catalog misses a few orders that need prime-power
        # Paley fields; those are reported, everything else stays within 8
        gaps = catalog_gaps(1000)
        flagged = {n for n, _ in gaps}
        for n in range(1, 1001):
            if n not in flagged:
                assert best_order(n).achieved - n <= 8

    def test_best_matrix_normalized(self):
        assert is_normalized(best_matrix(9))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            best_order(0)


class TestMatrixFormat:
    @pytest.mark.parametrize("make", [lambda: sylvester(3), lambda: paley(11, 1)])
    def test_round_trip_bit_exact(self, make):
        h = make()
        buf = io.StringIO()
        write_matrix(h, buf)
        buf.seek(0)
        back = read_matrix(buf)
        assert np.array_equal(back.entries, h.entries)

    def test_fixture_round_trip(self):
        buf = io.StringIO()
        write_matrix(HadamardMatrix(H12), buf)
        assert buf.getvalue().splitlines()[1:] == H12_TEXT

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO("bogus\n"))

    def test_bad_row(self):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO("order 2\n++\n+x\n"))


class TestRecipeStr:
    def test_nested(self):
        assert recipe_str(("kron", ("sylvester", 1), ("paley1", 11))) == \
            "kron(sylvester(1),paley1(11))"
