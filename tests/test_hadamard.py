import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    walsh_indices,
    walsh_rows,
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


# sha256 of sylvester(r).entries as built by the Kronecker block-doubling loop
# that walsh_rows replaced, frozen before the change
SYLVESTER_SHA256 = [
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "ae0c359ec39763b63fab5028b9c20bdc187b02cf0b81eed343de9b44a84c32c1",
    "14edb060b895542e36542bfe57c990c3ab60c74c6ded991c127ff28bf669f4aa",
    "7c99a8eda1a433afd28577a0d930873985123e34c4999f5e6a60e393c505a36d",
    "4173cdf0377bf83a777e9674bf71f5b1cbb97a7c767d5b8465e27b04c375ab1f",
    "0b71401da96bcee9b8441720c63918f3485d8541ed6dca419199d56c43128853",
    "4be469934f00a70b701ba4d1d2f489d817feb9fce017ad0decb3433bb851aae0",
    "6c75072bc838cd31cf9d36107ed40203803153bb786269c7ef3e53e17ba46fee",
    "48e8331c828232b2d80b2d9f39b388a49c074fd94a6688a58f8a872a7d1c12f9",
    "6746c1ade12fafc83ad1d0ec4cda7dca2b0138b6ec2f2f37fc25915f12ee2c0f",
    "5a173b88a228b188b33834779879f49d602f43520e6c56c581d8adeb206732d7",
    "1b0bbe0b93141d457a5eaacf3e9593a71b5bfa389219937d47c97082ff3e51dc",
    "1d9ba72dad9df866357b12ee4d9abc39da0bd29b009ac04fab6b1cbb994c97b2",
    "b3d718a0b6674e90f8212b332beca53bf6970cd560379a517d26e26fb1ce4673",
]


class TestWalshRows:
    @pytest.mark.parametrize("r", range(len(SYLVESTER_SHA256)))
    def test_sylvester_bytes_are_frozen(self, r):
        h = sylvester(r, cap=1 << r)
        assert h.entries.dtype == np.int8 and h.entries.flags.c_contiguous
        assert hashlib.sha256(h.entries.tobytes()).hexdigest() == SYLVESTER_SHA256[r]

    @pytest.mark.parametrize("r", range(13))
    def test_rows_of_every_shape_are_the_sylvester_rows(self, r):
        entries = sylvester(r, cap=1 << r).entries
        rng = np.random.default_rng(r)
        for shape in ((), (7,), (3, 5), (0,), (2, 0)):
            k = rng.integers(0, 1 << r, size=shape)
            rows = walsh_rows(k, r)
            assert rows.dtype == np.int8 and rows.shape == np.shape(k) + (1 << r,)
            assert rows.flags.writeable
            assert np.array_equal(rows, entries[k])
            parity = walsh_rows(k, r, parity=True)
            assert parity.dtype == np.bool_ and parity.shape == rows.shape
            assert np.array_equal(parity, entries[k] < 0)

    def test_bits_above_r_are_ignored(self):
        k = np.array([5, 5 + 8, 5 + 64])
        assert np.array_equal(walsh_rows(k, 3), np.tile(sylvester(3).entries[5], (3, 1)))

    @given(st.integers(0, 12).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(st.integers(0, (1 << r) - 1), max_size=20))))
    @settings(deadline=None)
    def test_walsh_indices_undoes_walsh_rows(self, case):
        r, k = case
        assert walsh_indices(walsh_rows(np.array(k, dtype=np.int64), r)).tolist() == k


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
