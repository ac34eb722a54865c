import numpy as np
import pytest

from decoupler.errors import SearchBudgetExceeded, SizeCapExceeded
from decoupler.ghm import (
    GhMatrix,
    TRIPLE_SIGNS,
    compose,
    compose_sylvester,
    constructible_lambdas,
    gh4_base,
    gh_for_lambda,
    gh_kron,
    gh_search,
    interval_bound,
    level,
    verify_gh,
)
from decoupler.hadamard import ValidityReport, is_hadamard, normalize, sylvester
from decoupler.schur import five_rows, partition_sylvester

# The seed 4x4 matrix written out as sign triples (rows of 4 column-triples).
GAMMA_TRIPLES = [
    [(1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)],
    [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)],
    [(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)],
    [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
]


class TestBase:
    def test_matches_sign_triple_fixture(self):
        g = gh4_base()
        for i in range(4):
            for j in range(4):
                signs = tuple(int(TRIPLE_SIGNS[g.entries[i, j], t]) for t in range(3))
                assert signs == GAMMA_TRIPLES[i][j]

    def test_first_row_is_identity_triples(self):
        assert np.all(gh4_base().entries[0] == 0)

    def test_valid_and_normalized(self):
        g = gh4_base()
        assert g.normalized
        assert verify_gh(g).ok

    def test_rows_two_three_quotient_hits_each_element_once(self):
        g = gh4_base().entries
        quotient = g[1] ^ g[2]
        assert sorted(quotient.tolist()) == [0, 1, 2, 3]


class TestVerify:
    def test_duplicate_row_invalid(self):
        e = gh4_base().entries.copy()
        e[2] = e[1]
        report = verify_gh(GhMatrix(e, lam=1))
        assert not report.ok
        assert (1, 2) in report.offending_pairs

    def test_reports_like_is_hadamard(self):
        assert verify_gh(gh_for_lambda(2)) == ValidityReport(order=8, offending_pairs=())

    def test_random_array_almost_surely_invalid(self):
        rng = np.random.default_rng(12)
        e = rng.integers(0, 4, size=(8, 8)).astype(np.uint8)
        assert not verify_gh(GhMatrix(e, lam=2)).ok

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GhMatrix(np.zeros((1, 1), dtype=np.uint8), lam=0)
        with pytest.raises(ValueError):
            GhMatrix(np.zeros((4, 4), dtype=np.uint8), lam=2)


class TestKron:
    def test_base_squared_is_lambda_4(self):
        g = gh_kron(gh4_base(), gh4_base())
        assert g.lam == 4
        assert g.order == 16
        assert verify_gh(g).ok

    def test_triple_product_is_lambda_16(self):
        g = gh_kron(gh4_base(), gh_kron(gh4_base(), gh4_base()))
        assert g.lam == 16
        assert verify_gh(g).ok

    def test_cap(self):
        big = gh_kron(gh4_base(), gh_kron(gh4_base(), gh4_base()))
        with pytest.raises(SizeCapExceeded):
            gh_kron(big, big, cap=256)


class TestSearch:
    def test_lambda_1_found(self):
        g = gh_search(1)
        assert g.lam == 1
        assert verify_gh(g).ok

    def test_lambda_2_found_within_budget(self):
        g = gh_search(2, budget=10_000_000)
        assert g.order == 8
        assert verify_gh(g).ok
        assert g.normalized

    def test_budget_exhaustion_reported(self):
        with pytest.raises(SearchBudgetExceeded):
            gh_search(2, budget=10)

    def test_gh_for_lambda_supported_values(self):
        for lam in (1, 2, 4, 8):
            assert verify_gh(gh_for_lambda(lam)).ok
        with pytest.raises(ValueError):
            gh_for_lambda(3)


class TestLevel:
    def test_identity_row_levels_to_all_ones(self):
        eps = level(gh4_base())
        assert eps.shape == (12, 4)
        assert np.all(eps[0] == 1) and np.all(eps[1] == 1) and np.all(eps[2] == 1)

    def test_coordinate_product_is_plus_one(self):
        # every element's three coordinates multiply to +1
        assert np.all(TRIPLE_SIGNS.prod(axis=1) == 1)

    def test_level_column_sums_vanish_off_identity(self):
        eps = level(gh4_base())
        sums = eps.sum(axis=1)
        assert np.all(sums[:3] == 4)
        assert np.all(sums[3:] == 0)


class TestCompose:
    def test_small_example(self):
        result = compose_sylvester(2, gh4_base())
        h = result.hprime
        assert h.order == 16
        assert len(result.triples) == 4
        assert h.order - 3 * len(result.triples) == 4  # leftover rows
        assert is_hadamard(h.entries).ok
        assert int(np.sum(np.all(h.entries == 1, axis=1))) == 1

    def test_small_example_first_block_is_base_rows_times_all_ones(self):
        result = compose_sylvester(2, gh4_base())
        p = partition_sylvester(2)
        base = sylvester(2)
        for t, base_row in enumerate(p.triples[0]):
            expected = np.kron(base.row(base_row), np.ones(4, dtype=np.int8))
            assert np.array_equal(result.hprime.entries[t], expected)

    def test_larger_example(self):
        result = compose_sylvester(4, gh4_base())
        h = result.hprime
        assert h.order == 64
        assert len(result.triples) == 20
        assert is_hadamard(h.entries).ok
        assert int(np.sum(np.all(h.entries == 1, axis=1))) == 1

    def test_triples_multiply_to_all_ones(self):
        result = compose_sylvester(4, gh4_base())
        e = result.hprime.entries
        for a, b, c in result.triples:
            assert np.all(e[a] * e[b] * e[c] == 1)

    def test_zero_row_sums_except_single_all_ones(self):
        result = compose_sylvester(4, gh4_base())
        sums = result.hprime.entries.sum(axis=1)
        assert int(np.sum(sums == result.hprime.order)) == 1
        assert np.all(sums[sums != result.hprime.order] == 0)

    def test_five_rows_inherited(self):
        result = compose_sylvester(4, gh4_base())
        f = result.hprime.entries[list(result.f_rows)]
        assert np.array_equal(f[0] * f[1], f[4])
        assert np.array_equal(f[2] * f[3], f[4])
        base_five = five_rows(4).indices
        base = sylvester(4)
        for idx, base_row in zip(result.f_rows, base_five):
            expected = np.kron(base.row(base_row), np.ones(4, dtype=np.int8))
            assert np.array_equal(result.hprime.entries[idx], expected)

    def test_distinct_base_rows_orthogonal_on_first_factor(self):
        result = compose_sylvester(2, gh4_base())
        p = partition_sylvester(2)
        order = [i for t in p.triples for i in t] + list(p.remainder)
        base = sylvester(2)
        rng = np.random.default_rng(3)
        rows = result.hprime.entries
        for _ in range(50):
            a, b = rng.integers(0, rows.shape[0], size=2)
            ia, ib = result.pos[a], result.pos[b]
            if ia != ib:
                assert int(base.row(order[ia]) @ base.row(order[ib])) == 0
                assert int(rows[a].astype(int) @ rows[b].astype(int)) == 0

    def test_with_searched_lambda_2(self):
        result = compose_sylvester(2, gh_for_lambda(2))
        assert result.hprime.order == 32
        assert is_hadamard(result.hprime.entries).ok
        assert len(result.triples) == 8

    def test_rejects_unnormalized_base(self):
        h = sylvester(2)
        flipped = normalize(h)
        bad = flipped.entries.copy()
        bad[0] = -bad[0]
        from decoupler.hadamard import HadamardMatrix

        with pytest.raises(ValueError, match="normalized"):
            compose(HadamardMatrix(bad), [1, 2, 3], [0], gh4_base())

    def test_rejects_non_schur_rows(self):
        with pytest.raises(ValueError, match="Schur"):
            compose(sylvester(2), [0, 1, 2], [3], gh4_base())

    def test_rejects_incomplete_cover(self):
        with pytest.raises(ValueError, match="cover"):
            compose(sylvester(2), [1, 2, 3], [], gh4_base())

    def test_rejects_unnormalized_gamma(self):
        e = gh4_base().entries.copy()
        e[0, 1] = 1
        with pytest.raises(ValueError, match="normalized"):
            compose(sylvester(2), [1, 2, 3], [0], GhMatrix(e, lam=1))


def powers_of_two(cap):
    """The rule constructible_lambdas once restated: every power of two lam
    with 4 lam <= cap."""
    out, lam = [], 1
    while 4 * lam <= cap:
        out.append(lam)
        lam *= 2
    return out


class TestConstructibleLambdas:
    def test_literals_times_powers_of_four_are_the_powers_of_two(self):
        caps = [*range(-3, 5001), *(2**k + d for k in range(12, 30) for d in (-1, 0, 1))]
        for cap in caps:
            assert constructible_lambdas(cap) == powers_of_two(cap), cap

    def test_every_listed_lambda_builds_a_valid_gh(self):
        for lam in constructible_lambdas(1024):
            g = gh_for_lambda(lam, 1024)
            assert g.lam == lam and g.order == 4 * lam
            assert verify_gh(g).ok


class TestIntervalBound:
    def test_r7(self):
        assert interval_bound(7, 0) == (108, 384)

    def test_r5(self):
        assert interval_bound(5, 0) == (12, 96)

    def test_monotone_in_r(self):
        qubits = [interval_bound(r, 0)[0] for r in range(5, 12)]
        assert qubits == sorted(qubits)

    def test_domain(self):
        with pytest.raises(ValueError):
            interval_bound(4, 0)
        with pytest.raises(ValueError):
            interval_bound(5, -1)
