"""GH(4,2) is a literal equal to what gh_search(2) finds, gh_for_lambda keeps
one cache entry per (lambda, cap), and the broadcast compose builds exactly
the matrix the per-row Kronecker definition gives, holding little beside it."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_row_codec import traced_peak

from decoupler import ghm
from decoupler.ghm import compose, compose_sylvester, gh_for_lambda, gh_search, level, verify_gh
from decoupler.hadamard import DEFAULT_SIZE_CAP, HadamardMatrix, sylvester
from decoupler.schur import five_rows, partition_sylvester


@pytest.fixture
def fresh_cache():
    gh_for_lambda.cache_clear()
    yield
    gh_for_lambda.cache_clear()


def test_literal_gh_4_2_is_the_searched_matrix():
    g = gh_for_lambda(2)
    assert g.lam == 2 and g.entries.dtype == np.uint8
    assert np.array_equal(g.entries, gh_search(2).entries)
    assert verify_gh(g).ok and g.normalized


def test_gh_for_lambda_never_searches(fresh_cache, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("gh_search called")

    monkeypatch.setattr(ghm, "gh_search", no_search)
    for lam in (2, 8, 32):
        assert verify_gh(gh_for_lambda(lam)).ok


def test_one_cache_entry_per_lambda_and_cap(fresh_cache):
    g = gh_for_lambda(2)
    assert gh_for_lambda(2) is gh_for_lambda(2, DEFAULT_SIZE_CAP)
    assert gh_for_lambda(lam=2, cap=DEFAULT_SIZE_CAP) is g
    info = gh_for_lambda.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    gh_for_lambda(8)  # builds on the cached GH(4,2)
    info = gh_for_lambda.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    gh_for_lambda(8, 64)  # another cap is another entry
    assert gh_for_lambda.cache_info().currsize == 4


def kron_compose(h, schur_rows, leftover_rows, gamma, five):
    """The composition by its definition, one np.kron per output row."""
    n, L = len(schur_rows) // 3, gamma.order
    eps = level(gamma)
    rows, index_map = [], []
    for i in range(n):
        for b in range(L):
            for t in range(3):
                rows.append(np.kron(h.row(schur_rows[3 * i + t]), eps[3 * b + t]))
                index_map.append((3 * i + t, 3 * b + t))
    for q, ri in enumerate(leftover_rows):
        for b in range(L):
            rows.append(np.kron(h.row(ri), eps[3 * b]))
            index_map.append((3 * n + q, 3 * b))
    position = {r: p for p, r in enumerate(list(schur_rows) + list(leftover_rows))}
    f_rows = None
    if five is not None:
        f_rows = tuple(3 * L * (position[r] // 3) + position[r] % 3 if position[r] < 3 * n
                       else 3 * n * L + (position[r] - 3 * n) * L for r in five)
    triples = tuple((3 * k, 3 * k + 1, 3 * k + 2) for k in range(n * L))
    return np.array(rows, dtype=np.int8), tuple(index_map), triples, f_rows


def assert_matches_kron(result, h, schur_rows, leftover_rows, gamma, five):
    entries, index_map, triples, f_rows = kron_compose(h, schur_rows, leftover_rows,
                                                        gamma, five)
    assert result.hprime.entries.dtype == np.int8
    assert np.array_equal(result.hprime.entries, entries)
    assert tuple(zip(result.pos.tolist(), result.g.tolist())) == index_map
    assert result.triples == triples
    assert result.f_rows == f_rows
    assert result.hprime.provenance == f"composed({h.provenance},gh(4,{gamma.lam}))"
    assert (result.n_base_triples, result.h.order, result.lam) == (
        len(schur_rows) // 3, h.order, gamma.lam)


@pytest.mark.parametrize("r,lam", [
    (r, lam) for r, lam in itertools.product(range(2, 9), (1, 2, 4, 8))
    if 4 * lam * 2 ** r <= DEFAULT_SIZE_CAP])
def test_compose_sylvester_equals_kron_definition(r, lam):
    gamma = gh_for_lambda(lam)
    p = partition_sylvester(r)
    schur_rows = [i for t in p.triples for i in t]
    five = five_rows(r).indices if r >= 3 else None
    result = compose_sylvester(r, gamma)
    assert_matches_kron(result, sylvester(r), schur_rows, list(p.remainder), gamma, five)


@settings(max_examples=40, deadline=None)
@given(r=st.integers(2, 5), lam=st.sampled_from([1, 2]), data=st.data())
def test_compose_any_row_order_equals_kron_definition(r, lam, data):
    p = partition_sylvester(r)
    triples = data.draw(st.permutations([data.draw(st.permutations(t)) for t in p.triples]))
    leftover = data.draw(st.permutations(list(p.remainder)))
    schur_rows = [i for t in triples for i in t]
    five = data.draw(st.none() | st.just(five_rows(r).indices)) if r >= 3 else None
    gamma = gh_for_lambda(lam)
    result = compose(sylvester(r), schur_rows, leftover, gamma, five=five)
    assert_matches_kron(result, sylvester(r), schur_rows, leftover, gamma, five)


def test_first_non_schur_triple_is_named():
    p = partition_sylvester(5)
    triples = [list(t) for t in p.triples]
    leftover = list(p.remainder)
    # swap one row each of the third and fifth triples with leftover rows
    triples[2][1], leftover[-1] = leftover[-1], triples[2][1]
    triples[4][0], leftover[-2] = leftover[-2], triples[4][0]
    schur_rows = [i for t in triples for i in t]
    with pytest.raises(ValueError, match=rf"^rows \[{triples[2][0]}, "):
        compose(sylvester(5), schur_rows, leftover, gh_for_lambda(1))


def test_compose_of_a_base_with_no_triples():
    h = HadamardMatrix(np.array([[1, 1], [1, -1]]), provenance="h2")
    result = compose(h, [], [0, 1], gh_for_lambda(2))
    assert_matches_kron(result, h, [], [0, 1], gh_for_lambda(2), None)


def test_compose_holds_its_output_and_one_repeated_copy_of_the_base_rows():
    # beside the big x big output: the repeated base rows, 3 n m L <= big^2 / L
    # entries, the one large temporary; the m x m sylvester(8) that
    # compose_sylvester builds; the tiled gamma rows, 3 L big entries
    gamma = gh_for_lambda(2)
    L, m = gamma.order, 256
    big = L * m
    peak = traced_peak(lambda: compose_sylvester(8, gamma))
    assert peak <= big * big * (1 + 1 / L) + m * m + 3 * L * big + (64 << 10), f"peak {peak} B"
