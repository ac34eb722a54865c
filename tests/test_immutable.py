"""Every value stores read-only entries, so no caller can change a matrix
that another caller (or a cache) shares."""

import io

import numpy as np
import pytest

from decoupler.ghm import (Composition, GhMatrix, compose, compose_sylvester, gh4_base,
                           gh_for_lambda, gh_kron, gh_search)
from decoupler.hadamard import (HadamardMatrix, best_matrix, kron_product, normalize, paley,
                                read_matrix, sylvester, write_matrix)
from decoupler.schemes import Scheme, TaskSpec, read_scheme, synth, write_scheme
from decoupler.schur import partition_sylvester


def _text(write, value):
    buf = io.StringIO()
    write(value, buf)
    buf.seek(0)
    return buf


def _general_scheme():
    return synth(TaskSpec("decouple", "general"), 3)


# each value's stored entries
CONSTRUCTORS = {
    "HadamardMatrix": lambda: HadamardMatrix(np.array([[1, 1], [1, -1]])).entries,
    "sylvester": lambda: sylvester(3).entries,
    "paley1": lambda: paley(11, 1).entries,
    "paley2": lambda: paley(5, 2).entries,
    "kron_product": lambda: kron_product(sylvester(1), paley(3, 1)).entries,
    "normalize": lambda: normalize(paley(11, 1)).entries,
    "best_matrix": lambda: best_matrix(20).entries,
    "read_matrix": lambda: read_matrix(_text(write_matrix, sylvester(2))).entries,
    "compose": lambda: compose_sylvester(2, gh4_base()).hprime.entries,
    "Scheme": lambda: Scheme((np.ones((2, 3)),)).blocks[0],
    "synth_zz": lambda: synth(TaskSpec("select", "zz", (0, 2)), 4).blocks[0],
    "synth_general": lambda: _general_scheme().blocks[1],
    "read_scheme": lambda: read_scheme(
        _text(lambda s, buf: write_scheme(s, TaskSpec("decouple", "general"), buf),
              _general_scheme()))[0].blocks[2],
    "GhMatrix": lambda: GhMatrix(np.zeros((4, 4)), lam=1).entries,
    "gh4_base": lambda: gh4_base().entries,
    "gh_for_lambda": lambda: gh_for_lambda(1).entries,
    "gh_for_lambda_2": lambda: gh_for_lambda(2).entries,
    "gh_kron": lambda: gh_kron(gh4_base(), gh4_base()).entries,
    "gh_search": lambda: gh_search(1).entries,
}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_entries_cannot_be_written(make):
    entries = make()
    before = entries.copy()
    assert not entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        entries[0, 0] = entries[0, 1]
    with pytest.raises(ValueError, match="read-only"):
        entries[...] *= 1
    np.testing.assert_array_equal(entries, before)


@pytest.mark.parametrize("stored,array", [
    (lambda a: HadamardMatrix(a).entries, np.array([[1, 1], [1, -1]], dtype=np.int8)),
    (lambda a: Scheme((a,)).blocks[0], np.array([[1, -1, 1]], dtype=np.int8)),
    (lambda a: Scheme((a, a, np.ones_like(a))).blocks[1], np.array([[1, -1, 1]], dtype=np.int8)),
    (lambda a: GhMatrix(a, lam=1).entries, gh4_base().entries.copy()),
], ids=["HadamardMatrix", "Scheme", "Scheme-general", "GhMatrix"])
def test_the_callers_array_stays_the_callers(stored, array):
    entries = stored(array)
    kept = entries.copy()
    array[0, 1] += 1
    np.testing.assert_array_equal(entries, kept)


@pytest.mark.parametrize("make", [
    lambda: synth(TaskSpec("decouple", "general"), 5), lambda: sylvester(2), gh4_base,
], ids=["Scheme", "HadamardMatrix", "GhMatrix"])
def test_array_values_compare_and_hash_by_identity(make):
    a = make()
    assert a == a
    assert hash(a) == hash(a) and a in {a}


def test_a_view_of_writable_entries_is_copied():
    base = np.array([[1, 1, 1], [1, -1, 1]], dtype=np.int8)
    value = Scheme((base[:, 1:],))
    base[0, 1] = -1
    assert value.blocks[0][0, 0] == 1


def test_a_synthesized_scheme_keeps_its_blocks_in_its_one_gather():
    # the three blocks are read-only views of the one array the gather built:
    # disjoint slices of it, so they share its base and no memory
    s = _general_scheme()
    assert s.blocks[0].base is not None
    assert all(b.base is s.blocks[0].base for b in s.blocks)
    assert not any(b.flags.writeable for b in s.blocks)


def test_the_cached_gh_cannot_be_poisoned():
    with pytest.raises(ValueError, match="read-only"):
        gh_for_lambda(1).entries[1, 1] = 0
    np.testing.assert_array_equal(gh_for_lambda(1).entries, gh4_base().entries)


def test_compose_refuses_a_corrupted_gh():
    entries = gh4_base().entries.copy()
    entries[1, 1] = 0  # still normalized, no longer GH(4,1)
    bad = GhMatrix(entries, lam=1)
    assert bad.normalized
    with pytest.raises(ValueError, match="GH"):
        compose_sylvester(2, bad)
    p = partition_sylvester(2)
    with pytest.raises(ValueError, match="GH"):
        compose(sylvester(2), [i for t in p.triples for i in t], list(p.remainder), bad)


@pytest.mark.parametrize("name", ["base_rows", "pos", "g", "eps"])
def test_the_composition_layout_cannot_be_written(name):
    comp = Composition(sylvester(3), [1, 4, 5], [2, 3, 6, 7, 0], gh4_base())
    array = getattr(comp, name)
    before, rows = array.copy(), comp.rows(np.arange(comp.order))
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0] = array[-1]
    np.testing.assert_array_equal(array, before)
    np.testing.assert_array_equal(comp.rows(np.arange(comp.order)), rows)
