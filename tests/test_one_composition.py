"""`Composition` is the one composition value: `compose` and
`compose_sylvester` return it unbuilt, and its `hprime` is built from the
row kernel once, on first use."""

import numpy as np
from test_row_codec import traced_peak

from decoupler import Composition as exported
from decoupler.ghm import Composition, compose, compose_sylvester, gh4_base, gh_for_lambda
from decoupler.hadamard import HadamardMatrix, sylvester
from decoupler.schur import five_rows, partition_sylvester


def test_compose_and_compose_sylvester_return_a_composition():
    p = partition_sylvester(3)
    schur_rows = [i for t in p.triples for i in t]
    comp = compose(sylvester(3), schur_rows, list(p.remainder), gh4_base(),
                   five=five_rows(3).indices)
    assert type(comp) is Composition and exported is Composition
    assert isinstance(compose_sylvester(3, gh4_base()), Composition)


def test_hprime_is_built_once_from_the_row_kernel():
    c = compose_sylvester(4, gh_for_lambda(2))
    assert "hprime" not in vars(c)
    h = c.hprime
    assert isinstance(h, HadamardMatrix) and h is c.hprime
    assert h.provenance == c.provenance and not h.entries.flags.writeable
    assert np.array_equal(h.entries, c.rows(np.arange(c.order)))


def test_a_composition_holds_no_matrix_until_hprime_is_read():
    # order 4096: the 16 MiB matrix is built only by hprime
    gamma = gh_for_lambda(2)
    compose_sylvester(9, gamma)  # partition_sylvester(9) is cached once per process
    held = []
    peak = traced_peak(lambda: held.append(compose_sylvester(9, gamma)))
    assert peak <= 2 << 20, f"peak {peak} B"
    assert held[0].hprime.order == 4096
