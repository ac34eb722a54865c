"""Every construction builds only the rows a caller takes.

The composition row kernel equals the per-row Kronecker definition on any
rows in any order; every general scheme is the rows idx of the matrix its
construction used to materialize; and neither `synth` nor the `compose`
command holds the whole construction matrix.  A refused `compose` writes
nothing."""

import contextlib
import io
import os
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compose_broadcast import kron_compose
from test_row_codec import traced_peak

from decoupler import cli, schemes
from decoupler.errors import SizeCapExceeded
from decoupler.ghm import Composition, compose_sylvester, gh_for_lambda
from decoupler.hadamard import HadamardMatrix, sylvester, walsh_rows, write_matrix
from decoupler.schemes import TaskSpec,  synth
from decoupler.schur import five_rows, partition_sylvester


@settings(max_examples=60, deadline=None)
@given(r=st.integers(2, 6), lam=st.sampled_from([1, 2]), data=st.data())
def test_composition_rows_equal_the_kron_definition(r, lam, data):
    p = partition_sylvester(r)
    triples = data.draw(st.permutations([data.draw(st.permutations(t)) for t in p.triples]))
    leftover = data.draw(st.permutations(list(p.remainder)))
    schur_rows = [i for t in triples for i in t]
    five = data.draw(st.none() | st.just(five_rows(r).indices)) if r >= 3 else None
    gamma = gh_for_lambda(lam)
    entries, index_map, oracle_triples, f_rows = kron_compose(
        sylvester(r), schur_rows, leftover, gamma, five)
    comp = Composition(sylvester(r), schur_rows, leftover, gamma, five=five)
    big = len(entries)
    # any rows, repeated or not, in any order, across codec blocks
    k = np.array(data.draw(st.lists(st.integers(0, big - 1), max_size=3 * big)), dtype=np.intp)
    rows = comp.rows(k)
    assert rows.dtype == np.int8 and rows.flags.writeable
    assert np.array_equal(rows, entries[k])
    if len(k) % 2 == 0:
        assert np.array_equal(comp.rows(k.reshape(2, -1)), entries[k.reshape(2, -1)])
    assert np.array_equal(comp.rows(k[0] if len(k) else 0), entries[k[0] if len(k) else 0])
    assert comp.order == big
    assert list(zip(comp.pos.tolist(), comp.g.tolist())) == list(index_map)
    assert comp.triples == oracle_triples and comp.f_rows == f_rows


def _recorded_gather(kind, n, cap):
    """(scheme, rows, idx, reverse) of one general synth, `_gather`'s arguments recorded."""
    calls = []
    gather = schemes._gather

    def recording(rows, idx, reverse=False):
        calls.append((rows, idx, reverse))
        return gather(rows, idx, reverse)

    qubits = {"select": (0, n - 1), "select_pair": (n // 2, 0)}.get(kind, ())
    labels = ("x", "z") if kind == "select" else None
    with mock.patch.object(schemes, "_gather", recording):
        scheme = synth(TaskSpec(kind, "general", qubits, labels), n, cap)
    (rows, idx, reverse), = calls
    return scheme, rows, idx, reverse


def construction_order(rows) -> int:
    """The order of the construction whose rows k `_gather` takes as rows(k):
    walsh_rows with its r, or a bound HadamardMatrix.row or Composition.rows."""
    return 1 << rows.keywords["r"] if isinstance(rows, partial) else rows.__self__.order


def _materialized(rows) -> np.ndarray:
    """The whole matrix of a construction, built as it was before rows were
    built on demand: sylvester(r), or compose_sylvester's hprime."""
    order = construction_order(rows)
    if isinstance(rows, partial):
        assert rows.func is walsh_rows
        return sylvester(rows.keywords["r"], cap=order).entries
    if isinstance(rows.__self__, HadamardMatrix):  # sylvester(0) of a two-qubit pair
        return rows.__self__.entries
    comp = rows.__self__
    r = comp.h.order.bit_length() - 1
    return compose_sylvester(r, gh_for_lambda(comp.lam), cap=order).hprime.entries


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["decouple", "select", "select_pair", "reverse"]),
       n=st.integers(2, 160), cap=st.sampled_from([64, 256, 4096]))
def test_general_schemes_are_the_rows_idx_of_their_construction(kind, n, cap):
    try:
        scheme, rows, idx, reverse = _recorded_gather(kind, n, cap)
    except SizeCapExceeded:
        return
    assert reverse == (kind == "reverse")
    matrix = _materialized(rows)
    assert matrix.shape == (construction_order(rows),) * 2
    expected = matrix[idx.T][..., int(reverse):]
    assert np.array_equal(np.stack(scheme.blocks), expected)


def test_the_composed_construction_is_gathered_from_its_kernel():
    # general selection at n = 19 is the one composed pick (m = 64)
    scheme, rows, idx, _ = _recorded_gather("select", 19, 4096)
    assert isinstance(getattr(rows, "__self__", None), Composition)
    assert construction_order(rows) == 64
    assert np.array_equal(np.stack(scheme.blocks), _materialized(rows)[idx.T])


def test_general_synth_holds_the_scheme_and_no_construction_matrix():
    # the scheme's 3 n m bytes, not sylvester(12) (16 MiB) beside them
    n, m = 1365, 4096
    peak = traced_peak(lambda: synth(TaskSpec("decouple", "general"), n))
    assert peak <= 3 * n * m + (1 << 20), f"peak {peak} B"


def test_compose_command_streams_its_matrix():
    # order 4096: a codec block of rows at a time, never the 16 MiB matrix
    def run():
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), \
                contextlib.redirect_stderr(devnull):
            assert cli.main(["compose", "--r", "9", "--lambda", "2"]) == 0

    run()  # the parser and the GH(4,2) cache are built once per process
    peak = traced_peak(run)
    assert peak <= 2 << 20, f"peak {peak} B"


@pytest.mark.parametrize("r,lam", [(r, lam) for r in range(2, 7) for lam in (1, 2)])
def test_a_composition_writes_the_bytes_of_its_matrix(r, lam):
    comp = compose_sylvester(r, gh_for_lambda(lam))
    of_rows, of_matrix = io.StringIO(), io.StringIO()
    write_matrix(comp, of_rows)
    write_matrix(comp.hprime, of_matrix)
    assert of_rows.getvalue() == of_matrix.getvalue()


def test_writing_a_composition_never_builds_its_matrix():
    # order 4096: a codec block of rows at a time, never hprime's 16 MiB
    comp = compose_sylvester(9, gh_for_lambda(2))
    with open(os.devnull, "w") as devnull:
        peak = traced_peak(lambda: write_matrix(comp, devnull))
    assert peak <= 2 << 20, f"peak {peak} B"
    assert "hprime" not in vars(comp)


@pytest.mark.parametrize("argv", [
    ["--cap", "65536", "compose", "--r", "12", "--lambda", "1024"],
    ["--cap", "65536", "compose", "--r", "3", "--lambda", "4096"],
])
def test_compose_past_the_cap_is_refused_before_its_gh_factor(capsys, argv):
    cli._build_parser()  # built once per process, not part of the refusal
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    out, err = capsys.readouterr()
    assert codes == [2] and out == ""
    assert "exceeds cap 65536" in err and "Traceback" not in err
    assert peak <= 1 << 20, f"peak {peak} B"


@pytest.mark.parametrize("argv,message", [
    (["compose", "--r", "11", "--lambda", "1"], "exceeds cap"),
    (["--cap", "64", "compose", "--r", "4", "--lambda", "2"], "exceeds cap"),
    (["compose", "--r", "3", "--lambda", "3"], "not constructible"),
    (["compose", "--r", "3", "--lambda", "12"], "not constructible"),
])
def test_a_refused_compose_writes_nothing(capsys, argv, message):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
