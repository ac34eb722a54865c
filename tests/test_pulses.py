import io
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.pulses import (
    PulseSchedule,
    compile_general,
    compile_zz,
    gate_count,
    read_schedule,
    simplify,
    write_schedule,
)
from decoupler.schemes import Scheme, TaskSpec, synth, synth_select_zz

S2 = Scheme((np.array([[1, 1], [1, -1]]),))
S4 = Scheme((np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
    [1, -1, 1, -1],
]),))


def triple_from_gates(gates: list[str]) -> Scheme:
    """Sign triple whose compilation should reproduce the given gate grid."""
    signs = {"I": (1, 1, 1), "X": (1, -1, -1), "Y": (-1, 1, -1), "Z": (-1, -1, 1)}
    n, m = len(gates), len(gates[0])
    mats = {0: np.empty((n, m), int), 1: np.empty((n, m), int), 2: np.empty((n, m), int)}
    for q in range(n):
        for a in range(m):
            for c, v in enumerate(signs[gates[q][a]]):
                mats[c][q, a] = v
    return Scheme((mats[0], mats[1], mats[2]))


class TestCompileZz:
    def test_two_qubit_refocusing_structure(self):
        p = compile_zz(S2, tau=0.5)
        assert p.steps == ("II", None, "IX", None, "IX")
        assert p.total_intervals == 2
        assert p.tau == 0.5

    def test_four_qubit_scheme_gate_tally(self):
        p = compile_zz(S4)
        # per-qubit: boundary starts are all +, so gates = sign changes + final -
        assert gate_count(p) == 8
        assert p.total_intervals == 4

    def test_all_plus_matrix_compiles_gate_free(self):
        s = Scheme((np.ones((3, 5), dtype=int),))
        p = compile_zz(s)
        assert p.total_intervals == 5
        assert gate_count(p) == 0

    def test_raw_has_doubled_junction_layers(self):
        p = compile_zz(S2, merged=False)
        assert p.steps == ("II", None, "II", "IX", None, "IX")
        assert simplify(p).steps == compile_zz(S2).steps


class TestCompileGeneral:
    def test_sign_columns_map_to_gates(self):
        t = triple_from_gates(["XZ", "IY"])
        p = compile_general(t)
        # junction layer merges post(0) with pre(1): X.Z -> Y, I.Y -> Y
        assert p.steps == ("XI", None, "YY", None, "ZY")

    def test_single_conjugations(self):
        for gate in "IXYZ":
            t = triple_from_gates([gate])
            p = compile_general(t)
            expected = (gate, None, gate)
            assert p.steps == expected

    def test_all_identity_triple_gate_free(self):
        t = triple_from_gates(["III", "III"])
        assert gate_count(compile_general(t)) == 0

    def test_corrupted_sign_column_rejected(self):
        sx = np.array([[1, 1]])
        sy = np.array([[1, 1]])
        sz = np.array([[1, -1]])  # (+,+,-) unrealizable
        with pytest.raises(ValueError, match="corrupt"):
            compile_general(Scheme((sx, sy, sz)))


class TestSimplify:
    def test_adjacent_equal_gates_cancel(self):
        p = PulseSchedule(1, 1.0, ("X", "X", None, "X", "X"))
        s = simplify(p)
        assert s.steps == ("I", None, "I")

    def test_x_then_y_becomes_z(self):
        p = PulseSchedule(1, 1.0, (None, "X", "Y", None))
        s = simplify(p)
        assert s.steps == ("I", None, "Z", None, "I")

    def test_boundary_layers_always_present(self):
        p = PulseSchedule(2, 1.0, (None, None))
        s = simplify(p)
        assert s.steps == ("II", None, "II", None, "II")

    def test_interval_count_preserved(self):
        p = compile_zz(S4, merged=False)
        assert simplify(p).total_intervals == p.total_intervals

    def test_idempotent(self):
        p = compile_zz(S4)
        assert simplify(p).steps == p.steps

    def test_empty_schedule(self):
        s = simplify(PulseSchedule(2, 1.0, ()))
        assert s.steps == ("II",)


class TestGateCount:
    def test_zero_for_gate_free(self):
        assert gate_count(PulseSchedule(2, 1.0, ("II", None, "II"))) == 0

    def test_counts_non_identities(self):
        assert gate_count(PulseSchedule(2, 1.0, ("XY", None, "IZ"))) == 3

    @pytest.mark.parametrize("n", range(3, 12))
    def test_zz_selection_bound(self, n):
        s = synth_select_zz(n, 0, n - 1)
        p = compile_zz(s)
        assert gate_count(p) <= n * s.intervals

    def test_bound_never_exceeds_layer_capacity(self):
        p = compile_zz(S4)
        n, m = 4, 4
        assert gate_count(p) <= n * (m + 1)


class TestScheduleFormat:
    def test_round_trip_merged(self):
        p = compile_zz(S4, tau=0.125)
        buf = io.StringIO()
        write_schedule(p, buf)
        buf.seek(0)
        back = read_schedule(buf)
        assert back == p

    def test_round_trip_raw(self):
        p = compile_zz(S2, tau=1e-3, merged=False)
        buf = io.StringIO()
        write_schedule(p, buf)
        buf.seek(0)
        assert read_schedule(buf) == p

    def test_tau_round_trips_exactly(self):
        p = compile_zz(S2, tau=0.1 / 48)
        buf = io.StringIO()
        write_schedule(p, buf)
        buf.seek(0)
        assert read_schedule(buf).tau == p.tau

    def test_blank_lines_are_skipped(self):
        p = compile_zz(S4, tau=0.125)
        buf = io.StringIO()
        write_schedule(p, buf)
        head, *body = buf.getvalue().splitlines(keepends=True)
        spaced = head + "\n".join(body) + "\n  \n\t\n"
        assert read_schedule(io.StringIO(spaced)) == read_schedule(io.StringIO(buf.getvalue())) == p

    @pytest.mark.parametrize("merged", [True, False])
    def test_text_past_one_block_is_every_line_in_order(self, merged):
        """A general n = 30 scheme (m = 128) with its rows repeated to 2000
        qubits: lines of about 2 KB, so its 257 or 384 steps span several
        blocks of text."""
        scheme = synth(TaskSpec("decouple", "general"), 30)
        wide = Scheme(tuple(np.tile(b, (67, 1))[:2000] for b in scheme.blocks))
        p = compile_general(wide, 0.25, merged)
        buf = io.StringIO()
        write_schedule(p, buf)
        header = f"pulses n=2000 m={wide.intervals} tau=0.25"
        lines = [header] + ["F 0.25" if s is None else f"G {s}" for s in p.steps]
        assert buf.getvalue() == "\n".join(lines) + "\n"
        buf.seek(0)
        assert read_schedule(buf) == p

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_schedule(io.StringIO("nope\n"))

    def test_interval_mismatch(self):
        with pytest.raises(ValueError):
            read_schedule(io.StringIO("pulses n=1 m=2 tau=1.0\nG I\nF 1.0\nG I\n"))

    def test_bad_layer_rejected(self):
        with pytest.raises(ValueError):
            PulseSchedule(2, 1.0, ("XQ", None))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=40, deadline=None)
def test_compile_merge_consistency(n, m, seed):
    rng = np.random.default_rng(seed)
    s = Scheme((rng.choice([-1, 1], size=(n, m)),))
    raw = compile_zz(s, merged=False)
    merged = compile_zz(s)
    assert simplify(raw).steps == merged.steps
    assert raw.total_intervals == merged.total_intervals == m


def test_a_schedule_has_the_repr_of_its_steps_and_equals_no_other_type():
    steps = ("XI", None, "IZ")
    p = PulseSchedule(2, 0.5, steps)
    of_codes = PulseSchedule(2, 0.5, codes=np.array([[1, 0], [0, 3]], dtype=np.uint8),
                             free=np.array([False, True, False]))
    want = "PulseSchedule(qubits=2, tau=0.5, steps=('XI', None, 'IZ'))"
    assert repr(p) == repr(of_codes) == want
    assert (p == 3) is False and (p != 3) is True


def _first_bad_layer(qubits, steps):
    """The letter-by-letter reference for PulseSchedule's layer check."""
    return next((s for s in steps if s is not None
                 and (len(s) != qubits or set(s) - set("IXYZ"))), None)


@given(st.integers(0, 3), st.lists(st.one_of(st.none(), st.text("IXYZ", max_size=4),
                                             st.text("IXYZq\u00e9 ", max_size=4))))
@settings(max_examples=200, deadline=None)
def test_layer_check_names_the_first_bad_layer(qubits, steps):
    bad = _first_bad_layer(qubits, steps)
    if bad is None:
        assert PulseSchedule(qubits, 1.0, tuple(steps)).steps == tuple(steps)
    else:
        with pytest.raises(ValueError, match="^" + re.escape(f"bad gate layer {bad!r}") + "$"):
            PulseSchedule(qubits, 1.0, tuple(steps))


def test_compile_and_write_hold_one_copy_of_the_schedule():
    """compile_general merges the n x m gate codes in the array of their
    transpose and frees them, the schedule keeps the merged codes and no
    text, and write_schedule formats them a block at a time, so compiling
    and writing a general scheme peaks near two n x m byte arrays (the gate
    codes and the schedule's codes)."""
    scheme = synth(TaskSpec("decouple", "general"), 1365)
    n, m = scheme.qubits, scheme.intervals
    assert m == 4096
    with open(os.devnull, "w") as devnull:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_schedule(compile_general(scheme), devnull)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak <= 2 * n * m + (1 << 20), f"peak {peak} B"
