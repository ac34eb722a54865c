import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.errors import SizeCapExceeded
from decoupler.schemes import (
    SignMatrix,
    SignTriple,
    TaskSpec,
    check_scheme,
    parse_task,
    read_scheme,
    synth,
    synth_decouple_general,
    synth_decouple_zz,
    synth_reverse_general,
    synth_reverse_zz,
    synth_select_general,
    synth_select_pair,
    synth_select_zz,
    write_scheme,
)
from decoupler.hadamard import sylvester

S2 = SignMatrix(np.array([[1, 1], [1, -1]]))
S4 = SignMatrix(np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
    [1, -1, 1, -1],
]))


def gram(entries):
    return entries.astype(np.int64) @ entries.astype(np.int64).T


def stacked(triple: SignTriple) -> np.ndarray:
    rows = []
    for q in range(triple.qubits):
        for label in "xyz":
            rows.append(triple.matrix(label).entries[q])
    return np.stack(rows)


class TestDecoupleZz:
    def test_n2_without_local_removal_is_the_two_qubit_scheme(self):
        s = synth_decouple_zz(2, remove_local_terms=False)
        assert np.array_equal(s.entries, S2.entries)

    def test_n4_without_local_removal_matches_four_qubit_rows(self):
        s = synth_decouple_zz(4, remove_local_terms=False)
        assert s.intervals == 4
        assert {tuple(r) for r in s.entries} == {tuple(r) for r in S4.entries}

    def test_n9_needs_twelve_intervals(self):
        s = synth_decouple_zz(9)
        assert s.intervals == 12
        assert np.all(s.entries.sum(axis=1) == 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_gram_is_m_identity(self, n):
        s = synth_decouple_zz(n)
        m = s.intervals
        assert np.array_equal(gram(s.entries), m * np.eye(n, dtype=np.int64))

    def test_report_passes(self):
        report = check_scheme(synth_decouple_zz(5), TaskSpec("decouple", "zz"))
        assert report.passed
        assert report.overhead == report.intervals / 5


class TestSelectZz:
    def test_couple_last_two_of_nine(self):
        s = synth_select_zz(9, 7, 8)
        assert s.entries.shape == (9, 12)
        assert np.array_equal(s.entries[7], s.entries[8])
        assert np.all(s.entries.sum(axis=1) == 0)
        g = gram(s.entries)
        expected = 12 * np.eye(9, dtype=np.int64)
        expected[7, 8] = expected[8, 7] = 12
        assert np.array_equal(g, expected)

    def test_three_qubits_structure_forced(self):
        s = synth_select_zz(3, 0, 1, remove_local_terms=False)
        assert np.array_equal(s.entries[0], s.entries[1])
        assert int(s.entries[0] @ s.entries[2]) == 0

    def test_gram_with_designated_pair(self):
        s = synth_select_zz(6, 1, 4)
        m = s.intervals
        g = gram(s.entries)
        expected = m * np.eye(6, dtype=np.int64)
        expected[1, 4] = expected[4, 1] = m
        assert np.array_equal(g, expected)

    def test_index_errors(self):
        with pytest.raises(ValueError):
            synth_select_zz(4, 2, 2)
        with pytest.raises(ValueError):
            synth_select_zz(4, 0, 7)

    def test_report_passes(self):
        task = TaskSpec("select", "zz", qubits=(0, 3))
        assert check_scheme(synth_select_zz(5, 0, 3), task).passed


class TestDecoupleGeneral:
    def test_single_qubit_uses_first_triple_of_four_intervals(self):
        t = synth_decouple_general(1)
        h = sylvester(2)
        assert t.intervals == 4
        assert np.array_equal(t.sx.entries[0], h.row(0b01))
        assert np.array_equal(t.sy.entries[0], h.row(0b10))
        assert np.array_equal(t.sz.entries[0], h.row(0b11))

    def test_five_qubits_sixteen_intervals(self):
        assert synth_decouple_general(5).intervals == 16

    def test_nine_qubits_thirty_two_intervals(self):
        # the 16-interval composed construction has too few triples
        assert synth_decouple_general(9).intervals == 32

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
    def test_stacked_gram_and_schur(self, n):
        t = synth_decouple_general(n)
        rows = stacked(t)
        m = t.intervals
        assert np.array_equal(gram(rows), m * np.eye(3 * n, dtype=np.int64))
        assert t.schur_consistent()
        assert np.all(rows.sum(axis=1) == 0)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=12, deadline=None)
    def test_gram_property(self, n):
        t = synth_decouple_general(n)
        rows = stacked(t)
        assert np.array_equal(gram(rows), t.intervals * np.eye(3 * n, dtype=np.int64))

    def test_cap_error(self):
        with pytest.raises(SizeCapExceeded):
            synth_decouple_general(100, cap=64)

    def test_composed_construction_yields_valid_scheme_rows(self):
        # At equal m Sylvester never holds fewer triples than a composition, so
        # only general select at n = 19 picks one (see test_synth_golden.py);
        # exercise the composed row source directly.
        from decoupler.schemes import _Candidate, _construction_rows

        rows, triples, five = _construction_rows(_Candidate(16, "composed", 2, 1), 4096)
        assert rows.shape == (16, 16)
        assert len(triples) == 4 and five is None  # base r=2 has no five rows
        n = 3
        stacked_rows = np.stack([rows[i] for t in triples[:n] for i in t])
        assert np.array_equal(gram(stacked_rows),
                              16 * np.eye(3 * n, dtype=np.int64))
        for a, b, c in triples[:n]:
            assert np.all(rows[a] * rows[b] == rows[c])
        rows, triples, five = _construction_rows(_Candidate(32, "composed", 3, 1), 4096)
        assert rows.shape == (32, 32) and len(triples) == 4
        f = [rows[i] for i in five]
        assert np.array_equal(f[0] * f[1], f[4])
        assert np.array_equal(f[2] * f[3], f[4])


class TestSelectGeneral:
    def test_two_qubits_eight_intervals_one_identical_pair(self):
        t = synth_select_general(2, 0, 1, "z", "z")
        assert t.intervals == 8
        task = TaskSpec("select", "general", qubits=(0, 1), labels=("z", "z"))
        report = check_scheme(t, task)
        assert report.passed
        rows = stacked(t)
        g = gram(rows)
        off = g[~np.eye(6, dtype=bool)]
        assert sorted(off.tolist())[-2:] == [8, 8]  # exactly one symmetric pair
        assert np.count_nonzero(off) == 2

    def test_four_qubits_cross_gram(self):
        t = synth_select_general(4, 0, 2, "x", "y")
        m = t.intervals
        rows = stacked(t)
        g = gram(rows)
        expected = m * np.eye(12, dtype=np.int64)
        a = 3 * 0 + 0  # S_x row of qubit 0
        b = 3 * 2 + 1  # S_y row of qubit 2
        expected[a, b] = expected[b, a] = m
        assert np.array_equal(g, expected)

    @pytest.mark.parametrize("labels", [(g, e) for g in "xyz" for e in "xyz"])
    def test_all_label_pairs_check_out(self, labels):
        g, e = labels
        t = synth_select_general(3, 0, 2, g, e)
        task = TaskSpec("select", "general", qubits=(0, 2), labels=(g, e))
        assert check_scheme(t, task).passed

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            synth_select_general(3, 1, 1, "x", "y")

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            synth_select_general(3, 0, 1, "x", "w")


class TestSelectPair:
    def test_three_qubits(self):
        t = synth_select_pair(3, 0, 1)
        for label in "xyz":
            e = t.matrix(label).entries
            assert np.all(e[0] == 1) and np.all(e[1] == 1)
            assert e[2].sum() == 0
        task = TaskSpec("select_pair", "general", qubits=(0, 1))
        assert check_scheme(t, task).passed

    def test_two_qubits_trivial_single_interval(self):
        t = synth_select_pair(2, 0, 1)
        assert t.intervals == 1
        assert np.all(t.sx.entries == 1)

    def test_interval_count_matches_decoupling_two_fewer(self):
        assert synth_select_pair(7, 0, 1).intervals == synth_decouple_general(5).intervals

    def test_compiles_gate_free_on_pair(self):
        from decoupler.pulses import compile_general

        t = synth_select_pair(4, 1, 3)
        schedule = compile_general(t)
        for layer in schedule.layers:
            assert layer[1] == "I" and layer[3] == "I"


class TestReverse:
    def test_zz_two_qubits(self):
        s = synth_reverse_zz(2)
        assert s.entries.shape == (2, 3)
        assert int(s.entries[0] @ s.entries[1]) == -1
        assert np.all(s.entries.sum(axis=1) == -1)

    def test_zz_interval_count_examples(self):
        assert synth_reverse_zz(3).intervals == 3  # best order for 4 is 4
        assert synth_reverse_zz(4).intervals == 7  # best order for 5 is 8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_zz_pairwise_inner_products(self, n):
        s = synth_reverse_zz(n)
        g = gram(s.entries)
        off = g[~np.eye(n, dtype=bool)]
        assert np.all(off == -1)

    def test_general_single_qubit(self):
        t = synth_reverse_general(1)
        assert t.intervals == 3
        rows = stacked(t)
        g = gram(rows)
        assert np.all(g[~np.eye(3, dtype=bool)] == -1)
        assert np.all(rows.sum(axis=1) == -1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_general_report(self, n):
        t = synth_reverse_general(n)
        assert check_scheme(t, TaskSpec("reverse", "general")).passed

    def test_zz_without_local_handling(self):
        # couplings still reversed; first row stays all-ones, so the
        # local-term row-sum condition is not demanded
        s = synth_reverse_zz(3, remove_local_terms=False)
        assert s.intervals == 3
        g = gram(s.entries)
        assert np.all(g[~np.eye(3, dtype=bool)] == -1)
        task = TaskSpec("reverse", "zz", remove_local_terms=False)
        report = check_scheme(s, task)
        assert report.passed
        assert "row_sums" not in report.checks


class TestCheckScheme:
    def test_s4_decouples(self):
        report = check_scheme(S4, TaskSpec("decouple", "zz", remove_local_terms=False))
        assert report.passed

    def test_sign_flip_reports_offending_pair(self):
        bad = S2.entries.copy()
        bad[1, 1] = 1
        report = check_scheme(SignMatrix(bad),
                              TaskSpec("decouple", "zz", remove_local_terms=False))
        assert not report.passed
        assert "(0, 1)" in report.checks["orthogonality"].detail

    def test_corrupted_schur_product_reports_cells(self):
        t = synth_decouple_general(2)
        sz = t.sz.entries.copy()
        sz[1, 3] = -sz[1, 3]
        corrupted = SignTriple(t.sx, t.sy, SignMatrix(sz))
        report = check_scheme(corrupted, TaskSpec("decouple", "general"))
        assert not report.passed
        assert "(1, 3)" in report.checks["schur_product"].detail

    def test_framework_mismatch(self):
        with pytest.raises(ValueError):
            check_scheme(S2, TaskSpec("decouple", "general"))
        with pytest.raises(ValueError):
            check_scheme(synth_decouple_general(1), TaskSpec("decouple", "zz"))

    def test_local_flag_controls_row_sum_check(self):
        s = synth_decouple_zz(4, remove_local_terms=False)
        assert check_scheme(s, TaskSpec("decouple", "zz", remove_local_terms=False)).passed
        report = check_scheme(s, TaskSpec("decouple", "zz", remove_local_terms=True))
        assert not report.passed
        assert not report.checks["zero_row_sums"].passed

    def test_gate_count_zero_for_corrupted_triple(self):
        t = synth_decouple_general(1)
        sz = t.sz.entries.copy()
        sz[0, 0] = -sz[0, 0]
        report = check_scheme(SignTriple(t.sx, t.sy, SignMatrix(sz)),
                              TaskSpec("decouple", "general"))
        assert report.gate_count == 0 and not report.passed


class TestTaskSpecAndDispatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("blah", "zz")
        with pytest.raises(ValueError):
            TaskSpec("decouple", "nope")
        with pytest.raises(ValueError):
            TaskSpec("select", "general", qubits=(1, 1), labels=("x", "y"))
        with pytest.raises(ValueError):
            TaskSpec("select", "general", qubits=(0, 1), labels=("x", "w"))
        with pytest.raises(ValueError):
            TaskSpec("select_pair", "zz", qubits=(0, 1))

    def test_synth_dispatch(self):
        assert isinstance(synth(TaskSpec("decouple", "zz"), 3), SignMatrix)
        assert isinstance(synth(TaskSpec("reverse", "zz"), 3), SignMatrix)
        assert isinstance(synth(TaskSpec("decouple", "general"), 3), SignTriple)
        t = synth(TaskSpec("select", "general", qubits=(0, 1), labels=("x", "z")), 3)
        assert isinstance(t, SignTriple)
        assert isinstance(synth(TaskSpec("select_pair", "general", qubits=(0, 2)), 3),
                          SignTriple)

    def test_parse_task_round_trip(self):
        for body, framework in [
            ("decouple", "zz"),
            ("reverse", "general"),
            ("select:1,3", "zz"),
            ("select:2,3,x,y", "general"),
            ("pair:1,2", "general"),
        ]:
            task = parse_task(body, framework, True)
            assert task.framework == framework

    def test_parse_task_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_task("select:1", "zz", True)


class TestSchemeFormat:
    @pytest.mark.parametrize("task,n", [
        (TaskSpec("decouple", "zz"), 4),
        (TaskSpec("select", "zz", qubits=(0, 2)), 5),
        (TaskSpec("reverse", "zz"), 3),
        (TaskSpec("decouple", "general"), 4),
        (TaskSpec("select", "general", qubits=(1, 3), labels=("y", "z")), 4),
        (TaskSpec("select_pair", "general", qubits=(0, 2)), 4),
        (TaskSpec("reverse", "general"), 2),
    ])
    def test_round_trip(self, task, n):
        scheme = synth(task, n)
        buf = io.StringIO()
        write_scheme(scheme, task, buf)
        buf.seek(0)
        back, back_task = read_scheme(buf)
        assert back_task == task
        if isinstance(scheme, SignMatrix):
            assert np.array_equal(back.entries, scheme.entries)
        else:
            for label in "xyz":
                assert np.array_equal(back.matrix(label).entries,
                                      scheme.matrix(label).entries)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_scheme(io.StringIO("nope\n"))

    def test_shape_mismatch_detected(self):
        task = TaskSpec("decouple", "zz")
        scheme = synth(task, 3)
        buf = io.StringIO()
        write_scheme(scheme, task, buf)
        text = buf.getvalue().replace("n=3", "n=4")
        with pytest.raises(ValueError):
            read_scheme(io.StringIO(text))
