import io

import numpy as np
import pytest

from decoupler.cli import AnalyzerRow, analyze_csv, analyze_rows, main
from decoupler.hadamard import read_matrix, is_hadamard
from decoupler.pulses import read_schedule
from decoupler.schemes import read_scheme
from decoupler.schur import read_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_prints_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "--n", "9")
        assert code == 0
        assert "achieved=12" in out and "paley1(11)" in out

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "catalog", "--n", "0")[0] == 2


class TestPartition:
    def test_round_trips_through_reader(self, capsys):
        code, out, _ = run(capsys, "partition", "--r", "4")
        assert code == 0
        r, triples, remainder = read_partition(io.StringIO(out))
        assert r == 4 and len(triples) == 5 and remainder == [0]

    def test_bad_r(self, capsys):
        assert run(capsys, "partition", "--r", "1")[0] == 2


class TestCompose:
    def test_emits_valid_matrix(self, capsys):
        code, out, err = run(capsys, "compose", "--r", "2", "--lambda", "1")
        assert code == 0
        h = read_matrix(io.StringIO(out))
        assert h.order == 16
        assert is_hadamard(h.entries).ok
        assert "triples=4" in err

    def test_unsupported_lambda(self, capsys):
        assert run(capsys, "compose", "--r", "2", "--lambda", "3")[0] == 2


class TestSynthCheckPipeline:
    @pytest.mark.parametrize("argv", [
        ("--task", "decouple", "--framework", "zz", "--n", "4"),
        ("--task", "decouple", "--framework", "general", "--n", "5"),
        ("--task", "select:1,3", "--framework", "zz", "--n", "4"),
        ("--task", "select:1,3,x,y", "--framework", "general", "--n", "3"),
        ("--task", "pair:1,2", "--framework", "general", "--n", "4"),
        ("--task", "reverse", "--framework", "zz", "--n", "3"),
        ("--task", "reverse", "--framework", "general", "--n", "2"),
    ])
    def test_synth_output_checks_clean(self, tmp_path, capsys, argv):
        out_file = tmp_path / "scheme.txt"
        code, _, _ = run(capsys, "synth", *argv, "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "check", str(out_file))
        assert code == 0
        assert "result=pass" in out

    def test_check_corrupted_fixture_exits_1(self, tmp_path, capsys):
        out_file = tmp_path / "scheme.txt"
        run(capsys, "synth", "--task", "decouple", "--framework", "zz",
            "--n", "4", "--no-local", "--out", str(out_file))
        text = out_file.read_text()
        lines = text.splitlines()
        lines[2] = "-" + lines[2][1:]  # flip one sign
        out_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check", str(out_file))
        assert code == 1
        assert "FAIL" in out

    def test_synth_select_zz_file_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "s.txt"
        run(capsys, "synth", "--task", "select:2,5", "--framework", "zz",
            "--n", "6", "--out", str(out_file))
        with open(out_file) as fh:
            scheme, task = read_scheme(fh)
        assert task.qubits == (1, 4)
        assert np.array_equal(scheme.blocks[0][1], scheme.blocks[0][4])

    def test_select_flag_spelling(self, tmp_path, capsys):
        out_file = tmp_path / "s.txt"
        code, _, _ = run(capsys, "synth", "--task", "select", "--select", "1,3,x,y",
                         "--framework", "general", "--n", "3", "--out", str(out_file))
        assert code == 0
        with open(out_file) as fh:
            _, task = read_scheme(fh)
        assert task.qubits == (0, 2) and task.labels == ("x", "y")

    def test_pair_flag_spelling(self, tmp_path, capsys):
        out_file = tmp_path / "s.txt"
        code, _, _ = run(capsys, "synth", "--task", "pair", "--pair", "1,2",
                         "--framework", "general", "--n", "3", "--out", str(out_file))
        assert code == 0
        with open(out_file) as fh:
            _, task = read_scheme(fh)
        assert task.kind == "select_pair" and task.qubits == (0, 1)


class TestCompileVerify:
    def test_compile_emits_readable_schedule(self, tmp_path, capsys):
        scheme_file = tmp_path / "s.txt"
        run(capsys, "synth", "--task", "decouple", "--framework", "zz", "--n", "3",
            "--out", str(scheme_file))
        code, out, _ = run(capsys, "compile", str(scheme_file), "--tau", "0.25")
        assert code == 0
        p = read_schedule(io.StringIO(out))
        assert p.tau == 0.25 and p.qubits == 3

    def test_verify_random_passes(self, tmp_path, capsys):
        scheme_file = tmp_path / "s.txt"
        run(capsys, "synth", "--task", "decouple", "--framework", "zz", "--n", "4",
            "--out", str(scheme_file))
        code, out, _ = run(capsys, "verify", str(scheme_file),
                           "--ham", "random:5", "--time", "1.0", "--reps", "1")
        assert code == 0
        assert "result=pass" in out

    def test_verify_with_hamiltonian_file(self, tmp_path, capsys):
        scheme_file = tmp_path / "s.txt"
        ham_file = tmp_path / "h.txt"
        run(capsys, "synth", "--task", "select:1,2", "--framework", "zz", "--n", "3",
            "--out", str(scheme_file))
        ham_file.write_text("0.37 ZZI\n-0.8 ZIZ\n0.11 IZZ\n")
        code, out, _ = run(capsys, "verify", str(scheme_file),
                           "--ham", str(ham_file), "--time", "0.5", "--reps", "1")
        assert code == 0

    def test_verify_general_trotterized(self, tmp_path, capsys):
        scheme_file = tmp_path / "s.txt"
        run(capsys, "synth", "--task", "decouple", "--framework", "general",
            "--n", "3", "--out", str(scheme_file))
        code, out, _ = run(capsys, "verify", str(scheme_file),
                           "--ham", "random:3", "--time", "0.1", "--reps", "16")
        assert code == 0

    @pytest.mark.parametrize("framework,n", [("zz", 12), ("general", 7)])
    def test_verify_random_covers_the_backend_caps(self, tmp_path, capsys, framework, n):
        # zz n=12 runs on 2^n vectors, general n=7 on dense matrices
        scheme_file = tmp_path / "s.txt"
        run(capsys, "synth", "--task", "decouple", "--framework", framework,
            "--n", str(n), "--out", str(scheme_file))
        code, out, _ = run(capsys, "verify", str(scheme_file), "--ham", "random:1")
        assert code == 0 and out.endswith("result=pass\n")

    def test_verify_random_uses_global_seed(self, tmp_path, capsys):
        scheme_file = tmp_path / "s.txt"
        run(capsys, "synth", "--task", "decouple", "--framework", "zz", "--n", "3",
            "--out", str(scheme_file))
        code, out_a, _ = run(capsys, "--seed", "11", "verify", str(scheme_file),
                             "--ham", "random", "--reps", "1")
        code_b, out_b, _ = run(capsys, "verify", str(scheme_file),
                               "--ham", "random:11", "--reps", "1")
        assert code == code_b == 0
        assert out_a == out_b

    def test_verify_missing_file_exit_2(self, capsys):
        assert main(["verify", "/nonexistent", "--ham", "random:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "/nonexistent" in err


    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # numpy's allocation failure is a MemoryError subclass; none is made here
        def refuse(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr("decoupler.cli.synth", refuse)
        code, out, err = run(capsys, "--cap", "1099511627776", "synth", "--task", "decouple",
                             "--framework", "general", "--n", "100000")
        assert (code, out) == (2, "")
        assert err == "error: Unable to allocate 7.28 TiB for an array\n"


class TestAnalyze:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n-max", "10",
                           "--framework", "general", "--sylvester-only")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,framework,intervals,c,construction"
        assert len(lines) == 11

    def test_pure_function_of_inputs(self):
        a = analyze_rows(30, "general")
        b = analyze_rows(30, "general")
        assert a == b

    def test_overhead_definitions(self):
        for row in analyze_rows(12, "zz"):
            assert row.c == pytest.approx(row.intervals / row.n)
        for row in analyze_rows(12, "general"):
            assert row.c == pytest.approx(row.intervals / (3 * row.n))

    def test_known_small_values(self):
        zz = {r.n: r for r in analyze_rows(6, "zz")}
        assert zz[4].intervals == 4 and zz[4].c == 1.0
        gen = {r.n: r for r in analyze_rows(6, "general")}
        assert gen[5].intervals == 16
        assert gen[5].c == pytest.approx(16 / 15)
        assert gen[5].construction == "sylvester(4)"

    def test_composed_never_increases_intervals(self):
        full = analyze_rows(60, "general")
        sylv = analyze_rows(60, "general", sylvester_only=True)
        for a, b in zip(full, sylv):
            assert a.intervals <= b.intervals

    def test_csv_formatting(self):
        text = analyze_csv([AnalyzerRow(5, "general", 16, 16 / 15, "sylvester(4)")])
        assert text.splitlines()[1] == "5,general,16,1.066667,sylvester(4)"

    def test_bad_bounds(self, capsys):
        assert run(capsys, "analyze", "--n-max", "0")[0] == 2


class TestRouting:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_arg_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog"])
        assert exc.value.code == 2


class ClosedPipe(io.StringIO):
    """A stdout whose reader is gone: every write raises EPIPE."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


class TestClosedStdout:
    @pytest.fixture
    def scheme(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        assert run(capsys, "synth", "--task", "decouple", "--framework", "general",
                   "--n", "3", "--out", str(path))[0] == 0
        return path

    def closed(self, monkeypatch, capsys, stdout, *argv):
        monkeypatch.setattr("sys.stdout", stdout)
        code = main(list(argv))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["synth", "--task", "decouple", "--n", "5"],
                                      ["catalog", "--n", "9"], ["partition", "--r", "4"]])
    def test_a_reader_gone_is_no_error(self, monkeypatch, capsys, argv):
        assert self.closed(monkeypatch, capsys, ClosedPipe(), *argv) == (0, "")

    def test_check_keeps_its_status(self, monkeypatch, capsys, scheme):
        assert self.closed(monkeypatch, capsys, ClosedPipe(), "check", str(scheme)) == (0, "")
        lines = scheme.read_text().splitlines(keepends=True)
        lines[2] = ("-" if lines[2][0] == "+" else "+") + lines[2][1:]
        scheme.write_text("".join(lines))
        assert self.closed(monkeypatch, capsys, ClosedPipe(), "check", str(scheme)) == (1, "")

    def test_verify_keeps_its_status(self, monkeypatch, capsys, scheme):
        argv = ["verify", str(scheme), "--ham", "random:3"]
        assert self.closed(monkeypatch, capsys, ClosedPipe(), *argv) == (0, "")
        assert self.closed(monkeypatch, capsys, ClosedPipe(), *argv, "--reps", "1",
                           "--time", "5", "--tolerance", "1e-12") == (1, "")

    def test_any_other_write_error_exits_2(self, monkeypatch, capsys, scheme):
        code, err = self.closed(monkeypatch, capsys, FullDisk(), "check", str(scheme))
        assert code == 2 and err.startswith("error: ") and "No space left" in err
