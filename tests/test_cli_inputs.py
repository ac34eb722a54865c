"""Malformed input and out-of-range requests exit 2 with an error line,
never a traceback."""

import io
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from decoupler.cli import main
from decoupler.hadamard import paley, read_matrix, write_matrix
from decoupler.pulses import read_schedule
from decoupler.schemes import _candidates
from decoupler.schur import read_partition

ZZ_SCHEME = "scheme zz n=2 m=2 task=decouple local=0\nrows 2 2\n++\n+-\n"
THREE_QUBIT_SCHEME = ("scheme zz n=3 m=4 task=decouple local=0\n"
                      "rows 3 4\n++++\n+-+-\n++--\n")


def run_cli(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize("text,command,named", [
    (ZZ_SCHEME.replace(" n=2", ""), ["check"], "n="),
    (ZZ_SCHEME.replace(" m=2", ""), ["check"], "m="),
    (ZZ_SCHEME.replace(" task=decouple", ""), ["compile"], "task="),
    (ZZ_SCHEME, ["verify", "--ham", "random:1", "--reps", "0"], "reps"),
    (ZZ_SCHEME.replace("rows 2 2", "rows 0 5"), ["check"], "shape 0 x 5"),
    (THREE_QUBIT_SCHEME.replace("decouple", "select:1,9"), ["check"],
     "qubit indices in range"),
], ids=["no-n", "no-m", "no-task", "reps-0", "rows-0", "select-qubit-9"])
def test_bad_input_exits_2(tmp_path, capsys, text, command, named):
    path = tmp_path / "scheme.txt"
    path.write_text(text)
    code, err = run_cli(capsys, [command[0], str(path), *command[1:]])
    assert code == 2
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_schedule_without_interval_count():
    with pytest.raises(ValueError, match="m="):
        read_schedule(io.StringIO("pulses n=1 tau=1.0\nG I\nF 1.0\nG I\n"))


def test_analyze_beyond_every_construction_exits_2(capsys):
    # 3 * 1366 <= 4100, but no construction under the cap holds 1366 qubits
    code, err = run_cli(capsys, ["--cap", "4100", "analyze", "--n-max", "1366",
                                 "--framework", "general"])
    assert code == 2
    assert "1366" in err and "Traceback" not in err


def _largest_capacity(cap, sylvester_only):
    """The most qubits any general construction under the cap plans: its
    Schur triples, plus one idle qubit when more than the all-+ row is left."""
    return max((c.triples + (c.intervals - 3 * c.triples > 1) for c in _candidates(cap)
                if not sylvester_only or c.kind == "sylvester"), default=0)


@pytest.mark.parametrize("sylvester_only", [False, True])
def test_analyze_general_range_is_the_largest_capacity(capsys, sylvester_only):
    # n_max = the bound writes its rows; one more exits 2 naming both numbers.
    # At these caps a third of the cap is more than any construction holds
    assert [_largest_capacity(cap, sylvester_only) for cap in (3, 100, 4100)] == [0, 21, 1365]
    flag = ["--sylvester-only"] if sylvester_only else []
    for cap in [*range(1, 301), 4100]:
        bound = _largest_capacity(cap, sylvester_only)
        argv = ["--cap", str(cap), "analyze", "--framework", "general", *flag, "--n-max"]
        if bound >= 1:
            assert main([*argv, str(bound)]) == 0, cap
            out = capsys.readouterr().out
            assert out.splitlines()[-1].startswith(f"{bound},general,"), cap
        code, err = run_cli(capsys, [*argv, str(bound + 1)])
        assert code == 2, cap
        assert f"n_max must be in 1..{bound} " in err and f"got {bound + 1}" in err, cap


@pytest.mark.parametrize("time", ["inf", "nan"])
def test_verify_non_finite_time_exits_2(tmp_path, capsys, time):
    path = tmp_path / "scheme.txt"
    path.write_text(ZZ_SCHEME)
    code, err = run_cli(capsys, ["verify", str(path), "--ham", "random:1", "--time", time])
    assert code == 2
    assert err.startswith("error: ") and "time" in err and "Traceback" not in err


def test_reverse_without_interval_exits_2(tmp_path, capsys):
    out = tmp_path / "scheme.txt"
    code, err = run_cli(capsys, ["synth", "--task", "reverse", "--framework", "zz",
                                 "--n", "1", "--no-local", "--out", str(out)])
    assert code == 2
    assert "interval" in err and "Traceback" not in err


def test_verify_zero_interval_scheme_exits_2(tmp_path, capsys):
    path = tmp_path / "scheme.txt"
    path.write_text("scheme zz n=1 m=0 task=reverse local=0\nrows 1 0\n\n")
    assert run_cli(capsys, ["check", str(path)])[0] == 2
    code, err = run_cli(capsys, ["verify", str(path), "--ham", "random:1"])
    assert code == 2
    assert "no interval" in err and "Traceback" not in err


@pytest.mark.parametrize("framework,ham", [("zz", "1e308 ZZ\n1e308 ZZ\n"),
                                          ("general", "1e308 XX\n1e308 YY\n")])
def test_verify_overflowing_coefficients_exit_2(tmp_path, capsys, framework, ham):
    scheme, hfile = tmp_path / "scheme.txt", tmp_path / "ham.txt"
    hfile.write_text(ham)
    assert run_cli(capsys, ["synth", "--task", "decouple", "--framework", framework,
                            "--n", "2", "--no-local", "--out", str(scheme)])[0] == 0
    code, err = run_cli(capsys, ["verify", str(scheme), "--ham", str(hfile)])
    assert code == 2
    assert "must be finite" in err and "Traceback" not in err


def _refuse(*args):
    raise AssertionError("partition_sylvester called before the cap check")


@pytest.mark.parametrize("argv", [
    ["partition", "--r", "13"],
    ["--cap", "64", "partition", "--r", "10"],
    ["compose", "--r", "11", "--lambda", "1"],
    ["--cap", "-5", "partition", "--r", "2"],
    ["--cap", "-5", "compose", "--r", "2", "--lambda", "1"],
])
def test_cap_refused_before_partition(monkeypatch, capsys, argv):
    monkeypatch.setattr("decoupler.cli.partition_sylvester", _refuse)
    monkeypatch.setattr("decoupler.ghm.partition_sylvester", _refuse)
    code, err = run_cli(capsys, argv)
    assert code == 2
    assert "exceeds cap" in err and "Traceback" not in err


@pytest.mark.parametrize("lam", ["0", "-4"])
def test_compose_lambda_below_one_exits_2(capsys, lam):
    code, err = run_cli(capsys, ["compose", "--r", "3", "--lambda", lam])
    assert code == 2
    assert "lambda must be >= 1" in err and "Traceback" not in err


def test_compose_refuses_a_gh_past_the_default_cap_before_building_it(capsys):
    # order 4 * 2048 * 4 is within --cap, but GH(4, 2048) has order 8192 > 4096;
    # building it first traced 8.48 MiB, and building the parser takes ~0.25 MiB
    tracemalloc.start()
    try:
        code, err = run_cli(capsys, ["--cap", "65536", "compose", "--r", "2", "--lambda", "2048"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == ("error: GH(4,2048) has order 8192, past the bound 4096 on a "
                   "GH(4,lambda); --cap does not raise it\n")
    assert peak < 1 << 20, f"peak {peak} B"


@pytest.mark.parametrize("argv", [
    ["--task", "decouple", "--n", "3", "--select", "1,2"],
    ["--task", "select:1,2", "--n", "3", "--select", "2,3"],
    ["--task", "reverse", "--n", "3", "--pair", "1,2"],
    ["--task", "pair:1,2", "--framework", "general", "--n", "3", "--pair", "1,3"],
    ["--task", "select", "--n", "3", "--select", "1,2", "--pair", "1,2"],
], ids=["select-on-decouple", "select-on-select-body", "pair-on-reverse",
        "pair-on-pair-body", "pair-on-select"])
def test_synth_unused_selection_option_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "scheme.txt"
    code, err = run_cli(capsys, ["synth", *argv, "--out", str(out)])
    assert code == 2
    assert err.startswith("error: --") and "Traceback" not in err


@pytest.mark.parametrize("argv,task", [
    (["--task", "select", "--select", "1,3"], "task=select:1,3 "),
    (["--task", "pair", "--framework", "general", "--pair", "2,3"], "task=pair:2,3 "),
    (["--task", "select_pair", "--framework", "general", "--pair", "1,2"], "task=pair:1,2 "),
])
def test_synth_selection_option_fills_a_bare_task(capsys, argv, task):
    code = main(["synth", *argv, "--n", "3"])
    assert code == 0 and task in capsys.readouterr().out


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_compile_non_finite_tau_exits_2(tmp_path, capsys, tau):
    path = tmp_path / "scheme.txt"
    path.write_text(ZZ_SCHEME)
    code, err = run_cli(capsys, ["compile", str(path), f"--tau={tau}"])
    assert code == 2
    assert err.startswith("error: ") and "tau must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_schedule_with_non_finite_tau_is_refused(tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        read_schedule(io.StringIO(f"pulses n=1 m=1 tau={tau}\nG I\nF {tau}\nG I\n"))


@pytest.mark.parametrize("framework,task,bad", [
    ("zz", "select:1,3", "select:0,3"),
    ("general", "select:1,3,x,y", "select:0,3,x,y"),
    ("general", "pair:1,2", "pair:0,2"),
], ids=["zz-select", "general-select", "pair"])
@pytest.mark.parametrize("command", [["check"], ["verify", "--ham", "random:1"]])
def test_task_qubit_zero_exits_2(tmp_path, capsys, framework, task, bad, command):
    # qubit 0 would become index -1, which numpy reads as the last qubit
    path = tmp_path / "scheme.txt"
    assert main(["synth", "--task", task, "--framework", framework, "--n", "3",
                 "--out", str(path)]) == 0
    path.write_text(path.read_text().replace(f"task={task} ", f"task={bad} ", 1))
    code, err = run_cli(capsys, [command[0], str(path), *command[1:]])
    assert code == 2
    assert err.startswith("error: ") and ">= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("tau", ["0", "-1", "-0.0"])
def test_compile_tau_not_positive_exits_2(tmp_path, capsys, tau):
    path = tmp_path / "scheme.txt"
    path.write_text(ZZ_SCHEME)
    code, err = run_cli(capsys, ["compile", str(path), f"--tau={tau}"])
    assert code == 2
    assert err.startswith("error: ") and "tau must be finite and > 0" in err


def test_schedule_with_negative_tau_is_refused():
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        read_schedule(io.StringIO("pulses n=1 m=1 tau=-1.0\nG I\nF -1.0\nG I\n"))


@pytest.mark.parametrize("time", ["0", "-0.1"])
def test_verify_time_not_positive_exits_2(tmp_path, capsys, time):
    path = tmp_path / "scheme.txt"
    path.write_text(ZZ_SCHEME)
    code, err = run_cli(capsys, ["verify", str(path), "--ham", "random:1", f"--time={time}"])
    assert code == 2
    assert err.startswith("error: ") and "time must be > 0" in err


@pytest.mark.parametrize("header,named", [
    ("local0", "'local0'"),
    ("local=", "'local='"),
    ("local=1 local=0", "repeats field local="),
    ("local=7", "local=7 must be 0 or 1"),
    ("local=0 =1", "'=1'"),
    ("locl=0", "field locl= is not one of n=, m=, task=, local="),
], ids=["no-equals", "no-value", "repeated", "local-7", "no-key", "misspelt-local"])
def test_bad_scheme_header_word_exits_2(tmp_path, capsys, header, named):
    path = tmp_path / "scheme.txt"
    path.write_text(ZZ_SCHEME.replace("local=0", header, 1))
    code, err = run_cli(capsys, ["check", str(path)])
    assert code == 2
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("header,named", [
    ("n=1 m=1 tau", "'tau'"),
    ("n=1 m=1 tau=", "'tau='"),
    ("n=1 m=1 tau=0.5 tau=0.5", "repeats field tau="),
    ("n=1 n=1 m=1 tau=0.5", "repeats field n="),
    ("n=1 m=1 tau=0.5 tua=0.5", "field tua= is not one of n=, m=, tau="),
], ids=["tau-no-equals", "tau-no-value", "tau-repeated", "n-repeated", "misspelt-tau"])
def test_bad_schedule_header_word_is_refused(header, named):
    with pytest.raises(ValueError, match=named):
        read_schedule(io.StringIO(f"pulses {header}\nG I\nF 0.5\nG I\n"))


@pytest.mark.parametrize("free,named", [
    ("F 99", "'F 99' differs from tau=0.5"),
    ("F 0.25", "'F 0.25' differs from tau=0.5"),
    ("F", "bad schedule line 'F"),
], ids=["99", "other", "bare"])
def test_free_evolution_other_than_tau_is_refused(free, named):
    with pytest.raises(ValueError, match=named):
        read_schedule(io.StringIO(f"pulses n=1 m=1 tau=0.5\nG I\n{free}\nG I\n"))


def test_free_evolution_equal_to_tau_in_other_spelling_reads():
    p = read_schedule(io.StringIO("pulses n=1 m=1 tau=0.5\nG I\nF 5e-1\nG I\n"))
    assert p.tau == 0.5 and p.total_intervals == 1


@pytest.mark.parametrize("text,named", [
    ("T 01 10 11\nR 0101\nT 1 1 1\n", "2-bit"),
    ("R 0101\nT 01 10 11\n", "4-bit"),
    ("T 01 10 10\n", "XOR"),
    ("T 01 10 11\nR 0b\n", "2-bit"),
], ids=["mixed-widths", "remainder-first", "triple-xor", "not-bits"])
def test_inconsistent_partition_is_refused(text, named):
    with pytest.raises(ValueError, match=named):
        read_partition(io.StringIO(text))


def test_analyze_zz_reaches_the_cap(capsys):
    # zz rows are one per qubit, so the bound is the cap, not a third of it
    code = main(["analyze", "--framework", "zz", "--n-max", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "2000,zz,2000,1.000000,paley1(1999)"


@pytest.mark.parametrize("argv", [
    ["--framework", "general", "--n-max", "1366"],
    ["--framework", "zz", "--n-max", "4097"],
    ["--framework", "zz", "--n-max", "0"],
], ids=["general-1366", "zz-4097", "zz-0"])
def test_analyze_beyond_its_range_exits_2(capsys, argv):
    code, err = run_cli(capsys, ["analyze", *argv])
    assert code == 2
    assert err.startswith("error: ") and "n_max must be in 1.." in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_verify_tolerance_not_finite_or_negative_exits_2(tmp_path, capsys, tolerance):
    path = tmp_path / "scheme.txt"
    path.write_text(ZZ_SCHEME)
    code, err = run_cli(capsys, ["verify", str(path), "--ham", "random:1",
                                 f"--tolerance={tolerance}"])
    assert code == 2
    assert err.startswith("error: ") and "tolerance must be finite and >= 0" in err
    assert "Traceback" not in err


def test_verify_tolerance_zero_is_accepted(tmp_path, capsys):
    # a zz decoupling scheme cancels every ZZ coupling exactly: distance 0
    path = tmp_path / "scheme.txt"
    path.write_text(THREE_QUBIT_SCHEME)
    assert main(["verify", str(path), "--ham", "random:1", "--tolerance", "0"]) == 0
    out = capsys.readouterr().out
    assert "distance=0.000000e+00" in out and "tolerance=0\n" in out


@pytest.mark.parametrize("framework", ["zz", "general"])
def test_synth_no_qubits_exits_2(capsys, framework):
    code, err = run_cli(capsys, ["synth", "--task", "decouple", "--framework", framework,
                                 "--n", "0"])
    assert code == 2
    assert err.startswith("error: ") and "n must be >= 1" in err


def test_verify_hamiltonian_of_other_qubit_count_exits_2(tmp_path, capsys):
    scheme, ham = tmp_path / "scheme.txt", tmp_path / "ham.txt"
    scheme.write_text(THREE_QUBIT_SCHEME)
    ham.write_text("0.5 ZZ\n")
    code, err = run_cli(capsys, ["verify", str(scheme), "--ham", str(ham)])
    assert code == 2
    assert err.startswith("error: ") and "qubit counts differ" in err


@pytest.mark.parametrize("command", [["check"], ["synth", "--task", "select:1,9", "--n", "3"]])
def test_out_of_range_pair_names_its_qubits_and_n(tmp_path, capsys, command):
    path = tmp_path / "scheme.txt"
    path.write_text(THREE_QUBIT_SCHEME.replace("decouple", "select:1,9"))
    argv = [*command, str(path)] if command == ["check"] else command
    code, err = run_cli(capsys, argv)
    assert code == 2 and "Traceback" not in err
    assert "(0, 8) for n=3 (1, 9 in files" in err


def test_verify_scheme_and_hamiltonian_both_from_stdin_exits_2(capsys, monkeypatch):
    # refused before either is read: the one stdin cannot hold both files
    stdin = io.StringIO(ZZ_SCHEME + "0.5 ZZ\n")
    monkeypatch.setattr("sys.stdin", stdin)
    code, err = run_cli(capsys, ["verify", "-", "--ham", "-"])
    assert code == 2
    assert err.startswith("error: ") and "scheme and --ham" in err and "stdin" in err
    assert stdin.tell() == 0


def _outcomes(capsys, path):
    """(exit, stdout, stderr) of check, compile and verify on one scheme file."""
    runs = []
    for argv in (["check", str(path)], ["compile", str(path)],
                 ["verify", str(path), "--ham", "random:1", "--reps", "2"]):
        code = main(argv)
        runs.append((code, *capsys.readouterr()))
    return runs


@pytest.mark.parametrize("framework,task,bad", [
    ("zz", "select:1,2", "select:1,3"),
    ("general", "select:1,2,x,y", "select:1,4,x,y"),
    ("general", "pair:1,2", "pair:4,2"),
], ids=["zz-select", "general-select", "pair"])
def test_task_qubit_out_of_range_exits_2_under_every_command(tmp_path, capsys, framework,
                                                             task, bad):
    n = 2 if framework == "zz" else 3
    path = tmp_path / "scheme.txt"
    assert main(["synth", "--task", task, "--framework", framework, "--n", str(n),
                 "--out", str(path)]) == 0
    path.write_text(path.read_text().replace(f"task={task} ", f"task={bad} ", 1))
    runs = _outcomes(capsys, path)
    err = runs[0][2]
    assert err.startswith("error: need two distinct qubit indices in range: ")
    assert f"for n={n}" in err and err.count("\n") == 1
    assert runs == [(2, "", err)] * 3


@pytest.mark.parametrize("framework", ["zz", "general"])
@pytest.mark.parametrize("tail,named", [
    ("rows 3 4\n++++\n+-+-\n++--\n", "'rows 3 4'"),
    ("\nstray text\n", "'stray text'"),
    ("+-+-\n", "'+-+-'"),
], ids=["block", "text", "row"])
def test_content_after_the_last_block_exits_2_under_every_command(tmp_path, capsys,
                                                                  framework, tail, named):
    path = tmp_path / "scheme.txt"
    assert main(["synth", "--task", "decouple", "--framework", framework, "--n", "3",
                 "--out", str(path)]) == 0
    path.write_text(path.read_text() + tail)
    runs = _outcomes(capsys, path)
    err = runs[0][2]
    assert err == f"error: scheme file has content after its last row: {named}\n"
    assert runs == [(2, "", err)] * 3


@pytest.mark.parametrize("framework", ["zz", "general"])
def test_trailing_blank_lines_and_crlf_read_the_same(tmp_path, capsys, framework):
    path = tmp_path / "scheme.txt"
    assert main(["synth", "--task", "decouple", "--framework", framework, "--n", "3",
                 "--out", str(path)]) == 0
    text = path.read_text()
    expected = _outcomes(capsys, path)
    assert [code for code, *_ in expected] == [0, 0, 0]
    for variant in (text + "\n\n  \n\t\n", text.replace("\n", "\r\n") + "\r\n"):
        path.write_bytes(variant.encode())
        assert _outcomes(capsys, path) == expected


@pytest.mark.parametrize("read,write,value,what", [
    (read_matrix, write_matrix, paley(11, 1), "matrix"),
], ids=["matrix"])
def test_reader_refuses_content_after_its_last_row(read, write, value, what):
    buf = io.StringIO()
    write(value, buf)
    text = buf.getvalue()
    with pytest.raises(ValueError, match=f"^{what} file has content after its last row: 'junk'$"):
        read(io.StringIO(text + "\n junk \n"))
    for variant in (text + "\n \n", text.replace("\n", "\r\n")):
        assert np.array_equal(read(io.StringIO(variant)).entries, value.entries)


@pytest.mark.parametrize("cap,n_max,bound", [
    (4097, 4097, 4096), (4101, 4101, 4100),
    (7, 5, 4), (7, 7, 4), (13, 13, 12),
])
def test_analyze_zz_range_ends_at_the_largest_order_with_a_recipe(capsys, cap, n_max, bound):
    # no recipe reaches n_max..cap: the range message names the last order that
    # has one, and that n_max writes its rows
    argv = ["--cap", str(cap), "analyze", "--framework", "zz", "--n-max"]
    code, err = run_cli(capsys, [*argv, str(n_max)])
    assert code == 2
    assert f"n_max must be in 1..{bound} " in err and f"got {n_max}" in err
    assert main([*argv, str(bound)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{bound},zz,{bound},")


def _general_scheme(tmp_path):
    path = tmp_path / "scheme.txt"
    assert main(["synth", "--task", "decouple", "--framework", "general", "--n", "3",
                 "--out", str(path)]) == 0
    return str(path)


def test_verify_reps_past_float_range_is_refused_naming_reps(tmp_path, capsys):
    # the dense power's rounding overflows: refused without a numpy warning
    path = _general_scheme(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli(capsys, ["verify", path, "--ham", "random:1", "--time", "1e100",
                                     "--reps", str(10 ** 18)])
    assert code == 2
    assert err.startswith("error: ") and "--reps" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("time,reps", [("5e-324", "1"), ("0.1", str(10 ** 400))],
                         ids=["time-underflows", "reps-past-float"])
@pytest.mark.parametrize("framework", ["zz", "general"])
def test_verify_interval_of_zero_is_refused_naming_time_reps_and_m(tmp_path, capsys, framework,
                                                                    time, reps):
    path = tmp_path / "scheme.txt"
    assert main(["synth", "--task", "decouple", "--framework", framework, "--n", "3",
                 "--out", str(path)]) == 0
    code, err = run_cli(capsys, ["verify", str(path), "--ham", "random:1", "--time", time,
                                 "--reps", reps])
    assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
    assert "--time" in err and "--reps" in err and "m=" in err and "tau must be" not in err


@pytest.mark.parametrize("cap", [4097, 10 ** 12 + 1])
def test_analyze_zz_past_the_cap_is_refused_without_a_scan(capsys, cap):
    # the cap need not have a recipe, so the message names no order as the
    # bound; it is refused at once, with no scan down from the cap
    argv = ["--cap", str(cap), "analyze", "--framework", "zz", "--n-max", str(cap + 1)]
    start = time.perf_counter()
    code, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"got {cap + 1}, above the cap" in err and f"1..{cap} " not in err


NO_INTERVAL_SCHEMES = {
    "zz-select": "scheme zz n=2 m=0 task=select:1,2 local=1\nrows 2 0\n\n\n",
    "general-decouple": ("scheme general n=3 m=0 task=decouple local=1\n"
                         + "rows 3 0\n\n\n\n" * 3),
    "zz-reverse-one-qubit": "scheme zz n=1 m=0 task=reverse local=0\nrows 1 0\n\n",
}


@pytest.mark.parametrize("command", ["check", "compile", "verify"])
@pytest.mark.parametrize("text", NO_INTERVAL_SCHEMES.values(), ids=NO_INTERVAL_SCHEMES.keys())
def test_a_scheme_of_a_pair_with_no_interval_is_refused(tmp_path, capsys, text, command):
    path = tmp_path / "scheme.txt"
    path.write_text(text)
    argv = [command, str(path)] + (["--ham", "random:1"] if command == "verify" else [])
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: scheme has no interval\n"


HAMILTONIAN = "0.5 XX\n-0.25 YZ\n0.125 ZI\n"


@pytest.mark.parametrize("spaced", [
    "\n0.5 XX\n\n-0.25 YZ\n   \n\t\n0.125 ZI\n\n",
    "  \n0.5 XX\n \t \n-0.25 YZ\n0.125 ZI\n   ",
], ids=["blank", "whitespace"])
def test_blank_lines_in_a_hamiltonian_file_are_skipped(tmp_path, capsys, spaced):
    from decoupler.simulate import read_hamiltonian

    assert read_hamiltonian(io.StringIO(spaced)) == read_hamiltonian(io.StringIO(HAMILTONIAN))
    scheme = tmp_path / "scheme.txt"
    assert main(["synth", "--task", "decouple", "--framework", "general", "--n", "2",
                 "--out", str(scheme)]) == 0
    outputs = []
    for name, text in (("plain.txt", HAMILTONIAN), ("spaced.txt", spaced)):
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        assert main(["verify", str(scheme), "--ham", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
