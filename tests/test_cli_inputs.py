"""Malformed input and out-of-range requests exit 2 with an error line,
never a traceback."""

import io

import pytest

from decoupler.cli import main
from decoupler.pulses import read_schedule

ZZ_SCHEME = "scheme zz n=2 m=2 task=decouple local=0\nrows 2 2\n++\n+-\n"


def run_cli(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize("text,command,named", [
    (ZZ_SCHEME.replace(" n=2", ""), ["check"], "n="),
    (ZZ_SCHEME.replace(" m=2", ""), ["check"], "m="),
    (ZZ_SCHEME.replace(" task=decouple", ""), ["compile"], "task="),
    (ZZ_SCHEME, ["verify", "--ham", "random:1", "--reps", "0"], "reps"),
], ids=["no-n", "no-m", "no-task", "reps-0"])
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
    assert run_cli(capsys, ["check", str(path)])[0] == 0
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
