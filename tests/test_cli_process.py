"""The decoupler CLI run as a real process (`python -m decoupler.cli`), so the
module's `sys.exit(main())` and the exit status a shell sees are exercised.
Fourteen processes in all; none may print a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def command(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "decoupler.cli", *argv], {**os.environ, "PYTHONPATH": path}


def decoupler(*argv, stdin=""):
    args, env = command(*argv)
    done = subprocess.run(args, input=stdin, capture_output=True, text=True, timeout=120,
                          env=env)
    assert "Traceback" not in done.stderr
    return done


def closed_early(*argv, keep=0, buffered=True):
    """(exit status, stderr) of a process whose reader takes `keep` bytes of
    its stdout and then closes the pipe; `buffered` is Python's default
    block-buffered stdout, else PYTHONUNBUFFERED=1 writes each print through."""
    args, env = command(*argv)
    env = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.read(keep)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return proc.wait(timeout=120), err


@pytest.fixture(scope="module")
def scheme():
    done = decoupler("synth", "--task", "decouple", "--framework", "general", "--n", "5")
    assert done.returncode == 0
    return done.stdout


def test_synth_output_checks_and_compiles_through_stdin(scheme):
    check = decoupler("check", "-", stdin=scheme)
    assert check.returncode == 0 and check.stdout.endswith("result=pass\n")
    compiled = decoupler("compile", "-", "--tau", "0.1", stdin=scheme)
    assert compiled.returncode == 0 and compiled.stdout.startswith("pulses n=5 ")


def test_one_flipped_sign_fails_the_check(scheme):
    lines = scheme.splitlines(keepends=True)
    lines[2] = ("-" if lines[2][0] == "+" else "+") + lines[2][1:]
    check = decoupler("check", "-", stdin="".join(lines))
    assert check.returncode == 1 and check.stdout.endswith("result=FAIL\n")


def test_verify_reps_past_float_range_exits_2_with_one_line(scheme):
    done = decoupler("verify", "-", "--ham", "random:1", "--time", "1e100",
                     "--reps", str(10 ** 18), stdin=scheme)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "--reps" in done.stderr
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("time,reps", [("1e12", 10 ** 18), ("1e18", 10 ** 18), ("1e200", 10 ** 18),
                                       ("1e6", 1), ("1e300", 7)])
def test_verify_far_past_the_series_domain_exits_without_traceback(scheme, time, reps):
    """tau sum |c| from about 1 to 1e300: the interval exponential leaves its
    series for the spectrum, and verify reports, fails or refuses in one line."""
    done = decoupler("verify", "-", "--ham", "random:1", "--time", time, "--reps", str(reps),
                     stdin=scheme)
    assert done.returncode in (0, 1, 2) and "Traceback" not in done.stderr
    if done.returncode == 2:
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    else:
        assert done.stderr == "" and done.stdout.startswith("task=decouple")


def test_missing_scheme_exits_2(tmp_path):
    done = decoupler("check", str(tmp_path / "missing.txt"))
    assert done.returncode == 2 and done.stderr.startswith("error:")


def test_missing_scheme_exits_2_with_stderr_closed(tmp_path):
    # `decoupler check missing.txt 2>&1 | true`: the error line meets a closed pipe
    args, env = command("check", str(tmp_path / "missing.txt"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, stderr=write_end, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stdout) == (2, b"")


def test_cap_below_one_exits_2():
    done = decoupler("--cap", "-5", "partition", "--r", "2")
    assert done.returncode == 2 and done.stderr.startswith("error:")
    assert done.stdout == ""


@pytest.mark.parametrize("argv, keep", [
    # 2.5 MB of scheme text: the writer is still writing when the pipe closes
    (["synth", "--task", "decouple", "--framework", "general", "--n", "400"], 10),
    # one short line, still buffered when the command returns
    (["catalog", "--n", "9"], 0),
], ids=["synth-n400", "catalog"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_reader_that_stops_early_is_no_error(argv, keep, buffered):
    assert closed_early(*argv, keep=keep, buffered=buffered) == (0, "")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_failing_check_exits_1_with_stdout_closed(tmp_path, scheme, buffered):
    lines = scheme.splitlines(keepends=True)
    lines[2] = ("-" if lines[2][0] == "+" else "+") + lines[2][1:]
    path = tmp_path / "bad.txt"
    path.write_text("".join(lines))
    assert closed_early("check", str(path), buffered=buffered) == (1, "")
