"""The decoupler CLI run as a real process (`python -m decoupler.cli`), so the
module's `sys.exit(main())` and the exit status a shell sees are exercised.
Six processes in all; none may print a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def decoupler(*argv, stdin=""):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "decoupler.cli", *argv], input=stdin,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert "Traceback" not in done.stderr
    return done


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


def test_missing_scheme_exits_2(tmp_path):
    done = decoupler("check", str(tmp_path / "missing.txt"))
    assert done.returncode == 2 and done.stderr.startswith("error:")


def test_cap_below_one_exits_2():
    done = decoupler("--cap", "-5", "partition", "--r", "2")
    assert done.returncode == 2 and done.stderr.startswith("error:")
    assert done.stdout == ""
