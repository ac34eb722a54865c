"""cli.main(argv) can be called many times in one process: the parser is
built once, output without --out goes to the sys.stdout current at that
call, and every file a call opens is closed when it returns."""

import builtins
import io
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from decoupler import cli
from decoupler.cli import _build_parser, main


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_default_out_follows_the_current_stdout():
    first, second = io.StringIO(), io.StringIO()
    with redirect_stdout(first):
        assert main(["synth", "--task", "decouple", "--n", "2"]) == 0
    with redirect_stdout(second):
        assert main(["synth", "--task", "decouple", "--n", "3"]) == 0
    assert first.getvalue().startswith("scheme zz n=2 ")
    assert second.getvalue().startswith("scheme zz n=3 ")
    assert "n=3" not in first.getvalue()


def test_stdout_is_never_closed():
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["synth", "--task", "decouple", "--n", "2", "--out", "-"]) == 0
        assert main(["analyze", "--n-max", "2"]) == 0
    assert not buf.closed
    assert "n,framework" in buf.getvalue()


@pytest.fixture
def opened(monkeypatch):
    """Every file the CLI opens during the test."""
    files = []

    def tracking_open(*args, **kwargs):
        files.append(builtins.open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    return files


def _scheme(tmp_path, text=None):
    path = tmp_path / "scheme.txt"
    if text is None:
        assert main(["synth", "--task", "decouple", "--framework", "general",
                     "--n", "2", "--out", str(path)]) == 0
    else:
        path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command,code,files", [
    (["check", "{s}"], 0, 1),
    (["compile", "{s}", "--out", "{o}"], 0, 2),
    (["verify", "{s}", "--ham", "random:1", "--reps", "2"], 0, 1),
    (["synth", "--task", "decouple", "--n", "3", "--out", "{o}"], 0, 1),
    (["analyze", "--n-max", "3", "--out", "{o}"], 0, 1),
    (["synth", "--task", "decouple", "--n", "5000", "--out", "{o}"], 2, 0),
    (["verify", "{s}", "--ham", "random:1", "--reps", "0"], 2, 1),
], ids=["check", "compile", "verify", "synth", "analyze", "synth-too-big",
        "verify-reps-0"])
def test_every_opened_file_is_closed(tmp_path, capsys, opened, command, code, files):
    scheme = _scheme(tmp_path)
    opened.clear()
    out = tmp_path / "out.txt"
    argv = [a.format(s=scheme, o=out) for a in command]
    assert main(argv) == code
    # a failed command opens no --out at all, so it creates no file
    assert len(opened) == files and all(f.closed for f in opened)
    assert out.exists() == (code == 0 and "{o}" in command)


def test_files_are_closed_when_check_fails(tmp_path, capsys, opened):
    bad = "scheme zz n=2 m=2 task=decouple local=0\nrows 2 2\n++\n++\n"
    assert main(["check", _scheme(tmp_path, bad)]) == 1
    assert len(opened) == 1 and opened[0].closed


def test_files_are_closed_on_unreadable_scheme(tmp_path, capsys, opened):
    out = tmp_path / "out.txt"
    out.write_text("previous output\n")
    assert main(["compile", _scheme(tmp_path, "not a scheme\n"), "--out", str(out)]) == 2
    assert len(opened) == 1 and opened[0].closed
    assert out.read_text() == "previous output\n"


def test_files_are_closed_on_a_usage_error(tmp_path, capsys, opened):
    # the scheme is read and closed, then the --out that cannot be opened exits 2
    assert main(["compile", _scheme(tmp_path), "--out", str(tmp_path / "no" / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert opened and all(f.closed for f in opened)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_exits_2(capsys):
    assert main(["synth", "--task", "decouple", "--n", "3", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["synth", "--task", "decouple", "--n", "5000", "--out", "{o}"],
    ["synth", "--task", "select:1,1", "--n", "3", "--out", "{o}"],
    ["compile", "{s}", "--tau=0", "--out", "{o}"],
    ["compile", "{bad}", "--out", "{o}"],
    ["analyze", "--n-max", "0", "--out", "{o}"],
    ["--cap", "4100", "analyze", "--n-max", "1366", "--out", "{o}"],
], ids=["synth-too-big", "synth-bad-task", "compile-tau-0", "compile-bad-scheme",
        "analyze-n-max-0", "analyze-beyond-cap"])
def test_failed_command_leaves_existing_out_alone(tmp_path, capsys, command):
    (tmp_path / "bad").mkdir()
    scheme, bad = _scheme(tmp_path), _scheme(tmp_path / "bad", "not a scheme\n")
    out = tmp_path / "out.txt"
    out.write_bytes(b"an earlier run's output\n")
    assert main([a.format(s=scheme, bad=bad, o=out) for a in command]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"an earlier run's output\n"


def test_dash_reads_the_current_stdin_and_leaves_it_open(tmp_path, monkeypatch, capsys):
    stdin = io.StringIO(Path(_scheme(tmp_path)).read_text())
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["check", "-"]) == 0
    assert not stdin.closed
    assert "result=pass" in capsys.readouterr().out


def test_ham_dash_reads_the_current_stdin(tmp_path, monkeypatch, capsys):
    scheme, ham = _scheme(tmp_path), tmp_path / "ham.txt"
    ham.write_text("0.25 XX\n-0.5 ZY\n0.75 YI\n")
    assert main(["verify", scheme, "--ham", str(ham)]) == 0
    from_file = capsys.readouterr().out
    stdin = io.StringIO(ham.read_text())
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["verify", scheme, "--ham", "-"]) == 0
    assert capsys.readouterr().out == from_file
    assert not stdin.closed and "distance=" in from_file
