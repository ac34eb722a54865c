"""cli.main(argv) can be called many times in one process: the parser is
built once, output without --out goes to the sys.stdout current at that
call, and every file a call opens is closed when it returns."""

import argparse
import builtins
import io
import os
from contextlib import redirect_stdout

import pytest

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
    """Every file argparse's FileType opens during the test."""
    files = []

    def tracking_open(*args, **kwargs):
        files.append(builtins.open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(argparse, "open", tracking_open, raising=False)
    return files


def _scheme(tmp_path, text=None):
    path = tmp_path / "scheme.txt"
    if text is None:
        assert main(["synth", "--task", "decouple", "--framework", "general",
                     "--n", "2", "--out", str(path)]) == 0
    else:
        path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command,code", [
    (["check", "{s}"], 0),
    (["compile", "{s}", "--out", "{o}"], 0),
    (["verify", "{s}", "--ham", "random:1", "--reps", "2"], 0),
    (["synth", "--task", "decouple", "--n", "3", "--out", "{o}"], 0),
    (["analyze", "--n-max", "3", "--out", "{o}"], 0),
    (["synth", "--task", "decouple", "--n", "5000", "--out", "{o}"], 2),
    (["verify", "{s}", "--ham", "random:1", "--reps", "0"], 2),
], ids=["check", "compile", "verify", "synth", "analyze", "synth-too-big",
        "verify-reps-0"])
def test_every_opened_file_is_closed(tmp_path, capsys, opened, command, code):
    scheme = _scheme(tmp_path)
    opened.clear()
    argv = [a.format(s=scheme, o=tmp_path / "out.txt") for a in command]
    assert main(argv) == code
    assert opened and all(f.closed for f in opened)


def test_files_are_closed_when_check_fails(tmp_path, capsys, opened):
    bad = "scheme zz n=2 m=2 task=decouple local=0\nrows 2 2\n++\n++\n"
    assert main(["check", _scheme(tmp_path, bad)]) == 1
    assert len(opened) == 1 and opened[0].closed


def test_files_are_closed_on_unreadable_scheme(tmp_path, capsys, opened):
    assert main(["compile", _scheme(tmp_path, "not a scheme\n"),
                 "--out", str(tmp_path / "out.txt")]) == 2
    assert len(opened) == 2 and all(f.closed for f in opened)
    assert (tmp_path / "out.txt").exists()


def test_files_are_closed_on_a_usage_error(tmp_path, capsys, opened):
    # argparse opens the scheme, then exits 2 on the --out it cannot open
    with pytest.raises(SystemExit) as exc:
        main(["compile", _scheme(tmp_path), "--out", str(tmp_path / "no" / "x")])
    assert exc.value.code == 2
    assert opened and all(f.closed for f in opened)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_exits_2(capsys):
    assert main(["synth", "--task", "decouple", "--n", "3", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
