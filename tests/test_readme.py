"""README.md's claims, run as written."""

import csv
import dataclasses
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import decoupler
from decoupler import cli
from decoupler.hadamard import best_order

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_sketch_runs_and_its_comments_hold():
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", README, re.S)
    ns = {}
    exec(block.group(1), ns)
    assert (ns["entry"].achieved, ns["entry"].recipe) == (12, ("paley1", 11))
    assert (len(ns["p"].triples), len(ns["p"].remainder)) == (9, 5)
    assert ns["comp"].hprime.entries.shape == (64, 64) and len(ns["comp"].triples) == 20
    assert ns["scheme"].intervals == 16
    assert ns["report"].passed and ns["res"].passed


def _overheads(framework, capsys):
    assert cli.main(["analyze", "--n-max", "100", "--framework", framework]) == 0
    return {int(row["n"]): float(row["c"])
            for row in csv.DictReader(io.StringIO(capsys.readouterr().out))}


def test_analyze_overhead_ranges(capsys):
    text = " ".join(README.split())
    assert "zz's c runs from 1 to 1.6" in text and "general's runs from 1.0039 to 1.9845" in text
    zz = _overheads("zz", capsys)
    assert min(zz.values()) == 1.0 and max(zz.values()) == 1.6
    exact = [n for n, c in zz.items() if c == 1.0]
    assert len(exact) == 24 and exact == [n for n in zz if best_order(n).achieved == n]
    general = _overheads("general", capsys).values()
    assert 1.0039 <= min(general) and max(general) <= 1.9845


def _command_runs():
    """argv of each `decoupler ...` line of the Command line block, without
    its comment; a line with `[option]` runs without it and with it."""
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README, re.S).group(1)
    runs = []
    for line in block.splitlines():
        if line.startswith("decoupler "):
            words = line.split("#")[0].split()[1:]
            plain = [w for w in words if not w.startswith("[")]
            optional = [w.strip("[]") for w in words if w.startswith("[")]
            runs += [plain, plain + optional] if optional else [plain]
    return runs


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_hamiltonian.txt").write_text("0.37 ZIZ\n-0.5 ZZI\n0.25 IZZ\n0.1 ZII\n")
    runs = _command_runs()
    assert len(runs) == 13 and runs[-1][-1] == "--sylvester-only"
    for argv in runs:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("framework,cap,n_max", [
    ("zz", 100, 96), ("general", 100, 21), ("general", 8191, 1365)])
def test_n_max_runs_to_the_quoted_bound(framework, cap, n_max):
    text = " ".join(README.split())
    if framework == "zz":
        assert f"at `--cap {cap}`, {n_max} for zz" in text
    else:
        assert re.search(rf"at `--cap {cap}`, [^;]*?\b{n_max} for general", text)
    assert cli.analyze_rows(n_max, framework, cap=cap)[-1].n == n_max
    with pytest.raises(ValueError, match=f"n_max must be in 1..{n_max} "):
        cli.analyze_rows(n_max + 1, framework, cap=cap)


def _modules():
    """Every decoupler module by its name, the package itself included."""
    names = [info.name for info in pkgutil.iter_modules(decoupler.__path__)]
    return {"decoupler": decoupler,
            **{name: importlib.import_module(f"decoupler.{name}") for name in names}}


def _resolves(obj, attrs):
    """`obj.a.b...` exists, a dataclass field counting as an attribute."""
    for i, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif dataclasses.is_dataclass(obj) and attr in obj.__dataclass_fields__:
            return i == len(attrs) - 1
        else:
            return False
    return True


def test_backticked_names_exist():
    # prose only: the fenced blocks are run by the tests above
    ticks = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
    modules = _modules()
    classes = {name: value for name, value in vars(decoupler).items()
               if isinstance(value, type)}
    dotted = {m.group(0) for t in ticks
              if (m := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", t))}
    heads = {**modules, **classes}
    checked = [p for p in sorted(dotted) if p.split(".")[0] in heads]
    assert len(checked) >= 10  # the scan finds what it checks
    missing = [p for p in checked
               if not _resolves(heads[p.split(".")[0]], p.split(".")[1:])]
    # a class name: a capital, then a lower-case letter (`Scheme`, `GhMatrix`)
    named = {w for t in ticks for w in re.findall(r"\b[A-Z][a-z]\w*", t)}
    assert len(named) >= 6
    missing += [w for w in sorted(named) if not any(hasattr(m, w) for m in modules.values())]
    assert not missing, f"README names what decoupler lacks: {missing}"
