"""Every (framework, task) at n = 1..4, with and without local-term removal,
through synth -> check -> compile -> verify: each step keeps the exit-code
contract (0 pass, 1 criterion failed, 2 usage or input error) and raises
nothing."""

import itertools

import pytest

from decoupler.cli import main

TASKS = {
    "decouple": {"zz": ["--task", "decouple"], "general": ["--task", "decouple"]},
    "select": {"zz": ["--task", "select", "--select", "1,2"],
               "general": ["--task", "select", "--select", "1,2,x,z"]},
    "pair": {"zz": ["--task", "pair", "--pair", "1,2"],
             "general": ["--task", "pair", "--pair", "1,2"]},
    "reverse": {"zz": ["--task", "reverse"], "general": ["--task", "reverse"]},
}


@pytest.mark.parametrize("framework,task,n,local", itertools.product(
    ["zz", "general"], list(TASKS), [1, 2, 3, 4], [True, False]))
def test_chain_keeps_exit_contract(tmp_path, capsys, framework, task, n, local):
    scheme, schedule = str(tmp_path / "scheme.txt"), str(tmp_path / "schedule.txt")
    synth = ["synth", "--framework", framework, *TASKS[task][framework], "--n", str(n),
             "--out", scheme] + ([] if local else ["--no-local"])
    codes = [main(argv) for argv in (
        synth,
        ["check", scheme],
        ["compile", scheme, "--out", schedule],
        ["verify", scheme, "--ham", "random:1", "--reps", "2"],
    )]
    assert all(code in (0, 1, 2) for code in codes), codes
    assert "Traceback" not in capsys.readouterr().err
    if codes[0] == 0:
        assert codes[1:3] == [0, 0], codes
