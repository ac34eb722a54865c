"""Smoke test of the benchmark itself, on a tiny job list per workload.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import load_reference, tail  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], lines
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
                   for line in lines if line.strip())


def test_every_seeded_job_has_a_reference():
    reference = load_reference()
    for workload in WORKLOADS:
        for seed in range(20):
            jobs = job_list(workload, seed)
            assert jobs == job_list(workload, seed)
            assert all(job.key in reference for job in jobs)


def test_tracer_reports_a_vanished_function_as_missing(monkeypatch):
    import tracer

    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setitem(tracer.LAYERS, "pulses", tracer.LAYERS["pulses"] + ["pulses:gone"])
    traced = tracer.Tracer("0")
    traced.install()
    assert traced.missing == ["pulses:gone"]
    from decoupler import cli

    cli.analyze_csv([])
    assert [span[:2] for span in traced.spans] == [["cli", "analyze_csv"]]


def test_tail_leaves_ten_samples_above():
    value, label = tail([[float(x) for x in range(0, 100, 2)],
                         [float(x) for x in range(1, 100, 2)]])
    assert value == 89.0 and label.startswith("p90.00 of 100")
    # too few samples: each pass's slowest job, median over passes
    value, label = tail([[3.0, 1.0], [2.0, 5.0], [4.0, 0.0]])
    assert value == 4.0 and label.startswith("median over 3 passes")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "task_mix", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
