"""decoupler benchmark: three seeded workloads through the real CLI.

    python3 perfbench/run.py --workload {large_n,task_mix,dense_verify}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Every job's outputs are
checked against ``reference.txt``.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from jobs import matches, run_process
from tracer import CACHED, COUNTER_NAMES
from workloads import WORKLOADS, job_list, smoke_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.txt"
# nominal length of one pass on the machine described in README.md
PASS_SECONDS = {"large_n": 13.0, "task_mix": 12.5, "dense_verify": 12.5}
SETUP_PROBES = 2               # fresh interpreters timed per pass for setup_s
TAIL_BEYOND = 10               # samples the tail percentile leaves above it

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_NAMES = ("cli", "hadamard", "schur", "ghm", "schemes.synth",
               "schemes.check", "io", "pulses", "simulate")
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYER_NAMES
       for kind, unit in (("self_s", "s"), ("calls", "count"), ("failed", "count"))},
    "schemes.check.gram_macs": "MAC", "schemes.check.gmacs_per_s": "GMAC/s",
    "pulses.layers": "count", "pulses.gates": "count",
    "io.bytes": "B", "io.mb_per_s": "MB/s",
    "hadamard.entries": "count",
    "ghm.cache_hit_ratio": "ratio", "schur.cache_hit_ratio": "ratio",
    "simulate.matmuls": "count", "simulate.gflop": "GFLOP",
    "simulate.gflops_per_s": "GFLOP/s",
    "cli.import_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict:
    """The program from this checkout's src/, BLAS threads pinned to <= nproc."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


ENV_PROBE = """
import json, sys, numpy, decoupler
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
except Exception:
    blas = "unknown"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas, "decoupler": decoupler.__file__}))
"""


def environment(env: dict) -> dict:
    record = json.loads(subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=120).stdout)
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60).stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    record.update(git_sha=sha, nproc=len(os.sched_getaffinity(0)), cpu=cpu,
                  **{v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")})
    return record


def load_reference() -> dict:
    ref = {}
    for line in REFERENCE.read_text().splitlines():
        key, _, record = line.partition("\t")
        ref[key] = json.loads(record)
    return ref


def setup_probe(env: dict) -> float:
    """Spawn-to-exit time of a fresh interpreter that only imports decoupler."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import decoupler"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def run_pass(jobs: list, work: Path, env: dict,
             span_file: Path | None = None) -> tuple[float, list, int]:
    """One pass over the job list in a fresh worker process, so every pass
    starts with cold caches.  Returns (wall s, [(key, latency s, record)],
    the worker's peak RSS in KiB).  A traced pass writes its spans to
    span_file."""
    work.mkdir(parents=True)
    spec, result = work / "jobs.json", work / "result.json"
    spec.write_text(json.dumps({"dir": str(work), "jobs": [asdict(j) for j in jobs]}))
    command = [sys.executable, str(HERE / "worker.py"), str(spec), str(result)]
    if span_file is not None:
        command.append(str(span_file))
    start = time.perf_counter()
    _, usage = run_process(command, env=env, cwd=work)
    wall = time.perf_counter() - start
    done = json.loads(result.read_text())["results"] if result.exists() else []
    shutil.rmtree(work)
    return wall, [tuple(item) for item in done], usage.ru_maxrss


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes of a run: as many nominal passes as fit in ``seconds``,
    at least one.  The count depends on nothing measured, so two runs with
    the same ``--seconds`` pool the same number of samples."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def tail(passes: list[list[float]]) -> tuple[float, str]:
    """Highest percentile of the pooled latencies with TAIL_BEYOND samples
    above it, and its label.  When the pool is too small for that
    percentile to lie above the median, the slowest job of each pass,
    median over passes."""
    ordered = sorted(sum(passes, []))
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return (statistics.median(max(p) for p in passes),
                f"median over {len(passes)} passes of the slowest of {len(passes[0])}")
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.2f} of {n}"


def layer_metrics(span_files: list[Path], passes: int) -> tuple[dict, list[str]]:
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    failed = dict.fromkeys(LAYER_NAMES, 0)
    counters: dict[str, float] = {}
    caches = {layer: [0, 0] for layer in CACHED}
    imports, missing = [], set()
    for path in span_files:
        data = json.loads(path.read_text())
        for span in data["spans"]:
            if span is None:
                continue
            layer, raised, own = span[0], span[6], span[7]
            self_s[layer] += own
            calls[layer] += 1
            failed[layer] += raised
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for layer, (hits, misses) in data["caches"].items():
            caches[layer][0] += hits
            caches[layer][1] += misses
        imports.append(data["import_s"])
        missing.update(data["missing"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = self_s[layer] / passes
        m[f"{layer}.calls"] = calls[layer] / passes
        m[f"{layer}.failed"] = failed[layer] / passes
    for name in COUNTER_NAMES:
        m[name] = counters.get(name, 0) / passes
    m["schemes.check.gmacs_per_s"] = ratio(counters.get("schemes.check.gram_macs", 0) / 1e9,
                                           self_s["schemes.check"])
    m["io.mb_per_s"] = ratio(counters.get("io.bytes", 0) / 1e6, self_s["io"])
    m["simulate.gflops_per_s"] = ratio(counters.get("simulate.gflop", 0), self_s["simulate"])
    for layer, (hits, misses) in caches.items():
        m[f"{layer}.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return m, sorted(missing)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cheap jobs instead of the full job list")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "decoupler" / "__init__.py").is_file():
        print(f"error: no decoupler sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    env = child_env()
    env_record = environment(env)
    reference = load_reference()
    jobs = (smoke_list if args.smoke else job_list)(args.workload, args.seed)
    passes = pass_count(args.workload, args.seconds)
    # a traced run alternates untraced and traced passes
    modes = [False, True] * max(1, passes // 2) if args.trace else [False] * passes
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        setup_probe(env)   # untimed: writes the bytecode caches
        setup: list[float] = []
        walls: dict[bool, list[float]] = {False: [], True: []}
        results, span_files, pass_latencies, peaks = [], [], [], []
        start = time.perf_counter()
        for number, traced in enumerate(modes):
            # after the first (untraced, traced) round, give up the remaining
            # passes of a program far slower than nominal
            if number >= 1 + args.trace and time.perf_counter() - start > 2 * args.seconds:
                break
            span_file = None
            if traced:
                span_file = work / f"spans-{number}.json"
                span_files.append(span_file)
            else:
                setup += [setup_probe(env) for _ in range(SETUP_PROBES)]
            wall, out, peak = run_pass(jobs, work / f"pass-{number}", env, span_file)
            walls[traced].append(wall)
            results += out
            if not traced:
                pass_latencies.append([latency for _, latency, _ in out])
                peaks.append(peak)
        attempted = len(jobs) * len(walls[False] + walls[True])
        failed_keys = [key for key, _, record in results
                       if not matches(record, reference.get(key))]
        failed = attempted - len(results) + len(failed_keys)
        if not all(pass_latencies):
            print("error: a pass returned no job results", file=sys.stderr)
            return 1

        if args.trace:
            metrics, missing = layer_metrics([f for f in span_files if f.exists()],
                                             len(walls[True]))
            metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                           - statistics.median(walls[False]))
            units = PER_LAYER_UNITS
        else:
            tail_value, tail_label = tail(pass_latencies)
            metrics = {
                "wall_s": statistics.median(walls[False]),
                "job_p50_s": statistics.median(sum(pass_latencies, [])),
                "job_tail_s": tail_value,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(peaks) / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass

    print(f"env {json.dumps(env_record)}")
    print(f"workload {args.workload} seed {args.seed} passes "
          f"{len(walls[False])} untraced, {len(walls[True])} traced; "
          f"{len(jobs)} jobs per pass; pass walls (s) "
          + " ".join(f"{w:.2f}" for w in walls[False] + walls[True]))
    if args.trace:
        print(f"trace: missing functions: {', '.join(missing) or 'none'}")
    else:
        print(f"wall_s: median of {len(walls[False])} passes; "
              f"job_p50_s: median of {len(results)} job latencies; "
              f"job_tail_s: {tail_label}; "
              f"setup_s: median of {len(setup)} interpreters")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} jobs)"
          + (f"; first failures: {failed_keys[:5]}" if failed_keys else ""))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
