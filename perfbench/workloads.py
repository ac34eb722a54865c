"""Seeded job lists for the three benchmark workloads.

A job is a short chain of decoupler CLI calls (``synth -> check -> compile``,
``synth -> verify``) or a single ``analyze``/``compose`` call, each made
through ``decoupler.cli.main(argv)``.  A job's key
names every input the program sees: framework, task, n, the argument choice
and, for ``verify``, the Hamiltonian.  The reference digests in
``reference.txt`` are looked up by that key, so they hold for any seed: the
seed only chooses which keys a run uses and in what order.

File arguments are written ``@name``; the runner replaces them by paths in
the job's own work directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("large_n", "task_mix", "dense_verify")

# compile --tau values, picked by the argument choice
TAUS = ("0.05", "0.1", "0.25", "1.0")
# Pauli labels of a general-framework selection, picked by the argument choice
LABEL_PAIRS = (("x", "y"), ("z", "z"), ("y", "x"), ("x", "z"))
# Hamiltonians per (framework, n) that dense_verify draws from
HAMILTONIANS = 6
VERIFY_TIME = "0.1"

# task_mix: (framework, task, argument choices); zz has no pair task
MIX_COMBOS = (
    ("zz", "decouple", 2), ("zz", "select", 2), ("zz", "reverse", 1),
    ("general", "decouple", 2), ("general", "select", 2),
    ("general", "pair", 2), ("general", "reverse", 1),
)
MIX_N_MIN, MIX_N_MAX = 2, 128
MIX_PER_COMBO = 42          # 7 combos x 42 = 294 chains, plus 2 analyze calls
MIX_CORRUPT_FRACTION = 0.1
ANALYZE_N_MAX = "1365"

# dense_verify: (framework, task, argument choices, qubit counts)
DENSE_COMBOS = tuple(
    [("general", task, choices, (4, 5, 6)) for task, choices in
     (("decouple", 1), ("select", 2), ("pair", 2), ("reverse", 1))]
    + [("zz", task, choices, (8, 9, 10)) for task, choices in
       (("decouple", 1), ("select", 2), ("reverse", 1))]
)


@dataclass(frozen=True)
class Job:
    key: str
    steps: tuple[tuple[str, ...], ...]
    # (framework, n, index) of a Hamiltonian file written as @ham.txt first
    ham: tuple[str, int, int] | None = None
    # flip one sign of @scheme.txt after the first step; check must then fail
    corrupt: bool = False
    n: int = 0          # qubit count of a chain, 0 for analyze/compose


def qubit_pair(n: int, choice: int) -> tuple[int, int]:
    """Two distinct 1-based qubits of an n-qubit register (n >= 2)."""
    return [(1, 2), (1, n), (n, n // 2), (n // 3 + 1, 2 * n // 3 + 1)][choice]


def _synth(framework: str, task: str, n: int, choice: int, local: bool) -> tuple[str, ...]:
    argv = ["synth", "--task", task, "--framework", framework, "--n", str(n)]
    if task in ("select", "pair"):
        i, j = qubit_pair(n, choice)
        if task == "pair":
            argv += ["--pair", f"{i},{j}"]
        elif framework == "zz":
            argv += ["--select", f"{i},{j}"]
        else:
            argv += ["--select", "{},{},{},{}".format(i, j, *LABEL_PAIRS[choice])]
    if not local:
        argv.append("--no-local")
    return tuple(argv + ["--out", "@scheme.txt"])


def compile_chain(workload: str, framework: str, task: str, n: int, choice: int,
                  local: bool = True, corrupt: bool = False) -> Job:
    """synth -> check -> compile.  A corrupted job stops after check fails."""
    key = f"{workload}/{framework}/{task}/n={n}/c={choice}" + ("/bad" if corrupt else "")
    return Job(key, (
        _synth(framework, task, n, choice, local),
        ("check", "@scheme.txt"),
        ("compile", "@scheme.txt", "--tau", TAUS[choice], "--out", "@schedule.txt"),
    ), corrupt=corrupt, n=n)


def verify_chain(framework: str, task: str, n: int, choice: int, ham: int) -> Job:
    """synth -> verify against a Hamiltonian file made by the benchmark."""
    reps = "1" if task == "reverse" else "16"
    key = f"dense_verify/{framework}/{task}/n={n}/c={choice}/h={ham}"
    return Job(key, (
        _synth(framework, task, n, choice, True),
        ("verify", "@scheme.txt", "--ham", "@ham.txt", "--time", VERIFY_TIME,
         "--reps", reps),
    ), ham=(framework, n, ham), n=n)


def analyze_job(framework: str) -> Job:
    return Job(f"task_mix/analyze/{framework}", (
        ("analyze", "--n-max", ANALYZE_N_MAX, "--framework", framework,
         "--out", "@out.csv"),))


COMPOSE_JOB = Job("large_n/compose/r=8/lambda=2",
                  (("compose", "--r", "8", "--lambda", "2"),))


def hamiltonian_text(framework: str, n: int, index: int) -> str:
    """Pairwise Hamiltonian with local terms, coefficients uniform in [-1, 1]:
    every ZZ pair (zz) or all nine Pauli products per pair (general)."""
    rng = random.Random(f"hamiltonian/{framework}/{n}/{index}")
    labels = "Z" if framework == "zz" else "XYZ"
    lines = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in labels:
                for b in labels:
                    word = ["I"] * n
                    word[i], word[j] = a, b
                    lines.append(f"{rng.uniform(-1, 1)!r} {''.join(word)}")
    for i in range(n):
        for a in labels:
            word = ["I"] * n
            word[i] = a
            lines.append(f"{rng.uniform(-1, 1)!r} {''.join(word)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# job lists (what one pass runs) and pools (every job any seed can pick)

# large_n: one chain per matrix size, (framework, task, n), run in this order
# (the largest first, so the peak RSS is that of a fresh process).  One chain
# of each size, not two, so that a run holds several passes (see README.md);
# tasks whose argument choice leaves the work unchanged.
LARGE_CHAINS = (("general", "decouple", 400),   # m = 2048, sylvester(11)
                ("general", "pair", 300),       # m = 1024
                ("zz", "decouple", 1000))       # m = 1008, Paley I x 2


def _mix_chain(framework: str, task: str, n: int, choice: int, corrupt: bool) -> Job:
    # decouple's two choices differ in --no-local as well as in --tau
    local = not (task == "decouple" and choice == 1)
    return compile_chain("task_mix", framework, task, n, choice, local, corrupt)


def job_list(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one pass, drawn from the workload's pool."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "large_n":
        return [compile_chain("large_n", *chain, rng.randrange(len(TAUS)))
                for chain in LARGE_CHAINS] + [COMPOSE_JOB]
    if workload == "task_mix":
        draws = []
        for framework, task, choices in MIX_COMBOS:
            for k in range(MIX_PER_COMBO):
                # stratified log-uniform n: one draw per stratum
                u = (k + rng.random()) / MIX_PER_COMBO
                n = round(MIX_N_MIN * (MIX_N_MAX / MIX_N_MIN) ** u)
                draws.append((framework, task, n, rng.randrange(choices)))
        bad = set(rng.sample(range(len(draws)), round(MIX_CORRUPT_FRACTION * len(draws))))
        jobs = [_mix_chain(*d, corrupt=i in bad) for i, d in enumerate(draws)]
        jobs += [analyze_job("zz"), analyze_job("general")]
    elif workload == "dense_verify":
        jobs = [verify_chain(framework, task, n, rng.randrange(choices),
                             rng.randrange(HAMILTONIANS))
                for framework, task, choices, ns in DENSE_COMBOS for n in ns]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def smoke_list(workload: str, seed: int) -> list[Job]:
    """A few cheap jobs of the workload's list, for the benchmark's own test."""
    jobs = job_list(workload, seed)
    if workload == "large_n":
        return [j for j in jobs if "/compose/" in j.key or "/zz/" in j.key]
    if workload == "task_mix":
        small = [j for j in jobs if 0 < j.n <= 16]
        return ([j for j in small if not j.corrupt][:8] + [j for j in small if j.corrupt][:2]
                + [j for j in jobs if j.key.endswith("/analyze/zz")])
    return [j for j in jobs if "/decouple/" in j.key and j.n in (4, 8)]


def pool(workload: str) -> list[Job]:
    """Every job that job_list can return for any seed."""
    if workload == "large_n":
        return [compile_chain("large_n", *chain, c) for chain in LARGE_CHAINS
                for c in range(len(TAUS))] + [COMPOSE_JOB]
    if workload == "task_mix":
        return [_mix_chain(framework, task, n, c, corrupt)
                for framework, task, choices in MIX_COMBOS
                for n in range(MIX_N_MIN, MIX_N_MAX + 1)
                for c in range(choices)
                for corrupt in (False, True)] + [analyze_job("zz"), analyze_job("general")]
    if workload == "dense_verify":
        return [verify_chain(framework, task, n, c, h)
                for framework, task, choices, ns in DENSE_COMBOS for n in ns
                for c in range(choices) for h in range(HAMILTONIANS)]
    raise ValueError(f"unknown workload {workload!r}")
