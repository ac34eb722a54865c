"""Command-line front end: synth | check | compile | verify | compose |
partition | catalog | analyze.

Exit status: 0 on success/pass, 1 on criterion failure, 2 on usage or
input error, a request too large for memory included.
A reader that closes stdout early changes none of these.
Qubit indices on the command line and in files are 1-based.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import dataclass

from .errors import SizeCapExceeded
from .hadamard import (DEFAULT_SIZE_CAP, _recipe, best_order, exceeds_cap, recipe_str,
                       write_matrix)
from .ghm import check_composed_order, compose_sylvester, gh_for_lambda
from .schemes import _candidates, check_scheme, parse_task, read_scheme, synth, write_scheme
from .pulses import compile_general, write_schedule
from .schur import partition_sylvester, write_partition


@dataclass(frozen=True)
class AnalyzerRow:
    n: int
    framework: str
    intervals: int
    c: float
    construction: str


def analyze_rows(n_max: int, framework: str, sylvester_only: bool = False,
                 cap: int = DEFAULT_SIZE_CAP) -> list[AnalyzerRow]:
    """Minimum-interval construction per qubit count, with overhead c.

    c = m/n for the zz framework and m/(3n) for the general framework.
    """
    if framework not in ("zz", "general"):
        raise ValueError(f"unknown framework {framework!r}")
    rows_per_qubit = 1 if framework == "zz" else 3
    # a general construction plans one qubit beyond its Schur triples when
    # rows other than the all-+ one are left over, that qubit's local terms
    # handled outside the scheme
    table = [] if framework == "zz" else [
        (c.triples + (c.intervals - 3 * c.triples > 1), c)
        for c in _candidates(cap) if not sylvester_only or c.kind == "sylvester"]
    bound = cap if framework == "zz" else max((capacity for capacity, _ in table), default=0)
    if framework == "zz" and n_max > cap:  # no scan down from a cap of any size
        raise ValueError(f"n_max must be in 1..N for the zz framework, N the largest "
                         f"Hadamard order within cap {cap}; got {n_max}, above the cap")
    if framework == "zz" and 1 <= n_max:
        # no order in n_max..cap: the rows end at the largest order below n_max,
        # a scan that costs less than the rows up to n_max would
        try:
            best_order(n_max, cap)
        except SizeCapExceeded:
            bound = next(m for m in range(n_max - 1, 0, -1) if _recipe(m))
    if not 1 <= n_max <= bound:
        raise ValueError(f"n_max must be in 1..{bound} for the {framework} framework "
                         f"under cap {cap}, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        if framework == "zz":
            entry = best_order(n, cap)
            m, construction = entry.achieved, recipe_str(entry.recipe)
        else:
            cand = next(c for capacity, c in table if capacity >= n)
            m, construction = cand.intervals, cand.describe()
        rows.append(AnalyzerRow(n, framework, m, m / (rows_per_qubit * n), construction))
    return rows


def analyze_csv(rows: list[AnalyzerRow]) -> str:
    out = ["n,framework,intervals,c,construction"]
    for row in rows:
        out.append(f"{row.n},{row.framework},{row.intervals},{row.c:.6f},{row.construction}")
    return "\n".join(out) + "\n"


def _open(path: str, mode: str = "r"):
    """`path` opened for a with block; "-" is the sys.stdin or sys.stdout
    current at this call, which the block leaves open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout if "w" in mode else sys.stdin)
    return open(path, mode)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  File arguments stay paths, which
    _dispatch opens where it uses them; "-" is stdin or stdout."""
    parser = argparse.ArgumentParser(prog="decoupler")
    parser.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP,
                        help="size cap for matrix constructions")
    parser.add_argument("--seed", type=int, default=0, help="seed for random inputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="smallest constructible Hadamard order >= n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("partition", help="Schur partition of sylvester(r) rows")
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("compose", help="compose sylvester(r) with a GH(4,lambda)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)

    p = sub.add_parser("synth", help="synthesize a scheme")
    p.add_argument("--task", required=True,
                   help="decouple | select[:l,k[,g,e]] | pair[:i,j] | reverse")
    p.add_argument("--framework", choices=["zz", "general"], default="zz")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--select", metavar="l,k[,g,e]", default=None,
                   help="selection parameters (1-based qubits, Pauli labels)")
    p.add_argument("--pair", metavar="i,j", default=None,
                   help="pair-coupling qubits (1-based)")
    p.add_argument("--local", dest="local", action="store_true", default=True,
                   help="remove local terms (zero row sums); default on")
    p.add_argument("--no-local", dest="local", action="store_false")
    p.add_argument("--out", default="-")

    p = sub.add_parser("check", help="check a scheme file against its task")
    p.add_argument("scheme")

    p = sub.add_parser("compile", help="compile a scheme file to a pulse schedule")
    p.add_argument("scheme")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="simulate a scheme against a Hamiltonian")
    p.add_argument("scheme")
    p.add_argument("--ham", required=True, help="file path or random:<seed>")
    p.add_argument("--time", type=float, default=0.1)
    p.add_argument("--reps", type=int, default=16)
    p.add_argument("--tolerance", type=float, default=None)

    p = sub.add_parser("analyze", help="overhead curve c(n) as CSV")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--framework", choices=["zz", "general"], default="general")
    p.add_argument("--sylvester-only", action="store_true")
    p.add_argument("--out", default="-")
    return parser


def main(argv: list[str] | None = None) -> int:
    status = 0
    try:
        status = _dispatch(_build_parser().parse_args(argv))
        sys.stdout.flush()  # a reader gone early shows here, not at shutdown
    except BrokenPipeError:  # the reader closed stdout early: no error
        if sys.stdout is sys.__stdout__:  # what it never took flushes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except (ValueError, SizeCapExceeded, OSError, MemoryError) as exc:
        with contextlib.suppress(BrokenPipeError):  # stderr closed too: still 2
            print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "catalog":
        print(best_order(args.n, args.cap))
        return 0

    if args.command == "partition":
        if exceeds_cap(args.r, args.cap):
            raise SizeCapExceeded(f"sylvester order 2^{args.r} exceeds cap {args.cap}")
        write_partition(partition_sylvester(args.r), sys.stdout)
        return 0

    if args.command == "compose":
        # every refusal comes before the first byte, an order past the cap
        # before GH(4, lambda) is built; the matrix is never built whole
        check_composed_order(args.r, args.lam, args.cap)
        if 4 * args.lam > DEFAULT_SIZE_CAP:  # verify_gh's Grams grow as its order cubed
            raise SizeCapExceeded(f"GH(4,{args.lam}) has order {4 * args.lam}, past the bound "
                                  f"{DEFAULT_SIZE_CAP} on a GH(4,lambda); --cap does not raise it")
        comp = compose_sylvester(args.r, gh_for_lambda(args.lam), cap=args.cap)
        write_matrix(comp, sys.stdout)
        triples = 4 * comp.lam * comp.n_base_triples  # len(comp.triples), not built
        print(f"triples={triples} leftover={comp.order - 3 * triples}", file=sys.stderr)
        return 0

    if args.command == "synth":
        body = args.task
        for option, value, heads in (("select", args.select, ("select",)),
                                     ("pair", args.pair, ("pair", "select_pair"))):
            if value is None:
                continue
            if body not in heads:
                raise ValueError(f"--{option} needs --task {heads[0]} "
                                 "without its own ':' arguments")
            body = f"{heads[0]}:{value}"
        task = parse_task(body, args.framework, args.local)
        scheme = synth(task, args.n, args.cap)
        with _open(args.out, "w") as out:
            write_scheme(scheme, task, out)
        return 0

    if args.command == "analyze":
        csv = analyze_csv(analyze_rows(args.n_max, args.framework,
                                       args.sylvester_only, args.cap))
        with _open(args.out, "w") as out:
            out.write(csv)
        return 0

    # check, compile and verify read their scheme whole first; like synth and
    # analyze, compile opens --out only once its content exists, so a failed
    # command leaves an existing file as it was
    if args.command == "verify" and args.scheme == args.ham == "-":
        raise ValueError("the scheme and --ham cannot both be read from stdin ('-')")
    with _open(args.scheme) as fh:
        scheme, task = read_scheme(fh)

    if args.command == "compile":
        schedule = compile_general(scheme, args.tau)
        with _open(args.out, "w") as out:
            write_schedule(schedule, out)
        return 0

    if args.command == "check":
        report = check_scheme(scheme, task)
    elif args.command == "verify":
        from .simulate import random_hamiltonian, read_hamiltonian, verify

        head, _, tail = args.ham.partition(":")
        if head == "random":
            seed = int(tail) if tail else args.seed
            h = random_hamiltonian(scheme.qubits, seed, kind=task.framework,
                                   with_local=task.remove_local_terms)
        else:
            with _open(args.ham) as fh:
                h = read_hamiltonian(fh)
        report = verify(task, scheme, h, args.time, args.reps, args.tolerance)
    else:
        raise ValueError(f"unknown command {args.command!r}")
    with contextlib.suppress(BrokenPipeError):  # the report's status stands
        print("\n".join(report.lines()))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
