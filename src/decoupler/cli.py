"""Command-line front end: synth | check | compile | verify | compose |
partition | catalog | analyze.

Exit status: 0 on success/pass, 1 on criterion failure, 2 on usage error.
Qubit indices on the command line and in files are 1-based.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import functools
import sys
from dataclasses import dataclass

from .errors import DesignNotFound, SearchBudgetExceeded, SizeCapExceeded
from .hadamard import DEFAULT_SIZE_CAP, best_order, recipe_str, write_matrix
from .ghm import compose_sylvester, gh_for_lambda
from .schemes import _candidates, check_scheme, parse_task, read_scheme, synth, write_scheme
from .pulses import compile_general, write_schedule
from .schur import partition_sylvester, write_partition
from .simulate import random_hamiltonian, read_hamiltonian, verify


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
    if n_max < 1 or 3 * n_max > cap:
        raise ValueError(f"n_max must be in 1..{cap // 3}")
    rows = []
    if framework == "zz":
        for n in range(1, n_max + 1):
            entry = best_order(n, cap)
            rows.append(AnalyzerRow(n, "zz", entry.achieved,
                                    entry.achieved / n, recipe_str(entry.recipe)))
        return rows
    # a construction plans one qubit beyond its Schur triples when rows other
    # than the all-+ one are left over (odd-r Sylvester, every composition),
    # that qubit's local terms handled outside the scheme; an even-r
    # Sylvester matrix leaves only the all-+ row
    table = [(c.triples + (0 if c.kind == "sylvester" and c.r % 2 == 0 else 1), c)
             for c in _candidates(cap) if not sylvester_only or c.kind == "sylvester"]
    for n in range(1, n_max + 1):
        cand = next((c for capacity, c in table if capacity >= n), None)
        if cand is None:
            raise SizeCapExceeded(f"no construction holds {n} qubits under cap {cap}")
        m = cand.intervals
        rows.append(AnalyzerRow(n, "general", m, m / (3 * n), cand.describe()))
    return rows


def analyze_csv(rows: list[AnalyzerRow]) -> str:
    out = ["n,framework,intervals,c,construction"]
    for row in rows:
        out.append(f"{row.n},{row.framework},{row.intervals},{row.c:.6f},{row.construction}")
    return "\n".join(out) + "\n"


# the ExitStack of the running main call, which closes the files argparse
# opens for that call (per call: the parser is built once and shared)
_open_files: contextvars.ContextVar[contextlib.ExitStack | None] = contextvars.ContextVar(
    "_open_files", default=None)


class _FileType(argparse.FileType):
    """argparse.FileType that hands every file it opens (never stdin or
    stdout) to the calling main, so the file is closed even when a later
    argument fails to parse."""

    def __call__(self, string):
        stream = super().__call__(string)
        stack = _open_files.get()
        if stack is not None and stream not in (sys.stdin, sys.stdout):
            stack.enter_context(stream)
        return stream


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  `--out` defaults to "-", which
    FileType turns into the sys.stdout current at each parse."""
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
    p.add_argument("--out", type=_FileType("w"), default="-")

    p = sub.add_parser("check", help="check a scheme file against its task")
    p.add_argument("scheme", type=_FileType("r"))

    p = sub.add_parser("compile", help="compile a scheme file to a pulse schedule")
    p.add_argument("scheme", type=_FileType("r"))
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--out", type=_FileType("w"), default="-")

    p = sub.add_parser("verify", help="simulate a scheme against a Hamiltonian")
    p.add_argument("scheme", type=_FileType("r"))
    p.add_argument("--ham", required=True, help="file path or random:<seed>")
    p.add_argument("--time", type=float, default=0.1)
    p.add_argument("--reps", type=int, default=16)
    p.add_argument("--tolerance", type=float, default=None)

    p = sub.add_parser("analyze", help="overhead curve c(n) as CSV")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--framework", choices=["zz", "general"], default="general")
    p.add_argument("--sylvester-only", action="store_true")
    p.add_argument("--out", type=_FileType("w"), default="-")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # files are closed inside the try, so a failed final flush exits 2,
        # and also when argparse exits 2 on a later argument
        with contextlib.ExitStack() as opened:
            opened.callback(_open_files.reset, _open_files.set(opened))
            return _dispatch(_build_parser().parse_args(argv))
    except (ValueError, SizeCapExceeded, SearchBudgetExceeded, DesignNotFound,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "catalog":
        print(best_order(args.n, args.cap))
        return 0

    if args.command == "partition":
        if args.r >= args.cap.bit_length():  # 2^r > cap, without building 2^r
            raise SizeCapExceeded(f"sylvester order 2^{args.r} exceeds cap {args.cap}")
        write_partition(partition_sylvester(args.r), sys.stdout)
        return 0

    if args.command == "compose":
        result = compose_sylvester(args.r, gh_for_lambda(args.lam), cap=args.cap)
        write_matrix(result.hprime, sys.stdout)
        print(f"triples={len(result.triples)} leftover="
              f"{result.hprime.order - 3 * len(result.triples)}", file=sys.stderr)
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
        write_scheme(scheme, task, args.out)
        return 0

    if args.command == "check":
        scheme, task = read_scheme(args.scheme)
        report = check_scheme(scheme, task)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    if args.command == "compile":
        scheme, _task = read_scheme(args.scheme)
        write_schedule(compile_general(scheme, args.tau), args.out)
        return 0

    if args.command == "verify":
        scheme, task = read_scheme(args.scheme)
        if args.ham == "random" or args.ham.startswith("random:"):
            _, _, tail = args.ham.partition(":")
            seed = int(tail) if tail else args.seed
            h = random_hamiltonian(scheme.qubits, seed, kind=task.framework,
                                   with_local=task.remove_local_terms)
        else:
            with open(args.ham) as fh:
                h = read_hamiltonian(fh)
        result = verify(task, scheme, h, args.time, args.reps, args.tolerance)
        for line in result.lines():
            print(line)
        return 0 if result.passed else 1

    if args.command == "analyze":
        rows = analyze_rows(args.n_max, args.framework, args.sylvester_only, args.cap)
        args.out.write(analyze_csv(rows))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
