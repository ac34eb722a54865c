"""Span tracer for the per-layer run, installed from outside the program.

It wraps the public functions listed in LAYERS, wherever a ``decoupler.*``
module binds the function object, so a call made through any module's name
for it (``cli.check_scheme``, ``simulate.compile_zz``, ...) becomes a span.
A span records layer, function, start, end, parent span, job id, whether
the call raised, and its self time (duration minus the child spans inside
it).  Spans stay in memory and are written as JSON when the process ends.

Work counts are computed from argument and result shapes, never measured:
Gram multiply-accumulates, gate layers and gates, Hadamard entries built,
dense matmuls and their FLOPs, and bytes passed through the text readers and
writers.  A listed name the program no longer has is reported as missing.
worker.py installs it for a traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = {
    "cli": ["cli:main", "cli:analyze_rows", "cli:analyze_csv"],
    "hadamard": ["hadamard:" + f for f in (
        "recipe_str", "is_hadamard", "sylvester", "paley", "kron_product",
        "normalize", "is_normalized", "build_hadamard", "best_order",
        "best_matrix", "catalog_gaps")],
    "schur": ["schur:" + f for f in (
        "partition_sylvester", "sorted_triples", "rows_of", "five_rows")],
    "ghm": ["ghm:" + f for f in (
        "gh4_base", "verify_gh", "gh_kron", "gh_search", "gh_for_lambda",
        "constructible_lambdas", "level", "compose", "compose_sylvester",
        "interval_bound")],
    "schemes.synth": ["schemes:" + f for f in (
        "synth", "synth_decouple_zz", "synth_select_zz", "synth_reverse_zz",
        "synth_decouple_general", "synth_select_general", "synth_select_pair",
        "synth_reverse_general", "sylvester_triple_count")],
    "schemes.check": ["schemes:check_scheme"],
    "io": ["schemes:read_scheme", "schemes:write_scheme", "schemes:parse_task",
           "pulses:read_schedule", "pulses:write_schedule",
           "hadamard:read_matrix", "hadamard:write_matrix",
           "simulate:read_hamiltonian", "simulate:write_hamiltonian",
           "schur:read_partition", "schur:write_partition"],
    "pulses": ["pulses:" + f for f in (
        "compile_zz", "compile_general", "simplify", "gate_count")],
    "simulate": ["simulate:" + f for f in (
        "pair_words", "random_hamiltonian", "word_matrix", "hamiltonian_matrix",
        "evolve", "layer_unitary", "run_schedule", "phase_aligned_distance",
        "selection_word", "target_unitary", "verify")],
}
# lru-cached functions whose hit ratio is reported, by layer
CACHED = {"ghm": "ghm:gh_for_lambda", "schur": "schur:partition_sylvester"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matmuls(counters, count, dim):
    counters["simulate.matmuls"] += count
    counters["simulate.gflop"] += count * 8 * dim ** 3 / 1e9


def _matrix_power_matmuls(p: int) -> int:
    """Products numpy.linalg.matrix_power makes for exponent p >= 1."""
    return p.bit_length() - 1 + bin(p).count("1") - 1


def _count_check(c, args, kwargs, result):
    scheme = _arg(args, kwargs, 0, "scheme")
    rows = scheme.qubits if hasattr(scheme, "entries") else 3 * scheme.qubits
    c["schemes.check.gram_macs"] += rows * rows * scheme.intervals


def _count_compile(c, args, kwargs, result):
    layers = result.layers
    c["pulses.layers"] += len(layers)
    c["pulses.gates"] += sum(len(layer) - layer.count("I") for layer in layers)


def _count_hadamard(c, args, kwargs, result):
    c["hadamard.entries"] += result.order ** 2


def _count_run_schedule(c, args, kwargs, result):
    _matmuls(c, len(_arg(args, kwargs, 0, "p").steps), result.shape[0])


def _count_verify(c, args, kwargs, result):
    # the unitarity check and matrix_power inside verify itself
    dim = 2 ** _arg(args, kwargs, 1, "scheme").qubits
    _matmuls(c, 1 + _matrix_power_matmuls(_arg(args, kwargs, 4, "reps")), dim)


def _count_distance(c, args, kwargs, result):
    _matmuls(c, 1, _arg(args, kwargs, 0, "u").shape[0])


def _count_evolve(c, args, kwargs, result):
    if not _arg(args, kwargs, 0, "h").is_diagonal():
        _matmuls(c, 1, result.shape[0])


COUNTERS = {
    "schemes:check_scheme": _count_check,
    "pulses:compile_zz": _count_compile,
    "pulses:compile_general": _count_compile,
    "hadamard:sylvester": _count_hadamard,
    "hadamard:paley": _count_hadamard,
    "hadamard:kron_product": _count_hadamard,
    "simulate:run_schedule": _count_run_schedule,
    "simulate:verify": _count_verify,
    "simulate:phase_aligned_distance": _count_distance,
    "simulate:evolve": _count_evolve,
}
COUNTER_NAMES = ("schemes.check.gram_macs", "pulses.layers", "pulses.gates",
                 "hadamard.entries", "simulate.matmuls", "simulate.gflop",
                 "io.bytes")


def _stream_position(stream) -> int | None:
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _io_bytes(name, stream, before) -> int:
    """Bytes a reader consumed (its file's size) or a writer added."""
    if name.startswith("read_"):
        try:
            return os.fstat(stream.fileno()).st_size
        except (AttributeError, OSError, ValueError):
            return 0
    after = _stream_position(stream)
    return after - before if before is not None and after is not None else 0


class Tracer:
    def __init__(self, job: str = ""):
        self.job = job
        self.spans: list = []
        self._stack: list[int] = []
        self._child: list[float] = []   # child time inside each open span
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.missing: list[str] = []
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        """Wrap every listed function in every decoupler module binding it."""
        import decoupler  # noqa: F401  (imports every submodule)

        wrappers = {}
        for layer, names in LAYERS.items():
            for qual in names:
                module, _, name = qual.partition(":")
                try:
                    fn = getattr(importlib.import_module(f"decoupler.{module}"), name)
                except (ImportError, AttributeError):
                    self.missing.append(qual)
                    continue
                self._originals[qual] = fn
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, qual))
        for modname, module in list(sys.modules.items()):
            if modname != "decoupler" and not modname.startswith("decoupler."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, layer: str, qual: str):
        count = COUNTERS.get(qual)
        name = qual.partition(":")[2]
        params = list(inspect.signature(fn).parameters)
        is_io = layer == "io" and "stream" in params
        stream_index = params.index("stream") if is_io else 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stream = _arg(args, kwargs, stream_index, "stream") if is_io else None
            before = _stream_position(stream) if is_io else None
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            self._child.append(0.0)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                child = self._child.pop()
                self.spans[index] = [layer, name, start, end, parent, self.job,
                                     raised, end - start - child]
                if not raised and count is not None:
                    count(self.counters, args, kwargs, result)
                if is_io:
                    self.counters["io.bytes"] += _io_bytes(name, stream, before)
                # the parent's self time excludes this span and its bookkeeping
                if self._child:
                    self._child[-1] += time.perf_counter() - start

        return traced

    def dump(self, path: Path, import_s: float) -> None:
        caches = {}
        for layer, qual in CACHED.items():
            info = getattr(self._originals.get(qual), "cache_info", None)
            caches[layer] = list(info()[:2]) if info else [0, 0]
        path.write_text(json.dumps({
            "spans": self.spans, "counters": self.counters, "caches": caches,
            "missing": self.missing, "import_s": import_s}))
