"""Decoupling, selective-coupling and time-reversal schemes for pairwise
qubit Hamiltonians, built from Hadamard and generalized Hadamard matrices."""

from importlib import import_module as _import_module

from .hadamard import (
    HadamardMatrix,
    OrderCatalogEntry,
    best_order,
    build_hadamard,
    is_hadamard,
    kron_product,
    normalize,
    paley,
    sylvester,
)
from .schur import FiveRows, SchurPartition, five_rows, partition_sylvester, rows_of
from .ghm import (
    Composition,
    GhMatrix,
    compose,
    compose_sylvester,
    gh4_base,
    gh_kron,
    gh_search,
    interval_bound,
    verify_gh,
)
from .schemes import (
    Scheme,
    SchemeReport,
    TaskSpec,
    check_scheme,
    synth,
    synth_decouple_general,
    synth_decouple_zz,
    synth_reverse_general,
    synth_reverse_zz,
    synth_select_general,
    synth_select_pair,
    synth_select_zz,
)
from .pulses import PulseSchedule, compile_general, compile_zz, gate_count, simplify

# the simulator loads on first use of one of its names (PEP 562), so only
# verify pays for it
_SIMULATE = ("PauliHamiltonian", "VerificationResult", "evolve", "phase_aligned_distance",
             "random_hamiltonian", "run_schedule", "verify")


def __getattr__(name):
    if name == "simulate" or name in _SIMULATE:
        simulate = _import_module(f"{__name__}.simulate")
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + ["simulate", *_SIMULATE]
