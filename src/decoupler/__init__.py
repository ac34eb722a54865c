"""Decoupling, selective-coupling and time-reversal schemes for pairwise
qubit Hamiltonians, built from Hadamard and generalized Hadamard matrices."""

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
from .simulate import (
    PauliHamiltonian,
    VerificationResult,
    evolve,
    phase_aligned_distance,
    random_hamiltonian,
    run_schedule,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
