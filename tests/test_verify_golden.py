"""verify's distances and the simulator's operators, frozen bit for bit.

VERIFY_GOLDEN is a sha256 over `repr(verify(...).distance)`, or the refusal's
type and message, for every task of both frameworks: general n = 2..6 and zz
n = 2..10, local terms on and off in the task and in the Hamiltonian, reps 1
and 16, plus the zz schemes under general (dense) Hamiltonians at n <= 6.
OPERATOR_GOLDEN is a sha256 over the dtype and bytes of `hamiltonian_matrix`,
`evolve` and `run_schedule` for n = 1..6 and of `word_monomial` for every word
of up to three letters.  Any change to how the simulator sums, signs or
exponentiates shows here, down to the last bit.  The digests name float bit
patterns of one numpy/LAPACK build (numpy's bundled OpenBLAS on x86-64): on
another build, freeze them anew from a commit known to be right before comparing.
"""

import hashlib
import itertools

import numpy as np

from decoupler.pulses import compile_general
from decoupler.schemes import TaskSpec, synth
from decoupler.simulate import (
    evolve,
    hamiltonian_matrix,
    random_hamiltonian,
    run_schedule,
    verify,
    word_monomial,
)


def _tasks(framework, n, local):
    yield TaskSpec("decouple", framework, remove_local_terms=local)
    yield TaskSpec("reverse", framework, remove_local_terms=local)
    if framework == "zz":
        yield TaskSpec("select", "zz", (0, n - 1), remove_local_terms=local)
        return
    yield TaskSpec("select", "general", (0, n - 1), ("x", "y"), local)
    yield TaskSpec("select", "general", (n - 1, n - 2), ("z", "z"), local)
    yield TaskSpec("select_pair", "general", (n // 2, 0), remove_local_terms=local)


def _distance(task, scheme, h, reps):
    try:
        return repr(verify(task, scheme, h, 0.1, reps).distance)
    except (ValueError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def verify_digest():
    digest = hashlib.sha256()
    cases = ([("general", "general", n) for n in range(2, 7)]
             + [("zz", "zz", n) for n in range(2, 11)]
             + [("zz", "general", n) for n in range(2, 7)])
    for framework, kind, n in cases:
        for local in (True, False):
            for task in _tasks(framework, n, local):
                scheme = synth(task, n)
                for with_local in (True, False):
                    h = random_hamiltonian(n, seed=n, kind=kind, with_local=with_local)
                    for reps in (1, 16):
                        digest.update(f"{task} {kind} {with_local} {reps} "
                                      f"{_distance(task, scheme, h, reps)}\n".encode())
    return digest.hexdigest()


def _array(digest, a):
    a = np.asarray(a)
    digest.update(f"{a.dtype.str} {a.shape}\n".encode())
    digest.update(np.ascontiguousarray(a).tobytes())


def operator_digest():
    digest = hashlib.sha256()
    for n in range(1, 7):
        for kind, with_local in itertools.product(("zz", "general"), (True, False)):
            h = random_hamiltonian(n, seed=100 + n, kind=kind, with_local=with_local)
            _array(digest, hamiltonian_matrix(h))
            for t in (0.37, -0.05):
                _array(digest, evolve(h, t))
            if n >= 2 and kind == "general":
                task = TaskSpec("decouple", "general")
                _array(digest, run_schedule(compile_general(synth(task, n), 0.01), h))
    for k in range(1, 4):
        for letters in itertools.product("IXYZ", repeat=k):
            flip, phase = word_monomial("".join(letters))
            digest.update(f"{flip}\n".encode())
            _array(digest, phase)
    return digest.hexdigest()


VERIFY_GOLDEN = "1f8193c5276a6d6a42aae8edb54ced164be5e8fdb3b02a01e94cbd150339c50c"
OPERATOR_GOLDEN = "7bed2080d044fe69ebb27940b231e750ef110adea7e89898d38268c13d608c90"


def test_verify_distances_are_frozen():
    assert verify_digest() == VERIFY_GOLDEN


def test_simulator_operators_are_frozen():
    assert operator_digest() == OPERATOR_GOLDEN
