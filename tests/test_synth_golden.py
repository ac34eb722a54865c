"""Every synthesizer's output, frozen byte for byte.

Each digest is a sha256 over the `write_scheme` text of one synthesizer
across n = 1..40 and {150, 300, 400} at caps 64 and 4096, several
qubit pairs (valid and refused), local terms on and off for zz and, for general selection, all nine label pairs.  A refusal
contributes its exception type and message instead of a scheme, so a
changed error text fails here too.
"""

import hashlib
import io

import numpy as np
import pytest

from decoupler.schemes import (
    TaskSpec,
    _Candidate,
    _candidates,
    _construction_rows,
    check_scheme,
    synth_decouple_general,
    synth_decouple_zz,
    synth_reverse_general,
    synth_reverse_zz,
    synth_select_general,
    synth_select_pair,
    synth_select_zz,
    write_scheme,
)

SIZES = [*range(1, 41), 150, 300, 400]
LABEL_PAIRS = [(g, e) for g in "xyz" for e in "xyz"]


def _pairs(n):
    """Distinct valid pairs first (two for the large sizes, to keep the
    sweep quick), then pairs every synthesizer refuses."""
    valid = [(0, 1), (1, 0), (0, n - 1), (n - 1, n - 2), (n // 3, 2 * n // 3)]
    if n > 40:
        valid = valid[3:]
    seen = []
    for i, j in valid:
        if 0 <= i < n and 0 <= j < n and i != j and (i, j) not in seen:
            seen.append((i, j))
    return seen + [(0, 0), (0, n), (-1, 0)]


def _text(make):
    try:
        scheme, task = make()
    except Exception as exc:  # the refusal itself is part of the contract
        return f"{type(exc).__name__}: {exc}\n"
    buf = io.StringIO()
    write_scheme(scheme, task, buf)
    return buf.getvalue()


def _cases(name, cap):
    """(key, make) for every input of one synthesizer; make() returns the
    scheme and its task, synthesizing first so a refusal raises before the
    task is built."""
    for n in SIZES:
        if name == "decouple_zz":
            for local in (True, False):
                yield f"{n} {local}", lambda: (
                    synth_decouple_zz(n, local, cap),
                    TaskSpec("decouple", "zz", remove_local_terms=local))
        elif name == "reverse_zz":
            for local in (True, False):
                yield f"{n} {local}", lambda: (
                    synth_reverse_zz(n, local, cap),
                    TaskSpec("reverse", "zz", remove_local_terms=local))
        elif name == "select_zz":
            for (i, j), local in [(p, local) for p in _pairs(n) for local in (True, False)]:
                yield f"{n} {i} {j} {local}", lambda: (
                    synth_select_zz(n, i, j, local, cap),
                    TaskSpec("select", "zz", qubits=(i, j), remove_local_terms=local))
        elif name == "decouple_general":
            yield f"{n}", lambda: (synth_decouple_general(n, cap),
                                   TaskSpec("decouple", "general"))
        elif name == "reverse_general":
            yield f"{n}", lambda: (synth_reverse_general(n, cap),
                                   TaskSpec("reverse", "general"))
        elif name == "select_pair":
            for i, j in _pairs(n):
                yield f"{n} {i} {j}", lambda: (
                    synth_select_pair(n, i, j, cap),
                    TaskSpec("select_pair", "general", qubits=(i, j)))
        elif name == "select_general":
            for (i, j), (g, e) in [(p, l) for p in _pairs(n) for l in LABEL_PAIRS + [("x", "w")]]:
                yield f"{n} {i} {j} {g} {e}", lambda: (
                    synth_select_general(n, i, j, g, e, cap),
                    TaskSpec("select", "general", qubits=(i, j), labels=(g, e)))


def digest(name, cap):
    h = hashlib.sha256()
    for key, make in _cases(name, cap):
        h.update(f"{name} {key}\n".encode())
        h.update(_text(make).encode())
    return h.hexdigest()


GOLDEN = {
    ("decouple_zz", 64): "9ccfe0480b2dc8256ee4a6dd6afd9e51e51cc94685cb5dfd10a39711d5f52178",
    ("decouple_zz", 4096): "0e8bd7750d20ef365090c9c21754ffea26e50c90888cc82c68a56f0bf25cb32e",
    ("select_zz", 64): "17c95da27d8989e9441cd2dfa7016bd5391c65bad8e382d0c529527b4338df3e",
    ("select_zz", 4096): "2c5b00e2c8e6d9eab11b884235b445c691cb38a7ced923e0b0c5ec9cbe1c4dfe",
    ("reverse_zz", 64): "e361ef46b83b32472b71d2202cf5ec3f60f8452b57b059d9f9255883b38c9c55",
    ("reverse_zz", 4096): "f83d63111b9f4ce385a4d459bcebd411c8b1ca362dbc3074b31b05ac12610b8f",
    ("decouple_general", 64): "d40e052e80249d65236001f762a4addf79d698db460b9e6e1a25e3c079d61a10",
    ("decouple_general", 4096): "3554d43bb0cc0e03968164a35eebb910494b763438b667604302c52d8bb1ea08",
    ("select_general", 64): "7440236f14ba0bc6ea8f0b7fdcfd8b177ba5bc55b6a23b7036592396777e9761",
    ("select_general", 4096): "688471a96c75b67657e1fd19b27aff2e652bf04f132ca0b2825e82f2fff5c900",
    ("select_pair", 64): "ce202895db36c3c871c5fc7b116454cbda13e86ba1a4e6b391b72057e4d504c1",
    ("select_pair", 4096): "bb067f3dd8e3c053e578e78b421a64a95cc095b71b9fbab29ef1697acaaff92c",
    ("reverse_general", 64): "fe2ff6a0f2b9740be62510cb5bc1b7afcf054dc426cf9459e29fc3e00688e27f",
    ("reverse_general", 4096): "bc0898218a0c91ba88ec7d4b07e44d722e12f7a01419e6c44c5e5e0424ca7ee5",
}


@pytest.mark.parametrize("name,cap", sorted(GOLDEN))
def test_synthesizer_output_is_frozen(name, cap):
    assert digest(name, cap) == GOLDEN[name, cap]


@pytest.mark.parametrize("cap", [64, 1024])
def test_triple_count_matches_the_built_construction(cap):
    for cand in _candidates(cap):
        assert cand.triples == len(_construction_rows(cand, cap)[1]), cand


@pytest.mark.parametrize("cap", [64, 4096])
def test_select_n19_uses_the_composed_construction(cap):
    # sylvester(6) keeps too few Schur triples clear of its five rows, so
    # compose(sylvester(4), gh(4,1)) at the same m = 64 is the one that fits
    scheme = synth_select_general(19, 0, 18, "x", "y", cap)
    assert scheme.intervals == 64
    task = TaskSpec("select", "general", qubits=(0, 18), labels=("x", "y"))
    assert check_scheme(scheme, task).passed
    rows, triples, five = _construction_rows(_Candidate(64, "composed", 4, 1), cap)
    free = [t for t in np.asarray(triples).tolist() if not set(t) & set(five)]
    for q, t in zip(range(1, 18), free):
        for label, row in zip("xyz", t):
            assert np.array_equal(scheme.matrix(label).entries[q], rows[row])
    assert np.array_equal(scheme.sx.entries[0], rows[five[4]])
