"""Every synthesizer's output, frozen byte for byte.

Each digest is a sha256 over the `write_scheme` text of one synthesizer
across n = 1..40 and {150, 300, 400} at caps 64 and 4096, several
qubit pairs (valid and refused), local terms on and off for zz and, for general selection, all nine label pairs.  A refusal
contributes its exception type and message instead of a scheme, so a
changed error text fails here too.  The `analyze` CSV is frozen the same
way, up to the largest n_max each cap allows.  So are the `check` report and
the `compile` schedule (or its refusal) of each scheme over a subset of the
sizes, and of a copy with one sign flipped, which fails the Gram criteria and,
in the general framework, the Schur product.
"""

import hashlib
import io

import numpy as np
import pytest

from decoupler.cli import analyze_csv, analyze_rows
from decoupler.pulses import compile_general, write_schedule
from decoupler.schemes import (
    Scheme,
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


def _cases(name, cap, sizes=SIZES):
    """(key, make) for every input of one synthesizer; make() returns the
    scheme and its task, synthesizing first so a refusal raises before the
    task is built."""
    for n in sizes:
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


# sizes whose check reports and schedules are frozen: every zz recipe kind
# (Sylvester, Paley, Kronecker) and the composed general selection at n = 19
CHECK_SIZES = [*range(1, 21), 24, 28, 36, 40, 150]


def _flipped(scheme):
    """The scheme with the sign at (n // 2, m // 2) of its first block flipped."""
    blocks = [b.copy() for b in scheme.blocks]
    n, m = blocks[0].shape
    blocks[0][n // 2, m // 2] *= -1
    return Scheme(tuple(blocks))


def _checked(scheme, task):
    """The check report, then the compiled schedule or its refusal."""
    buf = io.StringIO()
    buf.write("\n".join(check_scheme(scheme, task).lines()) + "\n")
    try:
        write_schedule(compile_general(scheme), buf)
    except ValueError as exc:
        buf.write(f"{type(exc).__name__}: {exc}\n")
    return buf.getvalue()


def check_digest(name, cap):
    h = hashlib.sha256()
    for key, make in _cases(name, cap, CHECK_SIZES):
        try:
            scheme, task = make()
        except Exception:  # refusals are frozen by GOLDEN
            continue
        for variant, s in (("", scheme), (" flipped", _flipped(scheme))):
            h.update(f"{name} {key}{variant}\n".encode())
            h.update(_checked(s, task).encode())
    return h.hexdigest()


CHECK_GOLDEN = {
    ("decouple_zz", 64): "bdf3f9248aec263a9dfc57c703dcd4136222ef7693178cdccc85c0bc30b196cf",
    ("decouple_zz", 4096): "a2e3e6c17c97efeecc448ce88c8d9382a42c5d593ee1ce854238988cafe42733",
    ("select_zz", 64): "be468daeb822bc5cce1e8ddf3dbc844c5b471f879ea5a7bdef869d54e6edf3f5",
    ("select_zz", 4096): "30c30f39d93a92a542e5ad0319669ebce2702997e0fa46cc4719c86c06f4d08b",
    ("reverse_zz", 64): "4f3c5a6e461f525629420ff084d60c6a54562436f8fcc7a331ebcda0975dc1d9",
    ("reverse_zz", 4096): "178bc3703c78e70e58b391d6b3cc342aaafeee4b3494b37a6d75b62c3f73db4e",
    ("decouple_general", 64): "b9f28825affdc82b687fc996e4d4bbba539c2a842664ae5db4438d36757aeb76",
    ("decouple_general", 4096): "94a1150b8861b45da4ddf8ebeae49c93d72cf2251d5ecf3c6c8b45817848fe8a",
    ("select_general", 64): "7cb7c0168bca240924995ca1a6cb39799668746fc4b2162396e4e982cba26528",
    ("select_general", 4096): "96f71e4cd6e27c86b4f01daa60b0d0ff4e6cd208fa2cb647f4bf9684ef35b430",
    ("select_pair", 64): "4acbea3dc40522e30b155757f7658ebe8807f3783119c22eb68c118219ef59ed",
    ("select_pair", 4096): "969d7aa8bb06d9e6fbf83e7aa49ff571e86958fad7bf3a906c96bc63efebbad6",
    ("reverse_general", 64): "8c4f80af617bdb069247e3f5209d372ef33e4f802e965b5384aa5e82206248e7",
    ("reverse_general", 4096): "3321629207e5d4b68e036a19986701362d35983283250ef509ac67b4cbb28c82",
}


@pytest.mark.parametrize("name,cap", sorted(CHECK_GOLDEN))
def test_check_and_compile_output_is_frozen(name, cap):
    assert check_digest(name, cap) == CHECK_GOLDEN[name, cap]


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
        for block, row in zip(scheme.blocks, t):
            assert np.array_equal(block[q], rows(row))
    assert np.array_equal(scheme.blocks[0][0], rows(five[4]))


# zz ignores --sylvester-only, and at these caps a Sylvester matrix is the
# cheapest general construction for every n: the flag changes no byte
ANALYZE_GOLDEN = {
    ("zz", 64, False): "cb6d6741b24d9bf57a26b32f4df8d0937356b8933bcbd60bbc9a01bb2a24ef55",
    ("zz", 64, True): "cb6d6741b24d9bf57a26b32f4df8d0937356b8933bcbd60bbc9a01bb2a24ef55",
    ("zz", 1024, False): "0a3befe5e4c8f716568ec8901c1be85cfafe02b4524f7b18c0ef4906e1677da0",
    ("zz", 1024, True): "0a3befe5e4c8f716568ec8901c1be85cfafe02b4524f7b18c0ef4906e1677da0",
    ("zz", 4096, False): "4026171c3a38d71b4a8f85f321d5680ad638ec8b15d79506da1f8bd1ee0863b5",
    ("zz", 4096, True): "4026171c3a38d71b4a8f85f321d5680ad638ec8b15d79506da1f8bd1ee0863b5",
    ("general", 64, False): "e4fe70051804aaf9f0fbb83f23ff8a59232984b7d88cef871eec811ccd817074",
    ("general", 64, True): "e4fe70051804aaf9f0fbb83f23ff8a59232984b7d88cef871eec811ccd817074",
    ("general", 1024, False): "338b2d509364c27072c539232046915deebe9d3d855b46f268120a50f9b82f3c",
    ("general", 1024, True): "338b2d509364c27072c539232046915deebe9d3d855b46f268120a50f9b82f3c",
    ("general", 4096, False): "b923637f815748db666dadc484b140042d63ad68207648ea2200f9b1e25b5c50",
    ("general", 4096, True): "b923637f815748db666dadc484b140042d63ad68207648ea2200f9b1e25b5c50",
}


@pytest.mark.parametrize("framework,cap,sylvester_only", sorted(ANALYZE_GOLDEN))
def test_analyze_output_is_frozen(framework, cap, sylvester_only):
    n_max = cap if framework == "zz" else cap // 3
    csv = analyze_csv(analyze_rows(n_max, framework, sylvester_only, cap))
    assert hashlib.sha256(csv.encode()).hexdigest() == \
        ANALYZE_GOLDEN[framework, cap, sylvester_only]
