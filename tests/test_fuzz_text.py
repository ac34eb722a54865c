"""Fuzz guard for the text boundary: mutated scheme and Hamiltonian files
fed through `check`, `compile --out` and `verify` keep the exit-code
contract (0, 1 or 2, never an escaping exception), a failed `compile` leaves
an existing --out file as it was, and every reader raises only ValueError."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupler.cli import main
from decoupler.hadamard import paley, read_matrix, write_matrix
from decoupler.pulses import compile_general, read_schedule, write_schedule
from decoupler.schemes import TaskSpec, synth, write_scheme
from decoupler.schur import partition_sylvester, read_partition, write_partition

# characters every format uses, plus some none does
ALPHABET = "+-exyzIXYZGFTR0123456789.,:=_ \nrowsceahmpulnqtk\té"


def _text(write, value) -> str:
    buf = io.StringIO()
    write(value, buf)
    return buf.getvalue()


def _scheme_text(kind, framework, qubits=(), labels=None, n=3):
    task = TaskSpec(kind, framework, qubits, labels)
    return _text(lambda s, buf: write_scheme(s, task, buf), synth(task, n))


SCHEMES = [
    _scheme_text("decouple", "zz"),
    _scheme_text("select", "zz", (0, 2)),
    _scheme_text("reverse", "zz", n=2),
    _scheme_text("decouple", "general", n=2),
    _scheme_text("select", "general", (0, 2), ("x", "y")),
    _scheme_text("select_pair", "general", (0, 1)),
]
HAMILTONIANS = ["0.5 ZZI\n-0.25 IZZ\n0.125 ZIZ\n", "0.5 XXI\n-0.25 IYZ\n0.125 ZIX\n0.3 XII\n"]
READERS = {
    "schedule": (read_schedule, _text(write_schedule, compile_general(
        synth(TaskSpec("decouple", "general"), 2), 0.25))),
    "matrix": (read_matrix, _text(write_matrix, paley(11, 1))),
    "partition": (read_partition, _text(write_partition, partition_sylvester(5))),
}
EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete", "line", "flip"]),
                           st.floats(0, 1), st.text(ALPHABET, min_size=1, max_size=6)),
                 min_size=1, max_size=4)


def _mutate(text: str, edits) -> str:
    for op, where, chunk in edits:
        at = int(where * len(text))
        if op == "replace":
            text = text[:at] + chunk + text[at + len(chunk):]
        elif op == "insert":
            text = text[:at] + chunk + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + len(chunk):]
        elif op == "flip":  # the first sign at or after `at`, so the text stays well formed
            at = min((i for i in (text.find("+", at), text.find("-", at)) if i >= 0), default=-1)
            if at >= 0:
                text = text[:at] + "+-"[text[at] == "+"] + text[at + 1:]
        else:  # repeat or drop the line holding `at`
            start, end = text.rfind("\n", 0, at) + 1, text.find("\n", at) + 1 or len(text)
            text = text[:start] + (text[start:end] * 2 if len(chunk) % 2 else "") + text[end:]
    return text


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
    return code


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(SCHEMES), edits=EDITS)
def test_mutated_scheme_keeps_the_exit_contract(scheme, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "scheme.txt"), Path(tmp, "out.txt")
        path.write_text(_mutate(scheme, edits))
        out.write_bytes(b"an earlier schedule\n")
        _run(["check", str(path)])
        if _run(["compile", str(path), "--out", str(out)]) != 0:
            assert out.read_bytes() == b"an earlier schedule\n"
        _run(["verify", str(path), "--ham", "random:1", "--reps", "2"])


@settings(max_examples=100, deadline=None)
@given(framework=st.sampled_from(["zz", "general"]), edits=EDITS)
def test_mutated_hamiltonian_keeps_the_exit_contract(framework, edits):
    with tempfile.TemporaryDirectory() as tmp:
        scheme, ham = Path(tmp, "scheme.txt"), Path(tmp, "ham.txt")
        scheme.write_text(_scheme_text("decouple", framework))
        ham.write_text(_mutate(HAMILTONIANS[framework == "general"], edits))
        _run(["verify", str(scheme), "--ham", str(ham), "--reps", "2"])


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=100, deadline=None)
@given(edits=EDITS)
def test_readers_raise_only_value_error(name, edits):
    read, text = READERS[name]
    try:
        read(io.StringIO(_mutate(text, edits)))
    except ValueError:
        pass
