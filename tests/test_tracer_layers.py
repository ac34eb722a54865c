"""Every `module:function` the per-layer tracer in perfbench/ wraps exists in
decoupler; a name that does not is traced as missing.  Only the two names
already recorded as deleted may be missing."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
KNOWN_GONE = {"simulate:layer_unitary", "schemes:sylvester_triple_count"}


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for names in tracer.LAYERS.values():
        for qual in names:
            module, _, name = qual.partition(":")
            if not hasattr(importlib.import_module(f"decoupler.{module}"), name):
                missing.add(qual)
    assert missing <= KNOWN_GONE
