"""`src/` keeps what the program reaches: every public module-level function
or class of decoupler is referred to somewhere in `src/` (an AST `Name` or
`Attribute`; its own definition and imports do not count), exported by
`decoupler.__all__`, or listed in the per-layer tracer's `LAYERS`.  The check
looks one level deep: a name reached only by another unreached name passes."""

import ast
import importlib.util
from pathlib import Path

import decoupler

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "decoupler"
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {qual for names in tracer.LAYERS.values() for qual in names}


def test_every_public_name_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referred = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
    reached = referred | set(decoupler.__all__)
    traced = _traced()
    unreached = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_") and node.name not in reached
                 and f"{module}:{node.name}" not in traced]
    assert unreached == []
