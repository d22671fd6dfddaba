"""The benchmark's tracer wraps library functions by name; every name it lists
must still resolve, or a traced run fails."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_targets() -> dict:
    """TARGETS read from the tracer's source, which is parsed, not run."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert targets
    for mod_name, names in targets.items():
        obj = importlib.import_module(f"bwkit.{mod_name}")
        for name in names:
            target = obj
            for part in name.split("."):
                target = getattr(target, part, None)
                assert target is not None, f"bwkit.{mod_name}.{name}"
            assert callable(target), f"bwkit.{mod_name}.{name}"
