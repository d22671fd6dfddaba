"""The benchmark calls the library in two ways that a change to bwkit can
break unseen: its tracer wraps library functions by name, and its cli-verbs
check recomputes each CLI output by calling the library directly."""

import ast
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import bwkit
from bwkit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(name: str):
    """A perfbench module, loaded by path: perfbench/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_cli_verbs_check_agrees_with_the_cli(capsys, monkeypatch):
    """Round 0 of cli-verbs seed 1, one invocation per slot: each stdout
    equals the library output that the benchmark's check expects, less the
    fields the check ignores."""
    child, workloads = _load("child"), _load("workloads")
    batch = workloads.cli_verbs(1)[: len(workloads.CLI_SLOTS)]
    assert {inv["verb"] for inv in batch} == set(bwkit.cli._HANDLERS)
    for inv in batch:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(inv["input"])))
        assert main([inv["verb"], "--input", "-", *inv["args"]]) == 0, inv
        got = json.loads(capsys.readouterr().out)
        want = json.loads(json.dumps(child._expected(bwkit, inv)))
        drop = child._IGNORED
        assert {k: v for k, v in got.items() if k not in drop} == {
            k: v for k, v in want.items() if k not in drop
        }, inv["verb"]
