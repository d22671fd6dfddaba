"""Identity gate: the library and the CLI give byte-identical outputs on the
benchmark's seeded inputs.

Each digest is compared with a recorded constant:

- for each of scm-corpus seeds 1 and 5, the sha256 of
  json.dumps(scm_check(I).to_json(), sort_keys=True) over the batch, in order;
- for cli-verbs seeds 1-7 (784 invocations), the sha256 of
  json.dumps([stdout, stderr, exit code]) per invocation, in order.  Each
  input is read from stdin, so no file path enters the digest.

The inputs come from perfbench/workloads.py, which imports nothing from
bwkit.  A change that alters outputs on purpose updates these constants and
says so in CHANGES.md; any other change must leave them as they are.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from bwkit import MonomialIdeal, RingSpec, scm_check
from bwkit.cli import main

SCM_DIGESTS = {1: "123cd4d34f6e1f1f", 5: "9baa263cdb10e702"}
CLI_SEEDS = range(1, 8)
CLI_DIGEST = "f5a4ae1b99cf7c57"


def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _short(h) -> str:
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(SCM_DIGESTS))
def test_scm_corpus_reports_are_unchanged(seed):
    h = hashlib.sha256()
    for item in WORKLOADS.scm_corpus(seed):
        ring = RingSpec(item["n"] if item["kind"] == "sr" else item["vars"])
        report = scm_check(MonomialIdeal.from_exponents(ring, item["gens"]))
        h.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert _short(h) == SCM_DIGESTS[seed]


def _run_cli(inv: dict) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(inv["input"]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([inv["verb"], "--input", "-", *inv["args"]])
    finally:
        sys.stdin = stdin
    return out.getvalue(), err.getvalue(), code


def test_cli_verbs_outputs_are_unchanged():
    h = hashlib.sha256()
    count = 0
    for seed in CLI_SEEDS:
        for inv in WORKLOADS.cli_verbs(seed):
            h.update(json.dumps(_run_cli(inv)).encode())
            count += 1
    assert count == 784
    assert _short(h) == CLI_DIGEST
