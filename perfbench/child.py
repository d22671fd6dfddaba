"""Child-process side of the benchmark.  Every timed pass, set-up probe and
output check runs in a fresh interpreter started by run.py, so no pass sees
state another pass left behind in the process.

    python perfbench/child.py <mode> <workload> <seed> <workdir> <name>

modes:
  setup  import bwkit and build the inputs (for cli-verbs also write the
         input files), then report when ready
  pass   set up, run the batch (scm-corpus), write latencies and reports
  trace  the same as pass with tracing on; also writes the spans
  check  check the outputs of pass <name> by independent routes
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _peak_kib() -> int:
    """This process's own peak RSS (VmHWM), which unlike ru_maxrss leaves out
    the parent's RSS at the moment it spawned this process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def _write(workdir: Path, name: str, **data) -> None:
    with open(workdir / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _build(bwkit, item: dict):
    """(ideal, complex or None) for one scm input."""
    if item["kind"] == "sr":
        ring = bwkit.RingSpec(item["n"])
        return (
            bwkit.MonomialIdeal.from_exponents(ring, item["gens"]),
            bwkit.SimplicialComplex(item["n"], item["facets"]),
        )
    return bwkit.MonomialIdeal.from_exponents(bwkit.RingSpec(item["vars"]), item["gens"]), None


def _setup(workload: str, seed: int):
    import bwkit
    import workloads

    batch = workloads.GENERATORS[workload](seed)
    if workload == "cli-verbs":
        return bwkit, batch
    return bwkit, [_build(bwkit, item) for item in batch]


def run_pass(workload: str, seed: int, workdir: Path, name: str, traced: bool) -> None:
    bwkit, inputs = _setup(workload, seed)
    ready = time.monotonic()
    rec = None
    if traced:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    latencies, reports, errors = [], [], {}
    start = time.perf_counter()
    for k, (ideal, _) in enumerate(inputs):
        if rec is not None:
            rec.input_id = k
        t = time.perf_counter()
        try:
            reports.append(bwkit.scm_check(ideal))
        except Exception as exc:  # one failing input must not end the pass
            errors[k] = repr(exc)
            reports.append(None)
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    if rec is not None:
        rec.dump(str(workdir / f"{name}.spans.json"))
    _write(
        workdir, name, ready=ready, wall=wall, latencies=latencies, errors=errors, peak_kib=_peak_kib(),
        reports=[None if r is None else r.to_json() for r in reports],
    )


def check_scm(workload: str, seed: int, workdir: Path, name: str) -> None:
    """scm_check reports against routes that share no code with scm_check's
    verdict: the homological oracle, the h-triangle, and the Hilbert series."""
    bwkit, inputs = _setup(workload, seed)
    with open(workdir / f"{name}.json", encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    failures = {}
    for k, ((ideal, cpx), rep) in enumerate(zip(inputs, reports)):
        if rep is None:
            continue  # already counted as raised
        bw_in = bwkit.BWPolynomial.from_json(rep["bw_input"])
        bw_gin = bwkit.BWPolynomial.from_json(rep["bw_gin"])
        hs = bwkit.hilbert_numerator(ideal)
        why = []
        if bw_in.specialize() != hs:
            why.append("bw_input does not specialize to the Hilbert series")
        if bw_gin.specialize() != hs:
            why.append("bw_gin does not specialize to the Hilbert series")
        if cpx is not None:
            if rep["scm"] != bwkit.scm_oracle(cpx):
                why.append("verdict differs from scm_oracle")
            if bw_in != bwkit.bw_from_complex(cpx):
                why.append("bw_input differs from bw_from_complex")
        if why:
            failures[k] = "; ".join(why)
    _write(workdir, f"{name}.check", failures=failures)


def write_cli_inputs(batch: list[dict], workdir: Path) -> None:
    indir = workdir / "in"
    indir.mkdir(exist_ok=True)
    for k, inv in enumerate(batch):
        (indir / f"{k}.json").write_text(json.dumps(inv["input"]), encoding="utf-8")


def _expected(bwkit, inv: dict):
    """The library's to_json() for the call a CLI invocation makes."""
    data, args = inv["input"], inv["args"]
    seed = int(args[args.index("--seed") + 1])
    field = int(args[args.index("--field") + 1][2:]) if "--field" in args else None
    verb = inv["verb"]
    if "facets" in data:
        cpx = bwkit.SimplicialComplex.from_json(data)
        if verb == "betti":
            return {**bwkit.graded_betti_hochster(cpx, field).to_json(), "route": "hochster"}
        if verb == "local-cohomology":
            return {**bwkit.local_cohomology_hochster(cpx, field).to_json(), "route": "hochster"}
        if verb == "bw":
            return {"bw": bwkit.bw_from_complex(cpx).to_json(), "via_gin": False}
        return {
            "h-triangle": lambda: bwkit.h_triangle(cpx),
            "alexander-dual": lambda: bwkit.alexander_dual(cpx),
            "shift": lambda: bwkit.symmetric_shift(cpx, seed=seed),
        }[verb]().to_json()
    ring = bwkit.RingSpec(data["vars"])
    if verb in ("gin", "bw"):
        polys = [bwkit.parse_polynomial(ring, g) for g in data["gens"]]
        result = bwkit.gin(polys, seed=seed)
        if verb == "bw":
            return {"bw": bwkit.bw_polynomial(result.ideal, route="borel").to_json(), "via_gin": True}
        return result.to_json()
    ideal = bwkit.MonomialIdeal.from_exponents(ring, data["gens"])
    if verb == "hilbert":
        hs = bwkit.hilbert_numerator(ideal)
        return {"raw": hs.to_json(), "canonical": hs.canonical().to_json()}
    if verb == "filtration":
        return bwkit.dimension_filtration(ideal).to_json()
    if verb == "scm":
        return bwkit.scm_check(ideal, seed=seed).to_json()
    if verb == "local-cohomology":
        return {**bwkit.local_cohomology_scm(ideal, seed=seed).to_json(), "route": "filtration"}
    if verb == "betti" and bwkit.is_strongly_stable(ideal):
        return {**bwkit.betti_eliahou_kervaire(ideal).to_json(), "route": "eliahou-kervaire"}
    if verb == "betti":
        return {**bwkit.graded_betti_hochster(bwkit.complex_of_ideal(ideal)).to_json(), "route": "hochster"}
    raise ValueError(f"no expected output for {verb}")


# Certificate metadata and the fixed erratum note: not part of the computed result.
_IGNORED = {"trials", "borel_certified", "erratum_note"}


def check_cli(workload: str, seed: int, workdir: Path, name: str) -> None:
    bwkit, batch = _setup(workload, seed)
    failures = {}
    for k, inv in enumerate(batch):
        out = workdir / "out" / f"{name}-{k}.json"
        try:
            got = json.loads(out.read_text(encoding="utf-8"))
        except ValueError as exc:
            failures[k] = f"output is not JSON: {exc}"
            continue
        want = json.loads(json.dumps(_expected(bwkit, inv)))
        got = {key: v for key, v in got.items() if key not in _IGNORED}
        want = {key: v for key, v in want.items() if key not in _IGNORED}
        if got != want:
            failures[k] = f"{inv['verb']} output differs from the library"
    _write(workdir, f"{name}.check", failures=failures)


def main(argv: list[str]) -> None:
    mode, workload, seed, workdir, name = argv[0], argv[1], int(argv[2]), Path(argv[3]), argv[4]
    if mode == "setup":
        _, inputs = _setup(workload, seed)
        if workload == "cli-verbs":
            write_cli_inputs(inputs, workdir)
        _write(workdir, name, ready=time.monotonic())
    elif mode in ("pass", "trace"):
        run_pass(workload, seed, workdir, name, traced=mode == "trace")
    elif mode == "check":
        (check_cli if workload == "cli-verbs" else check_scm)(workload, seed, workdir, name)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
