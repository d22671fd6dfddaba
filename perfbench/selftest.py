"""Self-test of the benchmark's own parts; needs no bwkit sources.

    python3 perfbench/selftest.py

Checks that every generator is a pure function of its seed (same seed, same
digest; another seed, another digest) and that span self times are computed
by subtracting direct children only.
"""

import sys

import tracing
import workloads


def main() -> int:
    errors = []
    for name, gen in workloads.GENERATORS.items():
        first, again, other = (workloads.digest(gen(s)) for s in (1, 1, 2))
        print(f"{name}: seed 1 -> {first}, seed 2 -> {other}")
        if first != again:
            errors.append(f"{name}: seed 1 gave two digests ({first}, {again})")
        if first == other:
            errors.append(f"{name}: seeds 1 and 2 gave the same digest")
    spans = [
        ["filtration.scm_check", 0.0, 10.0, -1, 0],
        ["groebner.gin", 1.0, 5.0, 0, 0],
        ["monomial.is_strongly_stable", 2.0, 3.0, 1, 0],
        ["groebner.gin", 6.0, 7.0, 0, 0],
    ]
    agg = tracing.aggregate(spans)
    want = {"filtration.scm_check": (1, 5.0), "groebner.gin": (2, 4.0), "monomial.is_strongly_stable": (1, 1.0)}
    for name, (calls, self_s) in want.items():
        if (agg[name]["calls"], agg[name]["self_s"]) != (calls, self_s):
            errors.append(f"aggregate {name}: {agg[name]} != {calls} calls, {self_s} s")
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
