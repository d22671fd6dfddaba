"""Outside-in tracing of bwkit: wraps public functions of the library modules
from the benchmark's side and records one span per call.

A span is [name, start, end, parent, input]: perf_counter times, the index
of the enclosing span (-1 at top level) and the id of the benchmark input
being processed.  Spans stay in memory and are written once, by dump().
Nothing under src/ is modified; wrappers replace every module-level binding
of a wrapped function (bwkit.gin, bwkit.filtration.gin, bwkit.simplicial.gin,
...) and the wrapped methods on their class.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> wrapped names; "Class.method" wraps a method on its class.
TARGETS = {
    "monomial": (
        "primary_decomposition",
        "MonomialIdeal.intersect",
        "MonomialIdeal.saturate_variable",
        "hilbert_numerator",
        "dimension_filtration",
        "krull_dimension",
        "is_strongly_stable",
        "betti_eliahou_kervaire",
    ),
    "groebner": ("gin",),
    "simplicial": (
        "reduced_homology_ranks",
        "graded_betti_hochster",
        "local_cohomology_hochster",
        "stanley_reisner_ideal",
        "complex_of_ideal",
        "h_triangle",
        "symmetric_shift",
    ),
    "filtration": ("scm_check", "layer_decomposition", "local_cohomology_scm"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in TARGETS.items() for name in names)


class Recorder:
    """Span store plus the gin repeat counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input_id = 0
        self._gin_last_input: dict = {}
        self.gin_within = 0
        self.gin_across = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def count_gin(self, fn):
        """Classify each gin call as a repeat of an input seen earlier in the
        same top-level call, in an earlier one, or new."""

        @functools.wraps(fn)
        def wrapper(gens, seed=0):
            key = (_gin_key(gens), seed)
            last = self._gin_last_input.get(key)
            if last == self.input_id:
                self.gin_within += 1
            elif last is not None:
                self.gin_across += 1
            self._gin_last_input[key] = self.input_id
            return fn(gens, seed)

        return wrapper

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "gin_within": self.gin_within,
                    "gin_across": self.gin_across,
                    **extra,
                },
                fh,
            )


def _gin_key(gens):
    if isinstance(gens, sys.modules["bwkit.monomial"].MonomialIdeal):
        return gens
    return tuple(sorted(tuple(sorted((m.exponents, c) for m, c in f.terms())) for f in gens))


def install(rec: Recorder) -> None:
    """Wrap every target of every bwkit module already imported."""
    modules = [m for k, m in list(sys.modules.items()) if k == "bwkit" or k.startswith("bwkit.")]
    for modname, names in TARGETS.items():
        mod = sys.modules.get(f"bwkit.{modname}")
        if mod is None:
            continue
        for name in names:
            span_name = f"{modname}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, rec.wrap(span_name, getattr(cls, meth)))
                continue
            orig = getattr(mod, name)
            new = rec.wrap(span_name, orig)
            if span_name == "groebner.gin":
                new = rec.count_gin(new)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and self time (duration minus the
    time covered by its direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for (name, start, end, _, _), c in zip(spans, child):
        out[name]["calls"] += 1
        out[name]["self_s"] += end - start - c
    return out
