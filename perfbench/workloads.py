"""Seeded input generators for the benchmark workloads.

Generators return plain JSON data and import nothing from bwkit, so the
inputs (and their digest) do not depend on the code under test or on the
test suite's corpora.  Each batch is stratified: slot k of a batch always
draws from the same family (vertex and facet counts, number of variables,
CLI verb, ...) and the seed draws the member.  That keeps the batches of
different seeds similarly hard, so the seed-to-seed spread of a metric reflects the program and the
machine rather than the draw.
"""

from __future__ import annotations

import hashlib
import json
import random

# Batch sizes: on a 2-vCPU x86 VM (Python 3.11) at the first benchmarked
# commit, one pass of either batch takes 15-26 s, so a 55 s run has room for
# the two passes of a best-of figure.  Smaller batches would leave room for
# more passes, but the seed then moves the figures (and peak RSS) more.
SCM_CORPUS_SIZE = 1200
CLI_ROUNDS = 7

FIELD = "p:32003"


def digest(batch) -> str:
    """Short content hash of a generated batch."""
    blob = json.dumps(batch, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- complexes and ideals as plain data -------------------------------------------


def _minimal_nonfaces(n: int, facets: list[list[int]]) -> list[list[int]]:
    """Minimal non-faces by a bitmask scan; independent of bwkit.simplicial."""
    is_face = bytearray(1 << n)
    for f in facets:
        mask = sum(1 << (v - 1) for v in f)
        sub = mask
        while True:  # every subset of the facet
            is_face[sub] = 1
            if not sub:
                break
            sub = (sub - 1) & mask
    out = []
    for s in range(1, 1 << n):
        if is_face[s]:
            continue
        rest = s
        while rest and is_face[s ^ (rest & -rest)]:  # drop one vertex at a time
            rest &= rest - 1
        if not rest:
            out.append([b + 1 for b in range(n) if s >> b & 1])
    return out


def _sr_gens(n: int, nonfaces: list[list[int]]) -> list[list[int]]:
    return [[1 if v in nf else 0 for v in range(1, n + 1)] for nf in nonfaces]


def _antichain_facets(rng: random.Random, n: int, sizes: list[int]) -> list[list[int]]:
    """Facets with the given sizes, none inside another."""
    while True:
        facets = [sorted(rng.sample(range(1, n + 1), s)) for s in sizes]
        sets = [set(f) for f in facets]
        if not any(a <= b for i, a in enumerate(sets) for j, b in enumerate(sets) if i != j):
            return facets


def _sr_input(n: int, facets: list[list[int]], nonfaces: list[list[int]]) -> dict:
    return {"kind": "sr", "n": n, "facets": facets, "gens": _sr_gens(n, nonfaces)}


def _monomial(rng: random.Random, n: int, degree: int) -> list[int]:
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return e


def _non_squarefree_ideal(rng: random.Random, n: int, count: int, max_degree: int = 4) -> list[list[int]]:
    """count generators of degree 1..max_degree, at least one with a square."""
    while True:
        gens = [_monomial(rng, n, rng.randint(1, max_degree)) for _ in range(count)]
        if any(max(g) >= 2 for g in gens):
            return gens


def _borel_closure(n: int, gens: list[list[int]]) -> list[list[int]]:
    """Generators of the smallest strongly stable ideal containing gens."""
    work = {tuple(g) for g in gens}
    frontier = list(work)
    while frontier:
        e = frontier.pop()
        for j in range(1, n):
            if not e[j]:
                continue
            for i in range(j):
                f = list(e)
                f[j] -= 1
                f[i] += 1
                t = tuple(f)
                if t not in work:
                    work.add(t)
                    frontier.append(t)
    return [list(t) for t in sorted(work)]


# -- scm-corpus ---------------------------------------------------------------------

# Stanley-Reisner slots cycle through (vertices, facets, minimal non-faces);
# fixing the generator count as well keeps the cost of a batch close across
# seeds.
SR_FAMILIES = ((6, 2, 4), (6, 3, 5), (7, 2, 5), (6, 2, 6), (6, 3, 6), (7, 2, 4))


def scm_corpus(seed: int) -> list[dict]:
    """Many small inputs: even slots are Stanley-Reisner ideals of random
    6-vertex complexes with two or three facets and 7-vertex complexes with
    two, odd slots random non-squarefree monomial ideals in 3..5 variables
    with degree <= 4 (<= 3 in 5 variables, where degree 4 gives the rare
    second-long inputs that made a batch's time depend on the seed)."""
    rng = random.Random(f"scm-corpus/{seed}")
    out = []
    for k in range(SCM_CORPUS_SIZE):
        if k % 2 == 0:
            n, count, target = SR_FAMILIES[(k // 2) % len(SR_FAMILIES)]
            while True:
                facets = _antichain_facets(rng, n, [rng.randint(2, n - 2) for _ in range(count)])
                nonfaces = _minimal_nonfaces(n, facets)
                if len(nonfaces) == target:
                    break
            out.append(_sr_input(n, facets, nonfaces))
        else:
            n = 3 + (k // 2) % 3
            count = 2 + (k // 8) % 4
            gens = _non_squarefree_ideal(rng, n, count, 4 if n < 5 else 3)
            out.append({"kind": "ideal", "vars": n, "gens": gens})
    return out


# -- cli-verbs ------------------------------------------------------------------------


def _complex(rng: random.Random, n: int, count: int, smin: int, smax: int) -> dict:
    sizes = [rng.randint(smin, smax) for _ in range(count)]
    return {"n": n, "facets": _antichain_facets(rng, n, sizes)}


def _poly_text(rng: random.Random, n: int, degree: int) -> str:
    monos = sorted({tuple(_monomial(rng, n, degree)) for _ in range(3)})
    terms = []
    for e in monos:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        factors = [f"x{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(e) if a]
        body = "*".join(([str(abs(c))] if abs(c) != 1 else []) + factors)
        terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _poly_system(rng: random.Random) -> dict:
    """Three homogeneous polynomials in three variables, at least one of them
    with two or more terms, so gin runs the Buchberger path."""
    n = 3
    while True:
        gens = [_poly_text(rng, n, rng.randint(1, 2)) for _ in range(3)]
        if any(" " in g for g in gens):
            return {"vars": n, "gens": gens}


def _small_ideal(rng: random.Random) -> dict:
    n = rng.randint(3, 5)
    return {"vars": n, "gens": _non_squarefree_ideal(rng, n, rng.randint(2, 5))}


def _stable_ideal(rng: random.Random) -> dict:
    n = rng.randint(3, 5)
    seeds = [_monomial(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    return {"vars": n, "gens": _borel_closure(n, seeds)}


def _betti_complex(rng: random.Random) -> dict:
    """10 vertices: the Hochster scan covers 2^10 induced subcomplexes."""
    return _complex(rng, 10, rng.randint(5, 7), 3, 5)


def _betti_squarefree_ideal(rng: random.Random) -> dict:
    """Stanley-Reisner ideal of a 10-vertex complex, written as an ideal."""
    cpx = _betti_complex(rng)
    return {"vars": cpx["n"], "gens": _sr_gens(cpx["n"], _minimal_nonfaces(cpx["n"], cpx["facets"]))}


def _big_complex(rng: random.Random) -> dict:
    return _complex(rng, rng.randint(10, 11), rng.randint(4, 8), 3, 6)


def _small_complex(rng: random.Random) -> dict:
    return _complex(rng, 5, rng.randint(2, 4), 2, 3)


# (verb, extra arguments, input maker); one round runs every slot once.
CLI_SLOTS = (
    ("betti", [], _betti_complex),
    ("betti", ["--field", FIELD], _betti_complex),
    ("local-cohomology", [], _big_complex),
    ("local-cohomology", ["--field", FIELD], _big_complex),
    ("h-triangle", [], _big_complex),
    ("alexander-dual", [], _big_complex),
    ("bw", [], _big_complex),
    ("bw", ["--via-gin"], _poly_system),
    ("gin", [], _poly_system),
    ("hilbert", [], _small_ideal),
    ("filtration", [], _small_ideal),
    ("scm", [], _small_ideal),
    ("shift", [], _small_complex),
    ("local-cohomology", [], _stable_ideal),
    ("betti", [], _stable_ideal),
    ("betti", [], _betti_squarefree_ideal),
)


def cli_verbs(seed: int) -> list[dict]:
    """CLI invocations: CLI_ROUNDS rounds over CLI_SLOTS, all ten verbs."""
    rng = random.Random(f"cli-verbs/{seed}")
    out = []
    for r in range(CLI_ROUNDS):
        for verb, extra, make in CLI_SLOTS:
            out.append({
                "verb": verb,
                "args": extra + ["--seed", str(r)],
                "input": make(rng),
            })
    return out


GENERATORS = {"scm-corpus": scm_corpus, "cli-verbs": cli_verbs}
