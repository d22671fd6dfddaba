"""Independent brute-force oracles used to pin expected values: standard
monomial counting (monomial and polynomial ideals), exact matrix rank over Q
(by fractions, and by dense Bareiss elimination) and over F_p,
a Koszul-complex computation of graded Betti numbers, scans over all 2^n
vertex subsets for the Krull dimension and the Stanley-Reisner bridge, the
irreducible decomposition by recursive splitting of generators, the
dimension filtration by intersecting those components one at a time,
strong stability by every exchange x_j -> x_i (i < j), not only the adjacent
ones, and Hochster's formulas by dense boundary matrices over every vertex
subset and every face link.

Everything here is deliberately naive and separate from the library's
algorithms; only container types are shared.  One exception: the reference
for scm_check's criteria battery is built from the library's own gin,
filtration and Hilbert numerator but recomputes every one of them at every
level of the chain, as the battery once did.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from operator import le

from bwkit import (
    BettiTable,
    FiltrationChain,
    LocalCohomologyTable,
    Monomial,
    MonomialIdeal,
    Polynomial,
    RingSpec,
    SimplicialComplex,
    borel_depth,
    dimension_filtration,
    gin,
    hilbert_numerator,
    induced_subcomplex,
    link,
)


def monomials_of_degree(n: int, k: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in monomials_of_degree(n - 1, k - first):
            out.append((first,) + rest)
    return out


def all_exchange_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Every exchange x_j -> x_i with i < j, applied to every minimal
    generator, lands in the ideal, by a divisibility scan of the generators."""
    gens = [g.exponents for g in ideal.gens]
    for u in gens:
        for j in range(len(u)):
            for i in range(j if u[j] else 0):
                v = list(u)
                v[j] -= 1
                v[i] += 1
                if not any(all(map(le, g, v)) for g in gens):
                    return False
    return True


def standard_monomial_counts(ideal: MonomialIdeal, upto: int) -> list[int]:
    """dim_k (R/I)_j for j = 0..upto by direct divisibility scan."""
    n = ideal.ring.n
    gens = [g.exponents for g in ideal.gens]
    counts = []
    for k in range(upto + 1):
        c = 0
        for e in monomials_of_degree(n, k):
            if not any(all(e[i] >= g[i] for i in range(n)) for g in gens):
                c += 1
        counts.append(c)
    return counts


def fraction_rank(rows: list[list[Fraction]]) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    a = [r for r in a if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        for r in range(rank + 1, len(a)):
            if a[r][col]:
                f = a[r][col] / top[col]
                a[r] = [x - f * y for x, y in zip(a[r], top)]
        rank += 1
        if rank == len(a):
            break
    return rank


def poly_quotient_dims(ring: RingSpec, gens: list[Polynomial], upto: int) -> list[int]:
    """dim_k (R/<gens>)_j for homogeneous gens, by ranking the spanning set
    {m * g : deg(m * g) = j} in the monomial basis of R_j."""
    n = ring.n
    dims = []
    for j in range(upto + 1):
        basis = {m: idx for idx, m in enumerate(monomials_of_degree(n, j))}
        rows = []
        for g in gens:
            d = g.degree
            if d is None or d > j:
                continue
            for e in monomials_of_degree(n, j - d):
                shift = Monomial(e)
                row = [Fraction(0)] * len(basis)
                for m, c in g.terms():
                    row[basis[(shift * m).exponents]] = c
                rows.append(row)
        dims.append(len(basis) - fraction_rank(rows))
    return dims


def koszul_betti_table(ideal: MonomialIdeal, max_j: int) -> dict[tuple[int, int], int]:
    """beta_{i,j}(R/I) = dim Tor_i(R/I, k)_j via the Koszul complex on all n
    variables, with exact ranks.  Intended for small n."""
    n = ideal.ring.n
    gens = [g.exponents for g in ideal.gens]

    def is_standard(e: tuple[int, ...]) -> bool:
        return not any(all(e[i] >= g[i] for i in range(n)) for g in gens)

    std: dict[int, list[tuple[int, ...]]] = {
        k: [e for e in monomials_of_degree(n, k) if is_standard(e)]
        for k in range(max_j + 1)
    }
    subsets: dict[int, list[tuple[int, ...]]] = {
        i: list(itertools.combinations(range(n), i)) for i in range(n + 1)
    }

    def basis(i: int, j: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        if not 0 <= j - i <= max_j:
            return []
        return [(s, e) for s in subsets.get(i, []) for e in std[j - i]]

    def boundary_rank(i: int, j: int) -> int:
        src = basis(i, j)
        dst = basis(i - 1, j)
        if not src or not dst:
            return 0
        index = {b: k for k, b in enumerate(dst)}
        rows = []
        for s, e in src:
            row = [0] * len(dst)
            for pos, v in enumerate(s):
                e2 = list(e)
                e2[v] += 1
                e2 = tuple(e2)
                if is_standard(e2):
                    s2 = s[:pos] + s[pos + 1:]
                    row[index[(s2, e2)]] += (-1) ** pos
            rows.append(row)
        rows = [[Fraction(x) for x in r] for r in rows]
        return fraction_rank(rows)

    table: dict[tuple[int, int], int] = {}
    for j in range(max_j + 1):
        for i in range(n + 1):
            dim = len(basis(i, j))
            if dim == 0:
                continue
            b = dim - boundary_rank(i, j) - boundary_rank(i + 1, j)
            if b:
                table[(i, j)] = b
    return table


def binomial_dims(n: int, upto: int) -> list[int]:
    return [comb(n - 1 + k, k) for k in range(upto + 1)]


def scan_krull_dimension(ideal: MonomialIdeal) -> int:
    """Largest variable subset containing no generator's support; -1 for <1>."""
    if ideal.is_unit:
        return -1
    n = ideal.ring.n
    supports = [frozenset(g.support()) for g in ideal.gens]
    for k in range(n, -1, -1):
        for cand in itertools.combinations(range(1, n + 1), k):
            s = frozenset(cand)
            if not any(sup <= s for sup in supports):
                return k
    raise AssertionError("unreachable: empty set meets no support")


def scan_minimal_nonfaces(cpx: SimplicialComplex) -> list[tuple[int, ...]]:
    """Non-faces all of whose codimension-one subsets are faces."""
    faces = cpx.faces()
    out: list[tuple[int, ...]] = []
    for k in range(1, cpx.n + 1):
        for cand in itertools.combinations(range(1, cpx.n + 1), k):
            s = frozenset(cand)
            if s in faces:
                continue
            if all(s - {v} in faces for v in cand):
                out.append(cand)
    return out


def scan_complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Every vertex subset containing no generator's support is a face."""
    n = ideal.ring.n
    supports = [frozenset(g.support()) for g in ideal.gens]
    faces = [
        set(cand)
        for k in range(n + 1)
        for cand in itertools.combinations(range(1, n + 1), k)
        if not any(sup <= set(cand) for sup in supports)
    ]
    return SimplicialComplex(n, faces)


def split_irreducible_components(ideal: MonomialIdeal) -> set[tuple[int, ...]]:
    """The irredundant irreducible decomposition I = cap m^b, as the vectors b
    with m^b = (x_i^{b_i} : b_i > 0), by recursive splitting: a generator
    u * v with u = x_k^{a_k} its first variable's power splits J into
    (J + u) cap (J + v), until every generator is a pure power.  The pieces
    are redundant in general; only those containing no other piece are kept.
    """
    n = ideal.ring.n

    def minimal(gens):
        return frozenset(
            g for g in gens if not any(h != g and all(map(le, h, g)) for h in gens)
        )

    def pieces(gens: frozenset, memo: dict) -> set:
        if gens not in memo:
            for g in sorted(gens):
                sup = [k for k, x in enumerate(g) if x]
                if len(sup) >= 2:
                    u = tuple(x if k == sup[0] else 0 for k, x in enumerate(g))
                    v = tuple(0 if k == sup[0] else x for k, x in enumerate(g))
                    memo[gens] = pieces(minimal(gens | {u}), memo) | pieces(minimal(gens | {v}), memo)
                    break
            else:  # pure powers: J is m^b itself
                memo[gens] = {tuple(map(sum, zip((0,) * n, *gens)))}
        return memo[gens]

    found = pieces(minimal({g.exponents for g in ideal.gens}), {})

    def inside(c, b):  # m^c <= m^b
        return all(not y or (x and x <= y) for x, y in zip(b, c))

    return {b for b in found if not any(c != b and inside(c, b) for c in found)}


def fold_dimension_filtration(ideal: MonomialIdeal) -> FiltrationChain:
    """The dimension filtration folded top down from the components m^b of
    split_irreducible_components: I^<i> = I^<i+1> cap (the m^b of dimension
    i + 1), one MonomialIdeal.intersect (all pairwise lcms) per component."""
    ring = ideal.ring
    comps = split_irreducible_components(ideal)
    d = max(b.count(0) for b in comps)
    ideals = [MonomialIdeal.unit(ring)]
    for i in range(d - 1, -1, -1):
        cur = ideals[-1]
        for b in comps:
            if b.count(0) == i + 1:
                powers = [[x if k == j else 0 for k in range(ring.n)] for j, x in enumerate(b) if x]
                cur = cur.intersect(MonomialIdeal.from_exponents(ring, powers))
        ideals.append(cur)
    return FiltrationChain(d, tuple(reversed(ideals)))


def battery_per_level(ideal: MonomialIdeal, seed: int) -> list[dict]:
    """scm_check's criteria, as JSON, with gin, the saturation chain, the
    depth and the Hilbert numerators recomputed at every level i < d."""
    chain_in = dimension_filtration(ideal)
    chain_g = dimension_filtration(gin(ideal, seed=seed).ideal, route="borel")
    found: dict[str, tuple[int, str]] = {}

    def miss(name: str, i: int, detail: str):
        found.setdefault(name, (i, detail))

    for i in range(chain_in.d):
        level = gin(chain_in.ideals[i], seed=seed).ideal
        swapped = chain_g.ideals[i]
        depth = borel_depth(level)
        if depth < i + 1:
            miss("depth", i, f"depth {depth} < {i + 1}")
        own = dimension_filtration(level, route="borel").ideals[i]
        if level != own:
            miss("gin-chain-stable", i, f"{level} vs {own}")
        if level != swapped:
            miss("gin-chain-swap", i, f"{level} vs {swapped}")
        hs_level = hilbert_numerator(level)
        hs_swapped = hilbert_numerator(swapped)
        if hs_level != hs_swapped:
            miss("hilbert-gin-pair", i, f"{hs_level} vs {hs_swapped}")
        hs_input = hilbert_numerator(chain_in.ideals[i])
        if hs_input != hs_swapped:
            miss("hilbert-input-pair", i, f"{hs_input} vs {hs_swapped}")
    names = (
        "depth",
        "gin-chain-stable",
        "gin-chain-swap",
        "hilbert-gin-pair",
        "hilbert-input-pair",
    )
    return [
        {
            "name": name,
            "holds": name not in found,
            "witness_index": found[name][0] if name in found else None,
            "detail": found[name][1] if name in found else "",
        }
        for name in names
    ]


def all_faces(cpx: SimplicialComplex) -> set[frozenset[int]]:
    """Every vertex subset of every facet."""
    return {
        frozenset(c)
        for f in cpx.facets
        for k in range(len(f) + 1)
        for c in itertools.combinations(sorted(f), k)
    }


def _rank_int(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination with column pivoting."""
    a = [r[:] for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        for r in range(rank + 1, len(a)):
            arc = a[r][col]
            row = a[r]
            if arc:
                for c2 in range(col + 1, ncols):
                    row[c2] = (row[c2] * top[col] - arc * top[c2]) // prev
                row[col] = 0
            else:
                # rows missing the pivot column still pick up the Bareiss
                # scaling, otherwise later exact divisions truncate
                for c2 in range(col + 1, ncols):
                    row[c2] = row[c2] * top[col] // prev
        prev = top[col]
        rank += 1
        if rank == len(a):
            break
    return rank


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by dense elimination with monic pivots."""
    a = [[x % p for x in r] for r in rows]
    a = [r for r in a if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        top = [(x * inv) % p for x in a[rank]]
        a[rank] = top
        for r in range(rank + 1, len(a)):
            f = a[r][col]
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], top)]
        rank += 1
        if rank == len(a):
            break
    return rank


def dense_reduced_homology_ranks(cpx: SimplicialComplex, p: int | None = None) -> dict[int, int]:
    """dim H~_i for i = -1..dim over Q or F_p, from dense boundary matrices
    on the faces as sorted tuples."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in all_faces(cpx):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for k in by_dim:
        by_dim[k].sort()
    top = cpx.dim
    boundary_rank: dict[int, int] = {}
    for i in range(0, top + 1):
        lower = by_dim.get(i - 1, [])
        upper = by_dim.get(i, [])
        if not lower or not upper:
            boundary_rank[i] = 0
            continue
        index = {f: k for k, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = [0] * len(lower)
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                row[index[sub]] = (-1) ** pos
            rows.append(row)
        boundary_rank[i] = _rank_int(rows) if p is None else _rank_mod_p(rows, p)
    out = {}
    for i in range(-1, top + 1):
        ci = len(by_dim.get(i, []))
        out[i] = ci - boundary_rank.get(i, 0) - boundary_rank.get(i + 1, 0)
    return out


def scan_graded_betti_hochster(cpx: SimplicialComplex, p: int | None = None) -> BettiTable:
    """Hochster's formula over all 2^n vertex subsets W, cones included."""
    entries: dict[tuple[int, int], int] = {}
    vertices = range(1, cpx.n + 1)
    for j in range(cpx.n + 1):
        for w in itertools.combinations(vertices, j):
            ranks = dense_reduced_homology_ranks(induced_subcomplex(cpx, w), p)
            for h, r in ranks.items():
                if r:
                    key = (j - h - 1, j)
                    entries[key] = entries.get(key, 0) + r
    return BettiTable(entries)


def scan_local_cohomology_hochster(
    cpx: SimplicialComplex, p: int | None = None
) -> LocalCohomologyTable:
    """Hochster's face formula over the link of every face, cones included."""
    entries: dict[tuple[int, int], int] = {}
    for sigma in all_faces(cpx):
        c = len(sigma)
        ranks = dense_reduced_homology_ranks(link(cpx, sigma), p)
        for h, r in ranks.items():
            if r:
                key = (h + c + 1, c)
                entries[key] = entries.get(key, 0) + r
    return LocalCohomologyTable(entries)


def scan_is_cohen_macaulay(cpx: SimplicialComplex, p: int | None = None) -> bool:
    """Reisner's criterion checked on the link of every face."""
    for sigma in all_faces(cpx):
        lk = link(cpx, sigma)
        ranks = dense_reduced_homology_ranks(lk, p)
        if any(r and h < lk.dim for h, r in ranks.items()):
            return False
    return True
