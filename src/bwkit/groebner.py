"""Buchberger's algorithm over Q in graded revlex, reduced Groebner bases,
initial ideals, and certified generic initial ideals.

The engine works fraction-free: polynomials are primitive integer coefficient
dicts keyed by exponent tuples, reduction is pseudo-reduction (scale by the
divisor's leading coefficient, subtract, strip content at the end).  Monic
rational polynomials appear only at the public boundary.

gin(I) draws a dense square integer matrix with entries uniform in [-B, B]
(B = 10^4 to start) from a seeded RNG, transforms the generators, and takes
the initial ideal.  Two independent draws must agree and the result must be
strongly stable; otherwise B doubles, up to five rounds, after which
NotCertified is raised.  Same seed, same answer, always.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .monomial import MonomialIdeal, is_strongly_stable
from .ring import (
    Monomial,
    Polynomial,
    RingSpec,
    _rank_int,
    _substitute,
    exponent_revlex_key,
)

__all__ = [
    "GroebnerBasis",
    "GinResult",
    "NotCertified",
    "normal_form",
    "reduced_groebner_basis",
    "initial_ideal",
    "gin",
    "is_strongly_stable",
]

Mono = tuple[int, ...]
IntPoly = dict[Mono, int]


class NotCertified(RuntimeError):
    """gin certification failed: trials kept disagreeing or were not Borel-fixed."""


# -- engine helpers (raw exponent tuples, integer coefficients) ----------------


def _negkey(m: Mono) -> tuple:
    """Min-heap key popping the revlex-greatest monomial first."""
    return (-sum(m), m[::-1])


def _mask(m: Mono) -> int:
    out = 0
    for i, e in enumerate(m):
        if e:
            out |= 1 << i
    return out


def _divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _primitive(p: IntPoly) -> IntPoly:
    """Strip content and normalize the leading coefficient to be positive."""
    if not p:
        return p
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            break
    lead = max(p, key=exponent_revlex_key)
    if p[lead] < 0:
        g = -g
    if g != 1:
        p = {m: c // g for m, c in p.items()}
    return p


class _Basis:
    """Basis element: leading monomial/coefficient, tail terms, support mask."""

    __slots__ = ("lm", "lc", "tail", "mask", "deg")

    def __init__(self, poly: IntPoly):
        self.lm = max(poly, key=exponent_revlex_key)
        self.lc = poly[self.lm]
        self.tail = tuple((m, c) for m, c in poly.items() if m != self.lm)
        self.mask = _mask(self.lm)
        self.deg = sum(self.lm)

    def as_dict(self) -> IntPoly:
        out = dict(self.tail)
        out[self.lm] = self.lc
        return out


def _reduce_full(p: IntPoly, basis: Sequence[_Basis]) -> IntPoly:
    """Primitive full remainder of p modulo the basis (pseudo-reduction).

    Terms are eliminated from the revlex top down; every reduction step may
    rescale the pending polynomial and accumulated remainder by the divisor's
    leading coefficient, keeping everything integral.
    """
    if not p:
        return {}
    work = dict(p)
    heap = [_negkey(m) for m in work]
    heapq.heapify(heap)
    rem: IntPoly = {}
    while heap:
        negd, rev = heapq.heappop(heap)
        m = rev[::-1]
        c = work.pop(m, 0)
        if not c:
            continue
        mmask = _mask(m)
        for g in basis:
            if g.mask & ~mmask:
                continue
            if _divides(g.lm, m):
                d = gcd(c, g.lc)
                a = g.lc // d
                b = c // d
                if a != 1:
                    for k in work:
                        work[k] *= a
                    for k in rem:
                        rem[k] *= a
                q = tuple(x - y for x, y in zip(m, g.lm))
                for mt, ct in g.tail:
                    key = tuple(x + y for x, y in zip(mt, q))
                    prev = work.get(key)
                    if prev is None:
                        work[key] = -b * ct
                        heapq.heappush(heap, _negkey(key))
                    else:
                        v = prev - b * ct
                        if v:
                            work[key] = v
                        else:
                            del work[key]
                break
        else:
            rem[m] = c
    return _primitive(rem)


def _spair(f: _Basis, g: _Basis) -> IntPoly:
    lcm = tuple(max(x, y) for x, y in zip(f.lm, g.lm))
    qf = tuple(x - y for x, y in zip(lcm, f.lm))
    qg = tuple(x - y for x, y in zip(lcm, g.lm))
    d = gcd(f.lc, g.lc)
    a = g.lc // d
    b = f.lc // d
    out: IntPoly = {}
    for mt, ct in f.tail:
        key = tuple(x + y for x, y in zip(mt, qf))
        out[key] = out.get(key, 0) + a * ct
    for mt, ct in g.tail:
        key = tuple(x + y for x, y in zip(mt, qg))
        v = out.get(key, 0) - b * ct
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return {m: c for m, c in out.items() if c}


def _buchberger(inputs: list[IntPoly]) -> list[_Basis]:
    """Buchberger with the coprime-lead and chain criteria, pairs processed in
    ascending lcm-degree order."""
    G: list[_Basis] = []
    pending: set[tuple[int, int]] = set()
    heap: list[tuple[int, int, int]] = []

    def add(poly: IntPoly) -> None:
        t = len(G)
        g = _Basis(poly)
        for s, other in enumerate(G):
            lcm_deg = sum(max(x, y) for x, y in zip(other.lm, g.lm))
            pending.add((s, t))
            heapq.heappush(heap, (lcm_deg, s, t))
        G.append(g)

    for p in sorted(
        inputs, key=lambda q: exponent_revlex_key(max(q, key=exponent_revlex_key))
    ):
        r = _reduce_full(p, G)
        if r:
            add(r)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        fi, fj = G[i], G[j]
        lcm = tuple(max(x, y) for x, y in zip(fi.lm, fj.lm))
        # coprime leads: S-pair reduces to zero
        if sum(lcm) == fi.deg + fj.deg:
            continue
        # chain criterion: some g_k divides the lcm and both side pairs are done
        skip = False
        for k, gk in enumerate(G):
            if k == i or k == j:
                continue
            if _divides(gk.lm, lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce_full(_spair(fi, fj), G)
        if r:
            add(r)
    return G


def _autoreduce(G: list[_Basis]) -> list[IntPoly]:
    """Keep elements with minimal leads, tail-reduce each against the others."""
    keep = []
    for i, g in enumerate(G):
        if not any(
            j != i and _divides(h.lm, g.lm) for j, h in enumerate(G)
        ):
            keep.append(g)
    # distinct leads are guaranteed (a remainder's lead divides no earlier lead),
    # so "minimal" needs no tie-breaking
    keep.sort(key=lambda g: exponent_revlex_key(g.lm))
    out: list[IntPoly] = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        out.append(_reduce_full(g.as_dict(), others))
    return out


def _to_int_poly(f: Polynomial) -> IntPoly:
    denom = 1
    for _, c in f.terms():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    out = {m.exponents: int(c * denom) for m, c in f.terms()}
    return _primitive(out)


def _to_polynomial(ring: RingSpec, p: IntPoly) -> Polynomial:
    lead = max(p, key=exponent_revlex_key)
    lc = p[lead]
    return Polynomial(ring, {Monomial(m): Fraction(c, lc) for m, c in p.items()})


# -- public API ----------------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by descending lead."""

    ring: RingSpec
    elements: tuple[Polynomial, ...]

    def leading_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.ring, (g.leading_monomial() for g in self.elements))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _check_inputs(gens: Iterable[Polynomial]) -> tuple[RingSpec, list[Polynomial]]:
    polys = [g for g in gens if not g.is_zero]
    if not polys:
        raise ValueError("cannot infer the ring from an empty generator list")
    ring = polys[0].ring
    for g in polys:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if not g.is_homogeneous:
            raise ValueError(f"non-homogeneous generator: {g}")
    return ring, polys


def reduced_groebner_basis(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """The unique reduced Groebner basis of a homogeneous ideal in graded revlex."""
    kept = [g for g in gens if not getattr(g, "is_zero", False)]
    if not kept:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        return GroebnerBasis(gens[0].ring, ())
    ring, polys = _check_inputs(kept)
    raw = _buchberger([_to_int_poly(f) for f in polys])
    reduced = _autoreduce(raw)
    elements = [_to_polynomial(ring, p) for p in reduced]
    elements.sort(key=lambda f: f.leading_monomial(), reverse=True)
    return GroebnerBasis(ring, tuple(elements))


def initial_ideal(gens: Sequence[Polynomial]) -> MonomialIdeal:
    """in(I): the monomial ideal of leading terms, via the reduced basis."""
    gb = reduced_groebner_basis(gens)
    return gb.leading_ideal()


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of deterministic multivariate division: divisors are tried in
    list order, the leading reducible term goes first."""
    work = f
    rem = Polynomial.zero(f.ring)
    while not work.is_zero:
        m = work.leading_monomial()
        c = work.leading_coefficient()
        for g in basis:
            if g.is_zero:
                continue
            if g.ring != f.ring:
                raise ValueError("divisor from a different ring")
            glm = g.leading_monomial()
            if glm.divides(m):
                work = work - g.term_mul(m.quotient(glm), c / g.leading_coefficient())
                break
        else:
            t = Polynomial.from_monomial(f.ring, m, c)
            rem = rem + t
            work = work - t
    return rem


@dataclass(frozen=True)
class GinResult:
    """Certified generic initial ideal."""

    ideal: MonomialIdeal
    seed: int
    trials: int
    borel_certified: bool

    def to_json(self) -> dict:
        out = self.ideal.to_json()
        out.update(
            seed=self.seed, trials=self.trials, borel_certified=self.borel_certified
        )
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "GinResult":
        return cls(
            MonomialIdeal.from_json(data),
            int(data["seed"]),
            int(data["trials"]),
            bool(data["borel_certified"]),
        )


_GIN_MEMO: dict[tuple, GinResult] = {}


def _draw_matrix(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if _rank_int(m) == n:
            return m


def _gin_trial(int_gens: list[IntPoly], n: int, rng: random.Random, bound: int) -> MonomialIdeal:
    matrix = _draw_matrix(rng, n, bound)
    moved = [_primitive(_substitute(p, matrix)) for p in int_gens]
    basis = _autoreduce(_buchberger(moved))
    ring = RingSpec(n)
    return MonomialIdeal(ring, (Monomial(max(p, key=exponent_revlex_key)) for p in basis))


def gin(
    gens: Sequence[Polynomial] | MonomialIdeal, seed: int = 0
) -> GinResult:
    """Reverse-lexicographic generic initial ideal with certification.

    Two independent random changes of coordinates must produce the same
    initial ideal, and that ideal must be strongly stable; otherwise the
    entry bound doubles (five rounds max) before NotCertified is raised.
    Deterministic in (generators, seed).
    """
    if isinstance(gens, MonomialIdeal):
        ring = gens.ring
        polys = [Polynomial.from_monomial(ring, g) for g in gens.sorted_gens()]
        if gens.is_zero:
            return GinResult(gens, seed, 0, True)
    else:
        ring, polys = _check_inputs(gens)

    key = (
        ring.n,
        seed,
        tuple(
            sorted(
                tuple(sorted((m.exponents, c) for m, c in f.terms()))
                for f in polys
            )
        ),
    )
    hit = _GIN_MEMO.get(key)
    if hit is not None:
        return hit

    int_gens = [_to_int_poly(f) for f in polys]
    rng = random.Random(seed)
    bound = 10**4
    for _ in range(5):
        first = _gin_trial(int_gens, ring.n, rng, bound)
        second = _gin_trial(int_gens, ring.n, rng, bound)
        if first == second and is_strongly_stable(first):
            result = GinResult(first, seed, 2, True)
            _GIN_MEMO[key] = result
            return result
        bound *= 2
    raise NotCertified(
        f"gin trials disagreed or were unstable after 5 rounds (seed {seed})"
    )
