"""Monomial ideal algebra: generators, colon/saturation, intersections,
irreducible and primary decomposition, Krull dimension, Hilbert numerators and
the dimension filtration.

The dimension filtration of R/I is the chain I^<0> <= I^<1> <= ... <= I^<d>,
where I^<i> is the intersection of the primary components whose quotient has
dimension strictly greater than i (empty intersection = <1>), that is of the
irreducible components m^b = (x_i^{b_i} : b_i > 0) of dimension > i; the
irredundant irreducible decomposition of I is unique.  Writing
I^<-1> = I, the successive quotients U_i = I^<i>/I^<i-1> are zero or
i-dimensional; U_0 can be nonzero (it is the finite-length part), so I^<0> = I
exactly when R/I has positive depth.  The components, and the generators of
each I^<i>, are read off by Alexander duality as minimal transversals of the
polarized generators, or components.  For strongly stable ideals the same
chain is computed by saturating with respect to x_n, x_{n-1}, ... in turn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import le
from typing import Iterable, Mapping, Sequence

from .ring import (
    Exps, HilbertSeries, Monomial, RingSpec, UniPoly, _SparseTable, exponent_mask, require_int,
    revlex_key,
)


def _minimalize(exps: Iterable[Exps]) -> frozenset[Exps]:
    """Keep only divisibility-minimal exponent vectors; <1> collapses to {1}."""
    items = sorted(set(exps), key=lambda e: (sum(e), e))
    kept: list[Exps] = []
    for e in items:
        if not any(all(map(le, k, e)) for k in kept):
            kept.append(e)
    return frozenset(kept)


class MonomialIdeal:
    """A monomial ideal, stored by its unique minimal generating set.  Its
    Hilbert numerator is computed once, by hilbert_numerator, and kept in the
    private _numerator slot, which value semantics ignore."""

    __slots__ = ("ring", "gens", "_numerator")

    def __init__(self, ring: RingSpec, gens: Iterable[Monomial]):
        exps = []
        for g in gens:
            if len(g.exponents) != ring.n:
                raise ValueError("generator does not match ring dimension")
            exps.append(g.exponents)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "gens", frozenset(Monomial(e) for e in _minimalize(exps))
        )
        object.__setattr__(self, "_numerator", None)

    def __setattr__(self, *_):
        raise AttributeError("MonomialIdeal is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_exponents(cls, ring: RingSpec, exps: Iterable[Sequence[int]]) -> "MonomialIdeal":
        return cls(ring, (ring.monomial(e) for e in exps))

    @classmethod
    def zero(cls, ring: RingSpec) -> "MonomialIdeal":
        return cls(ring, ())

    @classmethod
    def unit(cls, ring: RingSpec) -> "MonomialIdeal":
        return cls(ring, (ring.one(),))

    # -- basic predicates ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(g.is_one for g in self.gens)

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        if len(m.exponents) != self.ring.n:
            raise ValueError("monomial from a different ring")
        return any(g.divides(m) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        return all(self.contains(g) for g in other.gens)

    def sorted_gens(self) -> list[Monomial]:
        """Generators in descending revlex order (deterministic output order)."""
        return sorted(self.gens, key=revlex_key, reverse=True)

    def support(self) -> frozenset[int]:
        """1-based variable indices appearing in some generator."""
        out: set[int] = set()
        for g in self.gens:
            out.update(g.support())
        return frozenset(out)

    # -- ideal operations --------------------------------------------------

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """(I : m) for a monomial m; generated by g/gcd(g, m)."""
        return MonomialIdeal(self.ring, (g.quotient(g.gcd(m)) for g in self.gens))

    def saturate_variable(self, i: int) -> "MonomialIdeal":
        """(I : xi^inf): zero out the xi-exponent of every generator.  I itself
        when xi divides no generator."""
        if not 1 <= i <= self.ring.n:
            raise ValueError(f"variable index {i} out of range 1..{self.ring.n}")
        k = i - 1
        if not any(g.exponents[k] for g in self.gens):
            return self
        return MonomialIdeal(
            self.ring,
            (
                Monomial(g.exponents[:k] + (0,) + g.exponents[k + 1:])
                for g in self.gens
            ),
        )

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.ring)
        return MonomialIdeal(
            self.ring,
            (a.lcm(b) for a in self.gens for b in other.gens),
        )

    def plus(self, extra: Iterable[Monomial]) -> "MonomialIdeal":
        return MonomialIdeal(self.ring, itertools.chain(self.gens, extra))

    def radical(self) -> "MonomialIdeal":
        return MonomialIdeal(
            self.ring,
            (Monomial(tuple(1 if e else 0 for e in g.exponents)) for g in self.gens),
        )

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.gens))

    def __str__(self) -> str:
        if self.is_zero:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.sorted_gens()) + ">"

    def __repr__(self) -> str:
        return f"MonomialIdeal({self})"

    def to_json(self) -> dict:
        return {
            "vars": self.ring.n,
            "gens": [list(g.exponents) for g in self.sorted_gens()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MonomialIdeal":
        return cls.from_exponents(RingSpec(data["vars"]), data["gens"])


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Borel-fixedness in characteristic zero: every exchange xj -> xi (i < j)
    maps I into itself.  Adjacent steps on the minimal generators suffice: for
    v = w m in I, w minimal, x_{j-1} v / x_j is (x_{j-1} w / x_j) m if x_j | w
    and w (x_{j-1} m / x_j) if x_j | m; chaining such steps gives the rest."""
    for g in ideal.gens:
        for j in g.support():
            if j > 1:
                e = list(g.exponents)
                e[j - 1] -= 1
                e[j - 2] += 1
                if not ideal.contains(Monomial(tuple(e))):
                    return False
    return True


def _minimal_transversals(edges: Iterable[int]) -> list[int]:
    """Minimal vertex sets meeting every edge, as bitmasks (Berge's sequential
    dualization; grown sets form an antichain).  No edges give [0], an empty
    edge gives []."""
    trans = [0]
    for e in sorted(edges, key=int.bit_count):
        hit = [t for t in trans if t & e]
        bits = [1 << k for k in range(e.bit_length()) if e >> k & 1]
        grown = (t | b for t in trans if not t & e for b in bits)
        trans = hit + [g for g in grown if not any(h & g == h for h in hit)]
    return trans


def krull_dimension(ideal: MonomialIdeal) -> int:
    """dim R/I.  Unit ideal reports the sentinel -1; zero ideal reports n.

    Equals n minus the minimum height of a minimal prime, i.e. the size of the
    smallest minimal transversal of the generators' supports.
    """
    if ideal.is_unit:
        return -1
    supports = (exponent_mask(g.exponents) for g in ideal.gens)
    return ideal.ring.n - min(map(int.bit_count, _minimal_transversals(supports)))


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Primary components keyed by their associated prime's support."""

    ideal: MonomialIdeal
    components: tuple[tuple[frozenset[int], MonomialIdeal], ...]

    def intersection(self) -> MonomialIdeal:
        out = MonomialIdeal.unit(self.ideal.ring)
        for _, q in self.components:
            out = out.intersect(q)
        return out


def _transversal_dual(n: int, vectors: Sequence[Exps], descending: bool) -> list[Exps]:
    """Minimal transversals of the polarized vectors, read back as exponents.

    x_i^a polarizes to the bits (i, 1..r), r the rank of a among the distinct
    nonzero x_i-exponents of the vectors, ranked ascending or descending.  A
    minimal transversal holds at most one bit (i, r) per variable; read back
    as x_i^a it gives a vector c.  Since x^a lies in m^b exactly when
    a_i >= b_i > 0 for some i, ascending ranks take generators to m^c
    containing them all, and descending ranks take the b of components m^b to
    monomials x^c in their intersection.  The minimal read-backs are the
    irreducible components, or the generators of the intersection.
    """
    levels = [sorted({e[k] for e in vectors} - {0}, reverse=descending) for k in range(n)]
    rank = [{a: r for r, a in enumerate(col, 1)} for col in levels]
    offset = list(itertools.accumulate(map(len, levels), initial=0))
    bits = [(k, a) for k, col in enumerate(levels) for a in col]
    edges = [sum(((1 << rank[k][a]) - 1) << offset[k] for k, a in enumerate(e) if a) for e in vectors]
    out = []
    for t in _minimal_transversals(edges):
        # one bit per variable at most: an edge holding (i, r) holds (i, r - 1)
        c = [0] * n
        for j in range(t.bit_length()):
            if t >> j & 1:
                k, a = bits[j]
                c[k] = a
        out.append(tuple(c))
    return out


def _irreducible_components(ideal: MonomialIdeal) -> list[Exps]:
    """The irredundant irreducible decomposition I = cap m^b, as the vectors b:
    the ascending transversal dual of the generators, less every m^b that
    contains another one."""
    gens = [g.exponents for g in ideal.gens]
    masks = {b: exponent_mask(b) for b in _transversal_dual(ideal.ring.n, gens, False)}
    # m^c <= m^b exactly when supp c <= supp b and b_i <= c_i on supp c
    return [
        b
        for b, s in masks.items()
        if not any(
            t & s == t and c != b and all(not y or x <= y for x, y in zip(b, c))
            for c, t in masks.items()
        )
    ]


def _pure_powers(b: Exps) -> list[Monomial]:
    """The generators x_i^{b_i} (b_i > 0) of m^b."""
    zero = (0,) * len(b)
    return [Monomial(zero[:k] + (x,) + zero[k + 1:]) for k, x in enumerate(b) if x]


def primary_decomposition(ideal: MonomialIdeal) -> PrimaryDecomposition:
    """Reduced primary decomposition over the supports P of the irreducible
    components, ordered by height, each with its canonical P-primary component
    (I : (prod_{j not in P} x_j)^inf) + (x_j^{N_j} : j in P), N_j the largest
    x_j-exponent of a generator; it lies in every m^b supported on P."""
    if ideal.is_unit or ideal.is_zero:
        raise ValueError("primary decomposition wants a proper nonzero ideal")
    ring = ideal.ring
    gens = [g.exponents for g in ideal.gens]
    top = [max(col) for col in zip(*gens)]
    supports = {frozenset(k + 1 for k, x in enumerate(b) if x) for b in _irreducible_components(ideal)}
    comps = []
    for s in sorted(supports, key=lambda s: (len(s), sorted(s))):
        keep = [k + 1 in s for k in range(ring.n)]
        saturated = (Monomial(tuple(x if p else 0 for x, p in zip(e, keep))) for e in gens)
        powers = _pure_powers(tuple(x if p else 0 for x, p in zip(top, keep)))
        comps.append((s, MonomialIdeal(ring, itertools.chain(saturated, powers))))
    return PrimaryDecomposition(ideal, tuple(comps))


# -- Hilbert series -----------------------------------------------------------


def _hilbert_numerator_rec(gens: tuple[Exps, ...], memo: dict) -> UniPoly:
    if gens in memo:
        return memo[gens]
    n_vars = len(gens[0]) if gens else 0
    # count how many generators each variable appears in
    best_v, best_count = -1, 0
    if gens:
        counts = [0] * n_vars
        for e in gens:
            for v, x in enumerate(e):
                if x:
                    counts[v] += 1
        best_count = max(counts)
        best_v = counts.index(best_count)
    if best_count <= 1:
        # supports pairwise disjoint: K = prod (1 - t^deg)
        coeffs = [1]
        for e in gens:
            k = sum(e)
            times = coeffs + [0] * k
            for i, c in enumerate(coeffs):
                times[i + k] -= c
            coeffs = times
        out = UniPoly(coeffs)
    else:
        # pivot on the most shared variable: K(I) = K(I + <x>) + t * K(I : x)
        plus: list[Exps] = [tuple(1 if v == best_v else 0 for v in range(n_vars))]
        plus.extend(e for e in gens if e[best_v] == 0)
        colon = [
            tuple(x - 1 if v == best_v and x else x for v, x in enumerate(e))
            for e in gens
        ]
        left = _hilbert_numerator_rec(tuple(sorted(_minimalize(plus))), memo)
        right = _hilbert_numerator_rec(tuple(sorted(_minimalize(colon))), memo)
        out = left + right.shift(1)
    memo[gens] = out
    return out


def hilbert_numerator(ideal: MonomialIdeal) -> HilbertSeries:
    """Hilb(R/I) presented as K(t) / (1-t)^n via pivot recursion, computed
    once per ideal and kept on it."""
    if ideal.is_unit:
        return HilbertSeries(UniPoly.zero(), 0)
    if ideal._numerator is None:
        gens = tuple(sorted(g.exponents for g in ideal.gens))
        series = HilbertSeries(_hilbert_numerator_rec(gens, {}), ideal.ring.n)
        object.__setattr__(ideal, "_numerator", series)
    return ideal._numerator


def h_polynomial(ideal: MonomialIdeal) -> UniPoly:
    """K(t) / (1-t)^(n-d); exact by the dimension of R/I."""
    if not ideal.is_proper:
        raise ValueError("h-polynomial wants a proper ideal")
    d = krull_dimension(ideal)
    series = hilbert_numerator(ideal)
    return series.numerator.divexact_one_minus_t(ideal.ring.n - d)


# -- dimension filtration ------------------------------------------------------


@dataclass(frozen=True)
class FiltrationChain:
    """Ideals I^<0> <= ... <= I^<d>; I^<d> is always the unit ideal."""

    d: int
    ideals: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        if len(self.ideals) != self.d + 1:
            raise ValueError("filtration chain length must be d + 1")

    def to_json(self) -> dict:
        return {"d": self.d, "ideals": [q.to_json() for q in self.ideals]}

    @classmethod
    def from_json(cls, data: Mapping) -> "FiltrationChain":
        return cls(
            require_int(data["d"], "dimension"),
            tuple(MonomialIdeal.from_json(j) for j in data["ideals"]),
        )


def dimension_filtration(ideal: MonomialIdeal, route: str = "decomposition") -> FiltrationChain:
    """The chain I^<i> = intersection of irreducible components of dimension > i,
    generated by the descending transversal dual of those components.

    route="borel" computes the same chain for strongly stable ideals by
    successive saturations I^<i> = (I^<i-1> : x_{n-i}^inf), seeded at I.
    """
    if ideal.is_unit:
        raise ValueError("dimension filtration wants a proper ideal")
    ring = ideal.ring
    n = ring.n
    ideals = []
    if route == "decomposition":
        # the components of dimension > i change only at their dimensions,
        # and all of them together cut out I itself; dim R/m^b is the number
        # of zero entries of b
        comps = _irreducible_components(ideal)
        d = max(b.count(0) for b in comps)
        top = comps
        level = ideal
        for i in range(d):
            above = [b for b in comps if b.count(0) > i]
            if above != top:
                top = above
                level = MonomialIdeal(ring, map(Monomial, _transversal_dual(n, top, True)))
            ideals.append(level)
    elif route == "borel":
        if not is_strongly_stable(ideal):
            raise ValueError("borel route wants a strongly stable ideal")
        d = krull_dimension(ideal)
        cur = ideal
        for i in range(d):
            cur = cur.saturate_variable(n - i)
            ideals.append(cur)
    else:
        raise ValueError(f"unknown filtration route {route!r}")
    return FiltrationChain(d, (*ideals, MonomialIdeal.unit(ring)))


def borel_depth(ideal: MonomialIdeal) -> int:
    """depth R/J for a strongly stable proper J: the first level where the
    saturation chain moves."""
    if not ideal.is_proper:
        raise ValueError("depth wants a proper ideal")
    return _chain_depth(ideal, dimension_filtration(ideal, route="borel"))


def _chain_depth(ideal: MonomialIdeal, chain: FiltrationChain) -> int:
    """borel_depth read off the ideal's own saturation chain."""
    for i, q in enumerate(chain.ideals):
        if q != ideal:
            return i
    raise AssertionError("chain never reached the unit ideal")


# -- graded Betti numbers ------------------------------------------------------


class BettiTable(_SparseTable):
    """Graded Betti numbers beta_{i,j} of a quotient R/I, stored sparsely."""

    __slots__ = ()
    _WHAT = ("homological degree", "internal degree", "Betti number")

    def _check_index(self, i: int, j: int) -> None:
        if i < 0 or j < 0:
            raise ValueError("homological and internal degrees must be non-negative")

    beta = _SparseTable.value

    def projective_dimension(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def regularity(self) -> int:
        return max((j - i for i, j in self.entries), default=0)

    def totals(self) -> list[int]:
        out = [0] * (self.projective_dimension() + 1)
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def rows(self) -> dict[int, list[int]]:
        """Betti diagram rows: row r lists beta_{i, i+r} for i = 0..pd."""
        pd = self.projective_dimension()
        out: dict[int, list[int]] = {}
        for (i, j), v in self.entries.items():
            row = out.setdefault(j - i, [0] * (pd + 1))
            row[i] = v
        return {r: out[r] for r in sorted(out)}

    def __str__(self) -> str:
        if not self.entries:
            return "(zero)"
        pd = self.projective_dimension()
        lines = ["      " + "".join(f"{i:>6}" for i in range(pd + 1))]
        lines.append("total:" + "".join(f"{v:>6}" for v in self.totals()))
        for r, row in self.rows().items():
            lines.append(f"{r:>5}:" + "".join(f"{v if v else '.':>6}" for v in row))
        return "\n".join(lines)


def betti_eliahou_kervaire(ideal: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of R/J for a strongly stable J:
    beta_{i+1, i+j} = sum over degree-j generators u of C(max(u) - 1, i)."""
    if not ideal.is_proper:
        raise ValueError("Betti numbers want a proper ideal")
    if not is_strongly_stable(ideal):
        raise ValueError("Eliahou-Kervaire formula wants a strongly stable ideal")
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for u in ideal.gens:
        j = u.degree
        m = u.max_index()
        for i in range(m):
            key = (i + 1, i + j)
            entries[key] = entries.get(key, 0) + comb(m - 1, i)
    return BettiTable(entries)
