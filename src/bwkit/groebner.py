"""Buchberger's algorithm in graded revlex, reduced Groebner bases, initial
ideals, and certified generic initial ideals.

One pair loop (`_buchberger`: pairs by ascending lcm degree, coprime-lead and
chain criteria) and one full reduction (`_reduce`) run over Q or over F_p;
the prime, or None for Q, chooses the arithmetic.  Terms are keyed by
packed monomials (`_Packing` owns the format): an exponent vector a is the
int sum_i a_i << W(i-1), W bits a variable with x_n in the top field.  A
product is a sum, a quotient a difference.  While every exponent is below
2^(W-1), g divides m when m - g is non-negative with no field's top (guard)
bit set, and a key's degree is the key mod 2^W - 1.  Within one degree
(every polynomial here is homogeneous) the smallest key is the
revlex-greatest, so the reduction heap holds plain ints.  W fits the input
degrees, with at least 8 bits; a pair whose lcm degree does not fit restarts
the run with wider fields, from its first yield, so nothing wraps.  One
driver (`_bases`) packs, moves and restarts for every caller.  Over Q the
arithmetic is fraction-free: polynomials are primitive integer coefficient
dicts, reduction is pseudo-reduction (scale by the divisor's leading
coefficient when it is not 1, subtract, strip content at the end), and
monic rational polynomials appear only at the public boundary of
`reduced_groebner_basis`.  `initial_ideal` and gin's target over Q read the
leading terms of one exact run, with no autoreduction.  Over F_p the basis
elements are monic with coefficients reduced mod a word-size prime p, and
the gin trials read off their leading monomials only.

gin(I) moves the generators by a seeded random unit lower-triangular matrix L,
x_i -> x_i + sum_{j<i} a_ij x_j with a_ij uniform in [-B, B] (B = 10^4 to
start), and runs Buchberger over F_p; the substitution (`_substitute`)
already runs mod p, reducing images, coefficients and every sum as it goes.
L suffices: a generic change of coordinates is L followed by an
upper-triangular one, which keeps every leading term; and L is invertible
over every field.  Trial k uses the k-th of ten fixed primes below 2^31
(2^31-1, 2^31-19, ...), so the matrix stream depends on the seed alone.
The loop yields its basis at each lcm-degree
transition and skips no pairs; the trials own the stops.  The first stops when
its leads J reach the Hilbert series of I (of in(I) over Q for polynomial
input), which is exact: they lie in the initial ideal of the moved ideal mod p,
whose Hilbert function is at least the target's in every degree.  J must be
strongly stable, and the second trial must meet J before its leads leave it:
yields only grow, so it meets J exactly when a Hilbert stop would.  Otherwise
B doubles, up to five rounds, after which NotCertified is raised.  Same seed,
same answer, always.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import comb, gcd

from .monomial import MonomialIdeal, _antichain, hilbert_numerator, is_strongly_stable
from .ring import Exps, Monomial, Polynomial, RingSpec, _Record, require_int

__all__ = [
    "GroebnerBasis",
    "GinResult",
    "NotCertified",
    "normal_form",
    "reduced_groebner_basis",
    "initial_ideal",
    "gin",
]

# integer polynomials: on packed keys inside the engines, on monomials at
# their boundary; either way the lead term comes first
IntPoly = dict[int, int]
MonoPoly = dict[Monomial, int]


class NotCertified(RuntimeError):
    """gin certification failed: trials kept disagreeing or were not Borel-fixed."""


class _Overflow(Exception):
    """A pair's lcm degree reached the packing's limit."""


# -- engine helpers (packed monomial keys, integer coefficients) ---------------


class _Packing:
    """The packed keys of the module docstring for n variables, with fields
    wide enough for the degree given."""

    __slots__ = ("n", "width", "field", "limit", "guard")

    def __init__(self, n: int, degree: int):
        self.n = n
        self.width = w = max(8, degree.bit_length() + 1)
        self.field = (1 << w) - 1
        self.limit = 1 << (w - 1)
        self.guard = sum(self.limit << (w * i) for i in range(n))

    def pack(self, e: Exps) -> int:
        w = self.width
        return sum(x << (w * i) for i, x in enumerate(e))

    def unpack(self, key: int) -> Exps:
        w, field = self.width, self.field
        return tuple(key >> (w * i) & field for i in range(self.n))

    def divides(self, g: int, m: int) -> bool:
        """g | m; the engines inline this test in their inner loops."""
        q = m - g
        return q >= 0 and not q & self.guard

    def degree(self, key: int) -> int:
        """Sum of the fields; exact below 2^W - 1, so for any lcm of two
        keys of degree below the limit."""
        return key % self.field

    def lcm(self, a: int, b: int) -> int:
        # with the guard bits set in a, no field of a - b borrows from the
        # next, and field i keeps its guard bit exactly when a_i >= b_i
        keep = ((a | self.guard) - b & self.guard) >> (self.width - 1)
        mask = keep * self.field
        return a & mask | b & ~mask


def _poly_mul(a: IntPoly, b: IntPoly, prime: int) -> IntPoly:
    """Product over F_prime of two polynomials on packed keys with nonzero
    coefficients in [0, prime)."""
    out: IntPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = m1 + m2
            v = (out.get(key, 0) + c1 * c2) % prime
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def _substitute(
    polys: Sequence[IntPoly], matrix: Sequence[Sequence[int]], packing: _Packing, prime: int
) -> list[IntPoly]:
    """Substitute xi -> sum_j matrix[i][j] * xj in each polynomial on packed
    keys, over F_prime: every coefficient comes out in [0, prime), and input
    terms that vanish mod prime are skipped.  Degrees are kept, so the output
    fits the packing the input fits."""
    n = len(matrix)
    w, field = packing.width, packing.field
    images = [{1 << (w * j): c % prime for j, c in enumerate(row) if c % prime} for row in matrix]
    # cache linear-form powers; generators reuse the same images repeatedly
    powers: list[dict[int, IntPoly]] = [{0: {0: 1}} for _ in range(n)]

    def power(i: int, e: int) -> IntPoly:
        cache = powers[i]
        if e not in cache:
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for k in range(best + 1, e + 1):
                acc = _poly_mul(acc, images[i], prime)
                cache[k] = acc
        return cache[e]

    out = []
    for p in polys:
        result: IntPoly = {}
        for m, c in p.items():
            c %= prime
            if not c:
                continue
            piece = {0: c}
            for i in range(n):
                e = m >> (w * i) & field
                if e:
                    piece = _poly_mul(piece, power(i, e), prime)
            for key, v in piece.items():
                s = (result.get(key, 0) + v) % prime
                if s:
                    result[key] = s
                else:
                    del result[key]
        out.append(result)
    return out


def _primitive(p: IntPoly | MonoPoly) -> IntPoly | MonoPoly:
    """Strip content and make the leading (first) coefficient positive."""
    if not p:
        return p
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            break
    if next(iter(p.values())) < 0:
        g = -g
    if g != 1:
        p = {m: c // g for m, c in p.items()}
    return p


class _Basis:
    """Basis element: packed leading monomial, leading coefficient, tail
    terms and degree.

    Built from a reduction's output, whose terms come revlex-descending, so
    the first term is the lead."""

    __slots__ = ("lm", "lc", "tail", "deg")

    def __init__(self, poly: IntPoly, packing: _Packing):
        self.lm = next(iter(poly))
        self.lc = poly[self.lm]
        self.tail = tuple((m, c) for m, c in poly.items() if m != self.lm)
        self.deg = packing.degree(self.lm)

    def as_dict(self) -> IntPoly:
        out = dict(self.tail)
        out[self.lm] = self.lc
        return out


def _reduce(
    p: IntPoly, basis: Sequence[_Basis], guard: int, prime: int | None
) -> IntPoly:
    """Full remainder of homogeneous p modulo the basis: primitive over Q
    (prime None), monic with coefficients in [0, prime) over F_prime.

    Terms are eliminated from the revlex top down, which within one degree is
    the smallest key first.  Over Q the step is pseudo-reduction: it may
    rescale the pending polynomial and accumulated remainder by the divisor's
    leading coefficient, keeping everything integral.  Over F_prime every
    basis element is monic, so no step rescales.
    """
    work = dict(p)
    heap = list(work)
    heapq.heapify(heap)
    rem: IntPoly = {}
    while heap:
        m = heapq.heappop(heap)
        # a popped key never comes back: every update lands below it in revlex
        c = work.pop(m)
        if prime is not None:
            c %= prime
        if not c:
            continue
        for g in basis:
            # _Packing.divides, inlined; q is the quotient
            q = m - g.lm
            if q >= 0 and not q & guard:
                break
        else:
            rem[m] = c
            continue
        if g.lc != 1:
            d = gcd(c, g.lc)
            a = g.lc // d
            c //= d
            if a != 1:
                for k in work:
                    work[k] *= a
                for k in rem:
                    rem[k] *= a
        for mt, ct in g.tail:
            key = mt + q
            prev = work.get(key)
            if prev is None:
                work[key] = -c * ct
                heapq.heappush(heap, key)
            else:
                work[key] = prev - c * ct
    if prime is None:
        return _primitive(rem)
    if rem:
        # terms arrive revlex-descending, so the first one is the lead
        inv = pow(next(iter(rem.values())), -1, prime)
        rem = {m: c * inv % prime for m, c in rem.items()}
    return rem


def _spair(f: _Basis, g: _Basis, packing: _Packing) -> IntPoly:
    lcm = packing.lcm(f.lm, g.lm)
    qf = lcm - f.lm
    qg = lcm - g.lm
    d = gcd(f.lc, g.lc)
    a = g.lc // d
    b = f.lc // d
    out: IntPoly = {}
    for mt, ct in f.tail:
        key = mt + qf
        out[key] = out.get(key, 0) + a * ct
    for mt, ct in g.tail:
        key = mt + qg
        v = out.get(key, 0) - b * ct
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def _buchberger(
    inputs: list[IntPoly], prime: int | None, packing: _Packing
) -> Iterator[list[_Basis]]:
    """Buchberger with the coprime-lead and chain criteria, pairs processed in
    ascending lcm-degree order, over Q (prime None) or F_prime.

    Yields the basis at each lcm-degree transition, before the pairs of the
    new degree, and the finished Groebner basis last.  Homogeneous inputs
    must fit the packing; a pair whose lcm degree does not raises _Overflow."""
    guard = packing.guard
    G: list[_Basis] = []
    pending: set[tuple[int, int]] = set()
    heap: list[tuple[int, int, int]] = []

    def add(poly: IntPoly) -> None:
        t = len(G)
        g = _Basis(poly, packing)
        for s, other in enumerate(G):
            lcm_deg = packing.degree(packing.lcm(other.lm, g.lm))
            if lcm_deg >= packing.limit:
                raise _Overflow(lcm_deg)
            pending.add((s, t))
            heapq.heappush(heap, (lcm_deg, s, t))
        G.append(g)

    # ascending by lead: by degree, then by descending key
    def order(q: IntPoly) -> tuple[int, int]:
        lead = min(q)
        return packing.degree(lead), -lead

    for p in sorted(inputs, key=order):
        r = _reduce(p, G, guard, prime)
        if r:
            add(r)

    degree = -1
    while heap:
        lcm_deg, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        if lcm_deg != degree:
            # new pairs have a larger lcm degree than the pair that made
            # them, so the degrees popped only grow
            degree = lcm_deg
            yield G
        fi, fj = G[i], G[j]
        # coprime leads: S-pair reduces to zero
        if lcm_deg == fi.deg + fj.deg:
            continue
        lcm = packing.lcm(fi.lm, fj.lm)
        # chain criterion: some g_k divides the lcm and both side pairs are done
        skip = False
        for k, gk in enumerate(G):
            if k == i or k == j:
                continue
            if packing.divides(gk.lm, lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce(_spair(fi, fj, packing), G, guard, prime)
        if r:
            add(r)
    yield G


def _autoreduce(G: list[_Basis], packing: _Packing) -> list[IntPoly]:
    """Keep elements with minimal leads, tail-reduce each against the others."""
    # leads are distinct (a remainder's lead divides no earlier lead), so two
    # of one degree never divide each other and "minimal" needs no tie-breaking
    keep = _antichain(G, lambda g: g.deg, lambda h, g: packing.divides(h.lm, g.lm))
    keep.sort(key=lambda g: (g.deg, -g.lm))  # ascending revlex
    out: list[IntPoly] = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        out.append(_reduce(g.as_dict(), others, packing.guard, None))
    return out


def _bases(
    gens: list[MonoPoly], n: int, prime: int | None, matrix: list[list[int]] | None = None
) -> Iterator[tuple[list[_Basis], _Packing]]:
    """Each basis Buchberger yields over Q (prime None) or F_prime, with its
    packing.  A matrix, invertible mod prime, first moves the generators.

    The packing is the narrowest that holds the generators' degrees.  When a
    pair's lcm degree overflows it, the run restarts wider from the first
    yield, so no exponent ever wraps; every caller's stop reads the leads
    alone, so a basis seen twice is judged the same way twice."""
    degree = max((m.degree for g in gens for m in g), default=0)
    while True:
        packing = _Packing(n, degree)
        packed = [{packing.pack(m.exponents): c for m, c in g.items()} for g in gens]
        if matrix is not None:
            packed = [q for q in _substitute(packed, matrix, packing, prime) if q]
        try:
            for G in _buchberger(packed, prime, packing):
                yield G, packing
            return
        except _Overflow as exc:
            degree = 2 * exc.args[0]


def _to_int_poly(f: Polynomial) -> MonoPoly:
    """Primitive integer multiple of f, lead first, keyed by monomials."""
    denom = 1
    for _, c in f.terms():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    out = {m: int(c * denom) for m, c in f.terms()}
    return _primitive(out)


def _to_polynomial(ring: RingSpec, p: IntPoly, packing: _Packing) -> Polynomial:
    lc = p[min(p)]
    return Polynomial(
        ring, {Monomial(packing.unpack(m)): Fraction(c, lc) for m, c in p.items()}
    )


# -- public API ----------------------------------------------------------------


class GroebnerBasis(_Record):
    """Reduced Groebner basis: monic, auto-reduced, sorted by descending lead."""

    __slots__ = ("ring", "elements")
    ring: RingSpec
    elements: tuple[Polynomial, ...]

    def leading_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.ring, (g.leading_monomial() for g in self.elements))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _check_inputs(gens: Iterable[Polynomial]) -> tuple[RingSpec, list[Polynomial]]:
    """The ring of a non-empty list of homogeneous generators from one ring,
    and its nonzero generators (none for the zero ideal)."""
    gens = list(gens)
    if not gens:
        raise ValueError("cannot infer the ring from an empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if not g.is_homogeneous:
            raise ValueError(f"non-homogeneous generator: {g}")
    return ring, [g for g in gens if not g.is_zero]


def reduced_groebner_basis(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """The unique reduced Groebner basis of a homogeneous ideal in graded revlex."""
    ring, polys = _check_inputs(gens)
    if not polys:
        return GroebnerBasis(ring, ())
    *_, (raw, packing) = _bases([_to_int_poly(f) for f in polys], ring.n, None)
    elements = [_to_polynomial(ring, p, packing) for p in _autoreduce(raw, packing)]
    elements.sort(key=lambda f: f.leading_monomial(), reverse=True)
    return GroebnerBasis(ring, tuple(elements))


def _exact_leads(int_gens: list[MonoPoly], n: int) -> MonomialIdeal:
    """in(I) over Q for nonzero primitive integer generators: the leads of
    one exact Buchberger run, which generate it without autoreduction."""
    *_, (G, packing) = _bases(int_gens, n, None)
    return _leads(G, packing)


def initial_ideal(gens: Sequence[Polynomial]) -> MonomialIdeal:
    """in(I): the monomial ideal of leading terms of a Groebner basis."""
    ring, polys = _check_inputs(gens)
    if not polys:
        return MonomialIdeal.zero(ring)
    return _exact_leads([_to_int_poly(f) for f in polys], ring.n)


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


class GinResult(_Record):
    """Certified generic initial ideal."""

    __slots__ = ("ideal", "seed", "trials", "borel_certified")
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
        certified = data["borel_certified"]
        if type(certified) is not bool:
            raise ValueError(f"borel_certified must be a boolean, got {certified!r}")
        return cls(
            MonomialIdeal.from_json(data),
            require_int(data["seed"], "seed"),
            require_int(data["trials"], "trials"),
            certified,
        )


# trial k of a gin call runs mod _PRIMES[k]: the ten largest primes below 2^31
_PRIMES = tuple(2**31 - d for d in (1, 19, 61, 69, 85, 99, 105, 151, 159, 171))
_MOVED_LIMIT = 1 << 18  # terms of the generators after a change of coordinates


def _refuse_moves(int_gens: list[MonoPoly]) -> None:
    """Refuse generators whose moved images could pass _MOVED_LIMIT terms:
    a form of degree e in x_1..x_k has at most C(k+e-1, e) of them."""
    count = 0
    for g in int_gens:
        e = next(iter(g)).degree
        k = max(m.max_index() for m in g)
        count += comb(k + e - 1, e) if e else 1
    if count > _MOVED_LIMIT:
        raise ValueError(f"change of coordinates to {count} terms refused (more than {_MOVED_LIMIT})")


def _draw_matrix(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    """Unit lower-triangular: row i sends x_i to x_i plus the earlier
    variables with coefficients uniform in [-bound, bound], drawn row by row."""
    return [
        [rng.randint(-bound, bound) for _ in range(i)] + [1] + [0] * (n - i - 1)
        for i in range(n)
    ]


def _leads(G: Sequence[_Basis], packing: _Packing) -> MonomialIdeal:
    return MonomialIdeal(RingSpec(packing.n), (Monomial(packing.unpack(g.lm)) for g in G))


def _gin_trial(
    int_gens: list[MonoPoly],
    matrix: list[list[int]],
    prime: int,
    stop: Callable[[MonomialIdeal], bool],
) -> MonomialIdeal | None:
    """Leading ideal over F_prime of the generators moved by the matrix,
    which must be invertible mod prime: the leads of the first basis
    Buchberger yields that stop accepts, or None if it accepts none."""
    for G, packing in _bases(int_gens, len(matrix), prime, matrix):
        leads = _leads(G, packing)
        if stop(leads):
            return leads
    return None


def gin(
    gens: Sequence[Polynomial] | MonomialIdeal, seed: int = 0
) -> GinResult:
    """Reverse-lexicographic generic initial ideal with certification.

    One random change of coordinates, run mod a prime, must reach the
    input's Hilbert series in a strongly stable ideal, and a second, mod
    another prime, must reach that same ideal; otherwise the entry bound
    doubles (five rounds max) before NotCertified is raised.  `trials` counts
    the trials of every round run.  Deterministic in (generators, seed).
    Generators whose moved images could pass _MOVED_LIMIT terms are refused
    with ValueError before any run.
    """
    require_int(seed, "seed")
    if isinstance(gens, MonomialIdeal):
        # a monomial generator is already a primitive integer polynomial
        ring, int_gens = gens.ring, [{g: 1} for g in gens.sorted_gens()]
    else:
        ring, polys = _check_inputs(gens)
        int_gens = [_to_int_poly(f) for f in polys]
    if not int_gens:
        return GinResult(MonomialIdeal.zero(ring), seed, 0, True)
    _refuse_moves(int_gens)
    # the Hilbert series of the input, or over Q of its initial ideal
    target = hilbert_numerator(
        gens if isinstance(gens, MonomialIdeal) else _exact_leads(int_gens, ring.n)
    )
    rng = random.Random(seed)
    bound = 10**4
    for r in range(5):
        # both matrices are drawn whatever the first trial gives, so the
        # stream a round consumes depends on the seed alone
        m = [_draw_matrix(rng, ring.n, bound) for _ in range(2)]
        first = _gin_trial(
            int_gens, m[0], _PRIMES[2 * r], lambda L: hilbert_numerator(L) == target
        )
        if first is not None and is_strongly_stable(first):
            # yields only grow, and inside `first` only `first` has its series
            second = _gin_trial(
                int_gens, m[1], _PRIMES[2 * r + 1],
                lambda L: L == first or not first.contains_ideal(L),
            )
            if second == first:
                return GinResult(first, seed, 2 * (r + 1), True)
        bound *= 2
    raise NotCertified(
        f"gin trials disagreed, were unstable or missed the Hilbert series "
        f"after 5 rounds (seed {seed})"
    )
