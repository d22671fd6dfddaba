"""Simplicial complexes on ground set {1..n}: degree-refined face counts
(f- and h-triangles), the Stanley-Reisner bridge to squarefree monomial
ideals, Alexander duality, exact reduced homology, Hochster's formulas for
graded Betti numbers and local cohomology, a homological sequential
Cohen-Macaulayness oracle, and the symmetric algebraic shift.

Minimal non-faces and the facets of the complex of a squarefree ideal come
from minimal transversals of vertex bitmasks, never from subset scans.

Homology is computed on faces stored as vertex bitmasks, over Q by default
or over F_p when a prime p below 2^31 is supplied (each homology function
checks p with ring.require_field first): each boundary map is a list of
sparse rows of +-1, ranked by elimination on leading columns that keeps the
rows integral over Q (so the rank is exact) and runs mod p over F_p.  The
maps are ranked from the top dimension down, and each skips the rows that
the map above already shows to be boundaries (clearing).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from math import comb

from .groebner import gin
from .monomial import BettiTable, MonomialIdeal, _antichain, _minimal_transversals
from .ring import (
    Monomial, RingSpec, UniPoly, _Frozen, _Record, _SparseTable, _power, _signed_sum, _sparse_pivots,
    exponent_mask, require_field, require_int,
)

Face = frozenset[int]

_HOCHSTER_LIMIT = 14  # 2^n subcomplex scans stop being a desk computation
_FACE_LIMIT = 1 << 18  # faces enumerated one by one
_DUAL_LIMIT = 1 << 18  # vertices written out over the Alexander dual's facets


def _vertex_set(n: int, vertices: Iterable[int]) -> Face:
    """The vertices as a set inside the ground set 1..n; a non-integer or
    out-of-range vertex raises ValueError."""
    # check before hashing: True == 1 would merge into {1} unseen
    s = frozenset(require_int(v, "vertex") for v in vertices)
    if not all(1 <= v <= n for v in s):
        raise ValueError(f"face {sorted(s)} not inside 1..{n}")
    return s


class SimplicialComplex(_Frozen):
    """A nonvoid simplicial complex, stored by its facets.

    The ground set is {1..n}; vertices may be unused.  The empty complex
    (facets == {frozenset()}) is allowed, the void complex is not.
    """

    __slots__ = ("n", "facets")

    def __init__(self, n: int, faces: Iterable[Iterable[int]]):
        if require_int(n, "vertex count") < 1:
            raise ValueError("ground set needs at least one vertex")
        cand = {_vertex_set(n, f) for f in faces}
        if not cand:
            raise ValueError("void complex: supply at least the empty face")
        facets = _antichain(cand, lambda f: -len(f), lambda g, f: f < g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", frozenset(facets))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @property
    def is_empty_complex(self) -> bool:
        return self.facets == frozenset((frozenset(),))

    def faces(self) -> set[Face]:
        """Every face; more than _FACE_LIMIT of them is refused up front."""
        return {frozenset(_vertices(f)) for f in _face_masks(self)}

    def is_face(self, sigma: Iterable[int]) -> bool:
        s = _vertex_set(self.n, sigma)
        return any(s <= f for f in self.facets)

    def sorted_facets(self) -> list[tuple[int, ...]]:
        return sorted((tuple(sorted(f)) for f in self.facets), key=lambda f: (len(f), f))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __str__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.sorted_facets())
        return f"complex[n={self.n}; {inner}]"

    def __repr__(self) -> str:
        return f"SimplicialComplex({self})"

    def to_json(self) -> dict:
        return {"n": self.n, "facets": [list(f) for f in self.sorted_facets()]}

    @classmethod
    def from_json(cls, data: Mapping) -> "SimplicialComplex":
        return cls(data["n"], data["facets"])


def face_degree(cpx: SimplicialComplex, sigma: Iterable[int]) -> int:
    """Cardinality of the largest face containing sigma."""
    s = _vertex_set(cpx.n, sigma)
    degs = [len(f) for f in cpx.facets if s <= f]
    if not degs:
        raise ValueError(f"{sorted(s)} is not a face")
    return max(degs)


class _Triangle(_SparseTable):
    """Sparse integer array indexed by (degree i, cardinality j), 0 <= j <= i <= d."""

    __slots__ = ("d",)
    _WHAT = ("degree", "cardinality", "entry")

    def __init__(self, d: int, entries: Mapping[tuple[int, int], int]):
        object.__setattr__(self, "d", require_int(d, "dimension"))
        super().__init__(entries)

    def _check_index(self, i: int, j: int) -> None:
        if not 0 <= j <= i <= self.d:
            raise ValueError(f"triangle index ({i},{j}) outside 0<=j<=i<={self.d}")

    def row(self, i: int) -> UniPoly:
        return UniPoly(self.value(i, j) for j in range(i + 1))

    def rows(self) -> dict[int, UniPoly]:
        return {i: self.row(i) for i in range(self.d + 1)}

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.d == other.d

    __hash__ = _SparseTable.__hash__

    def __str__(self) -> str:
        lines = []
        for i in range(self.d + 1):
            vals = [self.value(i, j) for j in range(i + 1)]
            lines.append(f"{i}: " + " ".join(str(v) for v in vals))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"d": self.d, "entries": self._json_entries()}

    @classmethod
    def from_json(cls, data: Mapping):
        return cls(data["d"], cls._parse_entries(data["entries"]))


class FTriangle(_Triangle):
    """f_{i,j}: number of faces of degree i and cardinality j."""


class HTriangle(_Triangle):
    """h_{i,j}: the degree-refined h-numbers; row i sums to the number of
    facets of cardinality i at t = 1."""


def f_triangle(cpx: SimplicialComplex) -> FTriangle:
    d = cpx.dim + 1
    facets = [_mask(f) for f in cpx.facets]
    entries: dict[tuple[int, int], int] = {}
    for sigma in _face_masks(cpx):
        i = max(g.bit_count() for g in facets if g & sigma == sigma)  # face_degree
        key = (i, sigma.bit_count())
        entries[key] = entries.get(key, 0) + 1
    return FTriangle(d, entries)


def h_triangle(cpx: SimplicialComplex) -> HTriangle:
    """h_{i,j} by the generating identity row_i(t) = sum_j f_{i,j} t^j (1-t)^{i-j},
    that is t^i g(1/t) for g(u) = sum_k f_{i,i-k} (u-1)^k, a Taylor shift;
    cross-checked against the direct alternating sum."""
    ft = f_triangle(cpx)
    entries: dict[tuple[int, int], int] = {}
    for i in range(ft.d + 1):
        g = UniPoly(ft.value(i, i - k) for k in range(i + 1)).translate(-1)
        row = [g.coeff(i - j) for j in range(i + 1)]
        entries.update(((i, j), c) for j, c in enumerate(row) if c)
        # independent route: h_{i,j} = sum_k (-1)^(j-k) C(i-k, j-k) f_{i,k}
        for j in range(i + 1):
            direct = sum(
                (-1) ** (j - k) * comb(i - k, j - k) * ft.value(i, k)
                for k in range(j + 1)
            )
            if direct != row[j]:
                raise AssertionError("h-triangle routes disagree; this is a bug")
    return HTriangle(ft.d, entries)


# -- Stanley-Reisner bridge -----------------------------------------------------


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def _mask(face: Iterable[int]) -> int:
    return sum(1 << (v - 1) for v in face)


def _nonface_masks(cpx: SimplicialComplex) -> list[int]:
    """Minimal sets in no facet, as bitmasks: minimal transversals of the
    facets' complements."""
    ground = (1 << cpx.n) - 1
    return _minimal_transversals(ground ^ _mask(f) for f in cpx.facets)


def minimal_nonfaces(cpx: SimplicialComplex) -> list[tuple[int, ...]]:
    """Minimal sets in no facet, by size and then lexicographically."""
    return sorted(map(_vertices, _nonface_masks(cpx)), key=lambda t: (len(t), t))


def stanley_reisner_ideal(cpx: SimplicialComplex) -> MonomialIdeal:
    """I_Delta: generated by the minimal non-faces (squarefree)."""
    n = cpx.n
    gens = (Monomial(tuple(int(v in nf) for v in range(1, n + 1))) for nf in minimal_nonfaces(cpx))
    return MonomialIdeal(RingSpec(n), gens)


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose Stanley-Reisner ideal is the given squarefree ideal."""
    if not ideal.is_squarefree():
        raise ValueError("Stanley-Reisner correspondence wants a squarefree ideal")
    if ideal.is_unit:
        raise ValueError("the unit ideal corresponds to the void complex")
    n = ideal.ring.n
    transversals = _minimal_transversals(exponent_mask(g.exponents) for g in ideal.gens)
    return SimplicialComplex(n, [_vertices(((1 << n) - 1) ^ t) for t in transversals])


def facet_subcomplex(cpx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by the facets of dimension >= i; {emptyset} when none."""
    keep = [f for f in cpx.facets if len(f) - 1 >= i]
    if not keep:
        return SimplicialComplex(cpx.n, [frozenset()])
    return SimplicialComplex(cpx.n, keep)


def alexander_dual(cpx: SimplicialComplex) -> SimplicialComplex:
    """Faces are the complements of non-faces; facets complement the minimal
    non-faces.  The full simplex has no non-faces and is rejected, and a dual
    of more than _DUAL_LIMIT vertex entries is refused before it is built."""
    nonfaces = _nonface_masks(cpx)
    if not nonfaces:
        raise ValueError("the full simplex has a void Alexander dual")
    entries = sum(cpx.n - nf.bit_count() for nf in nonfaces)
    if entries > _DUAL_LIMIT:
        raise ValueError(
            f"Alexander dual of {entries} vertex entries refused (more than {_DUAL_LIMIT})"
        )
    ground = (1 << cpx.n) - 1
    return SimplicialComplex(cpx.n, [_vertices(ground ^ nf) for nf in nonfaces])


def link(cpx: SimplicialComplex, sigma: Iterable[int]) -> SimplicialComplex:
    s = _vertex_set(cpx.n, sigma)
    if not cpx.is_face(s):
        raise ValueError(f"{sorted(s)} is not a face")
    return SimplicialComplex(cpx.n, [f - s for f in cpx.facets if s <= f])


def induced_subcomplex(cpx: SimplicialComplex, w: Iterable[int]) -> SimplicialComplex:
    ws = _vertex_set(cpx.n, w)
    return SimplicialComplex(cpx.n, [f & ws for f in cpx.facets])


# -- exact homology -------------------------------------------------------------


def _face_masks(cpx: SimplicialComplex) -> set[int]:
    """Every face as a vertex bitmask; more than _FACE_LIMIT is refused up front."""
    # the largest facet alone has 2^(dim+1) faces
    _refuse_face_scan(1 << (cpx.dim + 1))
    out: set[int] = set()
    for facet in cpx.facets:
        top = sub = _mask(facet)
        while True:  # the submasks of top, in decreasing order
            out.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
        _refuse_face_scan(len(out))
    return out


def _levels(faces: Iterable[int]) -> list[list[int]]:
    """Faces grouped by size: levels[k] holds the faces of k vertices, in
    increasing order (which keeps the fill-in of the rank elimination low)."""
    levels: list[list[int]] = []
    for f in sorted(faces):
        k = f.bit_count()
        while len(levels) <= k:
            levels.append([])
        levels[k].append(f)
    return levels


def _reduced_homology(levels: list[list[int]], p: int | None) -> dict[int, int]:
    """dim H~_{k-1} for k = 0..len(levels)-1, over Q or F_p, of the complex
    whose faces of k vertices are levels[k] (closed under subsets, so
    levels[0] == [0], and no level empty).

    The boundary maps are ranked from the top level down, with clearing: the
    rows of level k are the boundaries of its faces, keyed by face mask, and
    a face that is a pivot column of level k+1 gives no row.  That is exact
    over Q and every F_p.  The reduced row of level k+1 that leads with sigma
    is a boundary, hence a cycle a*sigma + (faces below sigma), a != 0; so the
    boundary of sigma lies in the span of the boundaries of the faces below
    it (by induction, of the rows kept for them), which come first in the
    level's increasing order, and its row would reduce to zero without
    adding a pivot.
    """
    ranks = [0] * (len(levels) + 1)
    cleared: dict[int, dict[int, int]] = {}
    for k in range(len(levels) - 1, 0, -1):
        rows = []
        for f in levels[k]:
            if f in cleared:
                continue
            row = {}
            sign = 1
            rest = f
            while rest:  # drop the vertices of f in increasing order
                low = rest & -rest
                row[f ^ low] = sign
                sign = -sign
                rest ^= low
            rows.append(row)
        cleared = _sparse_pivots(rows, p)
        ranks[k] = len(cleared)
    return {k - 1: len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(levels)}


def reduced_homology_ranks(cpx: SimplicialComplex, p: int | None = None) -> dict[int, int]:
    """dim of reduced homology in each degree -1..dim, over Q or F_p.

    The empty complex has a single unit in degree -1.
    """
    require_field(p)
    return _reduced_homology(_levels(_face_masks(cpx)), p)


# -- Hochster formulas ----------------------------------------------------------


def _refuse_hochster_scan(n: int) -> None:
    if n > _HOCHSTER_LIMIT:
        raise ValueError(f"restriction scan over 2^{n} subsets refused (n > {_HOCHSTER_LIMIT})")


def _refuse_face_scan(count: int) -> None:
    if count > _FACE_LIMIT:
        raise ValueError(f"enumeration of {count} faces refused (more than {_FACE_LIMIT})")


def graded_betti_hochster(cpx: SimplicialComplex, p: int | None = None) -> BettiTable:
    """beta_{i,j}(k[Delta]) = sum over |W| = j of dim H~_{j-i-1}(Delta_W).

    When a vertex v of W lies in no minimal non-face inside W, Delta_W is a
    cone on v and has no reduced homology over any field.  So W runs only over
    the unions of minimal non-faces: the lcm lattice of I_Delta, with the
    empty set.
    """
    require_field(p)
    _refuse_hochster_scan(cpx.n)
    levels = _levels(_face_masks(cpx))
    lattice = {0}
    for nonface in _nonface_masks(cpx):
        lattice |= {w | nonface for w in lattice}
    entries: dict[tuple[int, int], int] = {}
    for w in lattice:
        j = w.bit_count()
        induced = []
        for level in levels:
            inside = [f for f in level if f & w == f]
            if not inside:
                break
            induced.append(inside)
        for h, r in _reduced_homology(induced, p).items():
            if r:
                key = (j - h - 1, j)
                entries[key] = entries.get(key, 0) + r
    return BettiTable(entries)


class LocalCohomologyTable(_SparseTable):
    """Hilbert series of the local cohomology modules H^i_m, stored as integer
    coefficients N_{i,c} against the basis (t-1)^(-c):

        Hilb(H^i_m; t) = sum_c N_{i,c} (t-1)^(-c).

    Entries come from Hochster's face formula (then 0 <= c <= i <= d) or from
    re-expanding layer h-polynomials (where c < 0 can occur for non-squarefree
    inputs: the polynomial part of the series); either way 0 <= i and c <= i.
    """

    __slots__ = ()
    _KEYS = ("i", "c", "value")
    _WHAT = ("cohomological degree", "face size", "entry")

    def _check_index(self, i: int, c: int) -> None:
        if i < 0 or c > i:
            raise ValueError(f"local cohomology index ({i},{c}) outside 0<=i, c<=i")

    def cohomological_degrees(self) -> list[int]:
        return sorted({i for i, _ in self.entries})

    def numerator(self, i: int) -> UniPoly:
        """Numerator of Hilb(H^i_m) over (t-1)^i (valid when all c >= 0)."""
        coeffs = [0] * (i + 1)  # in powers of t - 1
        for (k, c), v in self.entries.items():
            if k != i:
                continue
            if c < 0:
                raise ValueError("series has a polynomial part; no single (t-1)^i form")
            coeffs[i - c] = v
        return UniPoly(coeffs).translate(-1)

    def __str__(self) -> str:
        lines = []
        for i in self.cohomological_degrees():
            try:
                num = str(self.numerator(i))
                num = f"({num})" if " " in num else num
                if i == 0:
                    lines.append(f"H^{i}: {num}")
                else:
                    lines.append(f"H^{i}: {num}/(t-1)^{i}")
            except ValueError:
                terms = [(v, _power("(t-1)", -c)) for (k, c), v in sorted(self.entries.items()) if k == i]
                lines.append(f"H^{i}: " + _signed_sum(terms, "*"))
        return "\n".join(lines) if lines else "(zero)"


def _link_homology(
    cpx: SimplicialComplex, p: int | None
) -> Iterator[tuple[int, dict[int, int]]]:
    """(|F|, reduced homology of link F) for the faces F whose link is no cone.

    When a vertex outside F lies in every facet through F, link F is a cone
    on it and has no reduced homology over any field; those faces are skipped.
    """
    levels = _levels(_face_masks(cpx))
    facets = [_mask(f) for f in cpx.facets]
    for c, level in enumerate(levels):
        for face in level:
            common = -1
            for g in facets:
                if g & face == face:
                    common &= g
            if common != face:
                continue
            link_levels = []
            for upper in levels[c:]:
                inside = [f ^ face for f in upper if f & face == face]
                if not inside:
                    break
                link_levels.append(inside)
            yield c, _reduced_homology(link_levels, p)


def local_cohomology_hochster(
    cpx: SimplicialComplex, p: int | None = None
) -> LocalCohomologyTable:
    """N_{i,c} = sum over faces F with |F| = c of dim H~_{i-c-1}(link F);
    faces whose link is a cone add nothing and are skipped."""
    require_field(p)
    entries: dict[tuple[int, int], int] = {}
    for c, ranks in _link_homology(cpx, p):
        for h, r in ranks.items():
            if r:
                key = (h + c + 1, c)
                entries[key] = entries.get(key, 0) + r
    return LocalCohomologyTable(entries)


# -- Cohen-Macaulay oracles ------------------------------------------------------


def is_cohen_macaulay(cpx: SimplicialComplex, p: int | None = None) -> bool:
    """Homological criterion: every face link has vanishing reduced homology
    below its dimension (a cone link has none at all and is skipped)."""
    require_field(p)
    for _, ranks in _link_homology(cpx, p):
        top = max(ranks)  # the dimension of the link
        if any(r and h < top for h, r in ranks.items()):
            return False
    return True


def pure_skeleton(cpx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by all i-dimensional faces."""
    faces = [f for f in cpx.faces() if len(f) == i + 1]
    if not faces:
        raise ValueError(f"no faces of dimension {i}")
    return SimplicialComplex(cpx.n, faces)


def scm_oracle(cpx: SimplicialComplex, p: int | None = None) -> bool:
    """Sequential Cohen-Macaulayness by the skeleton criterion: every pure
    i-skeleton is Cohen-Macaulay."""
    require_field(p)
    return all(
        is_cohen_macaulay(pure_skeleton(cpx, i), p) for i in range(cpx.dim + 1)
    )


# -- symmetric shift --------------------------------------------------------------


def _is_squarefree_strongly_stable(ideal: MonomialIdeal) -> bool:
    for g in ideal.gens:
        sup = set(g.support())
        for j in sorted(sup):
            for i in range(1, j):
                if i in sup:
                    continue
                e = list(g.exponents)
                e[j - 1] -= 1
                e[i - 1] += 1
                if not ideal.contains(Monomial(tuple(e))):
                    return False
    return True


def symmetric_shift(cpx: SimplicialComplex, seed: int = 0) -> SimplicialComplex:
    """The shifted complex: gin of the Stanley-Reisner ideal, stretched back to
    a squarefree ideal by x_{i1}...x_{ik} -> x_{i1} x_{i2+1} ... x_{ik+k-1}."""
    ideal = stanley_reisner_ideal(cpx)
    if ideal.is_zero:
        return cpx  # full simplex shifts to itself
    ring = ideal.ring
    result = gin(ideal, seed=seed)
    stretched = []
    for g in result.ideal.gens:
        vars_with_mult = [i for i in range(1, ring.n + 1) for _ in range(g.exponent(i))]
        e = [0] * ring.n
        for offset, v in enumerate(sorted(vars_with_mult)):
            idx = v + offset
            if idx > ring.n:
                raise AssertionError(
                    "stretched generator escaped the ring; gin is not squarefree-compatible"
                )
            e[idx - 1] = 1
        stretched.append(Monomial(tuple(e)))
    shifted_ideal = MonomialIdeal(ring, stretched)
    if not _is_squarefree_strongly_stable(shifted_ideal):
        raise AssertionError("shifted ideal is not squarefree strongly stable; this is a bug")
    return complex_of_ideal(shifted_ideal)


# -- dual Betti / h-triangle identity ---------------------------------------------


class HrwResult(_Record):
    """Row-by-row comparison of sum_c beta_{i-c+1, n-c}(dual) (t-1)^(i-c)
    against the h-triangle rows."""

    __slots__ = ("equal", "residuals", "degenerate")
    equal: bool
    residuals: tuple[tuple[int, UniPoly], ...]
    degenerate: bool


def hrw_check(cpx: SimplicialComplex, p: int | None = None) -> HrwResult:
    require_field(p)
    ht = h_triangle(cpx)
    if not minimal_nonfaces(cpx):
        # full simplex: the dual is void, both sides are read as zero rows
        return HrwResult(True, (), True)
    dual = alexander_dual(cpx)
    betti = graded_betti_hochster(dual, p)
    residuals = []
    ok = True
    for i in range(ht.d + 1):
        lhs = UniPoly(betti.beta(i - c + 1, cpx.n - c) for c in range(i, -1, -1)).translate(-1)
        res = lhs - ht.row(i)
        residuals.append((i, res))
        if not res.is_zero:
            ok = False
    return HrwResult(ok, tuple(residuals), False)
