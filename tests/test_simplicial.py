"""Simplicial complexes: face counting triangles, Stanley-Reisner bridges,
Alexander duality, simplicial homology, Hochster formulas, shifting, and the
h-triangle recovery identity."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwkit import (
    FTriangle,
    HTriangle,
    LocalCohomologyTable,
    Monomial,
    MonomialIdeal,
    RingSpec,
    SimplicialComplex,
    UniPoly,
    alexander_dual,
    betti_eliahou_kervaire,
    complex_of_ideal,
    dimension_filtration,
    f_triangle,
    face_degree,
    facet_subcomplex,
    graded_betti_hochster,
    h_triangle,
    hrw_check,
    induced_subcomplex,
    is_cohen_macaulay,
    krull_dimension,
    link,
    local_cohomology_hochster,
    minimal_nonfaces,
    pure_skeleton,
    reduced_homology_ranks,
    scm_oracle,
    stanley_reisner_ideal,
    symmetric_shift,
)
from bwkit import simplicial
from bwkit.monomial import _minimal_transversals
from bwkit.ring import _sparse_rank
from corpus import random_monomial_ideal
from oracles import (
    _rank_int,
    _rank_mod_p,
    all_faces,
    dense_reduced_homology_ranks,
    fraction_rank,
    scan_complex_of_ideal,
    scan_graded_betti_hochster,
    scan_is_cohen_macaulay,
    scan_krull_dimension,
    scan_local_cohomology_hochster,
    scan_minimal_nonfaces,
)


def cpx(n, *facets):
    return SimplicialComplex(n, facets)


def worked_example_complex():
    return cpx(6, (1, 2, 6), (1, 3, 5), (2, 3, 4))


BOUNDARY_TRIANGLE = cpx(3, (1, 2), (1, 3), (2, 3))
SEGMENT_POINT = cpx(3, (1, 2), (3,))


# -- construction ------------------------------------------------------------------


def test_construction_maximalizes():
    c = cpx(3, (1, 2), (1,), (2,))
    assert c.sorted_facets() == [(1, 2)]
    assert c.faces() == {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}


def test_empty_complex_and_bad_input():
    empty = SimplicialComplex(2, [()])
    assert empty.is_empty_complex and empty.dim == -1
    with pytest.raises(ValueError):
        SimplicialComplex(2, [])
    with pytest.raises(ValueError):
        SimplicialComplex(0, [()])
    with pytest.raises(ValueError):
        SimplicialComplex(2, [(0,)])
    with pytest.raises(ValueError):
        SimplicialComplex(2, [(3,)])


def test_membership_and_json():
    c = worked_example_complex()
    assert c.dim == 2
    assert c.is_face((2, 4))
    assert not c.is_face((5, 6))
    assert SimplicialComplex.from_json(c.to_json()) == c


def test_face_degree_goldens():
    c = worked_example_complex()
    assert face_degree(c, ()) == 3
    assert face_degree(c, (2, 4)) == 3
    assert face_degree(c, (1, 2, 6)) == 3
    assert face_degree(SEGMENT_POINT, (3,)) == 1
    assert face_degree(SEGMENT_POINT, ()) == 2
    with pytest.raises(ValueError):
        face_degree(c, (5, 6))


# -- f- and h-triangles -------------------------------------------------------------


def test_f_triangle_golden_small():
    tri = f_triangle(SEGMENT_POINT)
    assert tri.value(1, 0) == 0 and tri.value(1, 1) == 1
    assert tri.value(2, 0) == 1 and tri.value(2, 1) == 2 and tri.value(2, 2) == 1
    assert tri.row(0).is_zero


def test_h_triangle_golden_small():
    tri = h_triangle(SEGMENT_POINT)
    assert tri.value(1, 1) == 1
    assert tri.value(2, 0) == 1
    assert sum(tri.value(i, j) for i in range(3) for j in range(3)) == 2


def test_h_triangle_full_simplex():
    tri = h_triangle(cpx(2, (1, 2)))
    assert tri.value(2, 0) == 1
    assert sum(abs(v) for v in tri.entries.values()) == 1


def test_h_triangle_worked_example():
    tri = h_triangle(worked_example_complex())
    assert tri.row(3) == UniPoly((1, 3, 0, -1))
    assert tri.row(2).is_zero
    assert tri.row(1).is_zero and tri.row(0).is_zero


def test_h_triangle_row_sums_count_facets():
    c = worked_example_complex()
    ftri = f_triangle(c)
    htri = h_triangle(c)
    by_size = {}
    for f in c.sorted_facets():
        by_size[len(f)] = by_size.get(len(f), 0) + 1
    for i in range(c.dim + 2):
        # h_i(1) counts facets of cardinality i, f_i(1) counts all faces of
        # interior degree i
        assert htri.row(i).evaluate(1) == by_size.get(i, 0)
        assert ftri.row(i).evaluate(1) == sum(
            1 for sigma in c.faces() if face_degree(c, sigma) == i
        )


def test_triangle_json_roundtrip():
    tri = h_triangle(worked_example_complex())
    assert HTriangle.from_json(tri.to_json()) == tri
    ftri = f_triangle(worked_example_complex())
    assert FTriangle.from_json(ftri.to_json()) == ftri


# -- Stanley-Reisner bridge -----------------------------------------------------------


def test_minimal_nonfaces_golden():
    assert minimal_nonfaces(BOUNDARY_TRIANGLE) == [(1, 2, 3)]
    assert minimal_nonfaces(SEGMENT_POINT) == [(1, 3), (2, 3)]
    assert minimal_nonfaces(cpx(2, (1, 2))) == []


def test_stanley_reisner_golden():
    ideal = stanley_reisner_ideal(worked_example_complex())
    assert ideal == MonomialIdeal.from_exponents(
        RingSpec(6),
        [
            (1, 1, 1, 0, 0, 0),
            (1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
            (0, 0, 0, 1, 1, 0),
            (0, 0, 0, 1, 0, 1),
            (0, 0, 0, 0, 1, 1),
        ],
    )


def test_complex_of_ideal_roundtrip():
    for c in (worked_example_complex(), BOUNDARY_TRIANGLE, SEGMENT_POINT):
        assert complex_of_ideal(stanley_reisner_ideal(c)) == c
    full = complex_of_ideal(MonomialIdeal.zero(RingSpec(3)))
    assert full.sorted_facets() == [(1, 2, 3)]
    with pytest.raises(ValueError):
        complex_of_ideal(MonomialIdeal.unit(RingSpec(2)))
    with pytest.raises(ValueError):
        complex_of_ideal(MonomialIdeal.from_exponents(RingSpec(2), [(2, 0)]))


def test_minimal_transversals_edge_cases():
    assert _minimal_transversals([]) == [0]
    assert _minimal_transversals([0b101, 0]) == []
    assert sorted(_minimal_transversals([0b011, 0b011, 0b011])) == [0b001, 0b010]
    assert sorted(_minimal_transversals([0b011, 0b110])) == [0b010, 0b101]
    # a superset of an edge changes nothing, in either order
    assert sorted(_minimal_transversals([0b111, 0b001])) == [0b001]
    full = cpx(4, (1, 2, 3, 4))
    assert minimal_nonfaces(full) == []
    assert stanley_reisner_ideal(full).is_zero
    assert complex_of_ideal(MonomialIdeal.zero(RingSpec(4))) == full


def _random_small_ideal(rng):
    """1-9 variables and 0-6 generators (the zero ideal included); the
    exponents are all 1 in about half of the ideals and up to 2 in the rest."""
    n = rng.randint(1, 9)
    top = rng.randint(1, 2)
    gens = []
    for _ in range(rng.randint(0, 6)):
        e = [0] * n
        for v in rng.sample(range(n), rng.randint(1, min(n, 4))):
            e[v] = rng.randint(1, top)
        gens.append(e)
    return MonomialIdeal.from_exponents(RingSpec(n), gens)


def _random_small_complex(rng):
    """1-9 vertices and 1-7 random faces of at most max(n - 2, 1) vertices, so
    the full simplex occurs only for n <= 2; the empty face occurs."""
    n = rng.randint(1, 9)
    size = max(n - 2, 1)
    faces = [rng.sample(range(1, n + 1), rng.randint(0, size)) for _ in range(rng.randint(1, 7))]
    return SimplicialComplex(n, faces)


def test_transversal_routes_match_subset_scans():
    rng = random.Random(4051)
    squarefree = 0
    for _ in range(1500):
        i = _random_small_ideal(rng)
        assert krull_dimension(i) == scan_krull_dimension(i)
        if i.is_squarefree() and i.is_proper:
            squarefree += 1
            assert complex_of_ideal(i) == scan_complex_of_ideal(i)
    assert squarefree > 600
    for _ in range(1000):
        c = _random_small_complex(rng)
        assert minimal_nonfaces(c) == scan_minimal_nonfaces(c)
        assert complex_of_ideal(stanley_reisner_ideal(c)) == c


def test_path_edge_ideal_at_24_vertices():
    """Needs the transversal routine: subset scans double per vertex."""
    n = 24
    edges = [tuple(int(v in (k, k + 1)) for v in range(1, n + 1)) for k in range(1, n)]
    ideal = MonomialIdeal.from_exponents(RingSpec(n), edges)
    assert krull_dimension(ideal) == 12
    path = complex_of_ideal(ideal)
    assert len(path.facets) == 816
    assert minimal_nonfaces(path) == [(k, k + 1) for k in range(1, n)]


def test_facet_subcomplex_goldens():
    c = worked_example_complex()
    assert facet_subcomplex(c, 0) == c
    assert facet_subcomplex(c, 2) == c
    assert facet_subcomplex(c, 3).is_empty_complex
    assert facet_subcomplex(SEGMENT_POINT, 1) == cpx(3, (1, 2))


def test_facet_subcomplex_matches_ideal_filtration():
    """The Stanley-Reisner ideal of the i-th facet subcomplex is the i-th step
    of the dimension filtration of the Stanley-Reisner ideal."""
    for c in (worked_example_complex(), SEGMENT_POINT, BOUNDARY_TRIANGLE):
        ideal = stanley_reisner_ideal(c)
        chain = dimension_filtration(ideal)
        for i in range(chain.d):
            sub = facet_subcomplex(c, i)
            assert stanley_reisner_ideal(sub) == chain.ideals[i]


# -- Alexander duality ----------------------------------------------------------------


def test_alexander_dual_goldens():
    assert alexander_dual(SEGMENT_POINT) == cpx(3, (1,), (2,))
    dual = alexander_dual(worked_example_complex())
    assert dual.dim == 3
    with pytest.raises(ValueError):
        alexander_dual(cpx(2, (1, 2)))


def test_alexander_dual_involution():
    for c in (SEGMENT_POINT, BOUNDARY_TRIANGLE, worked_example_complex()):
        assert alexander_dual(alexander_dual(c)) == c


def test_link_and_induced():
    c = worked_example_complex()
    assert link(c, (3,)) == cpx(6, (1, 5), (2, 4))
    assert link(c, ()) == c
    assert induced_subcomplex(c, (1, 2, 6)) == cpx(6, (1, 2, 6))
    assert induced_subcomplex(c, (3, 5, 6)) == cpx(6, (3, 5), (6,))


def test_vertex_arguments_are_checked():
    """A vertex outside 1..n, or one that is not an int, is refused: not
    dropped from the set and not read as vertex 1."""
    c = cpx(3, (1, 2), (2, 3))
    calls = (
        c.is_face,
        lambda s: face_degree(c, s),
        lambda s: link(c, s),
        lambda s: induced_subcomplex(c, s),
    )
    for call in calls:
        for bad in ((9,), (0,), (True,), (1.0,)):
            with pytest.raises(ValueError, match="inside|integer"):
                call(bad)


# -- homology --------------------------------------------------------------------------


def test_homology_goldens():
    assert reduced_homology_ranks(BOUNDARY_TRIANGLE) == {-1: 0, 0: 0, 1: 1}
    assert reduced_homology_ranks(cpx(1, (1,))) == {-1: 0, 0: 0}
    assert reduced_homology_ranks(SimplicialComplex(2, [()])) == {-1: 1}
    # the worked example deformation retracts to a circle
    assert reduced_homology_ranks(worked_example_complex()) == {-1: 0, 0: 0, 1: 1, 2: 0}
    sphere = cpx(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert reduced_homology_ranks(sphere) == {-1: 0, 0: 0, 1: 0, 2: 1}
    assert reduced_homology_ranks(sphere, p=7) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_homology_euler_poincare():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 6)
        faces = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            for _ in range(rng.randint(1, 6))
        ]
        c = SimplicialComplex(n, faces)
        ranks = reduced_homology_ranks(c)
        euler = -1 + sum((-1) ** (len(f) - 1) for f in c.faces() if f)
        assert sum((-1) ** i * r for i, r in ranks.items()) == euler


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_integer_rank_matches_fraction_rank(rows):
    assert _rank_int([row[:] for row in rows]) == fraction_rank(
        [[Fraction(v) for v in row] for row in rows]
    )


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=1,
            max_size=6,
        )
    )
)
def test_sparse_rank_matches_dense_ranks(rows):
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    rank_q = _sparse_rank(sparse, None)
    assert rank_q == _rank_int([row[:] for row in rows])
    assert rank_q == fraction_rank([[Fraction(v) for v in row] for row in rows])
    for p in (2, 3, 5):
        assert _sparse_rank(sparse, p) == _rank_mod_p(rows, p)


# the 6-vertex real projective plane: H~_1 = Z/2, so its homology and Betti
# numbers depend on the characteristic
RP2 = cpx(
    6,
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)


def test_homology_and_betti_depend_on_the_field():
    zero = {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_ranks(RP2) == zero
    assert reduced_homology_ranks(RP2, p=3) == zero
    assert reduced_homology_ranks(RP2, p=2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert graded_betti_hochster(RP2).totals() == [1, 10, 15, 6]
    assert graded_betti_hochster(RP2, p=3).totals() == [1, 10, 15, 6]
    assert graded_betti_hochster(RP2, p=2).totals() == [1, 10, 15, 7, 1]


@pytest.mark.parametrize(
    "homology",
    [reduced_homology_ranks, graded_betti_hochster, local_cohomology_hochster, is_cohen_macaulay],
)
def test_homology_rejects_what_names_no_prime_field(homology):
    """Only None (Q) and primes below 2^31 name a field; 1 would give the
    face counts and 4 an error from deep inside the elimination."""
    for p in (0, 1, 4, True, 2**32 - 1):
        with pytest.raises(ValueError, match="prime|integer|too large"):
            homology(RP2, p)
    # H~_1(RP2) is Z/2, so every odd characteristic agrees with Q
    assert homology(RP2, 2**31 - 1) == homology(RP2)


def test_oracles_check_their_field_first():
    """The skeleton and dual-Betti oracles refuse a p that names no field
    even on a complex where they compute no homology."""
    for oracle, c in ((hrw_check, cpx(3, (1, 2, 3))), (scm_oracle, cpx(3, ()))):
        with pytest.raises(ValueError, match="not prime"):
            oracle(c, 4)


def test_hochster_routes_match_dense_scans():
    """The bitmask faces, kernel and cone skips against frozenset faces and
    dense ranks over every subset and every face link, over Q, F_2 and F_3."""
    rng = random.Random(9173)
    for _ in range(40):
        n = rng.randint(1, 8)
        faces = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 7))]
        c = SimplicialComplex(n, faces)
        assert c.faces() == all_faces(c)
        for p in (None, 2, 3):
            assert reduced_homology_ranks(c, p) == dense_reduced_homology_ranks(c, p)
            assert graded_betti_hochster(c, p) == scan_graded_betti_hochster(c, p)
            assert local_cohomology_hochster(c, p) == scan_local_cohomology_hochster(c, p)
            assert is_cohen_macaulay(c, p) == scan_is_cohen_macaulay(c, p)
    for c in (RP2, worked_example_complex()):
        for p in (None, 2, 3):
            assert graded_betti_hochster(c, p) == scan_graded_betti_hochster(c, p)
            assert local_cohomology_hochster(c, p) == scan_local_cohomology_hochster(c, p)


@pytest.fixture
def rows_seen(monkeypatch):
    """The number of rows each call of the homology's rank kernel is handed,
    in order, while the test runs."""
    seen = []
    pivots = simplicial._sparse_pivots

    def counted(rows, p):
        seen.append(len(rows))
        return pivots(rows, p)

    monkeypatch.setattr(simplicial, "_sparse_pivots", counted)
    return seen


def test_clearing_skips_the_rows_of_known_boundaries(rows_seen):
    """RP2 has 6 + 15 + 10 = 31 nonempty faces, one boundary row each
    without clearing.  Over Q the 10 triangle rows have rank 10, so 10 edges
    and then 5 vertices give no row: 10 + 5 + 1 = 16.  Over F_2 the triangle
    rows have rank 9 (the fundamental class mod 2): 10 + 6 + 1 = 17."""
    assert sum(len(f) > 0 for f in RP2.faces()) == 31
    assert reduced_homology_ranks(RP2) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert rows_seen == [10, 5, 1]
    rows_seen.clear()
    assert reduced_homology_ranks(RP2, p=2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert rows_seen == [10, 6, 1]


def test_cleared_ranks_match_dense_ranks(rows_seen):
    """On seeded random complexes of up to 8 vertices whose facets of 3 to 5
    vertices leave homology in several degrees, the cleared ranks agree with
    dense ranks that clear nothing, over Q, F_2 and F_3: for the complex, for
    every induced subcomplex (Betti numbers) and for every face link (local
    cohomology).  Each complex has a triangle, so its own homology hands the
    kernel fewer rows than it has nonempty faces."""
    rng = random.Random(3407)
    degrees = set()
    for _ in range(12):
        n = rng.randint(6, 8)
        facets = [rng.sample(range(1, n + 1), rng.randint(3, 5)) for _ in range(rng.randint(4, 9))]
        c = SimplicialComplex(n, facets)
        for p in (None, 2, 3):
            rows_seen.clear()
            ranks = reduced_homology_ranks(c, p)
            assert sum(rows_seen) < len(c.faces()) - 1
            assert ranks == dense_reduced_homology_ranks(c, p)
            degrees |= {h for h, r in ranks.items() if r}
            assert graded_betti_hochster(c, p) == scan_graded_betti_hochster(c, p)
            assert local_cohomology_hochster(c, p) == scan_local_cohomology_hochster(c, p)
    assert {1, 2} <= degrees


# -- Hochster formulas ------------------------------------------------------------------


def test_hochster_betti_goldens():
    edge = complex_of_ideal(MonomialIdeal.from_exponents(RingSpec(2), [(1, 1)]))
    assert graded_betti_hochster(edge).totals() == [1, 1]

    two_points = cpx(2, (1,), (2,))
    table = graded_betti_hochster(two_points)
    assert table.beta(1, 2) == 1 and table.totals() == [1, 1]

    worked = graded_betti_hochster(worked_example_complex())
    assert worked.totals() == [1, 7, 11, 6, 1]
    assert worked.rows() == {
        0: [1, 0, 0, 0, 0],
        1: [0, 6, 8, 3, 0],
        2: [0, 1, 3, 3, 1],
    }


def test_hochster_matches_eliahou_kervaire_on_shifted():
    shifted = symmetric_shift(worked_example_complex())
    hoch = graded_betti_hochster(shifted)
    # first syzygies count the minimal generators, one per minimal nonface
    assert hoch.totals()[1] == len(minimal_nonfaces(shifted))


def test_hochster_guard_large_n():
    big = SimplicialComplex(15, [tuple(range(1, 15))])
    with pytest.raises(ValueError):
        graded_betti_hochster(big)


def test_face_enumeration_refused_past_the_limit(monkeypatch):
    # one facet of 26 vertices alone has 2^26 faces
    with pytest.raises(ValueError, match="faces refused"):
        h_triangle(SimplicialComplex(26, [tuple(range(1, 27))]))
    monkeypatch.setattr(simplicial, "_FACE_LIMIT", 100)
    assert len(SimplicialComplex(7, [(1, 2, 3, 4, 5, 6)]).faces()) == 64
    # two facets of 64 faces each, sharing only the empty face: the running
    # count refuses what neither facet's size does
    two = SimplicialComplex(12, [(1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11, 12)])
    with pytest.raises(ValueError, match="127 faces refused"):
        two.faces()


def test_local_cohomology_hochster_goldens():
    full = local_cohomology_hochster(cpx(2, (1, 2)))
    assert full.entries == {(2, 2): 1}

    tri = local_cohomology_hochster(BOUNDARY_TRIANGLE)
    assert tri.entries == {(2, 0): 1, (2, 1): 3, (2, 2): 3}
    assert tri.numerator(2) == UniPoly((1, 1, 1))

    pts = local_cohomology_hochster(cpx(2, (1,), (2,)))
    assert pts.entries == {(1, 0): 1, (1, 1): 2}

    worked = local_cohomology_hochster(worked_example_complex())
    assert worked.entries == {(2, 0): 1, (2, 1): 3, (3, 3): 3}
    assert worked.numerator(2) == UniPoly((-2, 1, 1))
    assert worked.numerator(3) == UniPoly((3,))


def test_simplex_links_are_cones():
    """Every link of a simplex but the simplex's own is a cone; the 2^12
    faces of the 12-vertex simplex need no homology at all."""
    simplex = SimplicialComplex(12, [tuple(range(1, 13))])
    start = time.perf_counter()
    table = local_cohomology_hochster(simplex)
    assert table.entries == {(12, 12): 1}
    assert str(table) == "H^12: 1/(t-1)^12"
    assert is_cohen_macaulay(simplex)
    assert time.perf_counter() - start < 1.0


def test_local_cohomology_cm_vanishing():
    """Cohen-Macaulay complexes have local cohomology only at i = dim + 1."""
    for c in (BOUNDARY_TRIANGLE, cpx(3, (1, 2, 3)), cpx(2, (1,), (2,))):
        assert is_cohen_macaulay(c)
        table = local_cohomology_hochster(c)
        assert table.cohomological_degrees() == [c.dim + 1]


def test_local_cohomology_polynomial_part_text():
    """Entries with c < 0 have no single (t-1)^i form; they are written as a
    signed sum in powers of (t-1)."""
    table = LocalCohomologyTable({(1, -1): -2, (1, 0): 1, (1, -2): 3})
    assert str(table) == "H^1: 3*(t-1)^2 - 2*(t-1) + 1"


def test_local_cohomology_json_roundtrip():
    table = local_cohomology_hochster(worked_example_complex())
    assert LocalCohomologyTable.from_json(table.to_json()) == table


# -- Cohen-Macaulay and sequentially Cohen-Macaulay oracles ------------------------------


def test_cm_goldens():
    assert is_cohen_macaulay(BOUNDARY_TRIANGLE)
    assert is_cohen_macaulay(cpx(3, (1, 2, 3)))
    assert not is_cohen_macaulay(SEGMENT_POINT)
    assert not is_cohen_macaulay(worked_example_complex())


def test_pure_skeleton_goldens():
    c = worked_example_complex()
    assert pure_skeleton(c, 2) == facet_subcomplex(c, 2)
    skel1 = pure_skeleton(c, 1)
    assert all(len(f) == 2 for f in skel1.sorted_facets())
    assert pure_skeleton(c, 0).sorted_facets() == [(i,) for i in range(1, 7)]


def test_scm_oracle_goldens():
    assert scm_oracle(SEGMENT_POINT)
    assert scm_oracle(BOUNDARY_TRIANGLE)
    assert not scm_oracle(worked_example_complex())
    assert scm_oracle(symmetric_shift(worked_example_complex()))


# -- symmetric shift ----------------------------------------------------------------------


def test_shift_golden_small():
    assert symmetric_shift(SEGMENT_POINT) == cpx(3, (1,), (2, 3))


def test_shift_golden_worked_example():
    shifted = symmetric_shift(worked_example_complex())
    assert shifted == cpx(6, (1, 5), (1, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6))


def test_shift_preserves_f_triangle_totals():
    c = worked_example_complex()
    shifted = symmetric_shift(c)
    for k in range(c.dim + 2):
        assert sum(1 for f in c.faces() if len(f) == k) == sum(
            1 for f in shifted.faces() if len(f) == k
        )


def test_shift_idempotent_and_full_simplex():
    shifted = symmetric_shift(worked_example_complex())
    assert symmetric_shift(shifted) == shifted
    full = cpx(3, (1, 2, 3))
    assert symmetric_shift(full) == full


# -- h-triangle recovery from the dual Betti table -----------------------------------------


def test_hrw_goldens():
    res = hrw_check(BOUNDARY_TRIANGLE)
    assert res.equal and not res.degenerate

    res2 = hrw_check(SEGMENT_POINT)
    assert res2.equal

    full = hrw_check(cpx(3, (1, 2, 3)))
    assert full.equal and full.degenerate

    # the identity characterizes sequential Cohen-Macaulayness, so the worked
    # example fails it while its shift satisfies it
    worked = hrw_check(worked_example_complex())
    assert not worked.equal and not worked.degenerate
    nonzero = {i: r for i, r in worked.residuals if not r.is_zero}
    assert nonzero == {2: UniPoly((-2, 1, 1)), 3: UniPoly((2, -3, 0, 1))}
    assert hrw_check(symmetric_shift(worked_example_complex())).equal


def test_hrw_row_identity_boundary_triangle():
    """Row 2 of the h-triangle of the boundary triangle equals
    (t-1)^2 + 3(t-1) + 3 = t^2 + t + 1."""
    tri = h_triangle(BOUNDARY_TRIANGLE)
    assert tri.row(2) == UniPoly((1, 1, 1))
    dual = alexander_dual(BOUNDARY_TRIANGLE)
    table = graded_betti_hochster(dual)
    n = 3
    i = 2
    acc = UniPoly.zero()
    for c in range(i + 1):
        coeff = table.beta(i - c + 1, n - c)
        term = UniPoly((coeff,))
        for _ in range(i - c):
            term = term * UniPoly((-1, 1))
        acc = acc + term
    assert acc == tri.row(2)


def test_facet_filter_matches_pairwise_filter():
    rng = random.Random(6021)
    for _ in range(400):
        n = rng.randint(1, 7)
        faces = {
            frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            for _ in range(rng.randint(1, 12))
        }
        pairwise = {f for f in faces if not any(f < g for g in faces)}
        assert SimplicialComplex(n, faces).facets == pairwise


def test_fifteen_disjoint_edges_give_two_to_the_fifteen_facets():
    gens = [Monomial(tuple(int(v // 2 == k) for v in range(30))) for k in range(15)]
    facets = complex_of_ideal(MonomialIdeal(RingSpec(30), gens)).facets
    assert len(facets) == 2**15
    # each facet picks one vertex of every edge
    edges = [{2 * k + 1, 2 * k + 2} for k in range(15)]
    assert all(len(f) == 15 and all(len(f & e) == 1 for e in edges) for f in facets)
