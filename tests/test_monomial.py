"""Monomial ideal arithmetic, primary decomposition, Hilbert series, dimension
filtrations, and Eliahou-Kervaire Betti numbers."""

import itertools
import random
import time

import pytest

from bwkit import (
    BettiTable,
    FiltrationChain,
    HilbertSeries,
    Monomial,
    MonomialIdeal,
    RingSpec,
    UniPoly,
    betti_eliahou_kervaire,
    borel_depth,
    dimension_filtration,
    h_polynomial,
    hilbert_numerator,
    is_strongly_stable,
    krull_dimension,
    primary_decomposition,
)
from bwkit.monomial import _irreducible_components, _minimal_transversals
from corpus import borel_closure, random_monomial_ideal, random_stable_ideal
from oracles import (
    all_exchange_strongly_stable,
    fold_dimension_filtration,
    koszul_betti_table,
    split_irreducible_components,
    standard_monomial_counts,
)

R2 = RingSpec(2)
R3 = RingSpec(3)
R4 = RingSpec(4)
R6 = RingSpec(6)


def ideal(ring, *exps):
    return MonomialIdeal.from_exponents(ring, exps)


def relabel(i, perm):
    """The ideal with x_{k+1} renamed x_{perm[k]+1}."""
    moved = []
    for g in i.gens:
        e = [0] * i.ring.n
        for k, x in enumerate(g.exponents):
            e[perm[k]] = x
        moved.append(e)
    return MonomialIdeal.from_exponents(i.ring, moved)


def worked_example_ideal():
    return ideal(
        R6,
        (1, 1, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 1, 1),
    )


def worked_example_gin():
    return ideal(
        R6,
        (2, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (0, 2, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0),
        (0, 1, 1, 0, 0, 0),
        (0, 0, 2, 0, 0, 0),
        (1, 0, 0, 2, 0, 0),
    )


# -- basic ideal arithmetic -----------------------------------------------------


def test_generators_are_minimalized():
    i = ideal(R3, (1, 1, 0), (1, 1, 1), (0, 0, 2))
    assert i == ideal(R3, (1, 1, 0), (0, 0, 2))
    assert len(i.gens) == 2


def test_membership_and_containment():
    i = ideal(R3, (1, 1, 0), (0, 0, 2))
    assert i.contains(Monomial((2, 1, 0)))
    assert not i.contains(Monomial((1, 0, 1)))
    assert MonomialIdeal.unit(R3).contains_ideal(i)
    assert i.contains_ideal(ideal(R3, (1, 1, 1)))
    assert not i.contains_ideal(ideal(R3, (1, 0, 0)))


def test_containment_checks_the_ring():
    """A monomial or ideal of another ring is refused, not truncated."""
    x1 = ideal(R3, (1, 0, 0))
    for m in (Monomial((1,)), Monomial((1, 0, 0, 5))):
        with pytest.raises(ValueError, match="different ring"):
            x1.contains(m)
    for other in (ideal(R4, (1, 0, 0, 0)), MonomialIdeal.zero(R2)):
        with pytest.raises(ValueError, match="different rings"):
            x1.contains_ideal(other)
    with pytest.raises(ValueError, match="different dimension"):
        x1.colon(Monomial((1, 0, 0, 5)))


def test_colon_and_saturation_goldens():
    g = worked_example_gin()
    sat = g.saturate_variable(4)
    assert sat == ideal(
        R6, (1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 2, 0, 0, 0)
    )
    assert g.colon(Monomial((0, 0, 0, 1, 0, 0))).contains_ideal(g)
    m = ideal(R2, (2, 0), (1, 1)).colon(Monomial((1, 0)))
    assert m == ideal(R2, (1, 0), (0, 1))


def test_saturation_checks_its_index():
    """Indices outside 1..n are refused, also where the saturation would be
    the ideal itself; an index whose variable divides no generator gives
    the ideal itself."""
    i = ideal(R3, (1, 1, 0))
    for bad in (-1, 0, 4):
        for j in (i, MonomialIdeal.zero(R3)):
            with pytest.raises(ValueError, match="out of range"):
                j.saturate_variable(bad)
    assert i.saturate_variable(3) is i
    assert i.saturate_variable(2) == ideal(R3, (1, 0, 0))


def test_intersect_golden():
    a = ideal(R3, (1, 0, 0))
    b = ideal(R3, (0, 1, 1))
    assert a.intersect(b) == ideal(R3, (1, 1, 1))
    i = ideal(R3, (1, 0, 1), (0, 1, 1))
    assert i == ideal(R3, (0, 0, 1)).intersect(ideal(R3, (1, 0, 0), (0, 1, 0)))


def test_radical_and_squarefree():
    i = ideal(R3, (2, 1, 0), (0, 0, 3))
    assert i.radical() == ideal(R3, (1, 1, 0), (0, 0, 1))
    assert not i.is_squarefree()
    assert i.radical().is_squarefree()


def test_ideal_json_roundtrip():
    i = worked_example_ideal()
    assert MonomialIdeal.from_json(i.to_json()) == i


# -- primary decomposition ------------------------------------------------------


def test_decomposition_goldens():
    i = ideal(R3, (1, 0, 1), (0, 1, 1))
    decomp = primary_decomposition(i)
    comps = {q for _, q in decomp.components}
    assert comps == {ideal(R3, (0, 0, 1)), ideal(R3, (1, 0, 0), (0, 1, 0))}
    assert decomp.intersection() == i

    g = worked_example_gin()
    decomp_g = primary_decomposition(g)
    assert {q for _, q in decomp_g.components} == {
        ideal(R6, (1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 2, 0, 0, 0)),
        ideal(
            R6,
            (2, 0, 0, 0, 0, 0),
            (1, 1, 0, 0, 0, 0),
            (0, 2, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 0),
            (0, 1, 1, 0, 0, 0),
            (0, 0, 2, 0, 0, 0),
            (0, 0, 0, 2, 0, 0),
        ),
    }

    only = primary_decomposition(ideal(R2, (2, 0)))
    assert len(only.components) == 1
    assert only.components[0][1] == ideal(R2, (2, 0))


def test_decomposition_random_intersection():
    rng = random.Random(7)
    for _ in range(25):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=4, max_gens=5)
        if not i.is_proper or i.is_zero:
            continue
        decomp = primary_decomposition(i)
        assert decomp.intersection() == i
        for s, q in decomp.components:
            assert q.support() == s
        # irredundant, checked by intersecting the other components
        for k, (_, q) in enumerate(decomp.components):
            rest = MonomialIdeal.unit(i.ring)
            for j, (_, other) in enumerate(decomp.components):
                if j != k:
                    rest = rest.intersect(other)
            assert not q.contains_ideal(rest)

    # the decomposition is a function of the ideal: renaming the variables
    # renames the components, whatever order the variables come in
    def components(i):
        return {q for _, q in primary_decomposition(i).components}

    i = ideal(R3, (2, 2, 2), (1, 2, 3), (0, 3, 1))
    assert components(relabel(i, (2, 1, 0))) == {relabel(q, (2, 1, 0)) for q in components(i)}
    checked = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        gens = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(2, 4))]
        i = MonomialIdeal.from_exponents(RingSpec(n), gens)
        if not i.is_proper or i.is_zero:
            continue
        comps = components(i)
        for perm in itertools.permutations(range(n)):
            assert components(relabel(i, perm)) == {relabel(q, perm) for q in comps}, (i, perm)
        checked += 1
    assert checked > 100


def test_irreducible_components_match_splitting_reference():
    rng = random.Random(5)
    for _ in range(150):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=5, max_gens=6)
        if not i.is_proper:
            continue
        comps = _irreducible_components(i)
        assert len(comps) == len(set(comps))
        assert set(comps) == split_irreducible_components(i), i
    # distinct exponents are ranked, not unrolled: these stay instant
    for i in (
        ideal(RingSpec(1), (40000,)),
        ideal(R2, (300, 0), (1, 300)),
        ideal(R3, (60, 50, 0), (70, 0, 40), (0, 80, 90)),
    ):
        assert set(_irreducible_components(i)) == split_irreducible_components(i)
    assert sorted(_irreducible_components(ideal(R2, (300, 0), (1, 300)))) == [(1, 0), (300, 300)]


def test_decomposition_of_path_edge_ideal():
    """The edge ideal of the 16-vertex path is squarefree, so its components
    are the primes of its 86 minimal vertex covers and I^<0> = I."""
    n = 16
    edges = [(1 << k) | (1 << (k + 1)) for k in range(n - 1)]
    i = ideal(RingSpec(n), *(tuple(e >> k & 1 for k in range(n)) for e in edges))
    decomp = primary_decomposition(i)
    covers = _minimal_transversals(edges)
    assert len(decomp.components) == len(covers) == 86
    assert {sum(1 << (v - 1) for v in s) for s, _ in decomp.components} == set(covers)
    for s, q in decomp.components:
        assert q == ideal(RingSpec(n), *(tuple(int(k + 1 == v) for k in range(n)) for v in s))
    chain = dimension_filtration(i)
    assert chain.d == n - min(map(int.bit_count, covers)) == 8
    assert chain.ideals[0] == i


def test_decomposition_rejects_trivial():
    with pytest.raises(ValueError):
        primary_decomposition(MonomialIdeal.zero(R2))
    with pytest.raises(ValueError):
        primary_decomposition(MonomialIdeal.unit(R2))


# -- Krull dimension and Hilbert series -------------------------------------------


def test_krull_goldens():
    assert krull_dimension(worked_example_ideal()) == 3
    assert krull_dimension(worked_example_gin()) == 3
    assert krull_dimension(MonomialIdeal.zero(R4)) == 4
    assert krull_dimension(ideal(R3, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == 0
    assert krull_dimension(MonomialIdeal.unit(R3)) == -1


def test_hilbert_goldens():
    series = hilbert_numerator(ideal(R3, (1, 0, 1), (0, 1, 1)))
    assert series.numerator == UniPoly((1, 0, -2, 1))
    assert hilbert_numerator(MonomialIdeal.zero(R3)).numerator == UniPoly((1,))
    assert hilbert_numerator(MonomialIdeal.unit(R3)).numerator == UniPoly(())

    k = hilbert_numerator(worked_example_ideal())
    assert k.numerator == UniPoly((1, 0, -6, 7, 0, -3, 1))
    assert k == hilbert_numerator(worked_example_gin())
    assert k == HilbertSeries(UniPoly((1, 3, 0, -1)) * UniPoly.one_minus_t_power(3), 6)


def test_hilbert_matches_standard_monomial_counts():
    rng = random.Random(31)
    for _ in range(20):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=4, max_gens=5)
        assert hilbert_numerator(i).expand(8) == standard_monomial_counts(i, 8)


def test_h_polynomial_goldens():
    assert h_polynomial(ideal(R3, (1, 0, 1), (0, 1, 1))) == UniPoly((1, 1, -1))
    assert h_polynomial(MonomialIdeal.zero(R3)) == UniPoly((1,))
    assert h_polynomial(worked_example_ideal()) == UniPoly((1, 3, 0, -1))


# -- dimension filtration ----------------------------------------------------------


def test_chain_golden_worked_gin():
    g = worked_example_gin()
    sat = ideal(
        R6, (1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 2, 0, 0, 0)
    )
    chain = dimension_filtration(g, route="borel")
    assert chain.d == 3
    assert chain.ideals == (g, g, sat, MonomialIdeal.unit(R6))
    assert dimension_filtration(g, route="decomposition") == chain


def test_chain_golden_two_planes():
    i = ideal(R3, (1, 0, 1), (0, 1, 1))
    chain = dimension_filtration(i)
    assert chain.d == 2
    assert chain.ideals == (i, ideal(R3, (0, 0, 1)), MonomialIdeal.unit(R3))


def test_chain_zero_ideal():
    chain = dimension_filtration(MonomialIdeal.zero(R3))
    zero = MonomialIdeal.zero(R3)
    assert chain.d == 3
    assert chain.ideals == (zero, zero, zero, MonomialIdeal.unit(R3))


def test_chain_unit_rejected():
    with pytest.raises(ValueError):
        dimension_filtration(MonomialIdeal.unit(R3))


def test_chain_unknown_route_rejected():
    for i in (MonomialIdeal.zero(R3), ideal(R3, (1, 0, 1))):
        with pytest.raises(ValueError, match="unknown filtration route"):
            dimension_filtration(i, route="nonsense")


def test_chain_routes_agree_on_random_stable():
    rng = random.Random(13)
    for _ in range(15):
        j = random_stable_ideal(rng, max_vars=5, max_degree=3)
        if not j.is_proper:
            continue
        assert dimension_filtration(j, route="borel") == dimension_filtration(
            j, route="decomposition"
        )


def test_chain_is_increasing():
    rng = random.Random(17)
    for _ in range(15):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=4, max_gens=5)
        if not i.is_proper:
            continue
        chain = dimension_filtration(i)
        assert chain.d == krull_dimension(i)
        for a, b in zip(chain.ideals, chain.ideals[1:]):
            assert b.contains_ideal(a)


def test_chain_matches_colon_dimension():
    """m lies in I^<i> exactly when dim R/(I : m) <= i.  Every generator of
    I^<i> divides the lcm L of the generators of I, so checking each monomial
    of the box [0, L] pins the whole chain down."""
    rng = random.Random(23)
    for _ in range(60):
        i = random_monomial_ideal(rng, max_vars=4, max_degree=4, max_gens=5)
        if not i.is_proper or i.is_zero:
            continue
        chain = dimension_filtration(i)
        top = [max(g.exponents[k] for g in i.gens) for k in range(i.ring.n)]
        for e in itertools.product(*(range(t + 1) for t in top)):
            m = Monomial(e)
            dim = krull_dimension(i.colon(m))
            for level, q in enumerate(chain.ideals):
                assert q.contains(m) == (dim <= level), (i, m, level)


def path_edge_ideal(n):
    return ideal(RingSpec(n), *(tuple(int(k in (j, j + 1)) for k in range(n)) for j in range(n - 1)))


def test_chain_matches_intersection_fold():
    """Each I^<i>, read off the components by Alexander duality, equals the
    intersection of the split components of dimension > i folded one at a
    time."""
    rng = random.Random(37)
    for _ in range(150):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=5, max_gens=6)
        if i.is_proper:
            assert dimension_filtration(i) == fold_dimension_filtration(i), i
    for _ in range(40):
        j = random_stable_ideal(rng, max_vars=5, max_degree=4)
        if j.is_proper:
            assert dimension_filtration(j) == fold_dimension_filtration(j), j
    for n in range(2, 17):
        path = path_edge_ideal(n)
        assert dimension_filtration(path) == fold_dimension_filtration(path), n


def test_chain_of_path_22_is_fast():
    """Folding intersect over the components of this ideal took 13-16 s on a
    2-vCPU VM; the level sizes are the fold's."""
    path = path_edge_ideal(22)
    start = time.perf_counter()
    chain = dimension_filtration(path)
    assert time.perf_counter() - start < 5
    assert chain.d == 11
    assert chain.ideals[0] == path
    assert [len(q.gens) for q in chain.ideals[8:]] == [49, 147, 66, 1]


def test_chain_json_roundtrip():
    chain = dimension_filtration(worked_example_ideal())
    assert FiltrationChain.from_json(chain.to_json()) == chain


def test_borel_depth_goldens():
    assert borel_depth(worked_example_gin()) == 2
    assert borel_depth(ideal(R3, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == 0
    assert borel_depth(ideal(R2, (1, 0))) == 1
    assert borel_depth(MonomialIdeal.zero(R2)) == 2


# -- strong stability and Betti numbers ----------------------------------------------


def test_strong_stability_goldens():
    assert is_strongly_stable(worked_example_gin())
    assert not is_strongly_stable(worked_example_ideal())
    assert is_strongly_stable(MonomialIdeal.zero(R3))
    assert is_strongly_stable(ideal(R2, (2, 0), (1, 1)))
    assert not is_strongly_stable(ideal(R2, (0, 1)))


def test_borel_closure_is_stable():
    rng = random.Random(3)
    for _ in range(10):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=4, max_gens=4)
        c = borel_closure(i)
        assert is_strongly_stable(c)
        assert c.contains_ideal(i)


def test_strong_stability_matches_the_all_exchange_oracle():
    """Adjacent exchanges on the minimal generators decide strong stability
    as every exchange does: on seeded random ideals, on their Borel closures,
    and on closures with one generator moved up by a variable, where both
    verdicts occur."""
    rng = random.Random(1987)
    verdicts = []
    for _ in range(150):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=4, max_gens=4)
        c = borel_closure(i)
        g = rng.choice(sorted(c.gens, key=lambda m: m.exponents))
        up = g * c.ring.variable(rng.randint(1, c.ring.n))
        moved = MonomialIdeal(c.ring, [h for h in c.gens if h != g] + [up])
        for q in (i, c, moved):
            verdict = is_strongly_stable(q)
            assert verdict == all_exchange_strongly_stable(q), q
            verdicts.append(verdict)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_ek_goldens():
    table = betti_eliahou_kervaire(worked_example_gin())
    assert table.totals() == [1, 7, 11, 6, 1]
    assert table.rows() == {0: [1, 0, 0, 0, 0], 1: [0, 6, 8, 3, 0], 2: [0, 1, 3, 3, 1]}
    assert table.projective_dimension() == 4
    assert table.regularity() == 2

    single = betti_eliahou_kervaire(ideal(R2, (1, 0)))
    assert single.totals() == [1, 1]

    small = betti_eliahou_kervaire(ideal(R2, (2, 0), (1, 1)))
    assert small.beta(1, 2) == 2 and small.beta(2, 3) == 1
    assert small.totals() == [1, 2, 1]


def test_ek_requires_stability():
    with pytest.raises(ValueError):
        betti_eliahou_kervaire(worked_example_ideal())


def test_ek_matches_koszul_oracle():
    rng = random.Random(47)
    done = 0
    while done < 8:
        j = random_stable_ideal(rng, max_vars=4, max_degree=3)
        if not j.is_proper or j.is_zero:
            continue
        table = betti_eliahou_kervaire(j)
        max_j = table.regularity() + table.projective_dimension() + 1
        assert koszul_betti_table(j, max_j) == dict(table.entries)
        done += 1


def test_betti_table_json_roundtrip():
    table = betti_eliahou_kervaire(worked_example_gin())
    assert BettiTable.from_json(table.to_json()) == table
