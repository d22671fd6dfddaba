"""Layer polynomials, the two-variable invariant, sequential Cohen-Macaulayness
verdicts, and local cohomology through the dimension filtration."""

import random
import warnings
from collections import Counter

import pytest

from bwkit import (
    BWPolynomial,
    Monomial,
    MonomialIdeal,
    NotSCM,
    RingSpec,
    SimplicialComplex,
    UniPoly,
    betti_eliahou_kervaire,
    bw_from_complex,
    bw_polynomial,
    dimension_filtration,
    extremal_from_bw,
    gin,
    h_polynomial,
    hilbert_numerator,
    layer_decomposition,
    local_cohomology_hochster,
    local_cohomology_scm,
    scm_check,
    stanley_reisner_ideal,
)
from bwkit import filtration, groebner, monomial
from corpus import random_complexes_67, random_monomial_ideal, random_stable_ideal
from oracles import battery_per_level, monomials_of_degree

R2 = RingSpec(2)
R3 = RingSpec(3)
R6 = RingSpec(6)


def ideal(ring, *exps):
    return MonomialIdeal.from_exponents(ring, exps)


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


def worked_example_complex():
    return SimplicialComplex(6, [(1, 2, 6), (1, 3, 5), (2, 3, 4)])


# -- layer decomposition --------------------------------------------------------


def test_layer_vanishes_iff_chain_stalls():
    rng = random.Random(8)
    for _ in range(20):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=4, max_gens=5)
        if not i.is_proper:
            continue
        dec = layer_decomposition(i)
        for k in range(dec.d):
            stalls = dec.chain.ideals[k] == (i if k == 0 else dec.chain.ideals[k - 1])
            if k == 0:
                stalls = dec.chain.ideals[0] == i
            assert dec.layer_h[k].is_zero == stalls


def test_layers_add_up_to_hilbert_series():
    rng = random.Random(12)
    for _ in range(100):
        i = random_monomial_ideal(rng, max_vars=6, max_degree=4, max_gens=6)
        if not i.is_proper:
            continue
        assert bw_polynomial(i).specialize() == hilbert_numerator(i)


# -- the two-variable polynomial -----------------------------------------------


def test_bw_golden_worked_pair():
    bw_i = bw_polynomial(worked_example_ideal())
    assert bw_i == BWPolynomial({(3, 0): 1, (3, 1): 3, (3, 3): -1})

    bw_g = bw_polynomial(worked_example_gin(), route="borel")
    assert bw_g == BWPolynomial({(2, 1): 1, (2, 2): 1, (3, 0): 1, (3, 1): 2})
    assert bw_g == bw_polynomial(worked_example_gin(), route="decomposition")

    assert bw_i.specialize() == bw_g.specialize()


def test_bw_trivial_inputs():
    assert bw_polynomial(MonomialIdeal.zero(R3)) == BWPolynomial({(3, 0): 1})
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        out = bw_polynomial(MonomialIdeal.unit(R3))
    assert out.is_zero
    assert len(log) == 1


def test_bw_unknown_route_rejected():
    for i in (MonomialIdeal.zero(R3), ideal(R3, (1, 0, 1))):
        with pytest.raises(ValueError, match="unknown filtration route"):
            bw_polynomial(i, route="nonsense")


def test_bw_from_complex_matches_algebraic_route():
    for c in (
        worked_example_complex(),
        SimplicialComplex(3, [(1, 2), (3,)]),
        SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)]),
        SimplicialComplex(4, [(1, 2, 3), (2, 4)]),
    ):
        assert bw_from_complex(c) == bw_polynomial(stanley_reisner_ideal(c))


def test_bw_unmixed_concentrates_in_top_layer():
    """A pure complex has B(t, w) = h(t) w^(d+1)."""
    rng = random.Random(77)
    count = 0
    while count < 10:
        n = rng.randint(3, 5)
        k = rng.randint(2, n)
        faces = [tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(3)]
        c = SimplicialComplex(n, faces)
        if any(len(f) != k for f in c.sorted_facets()):
            continue
        bw = bw_from_complex(c)
        i = stanley_reisner_ideal(c)
        assert bw.rows() == {k: h_polynomial(i)}
        count += 1


# -- sequential Cohen-Macaulayness ------------------------------------------------


def test_scm_check_worked_example_fails_with_witness():
    report = scm_check(worked_example_ideal(), seed=0)
    assert not report.scm
    assert report.bw_input == BWPolynomial({(3, 0): 1, (3, 1): 3, (3, 3): -1})
    assert report.bw_gin == BWPolynomial({(2, 1): 1, (2, 2): 1, (3, 0): 1, (3, 1): 2}
    )
    i, lhs, rhs = report.witness
    assert i == 2 and lhs.is_zero and rhs == UniPoly((0, 1, 1))
    assert report.criteria
    assert all(not v.holds for v in report.criteria)
    assert {v.name for v in report.criteria} == {
        "depth",
        "gin-chain-stable",
        "gin-chain-swap",
        "hilbert-gin-pair",
        "hilbert-input-pair",
    }
    for v in report.criteria:
        assert v.witness_index == 2


def test_scm_check_positive_goldens():
    assert scm_check(worked_example_gin(), seed=0).scm
    report = scm_check(ideal(R3, (1, 0, 1), (0, 1, 1)), seed=0)
    assert report.scm and report.witness is None
    assert all(v.holds and v.witness_index is None for v in report.criteria)


def test_scm_check_report_json():
    report = scm_check(worked_example_ideal(), seed=0)
    data = report.to_json()
    assert data["scm"] is False
    assert data["witness"]["row"] == 2
    assert {c["name"] for c in data["criteria"]} == {v.name for v in report.criteria}
    assert BWPolynomial.from_json(data["bw_input"]) == report.bw_input

    positive = scm_check(worked_example_gin(), seed=0).to_json()
    assert positive["scm"] is True and positive["witness"] is None


def test_scm_check_skips_battery_on_request():
    report = scm_check(worked_example_ideal(), seed=0, full_battery=False)
    assert not report.scm and report.criteria == ()


def repeating_chain_ideal():
    """(x1) cap (x2, x3, x4) in five variables: its chain is I, I, (x1), (x1), <1>."""
    return ideal(RingSpec(5), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0))


def _battery_inputs():
    """SR ideals of random complexes (some not SCM), and random ideals of
    which every third is cut by a power of m (depth zero, an embedded
    m-primary component) and every third made m-primary; plus the zero
    ideal."""
    rng = random.Random(77)
    out = [worked_example_ideal(), repeating_chain_ideal(), MonomialIdeal.zero(R3)]
    out += [stanley_reisner_ideal(c) for c in random_complexes_67(30, seed=5)]
    for k in range(90):
        i = random_monomial_ideal(rng, max_vars=5, max_degree=3, max_gens=4)
        n = i.ring.n
        if k % 3 == 1:
            top = max(g.degree for g in i.gens)
            i = i.intersect(ideal(i.ring, *monomials_of_degree(n, top + 1)))
        elif k % 3 == 2:
            i = i.plus(Monomial(tuple(3 * (j == v) for j in range(n))) for v in range(n))
        if i.is_proper:
            out.append(i)
    return out


def test_scm_check_battery_matches_per_level_reference():
    """Each distinct level evaluated once gives the same verdicts, witness
    indices and details as evaluating every level afresh."""
    kinds = Counter()
    for k, i in enumerate(_battery_inputs()):
        report = scm_check(i, seed=k % 3)
        assert report.to_json()["criteria"] == battery_per_level(i, k % 3)
        chain = dimension_filtration(i)
        kinds["not scm"] += not report.scm
        kinds["embedded m-primary"] += 0 < chain.d and chain.ideals[0] != i
        kinds["m-primary"] += chain.d == 0
        kinds["zero"] += i.is_zero
        kinds["repeat above I"] += any(
            chain.ideals[j] == chain.ideals[j - 1] != i for j in range(1, chain.d)
        )
    assert min(kinds.values()) > 0 and len(kinds) == 5, kinds


def _record_computations(monkeypatch) -> list:
    """Record the generators of every numerator computation: a top-level
    entry into monomial._hilbert_numerator_rec, which re-enters itself."""
    computed, depth = [], [0]
    real_rec = monomial._hilbert_numerator_rec

    def counted_rec(gens, memo):
        if not depth[0]:
            computed.append(gens)
        depth[0] += 1
        try:
            return real_rec(gens, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(monomial, "_hilbert_numerator_rec", counted_rec)
    return computed


def _gens_key(q: MonomialIdeal) -> tuple:
    return tuple(sorted(g.exponents for g in q.gens))


def test_scm_check_evaluates_each_distinct_level_once(monkeypatch):
    """On the chain I, I, J, J, <1> the battery gins I and J once each and
    filters each gin once, and the layer decomposition computes one Hilbert
    numerator per distinct proper ideal."""
    i = repeating_chain_ideal()
    j = ideal(RingSpec(5), (1, 0, 0, 0, 0))
    assert dimension_filtration(i).ideals[:4] == (i, i, j, j)
    gins, borel = Counter(), Counter()
    real_gin, real_filtration = filtration.gin, filtration.dimension_filtration

    def counted_gin(q, seed=0):
        gins[q] += 1
        return real_gin(q, seed=seed)

    def counted_filtration(q, route="decomposition"):
        if route == "borel":
            borel[q] += 1
        return real_filtration(q, route=route)

    monkeypatch.setattr(filtration, "gin", counted_gin)
    monkeypatch.setattr(filtration, "dimension_filtration", counted_filtration)
    report = scm_check(i, seed=0)
    assert report.scm
    assert gins == {i: 1, j: 1}
    assert borel == {gin(i, seed=0).ideal: 1, gin(j, seed=0).ideal: 1}

    # a fresh copy of I: scm_check has already numerated i and its levels
    computed = _record_computations(monkeypatch)
    layer_decomposition(repeating_chain_ideal())
    assert Counter(computed) == {_gens_key(i): 1, _gens_key(j): 1}


def test_scm_check_numerates_each_ideal_once(monkeypatch):
    """One scm_check numerates its input and each distinct proper level of
    the input's chain once, though the layer decomposition, gin's target and
    the battery all read them."""
    i = repeating_chain_ideal()
    computed = _record_computations(monkeypatch)
    numerated, chains = [], []  # the ideal behind each computation, by identity
    real_numerator, real_filtration = monomial.hilbert_numerator, filtration.dimension_filtration

    def counted_numerator(q):
        before = len(computed)
        out = real_numerator(q)
        if len(computed) > before:
            numerated.append(q)
        return out

    def kept_filtration(q, route="decomposition"):
        chain = real_filtration(q, route=route)
        if q is i:
            chains.append(chain)
        return chain

    for module in (filtration, groebner):
        monkeypatch.setattr(module, "hilbert_numerator", counted_numerator)
    monkeypatch.setattr(filtration, "dimension_filtration", kept_filtration)
    assert scm_check(i, seed=12).scm
    (chain,) = chains
    distinct = list({id(q): q for q in (i, *chain.ideals) if q.is_proper}.values())
    assert len(distinct) == 2
    assert [sum(q is p for q in numerated) for p in distinct] == [1, 1]


def test_gin_result_carries_the_numerator_its_trials_stopped_on(monkeypatch):
    """The first trial's Hilbert stop numerates the gin once; the second
    trial's stop computes no numerator, and the layer decomposition of the
    result reads the one kept on it."""
    computed = _record_computations(monkeypatch)
    g = gin(worked_example_ideal(), seed=0)
    assert g.trials == 2
    layer_decomposition(g.ideal, route="borel")
    assert Counter(computed)[_gens_key(g.ideal)] == 1


# -- local cohomology through the filtration ----------------------------------------


def test_local_cohomology_scm_goldens():
    table = local_cohomology_scm(worked_example_gin(), seed=0)
    assert table.entries == {(2, 0): 1, (2, 1): 3, (2, 2): 2, (3, 2): 2, (3, 3): 3}
    assert table.numerator(2) == UniPoly((0, 1, 1))
    assert table.numerator(3) == UniPoly((1, 2))

    maximal = ideal(R2, (1, 0), (0, 1))
    assert local_cohomology_scm(maximal).entries == {(0, 0): 1}


def test_local_cohomology_scm_decomposes_the_input_once(monkeypatch):
    """The layers come from scm_check's own layer decomposition."""
    calls = Counter()
    real = filtration.layer_decomposition

    def counted(q, route="decomposition"):
        calls[q, route] += 1
        return real(q, route=route)

    monkeypatch.setattr(filtration, "layer_decomposition", counted)
    i = worked_example_gin()
    local_cohomology_scm(i, seed=0)
    assert calls[i, "decomposition"] == 1


def test_local_cohomology_scm_matches_hochster_on_cm_complex():
    triangle = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
    i = stanley_reisner_ideal(triangle)
    assert local_cohomology_scm(i) == local_cohomology_hochster(triangle)


def test_local_cohomology_scm_rejects_non_scm():
    with pytest.raises(NotSCM):
        local_cohomology_scm(worked_example_ideal(), seed=0)


# -- extremal data -------------------------------------------------------------------


def test_extremal_goldens():
    assert extremal_from_bw(
        bw_polynomial(worked_example_gin(), route="borel")
    ) == (2, 2)
    assert extremal_from_bw(BWPolynomial({(3, 0): 1})) == (0, 3)
    assert extremal_from_bw(BWPolynomial({(2, 0): 1, (2, 1): 1, (2, 2): 1})) == (2, 2)
    with pytest.raises(ValueError):
        extremal_from_bw(BWPolynomial.zero())


def test_extremal_matches_eliahou_kervaire():
    rng = random.Random(55)
    done = 0
    while done < 10:
        j = random_stable_ideal(rng, max_vars=5, max_degree=3)
        if not j.is_proper or j.is_zero:
            continue
        table = betti_eliahou_kervaire(j)
        pair = extremal_from_bw(bw_polynomial(j, route="borel"))
        assert pair == (table.regularity(), j.ring.n - table.projective_dimension())
        done += 1
