"""Reduced Groebner bases, normal forms, initial ideals, and certified generic
initial ideals, cross-checked against naive division and standard-monomial
counting."""

import hashlib
import itertools
import json
import math
import random

import pytest

from bwkit import (
    GinResult,
    HilbertSeries,
    Monomial,
    MonomialIdeal,
    NotCertified,
    Polynomial,
    RingSpec,
    SimplicialComplex,
    UniPoly,
    apply_linear_change,
    gin,
    hilbert_numerator,
    initial_ideal,
    is_strongly_stable,
    normal_form,
    parse_polynomial,
    reduced_groebner_basis,
    scm_check,
    stanley_reisner_ideal,
)
from bwkit import groebner
from bwkit.ring import _sparse_rank
from corpus import borel_closure, random_homogeneous_polys, random_monomial_ideal
from oracles import poly_quotient_dims, standard_monomial_counts

R2 = RingSpec(2)
R3 = RingSpec(3)


def poly(ring, s):
    return parse_polynomial(ring, s)


# -- normal form ------------------------------------------------------------------


def test_normal_form_goldens():
    x1 = Polynomial.variable(R2, 1)
    assert normal_form(poly(R2, "x1^2"), [x1]).is_zero
    assert normal_form(poly(R2, "x1*x2 + x2^2"), [x1]) == poly(R2, "x2^2")
    assert normal_form(poly(R3, "x2^3"), [poly(R3, "x1*x2 - x3^2")]) == poly(R3, "x2^3")


def test_normal_form_is_linear():
    basis = [poly(R3, "x1*x3 - x2^2"), poly(R3, "x2*x3 - x1^2")]
    f = poly(R3, "x1^2*x3 - 2*x2^3")
    g = poly(R3, "x3^3")
    assert normal_form(f + g, basis) == normal_form(f, basis) + normal_form(g, basis)


# -- reduced Groebner bases ---------------------------------------------------------


def test_gb_linear_goldens():
    basis = reduced_groebner_basis([poly(R2, "x1 + x2"), poly(R2, "x1 - x2")])
    assert set(basis.elements) == {Polynomial.variable(R2, 1), Polynomial.variable(R2, 2)}
    basis2 = reduced_groebner_basis([poly(R2, "x1 + x2"), poly(R2, "x1^2 - x2^2")])
    assert basis2.elements == (poly(R2, "x1 + x2"),)


def test_gb_empty_and_zero():
    assert reduced_groebner_basis([Polynomial.zero(R2)]).elements == ()
    with pytest.raises(ValueError):
        reduced_groebner_basis([])


def test_gb_monomial_input_is_minimalized():
    gens = [poly(R3, "x1*x2"), poly(R3, "x1*x2*x3"), poly(R3, "x3^2")]
    basis = reduced_groebner_basis(gens)
    assert set(basis.elements) == {poly(R3, "x1*x2"), poly(R3, "x3^2")}
    assert basis.leading_ideal() == MonomialIdeal.from_exponents(R3, [(1, 1, 0), (0, 0, 2)])


def test_gb_two_quadrics_golden():
    """Frozen value: the leads are coprime, so the generators are already a
    Groebner basis and the initial ideal is generated by the two lead terms."""
    gens = [poly(R3, "x1*x3 - x2^2"), poly(R3, "x2*x3 - x1^2")]
    basis = reduced_groebner_basis(gens)
    assert basis.elements == (poly(R3, "x1^2 - x2*x3"), poly(R3, "x2^2 - x1*x3"))
    assert initial_ideal(gens) == MonomialIdeal.from_exponents(R3, [(2, 0, 0), (0, 2, 0)])
    # independent check: quotient dimensions agree with the initial ideal
    assert poly_quotient_dims(R3, gens, 8) == standard_monomial_counts(
        initial_ideal(gens), 8
    )


def test_initial_ideal_linear_form():
    assert initial_ideal([poly(R3, "x1 + x2 + x3")]) == MonomialIdeal.from_exponents(
        R3, [(1, 0, 0)]
    )


def test_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        reduced_groebner_basis([poly(R2, "x1 + 1")])


def _spoly(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = lf.lcm(lg)
    return f.term_mul(lcm.quotient(lf), 1 / f.leading_coefficient()) - g.term_mul(
        lcm.quotient(lg), 1 / g.leading_coefficient()
    )


def _is_reduced_gb(basis, gens):
    elems = list(basis.elements)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not normal_form(_spoly(elems[i], elems[j]), elems).is_zero:
                return False
    for g in gens:
        if not normal_form(g, elems).is_zero:
            return False
    for i, g in enumerate(elems):
        if g.leading_coefficient() != 1:
            return False
        others = elems[:i] + elems[i + 1:]
        for m, _ in g.terms():
            if any(h.leading_monomial().divides(m) for h in others):
                return False
    return True


def test_gb_random_uniqueness_and_correctness():
    rng = random.Random(41)
    for _ in range(50):
        ring, gens = random_homogeneous_polys(rng, rng.randint(2, 4), rng.randint(1, 3))
        basis = reduced_groebner_basis(gens)
        assert _is_reduced_gb(basis, gens)
        # initial_ideal reads the leads of an unreduced run
        assert initial_ideal(gens) == basis.leading_ideal()
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduced_groebner_basis(shuffled).elements == basis.elements


def test_gb_hilbert_invariance_random():
    rng = random.Random(99)
    done = 0
    while done < 10:
        ring, gens = random_homogeneous_polys(rng, 3, rng.randint(1, 2))
        lead = initial_ideal(gens)
        assert poly_quotient_dims(ring, gens, 7) == standard_monomial_counts(lead, 7)
        done += 1


# -- generic initial ideals ----------------------------------------------------------


def worked_example_ideal():
    ring = RingSpec(6)
    return MonomialIdeal.from_exponents(
        ring,
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


def worked_example_gin():
    ring = RingSpec(6)
    return MonomialIdeal.from_exponents(
        ring,
        [
            (2, 0, 0, 0, 0, 0),
            (1, 1, 0, 0, 0, 0),
            (0, 2, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 0),
            (0, 1, 1, 0, 0, 0),
            (0, 0, 2, 0, 0, 0),
            (1, 0, 0, 2, 0, 0),
        ],
    )


def test_gin_worked_example():
    result = gin(worked_example_ideal(), seed=0)
    assert result.ideal == worked_example_gin()
    assert result.trials == 2 and result.borel_certified


def test_gin_fixes_stable_ideals():
    j = MonomialIdeal.from_exponents(R2, [(2, 0), (1, 1)])
    assert gin(j, seed=3).ideal == j
    rng = random.Random(5)
    for _ in range(3):
        stable = borel_closure(random_monomial_ideal(rng, max_vars=4, max_degree=3))
        assert gin(stable, seed=1).ideal == stable


def test_gin_linear_form():
    f = parse_polynomial(R3, "x1 + x2 + x3")
    assert gin([f], seed=0).ideal == MonomialIdeal.from_exponents(R3, [(1, 0, 0)])


def test_gin_idempotent_and_stable_output():
    rng = random.Random(11)
    for _ in range(5):
        ideal = random_monomial_ideal(rng, max_vars=5, max_degree=3, max_gens=4)
        g = gin(ideal, seed=0).ideal
        assert is_strongly_stable(g)
        assert gin(g, seed=0).ideal == g


def test_gin_preserves_hilbert_function():
    rng = random.Random(23)
    for _ in range(5):
        ideal = random_monomial_ideal(rng, max_vars=5, max_degree=3, max_gens=4)
        g = gin(ideal, seed=0).ideal
        assert standard_monomial_counts(ideal, 8) == standard_monomial_counts(g, 8)


def test_gin_trivial_inputs():
    zero = MonomialIdeal.zero(R3)
    res = gin(zero, seed=9)
    assert res.ideal.is_zero and res.trials == 0 and res.borel_certified
    unit = MonomialIdeal.unit(R3)
    assert gin(unit, seed=9).ideal.is_unit
    with pytest.raises(ValueError):
        gin([], seed=0)


def test_gin_of_zero_polynomials_is_the_zero_ideal():
    """Zero generators are dropped, as reduced_groebner_basis drops them, but
    they still name the ring, and it must be the same for all of them."""
    res = gin([Polynomial.zero(R2), Polynomial.zero(R2)], seed=9)
    assert res == gin(MonomialIdeal.zero(R2), seed=9)
    assert res.ideal.ring == R2 and res.trials == 0
    for build in (gin, reduced_groebner_basis):
        with pytest.raises(ValueError, match="different rings"):
            build([Polynomial.zero(R2), Polynomial.zero(R3)])


def test_gin_determinism_and_json():
    res1 = gin(worked_example_ideal(), seed=0)
    res2 = gin(worked_example_ideal(), seed=0)
    assert res1 == res2
    assert GinResult.from_json(res1.to_json()) == res1


# -- modular gin trials ----------------------------------------------------------------


def _golden_inputs():
    """240 seeded gin inputs: monomial ideals and homogeneous polynomial
    systems, a quarter of the systems with fractional coefficients."""
    rng = random.Random(20261018)
    out = []
    for k in range(150):
        out.append((random_monomial_ideal(rng, max_vars=5, max_degree=3, max_gens=4), k % 3))
    for k in range(90):
        ring, gens = random_homogeneous_polys(rng, rng.randint(2, 4), rng.randint(1, 3))
        if k % 4 == 0:
            gens = [
                Polynomial(ring, {m: c / rng.randint(1, 5) for m, c in g.terms()})
                for g in gens
            ]
        out.append((gens, k % 3))
    return out


def test_gin_golden():
    """Frozen value: the digest of gin(...).to_json() on 240 seeded inputs,
    taken from the exact fraction-free trials before the modular engine, so
    the modular trials must reproduce their output byte for byte."""
    docs = [gin(x, seed=s).to_json() for x, s in _golden_inputs()]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "c5d61360effd2cc3d7a6521dfedabb561c7d5629d12ee8d90396e649fbb44822"


def test_gin_primes_are_distinct_word_size_primes():
    assert len(set(groebner._PRIMES)) == len(groebner._PRIMES) == 10
    for p in groebner._PRIMES:
        assert p < 2**31
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


def _trial_inputs():
    rng = random.Random(314)
    for k in range(60):
        if k % 2:
            ring, gens = random_homogeneous_polys(rng, rng.randint(2, 4), rng.randint(1, 3))
        else:
            ideal = random_monomial_ideal(rng, max_vars=5, max_degree=3, max_gens=4)
            ring = ideal.ring
            gens = [Polynomial.from_monomial(ring, g) for g in ideal.sorted_gens()]
        yield k, ring, gens


def _reaches(target):
    """The Hilbert stop of a round's first trial."""
    return lambda leads: hilbert_numerator(leads) == target


def _confirms(first):
    """The stop of a round's second trial: meet `first` or leave it."""
    return lambda leads: leads == first or not first.contains_ideal(leads)


def test_modular_trial_matches_exact_route():
    """One F_p trial, stopped by the Hilbert target, gives the initial ideal
    over Q of the generators moved by the same matrix."""
    for k, ring, gens in _trial_inputs():
        matrix = groebner._draw_matrix(random.Random(k), ring.n, 10**4)
        exact = initial_ideal([apply_linear_change(f, matrix) for f in gens])
        int_gens = [groebner._to_int_poly(f) for f in gens]
        stop = _reaches(hilbert_numerator(initial_ideal(gens)))
        prime = groebner._PRIMES[k % 10]
        assert groebner._gin_trial(int_gens, matrix, prime, stop) == exact


def _dense_matrix(rng, n, bound):
    """A dense square change of coordinates, entries uniform in [-bound, bound]."""
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def _stanley_reisner_inputs():
    """Stanley-Reisner ideals of six seeded complexes on 8-10 vertices."""
    rng = random.Random(2718)
    for n in (8, 9, 10, 8, 9, 10):
        faces = [
            rng.sample(range(1, n + 1), rng.randint(3, n - 3))
            for _ in range(rng.randint(3, 6))
        ]
        ideal = stanley_reisner_ideal(SimplicialComplex(n, faces))
        yield ideal.ring, [Polynomial.from_monomial(ideal.ring, g) for g in ideal.sorted_gens()]


def test_triangular_and_dense_trials_agree():
    """A trial in unit lower-triangular coordinates gives the same leads as
    one in dense coordinates, invertible mod the trial's prime."""
    inputs = [(ring, gens) for _, ring, gens in _trial_inputs()]
    for k, (ring, gens) in enumerate(inputs + list(_stanley_reisner_inputs())):
        n = ring.n
        prime = groebner._PRIMES[k % 10]
        dense = _dense_matrix(random.Random(k), n, 10**4)
        assert _sparse_rank([dict(enumerate(r)) for r in dense], prime) == n
        triangular = groebner._draw_matrix(random.Random(k), n, 10**4)
        int_gens = [groebner._to_int_poly(f) for f in gens]
        stop = _reaches(hilbert_numerator(initial_ideal(gens)))
        leads = groebner._gin_trial(int_gens, dense, prime, stop)
        assert leads is not None
        assert groebner._gin_trial(int_gens, triangular, prime, stop) == leads


def _monomial_outside(ideal):
    """A monomial outside a proper ideal, of the largest degree up to the
    ideal's top generator degree that has one."""
    top = max(g.degree for g in ideal.gens)
    for degree in range(top, -1, -1):
        for e in itertools.product(range(degree + 1), repeat=ideal.ring.n):
            m = Monomial(e)
            if m.degree == degree and not ideal.contains(m):
                return m
    raise AssertionError(f"{ideal} is not proper")


def test_confirming_trial_meets_exactly_the_hilbert_stopped_leads():
    """The second trial's stop returns an ideal X exactly when X is the ideal
    a Hilbert stop would have returned: for X the Hilbert-stopped leads L of
    either trial's coordinates, L plus one monomial outside it, and the
    unmoved initial ideal where it differs from L."""
    inputs = [(ring, gens) for _, ring, gens in _trial_inputs()]
    for k, (ring, gens) in enumerate(inputs + list(_stanley_reisner_inputs())):
        int_gens = [groebner._to_int_poly(f) for f in gens]
        unmoved = initial_ideal(gens)
        stop = _reaches(hilbert_numerator(unmoved))
        trials = [
            (groebner._draw_matrix(random.Random(2 * k + t), ring.n, 10**4),
             groebner._PRIMES[(2 * k + t) % 10])
            for t in range(2)
        ]
        hilbert = [groebner._gin_trial(int_gens, m, p, stop) for m, p in trials]
        first = hilbert[0]
        candidates = [first, first.plus([_monomial_outside(first)])]
        if unmoved != first:
            candidates.append(unmoved)
        for (matrix, prime), leads in zip(trials, hilbert):
            for x in candidates:
                confirmed = groebner._gin_trial(int_gens, matrix, prime, _confirms(x))
                assert (confirmed == x) == (x == leads)


def test_draw_matrix_is_unit_lower_triangular():
    """Ones on the diagonal, zeros above it, and below it the RNG's draws in
    row order."""
    for n in range(1, 8):
        for bound in (1, 7, 10**4):
            matrix = groebner._draw_matrix(random.Random(n * bound), n, bound)
            rng = random.Random(n * bound)
            assert len(matrix) == n
            for i, row in enumerate(matrix):
                assert len(row) == n
                assert row[i] == 1 and row[i + 1:] == [0] * (n - i - 1)
                assert row[:i] == [rng.randint(-bound, bound) for _ in range(i)]


def test_modular_trial_that_misses_its_target_fails():
    """A trial whose bases never reach the target Hilbert series fails,
    though the same trial stops on the gin when the target is right."""
    ideal = worked_example_ideal()
    int_gens = [{g: 1} for g in ideal.sorted_gens()]
    matrix = groebner._draw_matrix(random.Random(0), ideal.ring.n, 10**4)
    prime = groebner._PRIMES[0]
    right = _reaches(hilbert_numerator(ideal))
    assert groebner._gin_trial(int_gens, matrix, prime, right) == worked_example_gin()
    # K(0) = 1 for every monomial ideal
    unreachable = HilbertSeries(UniPoly([2]), ideal.ring.n)
    assert groebner._gin_trial(int_gens, matrix, prime, _reaches(unreachable)) is None


@pytest.mark.parametrize("wrong", ["impossible", "too small"])
def test_gin_wrong_hilbert_target_does_not_certify(monkeypatch, wrong):
    ideal = worked_example_ideal()
    if wrong == "impossible":
        # K(0) = 1 for every monomial ideal
        target = HilbertSeries(UniPoly([2]), ideal.ring.n)
    else:
        # the series of a strictly larger ideal: the trials never reach it
        extra = Monomial((0, 0, 0, 3, 0, 0))
        bigger = MonomialIdeal(ideal.ring, list(worked_example_gin().gens) + [extra])
        target = hilbert_numerator(bigger)
    monkeypatch.setattr(groebner, "_gin_target", lambda *args: target)
    with pytest.raises(NotCertified):
        gin(ideal, seed=0)


def test_gin_records_the_rounds_run(monkeypatch):
    """A first round whose trials disagree costs two more trials."""
    expected = gin(worked_example_ideal(), seed=0).ideal
    real = groebner._gin_trial
    calls = []

    def trial(*args):
        calls.append(args[2])
        out = real(*args)
        if len(calls) == 2:
            return MonomialIdeal(out.ring, list(out.gens) + [Monomial((0,) * 5 + (1,))])
        return out

    monkeypatch.setattr(groebner, "_gin_trial", trial)
    result = gin(worked_example_ideal(), seed=0)
    assert result.trials == 4 and result.borel_certified
    assert result.ideal == expected
    assert calls == list(groebner._PRIMES[:4])


def test_gin_of_a_monomial_ideal_builds_no_polynomial(monkeypatch):
    """A monomial ideal goes to the trials as it is."""
    def refuse(*args):
        raise AssertionError("gin built a polynomial from a monomial ideal")

    monkeypatch.setattr(groebner.Polynomial, "from_monomial", refuse)
    first = gin(worked_example_ideal(), seed=0)
    assert first.ideal == worked_example_gin()


def test_gin_of_a_polynomial_system_converts_it_once(monkeypatch):
    """gin checks a polynomial system once, reads its target over Q off the
    leads of one exact run with no autoreduction."""
    calls = {"_check_inputs": 0, "_autoreduce": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(groebner, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(groebner, name, counted)
    gens = [poly(R3, "x1^2 + x2*x3"), poly(R3, "x1*x2 - x3^2")]
    result = gin(gens, seed=0)
    assert calls == {"_check_inputs": 1, "_autoreduce": 0}
    assert result.borel_certified
    assert hilbert_numerator(result.ideal) == hilbert_numerator(initial_ideal(gens))


def test_gin_checks_its_seed():
    """A seed that is not an int is refused, not taken as the int it equals:
    gin(I, seed=True) would read "seed": true, which GinResult.from_json
    rejects."""
    ideal = worked_example_ideal()
    for gens in (ideal, MonomialIdeal.zero(ideal.ring), [poly(R2, "x1 + x2")]):
        for bad in (True, 1.5, "a"):
            with pytest.raises(ValueError, match="seed"):
                gin(gens, seed=bad)
    with pytest.raises(ValueError, match="seed"):
        scm_check(ideal, seed="a")
    result = gin(ideal, seed=1)
    assert GinResult.from_json(result.to_json()) == result


def test_gin_result_from_json_rejects_non_integers():
    good = gin(worked_example_ideal(), seed=0).to_json()
    for field, bad in [("seed", 1.0), ("trials", "2"), ("trials", True), ("borel_certified", 1)]:
        with pytest.raises(ValueError):
            GinResult.from_json({**good, field: bad})
