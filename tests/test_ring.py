"""Monomial order, polynomial arithmetic, univariate helpers, Hilbert series,
and the bivariate layer polynomial."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwkit import (
    BWPolynomial,
    HilbertSeries,
    Monomial,
    Polynomial,
    RingSpec,
    UniPoly,
    apply_linear_change,
    parse_polynomial,
    reduced_groebner_basis,
    revlex_compare,
    revlex_key,
)
from bwkit.ring import _Packing, exponent_revlex_key


def mono(*exps):
    return Monomial(tuple(exps))


# -- reverse lexicographic order -------------------------------------------------


def test_revlex_golden_pairs():
    assert revlex_compare(mono(2, 0), mono(1, 1)) > 0
    assert revlex_compare(mono(0, 3, 0), mono(1, 1, 1)) > 0
    assert revlex_compare(mono(1, 2, 3), mono(1, 2, 3)) == 0
    # degree dominates
    assert revlex_compare(mono(0, 0, 1), mono(2, 0, 0)) < 0


def test_revlex_dimension_mismatch():
    with pytest.raises(ValueError):
        revlex_compare(mono(1), mono(1, 0))


exps3 = st.tuples(*(st.integers(0, 6) for _ in range(3)))


@given(exps3, exps3)
def test_revlex_antisymmetric(a, b):
    ca, cb = revlex_compare(mono(*a), mono(*b)), revlex_compare(mono(*b), mono(*a))
    assert ca == -cb
    assert (ca == 0) == (a == b)


@given(exps3, exps3, exps3)
def test_revlex_transitive(a, b, c):
    ms = sorted([mono(*a), mono(*b), mono(*c)], key=revlex_key)
    assert revlex_compare(ms[0], ms[1]) <= 0
    assert revlex_compare(ms[1], ms[2]) <= 0
    assert revlex_compare(ms[0], ms[2]) <= 0


@given(exps3, exps3, exps3)
def test_revlex_multiplicative(a, b, c):
    cmp_before = revlex_compare(mono(*a), mono(*b))
    shifted = revlex_compare(mono(*a) * mono(*c), mono(*b) * mono(*c))
    assert cmp_before == shifted


def test_monomial_ops():
    a, b = mono(2, 1, 0), mono(1, 1, 1)
    assert (a * b).exponents == (3, 2, 1)
    assert a.lcm(b).exponents == (2, 1, 1)
    assert a.gcd(b).exponents == (1, 1, 0)
    assert not a.divides(b)
    assert a.gcd(b).divides(a)
    assert a.lcm(b).quotient(a).exponents == (0, 0, 1)
    assert mono(0, 0, 0).is_one
    assert mono(1, 0, 1).is_squarefree() and not mono(2, 0, 0).is_squarefree()
    assert mono(1, 0, 1).support() == (1, 3)
    assert mono(1, 2, 0).max_index() == 2
    assert str(mono(1, 2, 0)) == "x1*x2^2"


def test_monomial_checks_exponents_and_lengths():
    """A non-integer or negative exponent is refused where the monomial is
    built, and monomials of different lengths where they are combined."""
    for bad in ((1.5, 0), (True, 0), ("1", 0), [1, 0]):
        with pytest.raises(ValueError, match="integer"):
            Monomial(bad)
    with pytest.raises(ValueError, match="negative"):
        mono(-1, 0)
    a, b = mono(1, 2, 3), mono(1)
    for op in (Monomial.__mul__, Monomial.divides, Monomial.quotient, Monomial.lcm, Monomial.gcd):
        with pytest.raises(ValueError, match="different dimension"):
            op(a, b)


# -- polynomials ----------------------------------------------------------------


R3 = RingSpec(3)
x1, x2, x3 = (Polynomial.variable(R3, i) for i in (1, 2, 3))


def test_polynomial_golden_products():
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    f = x1 * x2 + x3
    assert f + Polynomial.zero(R3) == f
    assert x1.scale(Fraction(1, 2)) * x2.scale(2) == x1 * x2


def test_leading_data_and_homogeneity():
    f = parse_polynomial(R3, "x1*x3 - x2^2")
    assert f.leading_monomial() == mono(0, 2, 0)
    assert f.leading_coefficient() == -1
    assert f.is_homogeneous
    assert not (x1 + Polynomial.one(R3)).is_homogeneous
    assert (x1 + x2).degree == 1
    assert Polynomial.zero(R3).degree is None


def test_parse_and_str_roundtrip():
    f = parse_polynomial(R3, "x1*x2*x3 - 1/2*x4^2".replace("x4", "x3"))
    assert f == x1 * x2 * x3 - (x3 * x3).scale(Fraction(1, 2))
    for g in (x1 * x2 - x3.scale(7), x2**3 + x1, Polynomial.one(R3)):
        assert parse_polynomial(R3, str(g)) == g


def test_parse_rejects_a_zero_denominator():
    """A zero denominator is bad input, not a ZeroDivisionError."""
    for text in ("1/0*x1", "x1 + 3/00*x2^2", "-1/0"):
        with pytest.raises(ValueError, match="cannot parse factor"):
            parse_polynomial(R3, text)
    assert parse_polynomial(R3, "3/10*x1") == x1.scale(Fraction(3, 10))
    assert parse_polynomial(R3, "1/01*x1") == x1


small_coeffs = st.integers(-4, 4)


def poly_from(seed_terms):
    terms = {}
    for e, c in seed_terms:
        terms[mono(*e)] = terms.get(mono(*e), 0) + c
    return Polynomial(R3, {m: Fraction(c) for m, c in terms.items() if c})


poly_strategy = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), small_coeffs),
    max_size=5,
).map(poly_from)


@settings(deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f - f == Polynomial.zero(R3)


# -- linear changes of coordinates ------------------------------------------------


def test_apply_linear_change():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert apply_linear_change(x1, ident) == x1
    assert apply_linear_change(x1, swap) == x2
    shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    assert apply_linear_change(x1 * x2, shear) == x1 * x2 + x2 * x2
    with pytest.raises(ValueError):
        apply_linear_change(x1, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_apply_linear_change_composition():
    a = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    b = [[1, 0, 1], [2, 1, 0], [0, 0, 3]]
    ba = [[sum(b[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    f = x1 * x2 + x3 * x3 - x1.scale(3) * x3
    assert apply_linear_change(apply_linear_change(f, b), a) == apply_linear_change(f, ba)


# -- packed monomial keys -----------------------------------------------------------


@st.composite
def packed_pair(draw, same_degree=False):
    """A packing fitting some degree, and two exponent vectors of at most that
    degree (of one degree when asked)."""
    n = draw(st.integers(1, 6))
    degree = draw(st.sampled_from([1, 3, 7, 100, 255, 40000]))

    def exps(total):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        return tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total]))

    a = exps(draw(st.integers(0, degree)))
    b = exps(sum(a) if same_degree else draw(st.integers(0, degree)))
    return _Packing(n, degree), a, b


@given(packed_pair())
def test_packing_round_trip(case):
    p, a, b = case
    assert p.unpack(p.pack(a)) == a
    assert p.degree(p.pack(a)) == sum(a)


@given(packed_pair(same_degree=True))
def test_packed_order_is_revlex_within_a_degree(case):
    p, a, b = case
    # revlex-greater has the smaller key
    assert (p.pack(a) < p.pack(b)) == (exponent_revlex_key(a) > exponent_revlex_key(b))


@given(packed_pair())
def test_packed_divisibility_product_and_lcm(case):
    p, a, b = case
    ka, kb = p.pack(a), p.pack(b)
    assert p.divides(ka, kb) == all(x <= y for x, y in zip(a, b))
    assert p.unpack(ka + kb) == tuple(x + y for x, y in zip(a, b))
    assert p.unpack(p.lcm(ka, kb)) == tuple(map(max, a, b))
    assert p.degree(p.lcm(ka, kb)) == sum(map(max, a, b))


def test_groebner_widens_packing_for_high_degrees():
    """x1^40000 - x2^40000 needs fields wider than 16 bits, and the basis of
    two inputs of degree 200 has pairs of degree 300 and exponents of 400,
    past the 9-bit fields the input degree asks for; both runs must give the
    right reduced basis."""
    (g,) = reduced_groebner_basis([x1 ** 40000 - x2 ** 40000])
    assert g == x1 ** 40000 - x2 ** 40000
    small = [
        parse_polynomial(R3, "x1^2 - x1*x3 + x3^2"),
        parse_polynomial(R3, "-x1*x2 + 2*x1*x3 + 2*x3^2"),
    ]
    k = 100
    assert _Packing(3, 2 * k).limit < 3 * k

    def stretch(f):
        # x_i -> x_i^k maps a reduced graded revlex basis onto one
        terms = {Monomial(tuple(k * e for e in m.exponents)): c for m, c in f.terms()}
        return Polynomial(R3, terms)

    expected = [stretch(h) for h in reduced_groebner_basis(small)]
    assert list(reduced_groebner_basis([stretch(f) for f in small])) == expected


def test_signed_sum_text_goldens():
    # negative leading terms, fractional and unit coefficients, constants, zero
    p = parse_polynomial(R3, "-x1^2*x3 + 1/2*x1*x2 - x2^2 + 3*x3^2 + x1 - 7/3")
    assert str(p) == "-x1^2*x3 + 1/2*x1*x2 - x2^2 + 3*x3^2 + x1 - 7/3"
    assert str(parse_polynomial(R3, "x2 + 1")) == "x2 + 1"
    assert str(Polynomial.zero(R3)) == "0"
    assert str(UniPoly((-3, 1, 0, -1, 2))) == "-3 + t - t^3 + 2t^4"
    assert str(UniPoly((0, -1, 1))) == "-t + t^2"
    assert str(UniPoly((5,))) == "5"
    assert str(UniPoly(())) == "0"
    bw = BWPolynomial({(0, 0): -2, (0, 1): 1, (1, 0): 1, (1, 1): -1, (2, 3): 3, (2, 0): -1})
    assert str(bw) == "-2 + t + w - tw - w^2 + 3t^3w^2"
    assert str(BWPolynomial({(0, 0): 1, (1, 2): -1})) == "1 - t^2w"
    assert str(BWPolynomial.zero()) == "0"


# -- univariate helpers -----------------------------------------------------------


def test_unipoly_basics():
    p = UniPoly((1, 3, 0, -1))
    assert str(p) == "1 + 3t - t^3"
    assert p.degree == 3 and p.coeff(1) == 3 and p.coeff(9) == 0
    assert UniPoly((0, 0)).is_zero and UniPoly(()).degree is None
    assert p.evaluate(1) == 3
    assert UniPoly.t_power(2) * UniPoly((1, 1)) == UniPoly((0, 0, 1, 1))
    assert p.shift(2) == UniPoly((0, 0, 1, 3, 0, -1))


@settings(deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=7), st.integers(0, 3))
def test_divexact_inverts_multiplication(coeffs, k):
    p = UniPoly(coeffs)
    q = p * UniPoly.one_minus_t_power(k)
    assert q.divexact_one_minus_t(k) == p


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        UniPoly((1, 1)).divexact_one_minus_t()


@settings(deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=7), st.integers(-3, 3))
def test_taylor_at_one_agrees_pointwise(coeffs, x):
    p = UniPoly(coeffs)
    assert p.taylor_at_one().evaluate(x - 1) == p.evaluate(x)


# -- Hilbert series ----------------------------------------------------------------


def test_hilbert_series_equality_is_cross_multiplied():
    a = HilbertSeries(UniPoly((1, 1)), 1)
    b = HilbertSeries(UniPoly((1, 1)) * UniPoly.one_minus_t_power(1), 2)
    assert a == b and b == a
    assert a != HilbertSeries(UniPoly((1, 1)), 2) and HilbertSeries(UniPoly((1, 1)), 2) != a
    assert a.canonical() == a
    assert b.canonical().denom_power == 1


def test_hilbert_series_expand():
    geom = HilbertSeries(UniPoly.one(), 2)
    assert geom.expand(5) == [1, 2, 3, 4, 5, 6]
    const = HilbertSeries(UniPoly((2,)), 0)
    assert const.expand(3) == [2, 0, 0, 0]


def test_hilbert_series_json_roundtrip():
    hs = HilbertSeries(UniPoly((1, 3, 0, -1)), 3)
    assert HilbertSeries.from_json(hs.to_json()) == hs


# -- layer polynomial ---------------------------------------------------------------


def test_bw_specialize_goldens():
    assert BWPolynomial({(4, 0): 1}).specialize() == HilbertSeries(UniPoly.one(), 4)
    p = BWPolynomial({(1, 1): 1, (2, 0): 1})
    assert p.specialize() == HilbertSeries(UniPoly((1, 1, -1)), 2)
    gin_bw = BWPolynomial({(2, 1): 1, (2, 2): 1, (3, 0): 1, (3, 1): 2})
    assert gin_bw.specialize() == HilbertSeries(UniPoly((1, 3, 0, -1)), 3)


def test_bw_structure():
    p = BWPolynomial({(2, 1): 1, (2, 2): 1, (3, 0): 1, (3, 1): 2})
    assert str(p) == "tw^2 + t^2w^2 + w^3 + 2tw^3"
    assert p.w_degree() == 3 and p.t_degree() == 2
    assert p.row(2) == UniPoly((0, 1, 1))
    assert p.row(5).is_zero
    assert BWPolynomial.from_rows(p.rows()) == p
    assert BWPolynomial.from_json(p.to_json()) == p
    assert BWPolynomial.zero().w_degree() == -1
    with pytest.raises(ValueError):
        BWPolynomial({(-1, 0): 1})
