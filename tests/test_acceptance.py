"""Acceptance criteria, one test per criterion in order.

Each test asserts the exact expected values and its wall-clock budget, then
records a PASS line that pytest prints in the terminal summary. A failing
criterion shows up both as a failed test and as a missing line.
"""

import random
import time

from bwkit import (
    BWPolynomial,
    HilbertSeries,
    MonomialIdeal,
    RingSpec,
    SimplicialComplex,
    UniPoly,
    betti_eliahou_kervaire,
    bw_from_complex,
    bw_polynomial,
    dimension_filtration,
    extremal_from_bw,
    gin,
    graded_betti_hochster,
    h_triangle,
    hilbert_numerator,
    hrw_check,
    krull_dimension,
    local_cohomology_hochster,
    local_cohomology_scm,
    scm_check,
    stanley_reisner_ideal,
    symmetric_shift,
)
from conftest import ACCEPTANCE_LINES
from corpus import (
    random_monomial_ideal,
    random_nested_stable_pair,
    random_stable_ideal,
)
from oracles import standard_monomial_counts

R6 = RingSpec(6)

WORKED_IDEAL = MonomialIdeal.from_exponents(
    R6,
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

WORKED_GIN = MonomialIdeal.from_exponents(
    R6,
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

WORKED_COMPLEX = SimplicialComplex(6, [(1, 2, 6), (1, 3, 5), (2, 3, 4)])

BW_INPUT = BWPolynomial({(3, 0): 1, (3, 1): 3, (3, 3): -1})
BW_GIN = BWPolynomial({(2, 1): 1, (2, 2): 1, (3, 0): 1, (3, 1): 2})


class _Budget:
    """Times a criterion and emits its summary line on clean exit."""

    def __init__(self, number: int, limit_s: float, label: str):
        self.number = number
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded budget: {elapsed:.1f}s"
                f" >= {self.limit:.0f}s"
            )
            ACCEPTANCE_LINES.append(
                f"[PASS] C{self.number:02d}: {self.label} ({elapsed:.2f}s / {self.limit:.0f}s)"
            )
        else:
            ACCEPTANCE_LINES.append(f"[FAIL] C{self.number:02d}: {self.label}")
        return False


def test_c01_gin_of_worked_example():
    with _Budget(1, 60, "gin of the worked ideal matches the published generators, certified"):
        result = gin(WORKED_IDEAL, seed=0)
        assert result.ideal == WORKED_GIN
        assert result.trials >= 2 and result.borel_certified


def test_c02_bw_pair_and_specialization():
    with _Budget(2, 5, "BW pair exact; both specialize to (1+3t-t^3)/(1-t)^3; counts agree to degree 8"):
        bw_input = bw_polynomial(WORKED_IDEAL)
        bw_gin = bw_polynomial(WORKED_GIN, route="borel")
        assert bw_input == BW_INPUT
        assert bw_gin == BW_GIN

        target = HilbertSeries(UniPoly((1, 3, 0, -1)), 3)
        assert bw_input.specialize() == target
        assert bw_gin.specialize() == target

        counts_input = standard_monomial_counts(WORKED_IDEAL, 8)
        counts_gin = standard_monomial_counts(WORKED_GIN, 8)
        assert counts_input == counts_gin == target.expand(8)


def test_c03_betti_tables_both_routes():
    with _Budget(3, 30, "Betti totals and rows agree on both routes"):
        hochster = graded_betti_hochster(WORKED_COMPLEX)
        ek = betti_eliahou_kervaire(WORKED_GIN)
        for table in (hochster, ek):
            assert table.totals() == [1, 7, 11, 6, 1]
            assert table.rows() == {
                0: [1, 0, 0, 0, 0],
                1: [0, 6, 8, 3, 0],
                2: [0, 1, 3, 3, 1],
            }


def test_c04_scm_verdicts_with_witness():
    with _Budget(4, 90, "worked ideal not SCM with w^2-row witness; its gin is SCM"):
        report = scm_check(WORKED_IDEAL, seed=0)
        assert not report.scm
        row, lhs, rhs = report.witness
        assert row == 2
        assert lhs.is_zero and rhs == UniPoly((0, 1, 1))
        assert scm_check(WORKED_GIN, seed=0).scm


def test_c05_bw_routes_agree_on_corpus(corpus_all):
    with _Budget(5, 180, f"combinatorial and algebraic BW agree on {len(corpus_all)} corpus complexes"):
        for cpx in corpus_all:
            assert bw_from_complex(cpx) == bw_polynomial(
                stanley_reisner_ideal(cpx)
            ), cpx


def test_c06_scm_check_matches_oracle(corpus_all, scm_flags_all):
    with _Budget(6, 600, f"scm_check matches the skeleton oracle on {len(corpus_all)} complexes"):
        for cpx, expected in zip(corpus_all, scm_flags_all):
            report = scm_check(stanley_reisner_ideal(cpx), seed=0)
            assert report.scm == expected, cpx


def test_c07_filtration_routes_agree():
    with _Budget(7, 60, "borel and decomposition filtrations agree on 50 random stable ideals"):
        rng = random.Random(714)
        done = 0
        while done < 50:
            ideal = random_stable_ideal(rng, max_vars=6, max_degree=4)
            if not ideal.is_proper:
                continue
            assert dimension_filtration(ideal, route="borel") == dimension_filtration(
                ideal, route="decomposition"
            ), ideal
            done += 1


def test_c08_gin_filtration_containments():
    with _Budget(8, 300, "gin/filtration containments on 50 random ideals and 50 nested stable pairs"):
        rng = random.Random(815)
        done = 0
        while done < 50:
            ideal = random_monomial_ideal(rng, max_vars=6, max_degree=4, max_gens=6)
            if not ideal.is_proper:
                continue
            chain = dimension_filtration(ideal)
            g = gin(ideal, seed=0).ideal
            gin_chain = dimension_filtration(
                g, route="decomposition" if g.is_zero else "borel"
            )
            assert gin_chain.d == chain.d
            for i in range(chain.d):
                level_gin = gin(chain.ideals[i], seed=0).ideal
                assert gin_chain.ideals[i].contains_ideal(level_gin), (ideal, i)
            done += 1

        done = 0
        while done < 50:
            inner, outer = random_nested_stable_pair(rng)
            if not outer.is_proper:
                continue
            assert outer.contains_ideal(inner)
            chain_inner = dimension_filtration(inner, route="borel")
            chain_outer = dimension_filtration(outer, route="borel")
            d_outer = krull_dimension(outer)
            for i in range(d_outer + 1):
                assert chain_outer.ideals[i].contains_ideal(
                    chain_inner.ideals[i]
                ), (inner, outer, i)
            done += 1


def test_c09_local_cohomology_routes_agree(corpus_all, scm_flags_all):
    with _Budget(9, 180, "filtration and face-ring local cohomology agree on SCM corpus complexes"):
        checked = 0
        for cpx, flag in zip(corpus_all, scm_flags_all):
            if not flag:
                continue
            ideal = stanley_reisner_ideal(cpx)
            assert local_cohomology_scm(ideal, seed=0) == local_cohomology_hochster(
                cpx
            ), cpx
            checked += 1
        assert checked > 0


def test_c10_h_triangle_recovery_identity(corpus_all, scm_flags_all):
    with _Budget(10, 180, "h-triangle recovery from dual Betti numbers on SCM corpus complexes"):
        checked = 0
        for cpx, flag in zip(corpus_all, scm_flags_all):
            if not flag:
                continue
            assert hrw_check(cpx).equal, cpx
            checked += 1
        assert checked > 0


def test_c11_shift_preserves_h_triangle_iff_scm(corpus_all, scm_flags_all):
    with _Budget(11, 600, "shifting preserves h-triangles of SCM corpus complexes, not the worked one"):
        for cpx, flag in zip(corpus_all, scm_flags_all):
            if not flag:
                continue
            assert h_triangle(symmetric_shift(cpx, seed=0)) == h_triangle(cpx), cpx
        shifted = symmetric_shift(WORKED_COMPLEX, seed=0)
        assert h_triangle(shifted) != h_triangle(WORKED_COMPLEX)


def test_c12_extremal_pair_matches_eliahou_kervaire():
    with _Budget(12, 60, "(regularity, depth) from BW matches Eliahou-Kervaire on 50 stable ideals"):
        rng = random.Random(1212)
        done = 0
        while done < 50:
            ideal = random_stable_ideal(rng, max_vars=6, max_degree=4)
            if not ideal.is_proper:
                continue
            table = betti_eliahou_kervaire(ideal)
            expected = (
                table.regularity(),
                ideal.ring.n - table.projective_dimension(),
            )
            assert extremal_from_bw(bw_polynomial(ideal, route="borel")) == expected, ideal
            done += 1
