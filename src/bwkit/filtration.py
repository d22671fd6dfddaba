"""Unmixed layers of the dimension filtration, the bivariate layer polynomial
(h-polynomial of each layer against w^i), a multi-criterion sequential
Cohen-Macaulayness check, layerwise local cohomology, and extremal invariants
read off the layer polynomial.
"""

from __future__ import annotations

import warnings

from .groebner import gin
from .monomial import (
    FiltrationChain,
    MonomialIdeal,
    borel_depth,
    dimension_filtration,
    hilbert_numerator,
)
from .ring import BWPolynomial, UniPoly, _Record
from .simplicial import LocalCohomologyTable, SimplicialComplex, h_triangle

# coefficients of one layer row re-expanded in powers of (t-1): the shift takes
# quadratic time, and its answer quadratic bytes, in the row's length
_LAYER_ROW_LIMIT = 1 << 12


class NotSCM(ValueError):
    """The algebra is not sequentially Cohen-Macaulay."""


class LayerDecomposition(_Record):
    """Filtration chain plus the h-polynomial of each layer U_i = I^<i>/I^<i-1>,
    i = 0..d (the virtual I^<-1> is I itself, so layer 0 can be nonzero only
    for depth-zero quotients).  The Hilbert numerator of I and of each chain
    level is computed once per ideal and kept on it, so asking for it again
    after the decomposition costs nothing."""

    __slots__ = ("chain", "layer_h")
    chain: FiltrationChain
    layer_h: tuple[UniPoly, ...]

    @property
    def d(self) -> int:
        return self.chain.d

    def bw(self) -> BWPolynomial:
        return BWPolynomial.from_rows(dict(enumerate(self.layer_h)))


def layer_decomposition(
    ideal: MonomialIdeal, route: str = "decomposition"
) -> LayerDecomposition:
    """h(U_i;t) = (K_{i-1} - K_i)/(1-t)^(n-i), K_j the Hilbert numerator of
    R/I^<j> over (1-t)^n, K_{-1} taken for I itself.  Exact divisions."""
    chain = dimension_filtration(ideal, route=route)
    n = ideal.ring.n
    ks = [hilbert_numerator(q).numerator for q in (ideal,) + chain.ideals]
    layers = tuple(
        (ks[i] - ks[i + 1]).divexact_one_minus_t(n - i) for i in range(chain.d + 1)
    )
    return LayerDecomposition(chain, layers)


def bw_polynomial(ideal: MonomialIdeal, route: str = "decomposition") -> BWPolynomial:
    """sum_i h(U_i;t) w^i.  The unit ideal gives the zero algebra and the zero
    polynomial (with a warning); the zero ideal gives w^n."""
    if ideal.is_unit:
        warnings.warn("layer polynomial of the zero algebra is 0", stacklevel=2)
        return BWPolynomial.zero()
    return layer_decomposition(ideal, route=route).bw()


def bw_from_complex(cpx: SimplicialComplex) -> BWPolynomial:
    """Combinatorial route: coefficients are the h-triangle entries."""
    return BWPolynomial(h_triangle(cpx).entries)


class CriterionVerdict(_Record):
    __slots__ = ("name", "holds", "witness_index", "detail")
    name: str
    holds: bool
    witness_index: int | None
    detail: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness_index": self.witness_index,
            "detail": self.detail,
        }


class ScmReport(_Record):
    """Verdict of the layer-polynomial comparison BW(R/I) vs BW(R/gin(I)),
    with the equivalent per-level criteria when the full battery runs.

    All criteria characterize the same property, so they must agree; a
    disagreement raises instead of returning."""

    __slots__ = ("scm", "seed", "bw_input", "bw_gin", "witness", "criteria")
    scm: bool
    seed: int
    bw_input: BWPolynomial
    bw_gin: BWPolynomial
    witness: tuple[int, UniPoly, UniPoly] | None
    criteria: tuple[CriterionVerdict, ...]

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            i, a, b = self.witness
            wit = {"row": i, "input_row": list(a.coeffs), "gin_row": list(b.coeffs)}
        return {
            "scm": self.scm,
            "seed": self.seed,
            "bw_input": self.bw_input.to_json(),
            "bw_gin": self.bw_gin.to_json(),
            "witness": wit,
            "criteria": [c.to_json() for c in self.criteria],
        }


def scm_check(ideal: MonomialIdeal, seed: int = 0, full_battery: bool = True) -> ScmReport:
    """Sequential Cohen-Macaulayness: the layer polynomial is unchanged by
    passing to the generic initial ideal.

    full_battery additionally evaluates the equivalent per-level criteria
    (depth of R/I^<i>, stability of gin(I^<i>) under its own filtration,
    gin/filtration commutation, and the two Hilbert-series comparisons) and
    cross-checks them against the main verdict.  Each distinct level of the
    filtration is evaluated once; the comparisons indexed by the level's
    position in the chain still run at every position.
    """
    if not ideal.is_proper:
        raise ValueError("scm check wants a proper ideal")
    dec_in = layer_decomposition(ideal)
    g = gin(ideal, seed=seed).ideal
    dec_g = layer_decomposition(g, route="borel")
    bw_in, bw_g = dec_in.bw(), dec_g.bw()
    scm = bw_in == bw_g
    witness = None
    if not scm:
        for i in range(max(bw_in.w_degree(), bw_g.w_degree()) + 1):
            a, b = bw_in.row(i), bw_g.row(i)
            if a != b:
                witness = (i, a, b)
                break
    criteria: tuple[CriterionVerdict, ...] = ()
    if full_battery:
        chain_in, chain_g = dec_in.chain, dec_g.chain
        if chain_in.d != chain_g.d:
            raise AssertionError("gin changed the Krull dimension; this is a bug")
        found: dict[str, tuple[int, str]] = {}

        def miss(name: str, i: int, detail: str):
            if name not in found:
                found[name] = (i, detail)

        # gin(I^<i>) and what hangs on it change only where the chain moves;
        # below I^<0> sits I itself, whose gin dec_g already filtered
        prev, level, level_chain = ideal, g, chain_g
        depth = borel_depth(g)
        for i, q in enumerate(chain_in.ideals[: chain_in.d]):
            if q != prev:
                prev = q
                level = gin(q, seed=seed).ideal
                level_chain = dimension_filtration(level, route="borel")
                depth = borel_depth(level)
            swapped = chain_g.ideals[i]
            if depth < i + 1:
                miss("depth", i, f"depth {depth} < {i + 1}")
            own = level_chain.ideals[i]
            if level != own:
                miss("gin-chain-stable", i, f"{level} vs {own}")
            if level != swapped:
                miss("gin-chain-swap", i, f"{level} vs {swapped}")
            hs_level, hs_swapped = hilbert_numerator(level), hilbert_numerator(swapped)
            if hs_level != hs_swapped:
                miss("hilbert-gin-pair", i, f"{hs_level} vs {hs_swapped}")
            hs_input = hilbert_numerator(q)
            if hs_input != hs_swapped:
                miss("hilbert-input-pair", i, f"{hs_input} vs {hs_swapped}")
        names = (
            "depth",
            "gin-chain-stable",
            "gin-chain-swap",
            "hilbert-gin-pair",
            "hilbert-input-pair",
        )
        criteria = tuple(
            CriterionVerdict(
                name,
                name not in found,
                found[name][0] if name in found else None,
                found[name][1] if name in found else "",
            )
            for name in names
        )
        if all(c.holds for c in criteria) != scm:
            raise AssertionError("equivalent criteria disagree; this is a bug")
    return ScmReport(scm, seed, bw_in, bw_g, witness, criteria)


def local_cohomology_scm(ideal: MonomialIdeal, seed: int = 0) -> LocalCohomologyTable:
    """Hilb(H^i_m) = h(U_i;t)/(t-1)^i for sequentially Cohen-Macaulay input:
    each layer h-polynomial re-expanded in powers of (t-1).  A layer row of
    more than _LAYER_ROW_LIMIT coefficients is refused with ValueError."""
    if not ideal.is_proper:
        raise ValueError("local cohomology wants a proper ideal")
    report = scm_check(ideal, seed=seed, full_battery=False)
    if not report.scm:
        raise NotSCM("layer formula needs a sequentially Cohen-Macaulay algebra")
    rows = report.bw_input.rows()
    longest = max(len(h.coeffs) for h in rows.values())
    if longest > _LAYER_ROW_LIMIT:
        raise ValueError(f"layer row of {longest} coefficients refused (more than {_LAYER_ROW_LIMIT})")
    entries: dict[tuple[int, int], int] = {}
    for i, h in rows.items():
        for k, a in enumerate(h.translate(1).coeffs):
            if a:
                entries[(i, i - k)] = a
    return LocalCohomologyTable(entries)


def extremal_from_bw(p: BWPolynomial) -> tuple[int, int]:
    """(regularity, depth) = (largest t-degree present, smallest nonzero layer).
    Meaningful when p comes from a sequentially Cohen-Macaulay algebra."""
    if p.is_zero:
        raise ValueError("zero polynomial carries no extremal data")
    reg = max(j for _, j in p.entries)
    depth = min(i for i, _ in p.entries)
    return reg, depth
