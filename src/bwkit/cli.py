"""Command-line front end: parse ideals or complexes from JSON, dispatch the
library computations, and emit deterministic JSON (default) or text.

Exit codes: 0 on success, 2 on input or domain errors, 3 on certification
failure of a generic initial ideal.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Sequence

from .filtration import (
    NotSCM,
    bw_from_complex,
    bw_polynomial,
    local_cohomology_scm,
    scm_check,
)
from .groebner import NotCertified, gin
from .monomial import (
    MonomialIdeal,
    betti_eliahou_kervaire,
    dimension_filtration,
    hilbert_numerator,
    is_strongly_stable,
)
from .ring import Polynomial, RingSpec, parse_polynomial, require_field
from .simplicial import (
    SimplicialComplex,
    _DUAL_LIMIT,
    _refuse_hochster_scan,
    alexander_dual,
    complex_of_ideal,
    graded_betti_hochster,
    h_triangle,
    local_cohomology_hochster,
    symmetric_shift,
)

_LAYER_NOTE = (
    "layer coefficients are computed from the dimension filtration and "
    "cross-validated against independent standard-monomial counts; where "
    "third-party printed tables disagree, these derived values are "
    "authoritative"
)

_INT_LIMIT = 1 << 53  # JSON consumers lose exactness past double precision


class InputError(ValueError):
    """Bad input file, flag combination, or out-of-domain request."""


def _json_safe(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _INT_LIMIT else obj
    if isinstance(obj, list):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, tuple):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    return obj


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply") from exc


def _load_input(path: str) -> MonomialIdeal | list[Polynomial] | SimplicialComplex:
    """A MonomialIdeal, a list of nonzero Polynomial (some generator is not
    a monomial), or a SimplicialComplex, keyed off the JSON shape."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    if "facets" in data:
        try:
            return SimplicialComplex.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad complex: {exc}") from exc
    if "gens" in data:
        try:
            ring = RingSpec(data["vars"])
            polys = [
                parse_polynomial(ring, g) if isinstance(g, str)
                else Polynomial.from_monomial(ring, ring.monomial(g))
                for g in data["gens"]
            ]
            polys = [p for p in polys if not p.is_zero]
            # monic monomial generators make a monomial ideal (no generators
            # make the zero ideal)
            terms = [p.terms() for p in polys]
            if all(len(t) == 1 and t[0][1] == 1 for t in terms):
                return MonomialIdeal(ring, (t[0][0] for t in terms))
            return polys
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad ideal: {exc}") from exc
    raise InputError('input needs either "facets" (complex) or "vars"/"gens" (ideal)')


def _require_monomial(loaded, verb: str) -> MonomialIdeal:
    if isinstance(loaded, MonomialIdeal):
        return loaded
    if isinstance(loaded, list):
        raise InputError(f"{verb} wants a monomial ideal (or use `gin` first)")
    raise InputError(f"{verb} wants an ideal, got a complex")


def _parse_field(spec: str) -> int | None:
    if spec == "q":
        return None
    if spec.startswith("p:"):
        try:
            p = int(spec[2:])
        except ValueError as exc:
            raise InputError(f"bad field {spec!r}") from exc
        return require_field(p)
    raise InputError(f'field must be "q" or "p:<prime>", got {spec!r}')


# -- verb handlers: each returns (json payload, text rendering) -----------------


def _cmd_bw(loaded, args):
    if isinstance(loaded, SimplicialComplex):
        if args.via_gin:
            raise InputError("--via-gin wants an ideal, got a complex")
        p = bw_from_complex(loaded)
        via = False
    elif args.via_gin:
        result = gin(loaded, seed=args.seed)
        p = bw_polynomial(result.ideal, route="borel")
        via = True
    else:
        p = bw_polynomial(_require_monomial(loaded, "bw"))
        via = False
    payload = {"bw": p.to_json(), "via_gin": via, "erratum_note": _LAYER_NOTE}
    text = str(p) + ("    [via gin]" if via else "")
    return payload, text


def _cmd_hilbert(loaded, args):
    ideal = _require_monomial(loaded, "hilbert")
    hs = hilbert_numerator(ideal)
    can = hs.canonical()
    payload = {"raw": hs.to_json(), "canonical": can.to_json()}
    return payload, str(can)


def _cmd_h_triangle(loaded, args):
    if not isinstance(loaded, SimplicialComplex):
        raise InputError("h-triangle wants a complex")
    ht = h_triangle(loaded)
    return ht.to_json(), str(ht)


def _cmd_gin(loaded, args):
    if isinstance(loaded, SimplicialComplex):
        raise InputError("gin wants an ideal")
    result = gin(loaded, seed=args.seed)
    text = f"{result.ideal}    seed={result.seed} trials={result.trials} certified={result.borel_certified}"
    return result.to_json(), text


def _cmd_filtration(loaded, args):
    ideal = _require_monomial(loaded, "filtration")
    chain = dimension_filtration(ideal)
    # every level is written out as n-long exponent vectors, under the bound
    # alexander-dual puts on the vertex entries it writes
    entries = ideal.ring.n * sum(len(q.gens) for q in chain.ideals)
    if entries > _DUAL_LIMIT:
        raise InputError(
            f"filtration of {entries} exponent entries refused (more than {_DUAL_LIMIT})"
        )
    text = "\n".join(f"I<{i}> = {q}" for i, q in enumerate(chain.ideals))
    return chain.to_json(), text


def _cmd_scm(loaded, args):
    report = scm_check(_require_monomial(loaded, "scm"), seed=args.seed)
    lines = [f"scm: {str(report.scm).lower()}"]
    if report.witness is not None:
        i, a, b = report.witness
        lines.append(f"witness row {i}: {a} vs {b}")
    for c in report.criteria:
        state = "ok" if c.holds else f"fails at i={c.witness_index}: {c.detail}"
        lines.append(f"criterion {c.name}: {state}")
    return report.to_json(), "\n".join(lines)


def _cmd_local_cohomology(loaded, args):
    field = _parse_field(args.field)
    if isinstance(loaded, SimplicialComplex):
        cpx = loaded
    else:
        # the layer route needs SCM input over Q; a squarefree ideal it
        # cannot take goes through its complex, as betti's does
        ideal = _require_monomial(loaded, "local-cohomology")
        if field is None:
            try:
                table = local_cohomology_scm(ideal, seed=args.seed)
            except NotSCM:
                if not ideal.is_squarefree():
                    raise
            else:
                return {**table.to_json(), "route": "filtration"}, str(table)
        elif not ideal.is_squarefree():
            raise InputError(
                "the layer route is over Q; --field p:<prime> needs a complex or a squarefree ideal"
            )
        cpx = complex_of_ideal(ideal)
    table = local_cohomology_hochster(cpx, field)
    return {**table.to_json(), "route": "hochster"}, str(table)


def _cmd_alexander_dual(loaded, args):
    if not isinstance(loaded, SimplicialComplex):
        raise InputError("alexander-dual wants a complex")
    dual = alexander_dual(loaded)
    return dual.to_json(), str(dual)


def _cmd_shift(loaded, args):
    if not isinstance(loaded, SimplicialComplex):
        raise InputError("shift wants a complex")
    shifted = symmetric_shift(loaded, seed=args.seed)
    return shifted.to_json(), str(shifted)


def _cmd_betti(loaded, args):
    field = _parse_field(args.field)
    if isinstance(loaded, SimplicialComplex):
        table = graded_betti_hochster(loaded, field)
        route = "hochster"
    else:
        ideal = _require_monomial(loaded, "betti")
        if is_strongly_stable(ideal):
            table = betti_eliahou_kervaire(ideal)
            route = "eliahou-kervaire"
        elif ideal.is_squarefree():
            _refuse_hochster_scan(ideal.ring.n)
            table = graded_betti_hochster(complex_of_ideal(ideal), field)
            route = "hochster"
        else:
            raise InputError("betti wants a strongly stable ideal, a squarefree ideal, or a complex")
    return {**table.to_json(), "route": route}, str(table)


_HANDLERS = {
    "bw": (_cmd_bw, "layer polynomial of an ideal or complex (--via-gin for general ideals)"),
    "hilbert": (_cmd_hilbert, "Hilbert series of a monomial-ideal quotient"),
    "h-triangle": (_cmd_h_triangle, "degree-refined h-numbers of a complex"),
    "gin": (_cmd_gin, "certified reverse-lexicographic generic initial ideal"),
    "filtration": (_cmd_filtration, "dimension filtration chain of a monomial ideal"),
    "scm": (_cmd_scm, "sequential Cohen-Macaulayness report"),
    "local-cohomology": (_cmd_local_cohomology, "local cohomology Hilbert series (layer or face route)"),
    "alexander-dual": (_cmd_alexander_dual, "Alexander dual of a complex"),
    "shift": (_cmd_shift, "symmetric algebraic shift of a complex"),
    "betti": (_cmd_betti, "graded Betti table (stable ideal or complex)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwkit",
        description="Exact layer polynomials, gins, and Cohen-Macaulay certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, help_text) in _HANDLERS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--input", required=True, help='JSON input path, or "-" for stdin')
        p.add_argument("--seed", type=int, default=0, help="randomness seed (default: 0)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if verb in ("betti", "local-cohomology"):
            p.add_argument("--field", default="q", help='homology coefficients: "q" or "p:<prime>"')
        if verb == "bw":
            p.add_argument("--via-gin", action="store_true", dest="via_gin",
                           help="report the layer polynomial of the generic initial ideal")
        p.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the library's warnings reach the user as one line each, like its errors
    with warnings.catch_warnings(record=True) as caught:
        try:
            loaded = _load_input(args.input)
            payload, text = args.handler(loaded, args)
        except NotCertified as exc:
            print(f"certification failure: {exc}", file=sys.stderr)
            return 3
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(_json_safe(payload), indent=2))
    else:
        print(text)
    return 0
