"""Command line surface: JSON payload shapes, exit codes, determinism, and the
two process-level launch routes: ``python -m bwkit``, which needs no install,
and the ``bwkit`` console script, tested where one is installed."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bwkit
from bwkit import (
    BettiTable,
    BWPolynomial,
    FiltrationChain,
    GinResult,
    HilbertSeries,
    HTriangle,
    LocalCohomologyTable,
    MonomialIdeal,
    SimplicialComplex,
    UniPoly,
)
from bwkit.cli import main

WORKED_IDEAL = {
    "vars": 6,
    "gens": [
        [1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ],
}

WORKED_COMPLEX = {"n": 6, "facets": [[1, 2, 6], [1, 3, 5], [2, 3, 4]]}

GIN_GENS = {
    (2, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0),
    (0, 2, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0),
    (0, 1, 1, 0, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (1, 0, 0, 2, 0, 0),
}


@pytest.fixture
def ideal_path(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(WORKED_IDEAL))
    return str(path)


@pytest.fixture
def complex_path(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(WORKED_COMPLEX))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_gin_golden(capsys, ideal_path):
    data = run_json(capsys, ["gin", "--input", ideal_path, "--seed", "0"])
    ideal = MonomialIdeal.from_json(data)
    assert {m.exponents for m in ideal.gens} == GIN_GENS
    assert data["borel_certified"] is True
    assert data["trials"] == 2
    assert data["seed"] == 0


def test_bw_payload_and_note(capsys, ideal_path):
    data = run_json(capsys, ["bw", "--input", ideal_path])
    bw = BWPolynomial.from_json(data["bw"])
    assert bw == BWPolynomial({(3, 0): 1, (3, 1): 3, (3, 3): -1})
    assert data["via_gin"] is False
    assert "cross-validated" in data["erratum_note"]

    via = run_json(capsys, ["bw", "--input", ideal_path, "--via-gin"])
    assert BWPolynomial.from_json(via["bw"]) == BWPolynomial(
        {(2, 1): 1, (2, 2): 1, (3, 0): 1, (3, 1): 2}
    )
    assert via["via_gin"] is True


def test_bw_of_complex_uses_h_triangle(capsys, complex_path, ideal_path):
    from_complex = run_json(capsys, ["bw", "--input", complex_path])
    from_ideal = run_json(capsys, ["bw", "--input", ideal_path])
    assert from_complex["bw"] == from_ideal["bw"]


def test_bw_via_gin_rejects_a_complex(capsys, complex_path):
    assert main(["bw", "--input", complex_path, "--via-gin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --via-gin wants an ideal, got a complex\n"


def test_output_is_deterministic(capsys, ideal_path):
    first = main(["scm", "--input", ideal_path])
    out1 = capsys.readouterr().out
    second = main(["scm", "--input", ideal_path])
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


def test_hilbert_payload(capsys, ideal_path):
    data = run_json(capsys, ["hilbert", "--input", ideal_path])
    assert data["canonical"]["denom_power"] == 3
    assert data["canonical"]["numerator"] == [1, 3, 0, -1]
    assert data["raw"]["numerator"] == [1, 0, -6, 7, 0, -3, 1]
    assert data["raw"]["denom_power"] == 6


def test_h_triangle_payload(capsys, complex_path):
    data = run_json(capsys, ["h-triangle", "--input", complex_path])
    tri = HTriangle.from_json(data)
    assert {k: v for k, v in tri.entries.items()} == {(3, 0): 1, (3, 1): 3, (3, 3): -1}


def test_filtration_payload(capsys, ideal_path):
    data = run_json(capsys, ["filtration", "--input", ideal_path])
    chain = FiltrationChain.from_json(data)
    assert chain.d == 3
    assert chain.ideals[0] == MonomialIdeal.from_json(data["ideals"][0])
    assert chain.ideals[-1].is_unit


def test_scm_payload(capsys, ideal_path):
    data = run_json(capsys, ["scm", "--input", ideal_path])
    assert data["scm"] is False
    assert data["witness"]["row"] == 2
    assert data["witness"]["input_row"] == []
    assert data["witness"]["gin_row"] == [0, 1, 1]
    names = {c["name"] for c in data["criteria"]}
    assert names == {
        "depth",
        "gin-chain-stable",
        "gin-chain-swap",
        "hilbert-gin-pair",
        "hilbert-input-pair",
    }


def test_local_cohomology_payloads(capsys, tmp_path, ideal_path, complex_path):
    hoch = run_json(capsys, ["local-cohomology", "--input", complex_path])
    table = LocalCohomologyTable.from_json(hoch)
    assert table.entries == {(2, 0): 1, (2, 1): 3, (3, 3): 3}
    assert hoch["route"] == "hochster"

    # the worked ideal is not sequentially Cohen-Macaulay, so the layer route
    # refuses it; being squarefree, it goes through its complex instead
    assert run_json(capsys, ["local-cohomology", "--input", ideal_path]) == hoch
    # (x1^2, x2) meet (x3, x4) only at the origin: neither route takes it
    unmixed = tmp_path / "unmixed.json"
    unmixed.write_text(json.dumps({"vars": 4, "gens": [[2, 0, 1, 0], [2, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]}))
    assert main(["local-cohomology", "--input", str(unmixed)]) == 2
    assert capsys.readouterr() == ("", "error: layer formula needs a sequentially Cohen-Macaulay algebra\n")

    gin_path = tmp_path / "gin.json"
    gin_path.write_text(json.dumps({"vars": 6, "gens": [list(g) for g in sorted(GIN_GENS)]}))
    layer = run_json(capsys, ["local-cohomology", "--input", str(gin_path)])
    assert layer["route"] == "filtration"
    table2 = LocalCohomologyTable.from_json(layer)
    assert table2.entries == {(2, 0): 1, (2, 1): 3, (2, 2): 2, (3, 2): 2, (3, 3): 3}


def test_alexander_dual_payload(capsys, complex_path, tmp_path):
    data = run_json(capsys, ["alexander-dual", "--input", complex_path])
    dual = SimplicialComplex.from_json(data)
    from bwkit import alexander_dual

    assert dual == alexander_dual(SimplicialComplex.from_json(WORKED_COMPLEX))

    full = tmp_path / "full.json"
    full.write_text(json.dumps({"n": 2, "facets": [[1, 2]]}))
    assert main(["alexander-dual", "--input", str(full)]) == 2


def test_shift_payload(capsys, complex_path):
    data = run_json(capsys, ["shift", "--input", complex_path])
    shifted = SimplicialComplex.from_json(data)
    assert shifted.sorted_facets() == [
        (1, 5),
        (1, 6),
        (2, 5, 6),
        (3, 5, 6),
        (4, 5, 6),
    ]


def test_betti_payloads(capsys, complex_path, tmp_path, stability_decisions):
    data = run_json(capsys, ["betti", "--input", complex_path])
    assert BettiTable.from_json(data).totals() == [1, 7, 11, 6, 1]
    assert data["route"] == "hochster"

    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps({"vars": 2, "gens": [[2, 0], [1, 1]]}))
    ek = run_json(capsys, ["betti", "--input", str(stable)])
    assert ek["route"] == "eliahou-kervaire"
    # the route choice decides stability; the formula reads the verdict back
    assert len(stability_decisions) == 1
    assert BettiTable.from_json(ek).totals() == [1, 2, 1]

    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"vars": 2, "gens": [[0, 2]]}))
    assert main(["betti", "--input", str(mixed)]) == 2


def test_betti_of_squarefree_ideal_takes_the_hochster_route(capsys, ideal_path, complex_path):
    # the worked ideal is squarefree but not strongly stable: the CLI builds
    # its complex and must print what the complex itself gives
    for field in ("q", "p:2"):
        via_ideal = run_json(capsys, ["betti", "--input", ideal_path, "--field", field])
        via_complex = run_json(capsys, ["betti", "--input", complex_path, "--field", field])
        assert via_ideal["route"] == "hochster"
        assert via_ideal == via_complex


# the 6-vertex real projective plane: its local cohomology depends on the field
RP2_COMPLEX = {
    "n": 6,
    "facets": [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
               [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6]],
}


def test_local_cohomology_of_an_ideal_refuses_a_prime_field(capsys, tmp_path):
    """The layer route is over Q.  With --field p:<prime> a squarefree ideal
    goes through its complex, which gives H^2 over F_2 but not over Q; any
    other ideal exits 2 and points to the complex."""
    cpx = tmp_path / "rp2.json"
    cpx.write_text(json.dumps(RP2_COMPLEX))
    sr = tmp_path / "rp2-ideal.json"
    sr.write_text(json.dumps(bwkit.stanley_reisner_ideal(SimplicialComplex.from_json(RP2_COMPLEX)).to_json()))
    over_q = run_json(capsys, ["local-cohomology", "--input", str(sr)])
    assert over_q["route"] == "filtration"
    assert {e["i"] for e in over_q["entries"]} == {3}
    over_f2 = run_json(capsys, ["local-cohomology", "--input", str(cpx), "--field", "p:2"])
    assert {e["i"] for e in over_f2["entries"]} == {2, 3}
    assert run_json(capsys, ["local-cohomology", "--input", str(sr), "--field", "p:2"]) == over_f2
    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps({"vars": 2, "gens": [[2, 0], [1, 1]]}))
    assert main(["local-cohomology", "--input", str(stable), "--field", "p:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over Q" in captured.err and "complex" in captured.err


def test_certification_failure_exits_3(capsys, ideal_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise bwkit.NotCertified("trials kept disagreeing")

    monkeypatch.setattr(bwkit.cli, "gin", refuse)
    assert main(["gin", "--input", ideal_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certification failure:")


def test_betti_refuses_large_squarefree_ideal_before_building_its_complex(capsys, tmp_path):
    # 15 disjoint edges: the complex has 2^15 facets, refused before it is built
    gens = [[int(v // 2 == k) for v in range(30)] for k in range(15)]
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({"vars": 30, "gens": gens}))
    assert main(["betti", "--input", str(path)]) == 2
    assert "refused (n > 14)" in capsys.readouterr().err


def test_h_triangle_refuses_a_large_simplex(capsys, tmp_path):
    # the 26-simplex has 2^26 faces, refused before any is enumerated
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"n": 26, "facets": [list(range(1, 27))]}))
    assert main(["h-triangle", "--input", str(path)]) == 2
    assert "faces refused" in capsys.readouterr().err


def test_field_option(capsys, complex_path, ideal_path, tmp_path):
    data = run_json(capsys, ["betti", "--input", complex_path, "--field", "p:7"])
    assert BettiTable.from_json(data).totals() == [1, 7, 11, 6, 1]
    assert main(["betti", "--input", complex_path, "--field", "p:6"]) == 2
    capsys.readouterr()
    assert main(["betti", "--input", complex_path, "--field", "zz"]) == 2
    capsys.readouterr()
    # a huge characteristic is refused up front instead of trial-divided
    big = ["local-cohomology", "--input", complex_path, "--field", "p:1000000000000000003"]
    assert main(big) == 2
    assert "2^31" in capsys.readouterr().err
    # --field is parsed before a route is chosen, so the Eliahou-Kervaire and
    # filtration routes, which compute no homology, refuse it too
    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps({"vars": 3, "gens": [[1, 0, 0], [0, 1, 0]]}))
    for verb, field in (("betti", "p:4"), ("local-cohomology", "zz")):
        assert main([verb, "--input", str(stable), "--field", field]) == 2
        assert capsys.readouterr().err.startswith("error:")
    # verbs that compute no homology do not take --field at all
    for verb in ("hilbert", "scm", "gin", "bw", "filtration"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", ideal_path, "--field", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_unit_ideal_exits_2_with_the_library_message(capsys, tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"vars": 2, "gens": [[0, 0]]}))
    for verb, what in (
        ("filtration", "dimension filtration"),
        ("scm", "scm check"),
        ("local-cohomology", "local cohomology"),
    ):
        assert main([verb, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {what} wants a proper ideal\n")


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("hilbert", {"vars": 2, "gens": [[1.7, 0], [0, 2]]}),
        ("hilbert", {"vars": 2, "gens": [[True, 0], [0, 2]]}),
        ("hilbert", {"vars": 2, "gens": [["1", 0], [0, 2]]}),
        ("hilbert", {"vars": 2.0, "gens": [[1, 0], [0, 2]]}),
        ("hilbert", {"vars": True, "gens": [[1]]}),
        ("hilbert", {"vars": 2, "gens": [[1, 0, 0]]}),
        ("h-triangle", {"n": 3, "facets": [[1, 2.0]]}),
        ("h-triangle", {"n": 3, "facets": [[1, True]]}),
        ("h-triangle", {"n": "3", "facets": [[1, 2]]}),
    ],
)
def test_non_integer_input_rejected(capsys, tmp_path, verb, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([verb, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_zero_denominator_exits_2(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"vars": 2, "gens": ["1/0*x1 + x2"]}))
    assert main(["gin", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad ideal: ") and "1/0" in captured.err


def test_library_rejects_non_integer_exponents():
    with pytest.raises(ValueError, match="integer"):
        MonomialIdeal.from_json({"vars": 2, "gens": [[1.7, 0], [0, 2]]})


@pytest.mark.parametrize(
    "cls, payload",
    [
        (BWPolynomial, {"terms": [{"i": 1.7, "j": 0, "c": 2}]}),
        (BWPolynomial, {"terms": [{"i": 1, "j": 0, "c": 2.5}]}),
        (HilbertSeries, {"numerator": [1, True], "denom_power": 2}),
        (HilbertSeries, {"numerator": [1, -1], "denom_power": "2"}),
        (BettiTable, {"entries": [{"i": 0, "j": 0, "value": 1.0}]}),
        (FiltrationChain, {"d": 0.0, "ideals": [{"vars": 1, "gens": [[0]]}]}),
        (GinResult, {"vars": 1, "gens": [[1]], "seed": "0", "trials": 2, "borel_certified": True}),
        (GinResult, {"vars": 1, "gens": [[1]], "seed": 0, "trials": 2, "borel_certified": "yes"}),
        (HTriangle, {"d": 1, "entries": [{"i": 0, "j": 0, "value": True}]}),
        (LocalCohomologyTable, {"entries": [{"i": 0, "c": 0.5, "value": 1}]}),
        (BWPolynomial, {"dim": True, "terms": [{"i": 1, "j": 0, "c": 1}]}),
    ],
)
def test_output_parsers_reject_non_integers(cls, payload):
    with pytest.raises(ValueError, match="must be"):
        cls.from_json(payload)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SimplicialComplex(3, [[1, True]]),
        lambda: SimplicialComplex(3, [[True, 2]]),
        lambda: SimplicialComplex(3, [[1.0]]),
        lambda: SimplicialComplex(True, [[1]]),
        lambda: BWPolynomial({(1, 0): 2.5}),
        lambda: BWPolynomial({(True, 0): 3}),
        lambda: BettiTable({(0, 0): 1.9}),
        lambda: HTriangle(1, {(1, 0): 1.0}),
        lambda: LocalCohomologyTable({(0, 0.5): 1}),
        # a zero entry is dropped only after its index is checked
        lambda: BettiTable({(0.5, 0): 0}),
        lambda: LocalCohomologyTable({(0, True): 0}),
        lambda: HilbertSeries(UniPoly([1]), 1.5),
        lambda: HilbertSeries(UniPoly([1]), True),
        lambda: UniPoly([True, 2]),
        lambda: UniPoly([1.5]),
        # a trailing zero is dropped only after it is checked
        lambda: UniPoly([1, 0.0]),
    ],
)
def test_library_constructors_reject_non_integers(build):
    with pytest.raises(ValueError, match="integer"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        # a negative index next to beta_{0,0} = 1 would add to totals()[0]
        lambda: BettiTable.from_json(
            {"entries": [{"i": -1, "j": 3, "value": 5}, {"i": 0, "j": 0, "value": 1}]}
        ),
        lambda: BettiTable({(0, -1): 1}),
        # a zero entry is dropped only after its index is checked
        lambda: BettiTable({(-1, 0): 0}),
        lambda: LocalCohomologyTable({(-2, 0): 1}),
        lambda: LocalCohomologyTable({(-1, -2): 1}),
        lambda: LocalCohomologyTable({(1, 3): 1}),
        lambda: LocalCohomologyTable.from_json({"entries": [{"i": 0, "c": 1, "value": 1}]}),
    ],
)
def test_tables_reject_indices_out_of_range(build):
    with pytest.raises(ValueError, match="outside|non-negative"):
        build()


def test_bw_polynomial_from_json_checks_its_dim():
    """A "dim" that contradicts the terms is refused, not rewritten."""
    terms = [{"i": 1, "j": 0, "c": 1}]
    for dim in (7, 0, -1):
        with pytest.raises(ValueError, match="differs"):
            BWPolynomial.from_json({"dim": dim, "terms": terms})
    with pytest.raises(ValueError, match="differs"):
        BWPolynomial.from_json({"dim": 0, "terms": []})
    for doc in ({"dim": 1, "terms": terms}, {"dim": -1, "terms": []}):
        assert BWPolynomial.from_json(doc).to_json() == doc


# --format text stdout of every verb on the worked examples
TEXT_GOLDENS = {
    ("bw", "ideal"): "w^3 + 3tw^3 - t^3w^3\n",
    ("hilbert", "ideal"): "(1 + 3t - t^3)/(1-t)^3\n",
    ("h-triangle", "complex"): "0: 0\n1: 0 0\n2: 0 0 0\n3: 1 3 0 -1\n",
    ("gin", "ideal"): (
        "<x1*x4^2, x1^2, x1*x2, x2^2, x1*x3, x2*x3, x3^2>    seed=0 trials=2 certified=True\n"
    ),
    ("filtration", "ideal"): (
        "I<0> = <x1*x2*x3, x1*x4, x2*x5, x4*x5, x3*x6, x4*x6, x5*x6>\n"
        "I<1> = <x1*x2*x3, x1*x4, x2*x5, x4*x5, x3*x6, x4*x6, x5*x6>\n"
        "I<2> = <x1*x2*x3, x1*x4, x2*x5, x4*x5, x3*x6, x4*x6, x5*x6>\n"
        "I<3> = <1>\n"
    ),
    ("scm", "ideal"): (
        "scm: false\n"
        "witness row 2: 0 vs t + t^2\n"
        "criterion depth: fails at i=2: depth 2 < 3\n"
        "criterion gin-chain-stable: fails at i=2: "
        "<x1*x4^2, x1^2, x1*x2, x2^2, x1*x3, x2*x3, x3^2> vs <x2^2, x2*x3, x3^2, x1>\n"
        "criterion gin-chain-swap: fails at i=2: "
        "<x1*x4^2, x1^2, x1*x2, x2^2, x1*x3, x2*x3, x3^2> vs <x2^2, x2*x3, x3^2, x1>\n"
        "criterion hilbert-gin-pair: fails at i=2: "
        "(1 - 6t^2 + 7t^3 - 3t^5 + t^6)/(1-t)^6 vs (1 - t - 3t^2 + 5t^3 - 2t^4)/(1-t)^6\n"
        "criterion hilbert-input-pair: fails at i=2: "
        "(1 - 6t^2 + 7t^3 - 3t^5 + t^6)/(1-t)^6 vs (1 - t - 3t^2 + 5t^3 - 2t^4)/(1-t)^6\n"
    ),
    ("local-cohomology", "complex"): "H^2: (-2 + t + t^2)/(t-1)^2\nH^3: 3/(t-1)^3\n",
    ("alexander-dual", "complex"): (
        "complex[n=6; {4,5,6}, {1,2,3,4}, {1,2,3,5}, {1,2,3,6}, {1,2,4,5}, {1,3,4,6}, {2,3,5,6}]\n"
    ),
    ("shift", "complex"): "complex[n=6; {1,5}, {1,6}, {2,5,6}, {3,5,6}, {4,5,6}]\n",
    ("betti", "complex"): (
        "           0     1     2     3     4\n"
        "total:     1     7    11     6     1\n"
        "    0:     1     .     .     .     .\n"
        "    1:     .     6     8     3     .\n"
        "    2:     .     1     3     3     1\n"
    ),
}


def test_text_format(capsys, ideal_path, complex_path):
    paths = {"ideal": ideal_path, "complex": complex_path}
    for (verb, kind), expected in TEXT_GOLDENS.items():
        assert main([verb, "--input", paths[kind], "--format", "text"]) == 0
        assert capsys.readouterr().out == expected, verb
    assert {verb for verb, _ in TEXT_GOLDENS} == set(bwkit.cli._HANDLERS)


def test_missing_file_and_bad_json(capsys, tmp_path):
    assert main(["bw", "--input", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["bw", "--input", str(bad)]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["bw", "--input", str(empty)]) == 2
    capsys.readouterr()


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["hilbert", "--input", str(nested)]) == 2
    assert capsys.readouterr().err == f"error: {nested} is nested too deeply\n"


@pytest.mark.parametrize("verb", ["hilbert", "bw", "gin", "scm", "local-cohomology"])
def test_deep_exponents_are_answered(capsys, tmp_path, verb):
    """(x1^2000, x1^1000 x2): the Hilbert pivots take 1000 steps."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"vars": 2, "gens": [[2000, 0], [1000, 1]]}))
    data = run_json(capsys, [verb, "--input", str(path)])
    if verb == "gin":
        assert data["gens"] == [[1000, 1000], [1001, 0]]


@pytest.mark.parametrize("verb", ["hilbert", "bw", "gin", "scm", "local-cohomology"])
def test_huge_exponents_are_refused(capsys, tmp_path, verb):
    """x1^(10^30): the dense Hilbert numerator is refused before it is built."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vars": 1, "gens": [[10**30]]}))
    assert main([verb, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Hilbert numerator of ") and "refused" in err


# x3, ..., x1000
LINEAR_1000 = [[int(i == j) for i in range(1000)] for j in range(2, 1000)]


@pytest.mark.parametrize(
    "verb, data, message",
    [
        # x9*...*x16 alone moves to C(23, 8) = 490,314 terms
        ("gin", {"vars": 16, "gens": [[1] * 8 + [0] * 8, [0] * 8 + [1] * 8]},
         "change of coordinates to 496749 terms refused (more than 262144)"),
        ("local-cohomology", {"vars": 1, "gens": [[8000]]},
         "layer row of 8000 coefficients refused (more than 4096)"),
        # 998 linear generators x3..x1000 move to 500,497 terms
        ("shift", {"n": 1000, "facets": [[1, 2]]},
         "change of coordinates to 500497 terms refused (more than 262144)"),
        # 998 dual facets of 999 vertices each
        ("alexander-dual", {"n": 1000, "facets": [[1, 2]]},
         "Alexander dual of 997002 vertex entries refused (more than 262144)"),
        # levels of 998, 998 and 1 generators, each 1000 entries long
        ("filtration", {"vars": 1000, "gens": LINEAR_1000},
         "filtration of 1997000 exponent entries refused (more than 262144)"),
    ],
    ids=["gin", "local-cohomology", "shift", "alexander-dual", "filtration"],
)
def test_exploding_work_is_refused(capsys, tmp_path, verb, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([verb, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_filtration_refusal_holds_in_text_format(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"vars": 1000, "gens": LINEAR_1000}))
    assert main(["filtration", "--input", str(path), "--format", "text"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: filtration of 1997000 exponent entries refused")


def test_complete_graph_edge_ideal_is_answered_or_refused(capsys, tmp_path):
    """The 780 quadrics of K_40: its minimal vertex covers are found at once
    whatever the order of the generators, so bw and filtration answer, and
    scm and local-cohomology stop at gin's up-front refusal."""
    n = 40
    gens = [[int(k in e) for k in range(n)] for e in itertools.combinations(range(n), 2)]
    path = tmp_path / "k40.json"
    path.write_text(json.dumps({"vars": n, "gens": gens}))
    data = run_json(capsys, ["bw", "--input", str(path)])
    assert BWPolynomial.from_json(data["bw"]) == BWPolynomial({(1, 0): 1, (1, 1): n - 1})
    assert run_json(capsys, ["filtration", "--input", str(path)])["d"] == 1
    for verb in ("scm", "local-cohomology"):
        assert main([verb, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: change of coordinates to 335790 terms refused (more than 262144)\n"


def test_layer_rows_below_the_bound_are_answered(capsys, tmp_path):
    """x1^4000 has one layer row of 4000 coefficients, all 4000 of its
    (t-1)-coefficients nonzero."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"vars": 1, "gens": [[4000]]}))
    data = run_json(capsys, ["local-cohomology", "--input", str(path)])
    assert data["route"] == "filtration"
    assert len(data["entries"]) == 4000


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WORKED_COMPLEX)))
    data = run_json(capsys, ["h-triangle", "--input", "-"])
    assert data["d"] == 3


def test_seed_defaults_to_zero_whatever_the_environment(capsys, ideal_path, monkeypatch):
    # only --seed sets the seed: a set BWKIT_SEED, integer or not, is ignored
    for value in ("7", "abc"):
        monkeypatch.setenv("BWKIT_SEED", value)
        data = run_json(capsys, ["gin", "--input", ideal_path])
        assert data["seed"] == 0
        assert {m.exponents for m in MonomialIdeal.from_json(data).gens} == GIN_GENS
    data = run_json(capsys, ["gin", "--input", ideal_path, "--seed", "7"])
    assert data["seed"] == 7


def test_polynomial_input_bw_via_gin(capsys, tmp_path):
    path = tmp_path / "polys.json"
    path.write_text(json.dumps({"vars": 3, "gens": ["x1 + x2 + x3"]}))
    data = run_json(capsys, ["bw", "--input", str(path), "--via-gin"])
    assert BWPolynomial.from_json(data["bw"]) == BWPolynomial({(2, 0): 1})
    # without --via-gin a polynomial input cannot feed the monomial pipeline
    assert main(["bw", "--input", str(path)]) == 2


def test_zero_generators_are_dropped(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"vars": 2, "gens": ["0"]}))
    data = run_json(capsys, ["gin", "--input", str(path)])
    assert data == {"vars": 2, "gens": [], "seed": 0, "trials": 0, "borel_certified": True}
    path.write_text(json.dumps({"vars": 2, "gens": ["0", "x1*x2"]}))
    with_zero = run_json(capsys, ["hilbert", "--input", str(path)])
    path.write_text(json.dumps({"vars": 2, "gens": [[1, 1]]}))
    assert with_zero == run_json(capsys, ["hilbert", "--input", str(path)])


# inputs at the edges of the domain: each is answered or refused, never a crash
EDGE_INPUTS = [
    {"n": 3, "facets": [[]]},
    {"n": 3, "facets": []},
    {"n": 0, "facets": []},
    {"n": 0, "facets": [[]]},
    {"n": -1, "facets": []},
    {"n": 2, "facets": [[3]]},
    {"n": 2, "facets": [[0, 1]]},
    {"n": 3, "facets": [[1, 1, 2]]},
    {"n": 3, "facets": [[2, 3], [3, 2]]},
    {"n": 3, "facets": None},
    {"vars": 3, "gens": []},
    {"vars": 3, "gens": [[0, 0, 0]]},
    {"vars": 0, "gens": []},
    {"vars": 2, "gens": ["0"]},
    {"vars": 2, "gens": ["1"]},
    {"vars": 2, "gens": ["x1 + 1"]},
    {"vars": 2, "gens": ["x3"]},
    {"vars": 2, "gens": ["1/0*x1"]},
    {"vars": 2, "gens": ["x1 + x2", "0"]},
    {"vars": 2, "gens": [[-1, 0]]},
    {"vars": 2, "gens": [[1]]},
    {"vars": 2, "gens": [[1, 0, 0]]},
    {"vars": 2, "gens": [None]},
    {"vars": 2, "gens": None},
    {"vars": 2, "gens": "x1"},
    {"vars": None, "gens": []},
    {"vars": -1, "gens": []},
    {},
    [],
    None,
]


def _edge_invocations():
    for verb in bwkit.cli._HANDLERS:
        extras = [[], ["--format", "text"]]
        if verb in ("betti", "local-cohomology"):
            extras.append(["--field", "p:2"])
        if verb == "bw":
            extras.append(["--via-gin"])
        for extra in extras:
            yield [verb, "--input", "-", *extra]


def test_edge_inputs_exit_0_2_or_3(capsys, monkeypatch):
    import io

    for data in EDGE_INPUTS:
        for argv in _edge_invocations():
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3), (argv, data)


_SRC = str(Path(bwkit.__file__).resolve().parent.parent)


def _run_module(cwd, *argv):
    # Run the child against the package this test imported, from a neutral
    # working directory, so neither the caller's cwd nor a stale installed
    # copy decides what runs.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bwkit", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env=env,
    )


def test_console_script_smoke(tmp_path, ideal_path):
    proc = _run_module(tmp_path, "scm", "--input", ideal_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["scm"] is False


def test_bw_of_the_unit_ideal_warns_in_one_line(tmp_path):
    # run as a script would be, so Python's own warning display is in play
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"vars": 2, "gens": [[0, 0]]}))
    proc = _run_module(tmp_path, "bw", "--input", str(path), "--format", "text")
    assert (proc.returncode, proc.stdout) == (0, "0\n")
    assert proc.stderr == "warning: layer polynomial of the zero algebra is 0\n"


def _modules_after_cli_import() -> set[str]:
    """sys.modules of a fresh `python -S` after `import bwkit.cli`; -S keeps
    site hooks from loading modules on their own."""
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import bwkit.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, _SRC], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "bwkit.cli" in loaded
    return loaded


def test_cli_import_loads_no_dataclasses():
    """Every CLI call pays for its imports; dataclasses drags in inspect, ast,
    dis and tokenize."""
    assert not _modules_after_cli_import() & {"dataclasses", "inspect"}


def test_cli_import_loads_no_typing():
    """Annotations are postponed and the generic types come from
    collections.abc, so no bwkit module needs typing at run time."""
    assert "typing" not in _modules_after_cli_import()


@pytest.mark.skipif(
    shutil.which("bwkit") is None, reason="bwkit console script not installed"
)
def test_installed_console_script_smoke(ideal_path):
    proc = subprocess.run(
        ["bwkit", "scm", "--input", ideal_path],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["scm"] is False
