"""Spec document parsing, reference resolution, and the check registry."""

import json

import pytest

from dualis.errors import SpecParseError, UnknownCheck, UnresolvedReference
from dualis.specdoc import (MAX_LINREC_BOUND, MAX_SPEC_DIM, algebra_block, coalgebra_block,
                            parse_spec)
from dualis.suite import run_document


def doc_text(objects=None, checks=None):
    return json.dumps({"objects": objects or {}, "checks": checks or []})


MAT2 = {
    "type": "coalgebra", "field": "q", "dim": 4,
    "comult": [[0, 0, 0, "1"], [0, 1, 2, "1"], [1, 0, 1, "1"], [1, 1, 3, "1"],
               [2, 2, 0, "1"], [2, 3, 2, "1"], [3, 2, 1, "1"], [3, 3, 3, "1"]],
    "counit": ["1", "0", "0", "1"],
}


def test_malformed_json_reports_line_and_column():
    with pytest.raises(SpecParseError) as ei:
        parse_spec('{\n  "objects": {,}\n}')
    assert ei.value.line == 2
    assert ei.value.col is not None
    assert "line 2" in str(ei.value)


def test_root_and_type_tag_validation():
    with pytest.raises(SpecParseError):
        parse_spec("[1, 2]")
    with pytest.raises(SpecParseError):
        parse_spec(doc_text({"x": {"dim": 1}}))
    with pytest.raises(SpecParseError):
        parse_spec(doc_text({"x": {"type": "widget"}}))


def test_malformed_block_and_float_scalar_rejected():
    bad = {"type": "algebra", "field": "q", "dim": 1, "mult": [[0, 0, "1"]]}
    with pytest.raises(SpecParseError):
        parse_spec(doc_text({"a": bad}))
    floaty = {"type": "coalgebra", "field": "q", "dim": 1,
              "comult": [[0, 0, 0, 1.5]], "counit": ["1"]}
    with pytest.raises(SpecParseError):
        parse_spec(doc_text({"c": floaty}))


def test_unknown_check_and_dangling_reference():
    with pytest.raises(UnknownCheck):
        parse_spec(doc_text(checks=[{"check": "frobnicate", "refs": []}]))
    with pytest.raises(UnresolvedReference) as ei:
        parse_spec(doc_text(
            {"c": MAT2},
            [{"check": "coreflexive", "refs": ["ghost"]}]))
    assert "ghost" in str(ei.value)


def test_empty_check_list_is_an_empty_passing_report():
    rep = run_document(parse_spec(doc_text()), seed=0)
    assert rep.passed
    assert rep.checks == []
    assert json.loads(rep.canonical_json())["checks"] == []


def test_pathdual_on_one_arrow_quiver_attaches_iso_matrix():
    doc = parse_spec(doc_text(
        {"q2": {"type": "quiver", "vertices": [0, 1], "arrows": [[0, 1]]}},
        [{"check": "verify_pathdual_iso", "refs": ["q2"],
          "params": {"field": "q"}}]))
    rep = run_document(doc, seed=0)
    assert rep.passed
    det = rep.checks[0].details
    assert det["dim"] == 3
    M = det["algebra_to_dual_matrix"]
    assert M["rows"] == 3 and M["cols"] == 3
    assert len(M["entries"]) == 3
    assert det["coalgebra_to_dual_matrix"]["rows"] == 3


def test_all_object_kinds_build_and_their_checks_run():
    # right regular coaction: rho(c_k) = sum c_i (x) c_j over delta(c_k)
    coaction = [[k, i, j, c] for k, i, j, c in MAT2["comult"]]
    objects = {
        "mat2": MAT2,
        "reg": {"type": "comodule", "coalgebra": "mat2", "dim": 4,
                "coaction": coaction},
        "fib": {"type": "functional", "field": "q",
                "sequence": ["0", "1", "1", "2", "3", "5", "8", "13",
                             "21", "34", "55", "89"]},
        "chain2": {"type": "poset", "elements": [0, 1],
                   "relation": [[0, 1]]},
        "z2": {"type": "bialgebra", "field": "q",
               "cayley": [[0, 1], [1, 0]], "inverses": [0, 1]},
        "ray": {"type": "quiver-template", "name": "ray"},
    }
    checks = [
        {"check": "coreflexive", "refs": ["mat2"]},
        {"check": "decompose_injectives", "refs": ["mat2"],
         "params": {"side": "right"}},
        {"check": "lattice_agreement", "refs": ["reg"],
         "params": {"samples": 40}},
        {"check": "linrec", "refs": ["fib"],
         "params": {"rank_bound": 4, "expect_order": 2}},
        {"check": "membership", "refs": ["fib"], "params": {"bound": 4}},
        {"check": "verify_incidencedual_iso", "refs": ["chain2"]},
        {"check": "hopf_selfdual", "refs": ["z2"]},
        {"check": "semiperfect", "refs": ["ray"],
         "params": {"side": "right", "radius": 2, "bound": 30}},
        {"check": "dual_unitalization_iso", "refs": ["mat2"]},
    ]
    rep = run_document(parse_spec(json.dumps(
        {"objects": objects, "checks": checks})), seed=11)
    assert rep.passed, rep.to_text()
    by_name = {c.name: c for c in rep.checks}
    assert by_name["decompose_injectives"].details["block_dims"] == [2, 2]
    assert by_name["linrec"].details["poly"] == ["-1", "-1", "1"]
    assert by_name["membership"].details == {
        "member": True, "dim": 2, "level_dims": [1, 2, 2, 2, 2, 2, 2, 2]}
    assert by_name["lattice_agreement"].details["agree"] == \
        by_name["lattice_agreement"].details["checked"]
    assert by_name["semiperfect"].details["status"] == "holds"


def test_failing_check_embeds_replay_block():
    doc = parse_spec(doc_text(
        {"line": {"type": "quiver-template", "name": "line"}},
        [{"check": "semiperfect", "refs": ["line"],
          "params": {"side": "left", "radius": 2, "bound": 30,
                     "expect": "holds"}}]))
    rep = run_document(doc, seed=3)
    assert not rep.passed
    replay = rep.checks[0].replay
    assert replay["check"] == "semiperfect"
    assert replay["refs"] == ["line"]
    assert replay["params"]["expect"] == "holds"
    assert replay["seed"] == 3


def test_expected_failure_status_passes():
    doc = parse_spec(doc_text(
        {"loop": {"type": "quiver-template", "name": "loop"}},
        [{"check": "semiperfect", "refs": ["loop"],
          "params": {"side": "right", "radius": 2, "bound": 30,
                     "expect": "fails"}}]))
    assert run_document(doc, seed=0).passed


def test_serializers_round_trip_through_the_parser():
    text = doc_text({"c": MAT2})
    C = parse_spec(text).resolve("c")
    block = coalgebra_block(C)
    C2 = parse_spec(doc_text({"c": block})).resolve("c")
    assert C2.comult == C.comult
    assert C2.counit == C.counit

    from dualis.coalgebra import dual_algebra
    A = dual_algebra(C)
    block = algebra_block(A)
    A2 = parse_spec(doc_text({"a": block})).resolve("a")
    assert A2.mult == A.mult
    assert A2.unit == A.unit


def test_finite_template_block():
    doc = parse_spec(doc_text(
        {"t": {"type": "quiver-template", "name": "finite",
               "quiver": "q3"},
         "q3": {"type": "quiver", "vertices": [0, 1, 2],
                "arrows": [[0, 1], [1, 2]]}},
        [{"check": "semiperfect", "refs": ["t"],
          "params": {"side": "left", "radius": 4, "bound": 20}}]))
    assert run_document(doc, seed=0).passed


def test_star_rays_are_capped_at_parse_time():
    def star(rays):
        return parse_spec(doc_text({"t": {"type": "quiver-template", "name": f"star:{rays}"}}))

    assert star(1024).resolve("t").rays == 1024
    for rays in (1025, 99999999999, 0):
        with pytest.raises(SpecParseError, match="rays"):
            star(rays)


def test_posets_are_capped_at_parse_time():
    def poset(n, pairs):
        return parse_spec(doc_text({"p": {"type": "poset", "elements": list(range(n)),
                                          "relation": pairs}})).resolve("p")

    # a chain of n elements given by its covers has n(n+1)/2 intervals
    assert len(poset(44, [[i, i + 1] for i in range(43)]).relation) == 990
    for n, pairs, what in ((46, [[i, i + 1] for i in range(45)], "1081 intervals"),
                           (1025, [], "1025 elements"),
                           (2, [[0, 1]] * 1025, "1025 pairs")):
        with pytest.raises(SpecParseError, match=what):
            poset(n, pairs)


def test_linrec_inputs_are_capped_at_parse_time():
    def linrec(terms, bound):
        seq = [str(i % 5) for i in range(terms)]
        return parse_spec(doc_text({"s": {"type": "functional", "field": "q", "sequence": seq}},
                                   [{"check": "linrec", "refs": ["s"],
                                     "params": {"rank_bound": bound}}]))

    assert linrec(MAX_SPEC_DIM, MAX_LINREC_BOUND).checks[0].params["rank_bound"] == 64
    for terms, bound, what in ((130, MAX_LINREC_BOUND + 1, "rank_bound"),
                               (MAX_SPEC_DIM + 1, 8, "1025 terms"), (0, 8, "0 terms")):
        with pytest.raises(SpecParseError, match=what):
            linrec(terms, bound)


def test_check_params_are_typed_at_parse_time():
    ray = {"t": {"type": "quiver-template", "name": "ray"}}

    def params_of(params):
        doc = parse_spec(doc_text(ray, [{"check": "semiperfect", "refs": ["t"],
                                         "params": params}]))
        return doc.checks[0].params

    assert params_of({}) == {"side": "right", "radius": 3, "bound": 64, "expect": "holds"}
    assert params_of({"radius": "2", "bound": 30, "expect": None}) == \
        {"side": "right", "radius": 2, "bound": 30, "expect": "holds"}
    for bad in (5, [], "radius", {"radius": "x"}, {"radius": -1}, {"radius": 2.5},
                {"radius": True}, {"side": "up"}, {"expect": ["holds"]},
                {"radius": 2, "extra": [1]}, {"expct": "fails"}, {"expect": "unknown"}):
        with pytest.raises(SpecParseError):
            params_of(bad)
    q1 = {"q": {"type": "quiver", "vertices": [0, 1], "arrows": [[0, 1]]}}
    for field in ("fp:banana", "fp:4", 7):
        with pytest.raises(SpecParseError):
            parse_spec(doc_text(q1, [{"check": "verify_pathdual_iso", "refs": ["q"],
                                      "params": {"field": field}}]))
    doc = parse_spec(doc_text(q1, [{"check": "verify_pathdual_iso", "refs": ["q"],
                                    "params": {"field": "fp:101", "max_len": "1"}}]))
    assert doc.checks[0].params == {"field": "fp:101", "max_len": 1}
    assert run_document(doc).passed
