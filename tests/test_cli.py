"""Command line verbs, exit codes, and machine output."""

import json
import subprocess
import sys

import pytest

from dualis.cli import main

SPEC = {
    "objects": {
        "q2": {"type": "quiver", "vertices": [0, 1], "arrows": [[0, 1]]},
        "mat2": {"type": "coalgebra", "field": "q", "dim": 4,
                 "comult": [[0, 0, 0, "1"], [0, 1, 2, "1"],
                            [1, 0, 1, "1"], [1, 1, 3, "1"],
                            [2, 2, 0, "1"], [2, 3, 2, "1"],
                            [3, 2, 1, "1"], [3, 3, 3, "1"]],
                 "counit": ["1", "0", "0", "1"]},
        "nilp": {"type": "algebra", "field": "q", "dim": 2,
                 "mult": [[0, 0, 1, "1"]], "unit": None},
    },
    "checks": [
        {"check": "verify_pathdual_iso", "refs": ["q2"],
         "params": {"field": "q"}},
        {"check": "coreflexive", "refs": ["mat2"], "params": {}},
    ],
}


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC))
    return str(p)


def test_run_passing_spec(spec_path, capsys):
    assert main(["run", spec_path]) == 0
    out = capsys.readouterr().out
    assert "PASS [0] verify_pathdual_iso" in out
    assert "all checks passed (2 checks)" in out


def test_run_json_output_is_canonical(spec_path, capsys):
    assert main(["run", spec_path, "--json", "--seed", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "dualis-report/1"
    assert payload["seed"] == 6
    assert payload["passed"] is True
    assert len(payload["checks"]) == 2


def test_run_writes_machine_report_file(spec_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["run", spec_path, "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "all checks passed" in text
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "dualis-report/1"


def test_run_failing_check_exits_one(tmp_path, capsys):
    doc = {"objects": {"line": {"type": "quiver-template", "name": "line"}},
           "checks": [{"check": "semiperfect", "refs": ["line"],
                       "params": {"side": "right", "radius": 2,
                                  "bound": 30}}]}
    p = tmp_path / "fail.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["checks"][0]["replay"]["refs"] == ["line"]


def test_input_errors_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": {')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "line" in err
    unwritable = str(tmp_path / "missing-dir" / "r.json")
    assert main(["suite", "randomized", "--trials", "1", "--out", unwritable]) == 2
    assert "cannot write" in capsys.readouterr().err
    chain = {"type": "poset", "elements": [0, 1], "relation": [[0, 1]]}
    hostile = {
        "finite template on a poset": {
            "objects": {"p": chain, "t": {"type": "quiver-template", "name": "finite",
                                          "quiver": "p"}},
            "checks": [{"check": "semiperfect", "refs": ["t"]}]},
        "check ref of the wrong kind": {
            "objects": {"p": chain}, "checks": [{"check": "coreflexive", "refs": ["p"]}]},
        "check without its ref": {
            "objects": {"t": {"type": "quiver-template", "name": "ray"}},
            "checks": [{"check": "semiperfect", "refs": []}]},
        "params that are not an object": {
            "objects": {"t": {"type": "quiver-template", "name": "ray"}},
            "checks": [{"check": "semiperfect", "refs": ["t"], "params": 5}]},
        "a param that does not convert": {
            "objects": {"t": {"type": "quiver-template", "name": "ray"}},
            "checks": [{"check": "semiperfect", "refs": ["t"],
                        "params": {"radius": "x"}}]},
        "refs that are not a list": {
            "objects": {"t": {"type": "quiver-template", "name": "ray"}},
            "checks": [{"check": "semiperfect", "refs": 5}]},
        "refs given as a string": {
            "objects": {"t": {"type": "quiver-template", "name": "ray"}},
            "checks": [{"check": "semiperfect", "refs": "t"}]},
        "a Cayley table without an identity": {
            "objects": {"h": {"type": "bialgebra", "cayley": [[1]], "inverses": [0]}}},
        "an empty Cayley table": {
            "objects": {"h": {"type": "bialgebra", "cayley": [], "inverses": []}}},
        "a fractional dim": {
            "objects": {"a": {"type": "algebra", "field": "q", "dim": 1.5, "mult": []}}},
        "an infinite table index": {  # json reads Infinity, and int() overflows on it
            "objects": {"a": {"type": "algebra", "field": "q", "dim": 1,
                              "mult": [[float("inf"), 0, 0, "1"]]}}},
        "a boolean dim": {
            "objects": {"a": {"type": "algebra", "field": "q", "dim": True, "mult": []}}},
        "a misspelt param": {
            "objects": {"t": {"type": "quiver-template", "name": "loop"}},
            "checks": [{"check": "semiperfect", "refs": ["t"],
                        "params": {"expct": "fails"}}]},
    }
    for name, doc in hostile.items():
        p = tmp_path / "hostile.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: "), name
    # the last document's error names the misspelt key, then the schema
    assert "'expct'" in err and "expect" in err.split("'expct'")[1]
    huge = {"objects": {"a": {"type": "algebra", "field": "q", "dim": "3000000"}}}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(huge))
    assert main(["unitalize", str(p), "--object", "a"]) == 2
    assert "dim 3000000" in capsys.readouterr().err
    # a chain within the element and pair caps, whose closed relation has
    # 500,500 intervals
    chain = {"type": "poset", "elements": list(range(1000)),
             "relation": [[i, i + 1] for i in range(999)]}
    p.write_text(json.dumps({"objects": {"p": chain}}))
    assert main(["run", str(p)]) == 2
    assert "intervals" in capsys.readouterr().err


# spec files the loader must reject, the first one absent
HOSTILE_FILES = {
    "missing-file": None,
    "not-utf8": b'{"objects": {"\xff": {}}}',
    "nested-too-deep": b"[" * 100_000,
    "integer-too-long": b'{"objects": {}, "n": ' + b"7" * 5000 + b"}",
}


def _bad_input_cases():
    for verb in ("run", "dualize", "unitalize", "counitalize", "coreflexive"):
        argv = [verb, "FILE"] if verb == "run" else [verb, "FILE", "--object", "mat2"]
        for name, data in HOSTILE_FILES.items():
            yield pytest.param(data, argv, id=f"{verb}-{name}")
        # a name that is absent, then one naming a quiver, which no verb reads
        for name, ref in (("missing-object", "ghost"), ("wrong-kind", "q2")):
            if verb == "run":
                doc = {**SPEC, "checks": [{"check": "coreflexive", "refs": [ref]}]}
                args = ["run", "FILE"]
            else:
                doc, args = SPEC, [verb, "FILE", "--object", ref]
            yield pytest.param(json.dumps(doc).encode(), args, id=f"{verb}-{name}")
    yield pytest.param(None, ["suite", "randomized", "--field", "fp:banana"],
                       id="suite-bad-field")
    yield pytest.param(None, ["semiperfect", "banana"], id="semiperfect-bad-template")
    # radii past combinat.MAX_RADIUS, or past it in vertices on a wide star
    for template, radius in (("ray", 100_000_000), ("line", 100_001), ("star:1024", 98)):
        yield pytest.param(None, ["semiperfect", template, "--side", "right", "--radius",
                                  str(radius), "--bound", str(10**12)],
                           id=f"semiperfect-radius-{template}")
        doc = {"objects": {"t": {"type": "quiver-template", "name": template}},
               "checks": [{"check": "semiperfect", "refs": ["t"],
                           "params": {"radius": radius, "bound": 10**12}}]}
        yield pytest.param(json.dumps(doc).encode(), ["run", "FILE"],
                           id=f"run-semiperfect-radius-{template}")
    # a linrec rank_bound past specdoc.MAX_LINREC_BOUND, or a functional with
    # more than MAX_SPEC_DIM terms; 1,202 terms at bound 600 ran past 20 s
    for terms, bound in ((132, 65), (1202, 600), (1025, 8)):
        doc = {"objects": {"s": {"type": "functional", "field": "q",
                                 "sequence": [str(i * i % 97) for i in range(terms)]}},
               "checks": [{"check": "linrec", "refs": ["s"], "params": {"rank_bound": bound}}]}
        yield pytest.param(json.dumps(doc).encode(), ["run", "FILE"],
                           id=f"run-linrec-{terms}-terms-bound-{bound}")


@pytest.mark.parametrize("data, argv", list(_bad_input_cases()))
def test_bad_input_exits_two_with_one_error_line(data, argv, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if data is not None:
        path.write_bytes(data)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _values_echoed_in_errors():
    """Documents holding a hostile value, a list 900 deep or a 1 MB string,
    in each place whose error message quotes it."""
    for tag, value in (("deep", json.loads("[" * 900 + "]" * 900)), ("long", "x" * 2**20)):
        yield f"check-name-{tag}", {"checks": [{"check": value, "refs": ["q2"]}]}
        yield f"type-{tag}", {"objects": {"o": {"type": value}}}
        yield f"ref-{tag}", {"objects": SPEC["objects"],
                             "checks": [{"check": "coreflexive", "refs": [value]}]}
        yield f"template-{tag}", {"objects": {"t": {"type": "quiver-template", "name": value}}}
        yield f"field-{tag}", {"objects": {"a": {**SPEC["objects"]["nilp"], "field": value}}}
        yield f"param-{tag}", {"objects": {"t": {"type": "quiver-template", "name": "ray"}},
                               "checks": [{"check": "semiperfect", "refs": ["t"],
                                           "params": {"side": value}}]}
    long = "x" * 2**20
    yield "object-name-long", {"objects": {long: {}}}
    yield "param-key-long", {"objects": SPEC["objects"],
                             "checks": [{"check": "coreflexive", "refs": ["mat2"],
                                         "params": {long: 1}}]}


@pytest.mark.parametrize("name, doc", list(_values_echoed_in_errors()))
def test_hostile_values_are_echoed_short(name, doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "..." in err and len(err) < 300, err[:400]
    assert "recursion" not in err


def test_suite_verb(capsys):
    assert main(["suite", "randomized", "--trials", "5", "--seed", "3"]) == 0
    assert "adjunction-lifts" in capsys.readouterr().out
    assert main(["suite", "randomized", "--trials", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert main(["suite", "randomized", "--field", "fp:banana"]) == 2


def _exit_code(argv) -> int:
    """main's return value, or the status of a parse-time exit."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv", [
    ["semiperfect", "ray", "--side", "left", "--radius", "-3"],
    ["semiperfect", "ray", "--bound", "-1"],
    ["suite", "randomized", "--trials", "-5"],
    ["suite", "randomized", "--max-dim", "-1"],
    ["suite", "randomized", "--trials", "x"],
    ["semiperfect", "loop", "--radius", "1.5"],
], ids=["radius", "bound", "trials", "max-dim", "trials-not-int", "radius-not-int"])
def test_negative_count_flags_exit_two_before_any_work(argv, capsys):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["coreflexive", "SPEC", "--object", "mat2", "--seed", "1"],
    ["dualize", "SPEC", "--object", "mat2", "--seed", "1"],
    ["unitalize", "SPEC", "--object", "nilp", "--field", "q"],
    ["counitalize", "SPEC", "--object", "mat2", "--radius", "2"],
    ["semiperfect", "ray", "--seed", "1"],
    ["run", "SPEC", "--bound", "3"],
], ids=["coreflexive-seed", "dualize-seed", "unitalize-field", "counitalize-radius",
        "semiperfect-seed", "run-bound"])
def test_flags_a_verb_does_not_read_exit_two(argv, spec_path, capsys):
    argv = [spec_path if a == "SPEC" else a for a in argv]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err


def test_zero_count_flags_keep_their_meaning(capsys):
    assert main(["semiperfect", "ray", "--side", "right", "--radius", "0",
                 "--bound", "0"]) == 1
    assert "fails at radius 0, bound 0" in capsys.readouterr().out
    assert main(["suite", "randomized", "--trials", "0", "--max-dim", "0"]) == 0


def test_dualize_both_directions(spec_path, capsys):
    assert main(["dualize", spec_path, "--object", "mat2", "--json"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block["type"] == "algebra"
    assert block["dim"] == 4
    assert block["unit"] == ["1", "0", "0", "1"]
    assert main(["dualize", spec_path, "--object", "nilp", "--json"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block["type"] == "coalgebra"
    assert block["counit"] is None
    assert block["comult"] == [[1, 0, 0, "1"]]


def test_unitalize_and_counitalize(spec_path, capsys):
    assert main(["unitalize", spec_path, "--object", "nilp", "--json"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block["dim"] == 3
    assert block["unit"] == ["0", "0", "1"]
    assert main(["counitalize", spec_path, "--object", "mat2",
                 "--json"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block["dim"] == 5
    assert block["counit"] == ["0", "0", "0", "0", "1"]


def test_object_kind_mismatch_and_missing_object(spec_path, capsys):
    assert main(["unitalize", spec_path, "--object", "q2"]) == 2
    assert main(["dualize", spec_path, "--object", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


def test_coreflexive_verb(spec_path, capsys):
    assert main(["coreflexive", spec_path, "--object", "mat2"]) == 0
    assert "PASS coreflexive" in capsys.readouterr().out
    assert main(["coreflexive", spec_path, "--object", "mat2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"bijective": True, "kernel_rank": 0,
                       "source_dim": 4, "target_dim": 4}


def test_semiperfect_verb(capsys):
    assert main(["semiperfect", "ray", "--side", "right", "--radius", "3",
                 "--bound", "50"]) == 0
    assert main(["semiperfect", "ray", "--side", "left", "--radius", "3",
                 "--bound", "50"]) == 1
    assert main(["semiperfect", "line"]) == 1
    assert main(["semiperfect", "star:3", "--side", "right"]) == 0
    assert main(["semiperfect", "banana"]) == 2
    # the centre's walk step lists every ray, so a huge star exits 2 before it
    for spec in ("star:1025", "star:99999999999"):
        assert main(["semiperfect", spec, "--radius", "0", "--bound", "0"]) == 2
        assert "1..1024 rays" in capsys.readouterr().err
    assert main(["semiperfect", "star:1024", "--radius", "0", "--bound", "0"]) == 1
    capsys.readouterr()
    assert main(["semiperfect", "loop", "--side", "both", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [r["side"] for r in rows] == ["left", "right"]
    assert all(r["status"] == "fails" for r in rows)


def test_module_entrypoint_subprocess(spec_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dualis.cli", "run", spec_path, "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
    proc = subprocess.run([sys.executable, "-m", "dualis.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_reports_byte_identical_across_processes(spec_path):
    def grab():
        proc = subprocess.run(
            [sys.executable, "-m", "dualis.cli", "run", spec_path,
             "--json", "--seed", "12"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        return proc.stdout

    assert grab() == grab()
