"""Report serialization: exact scalars, canonical bytes, text rendering."""

import json
from fractions import Fraction

import pytest

from dualis.errors import SpecParseError
from dualis.fields import GF, QQ
from dualis.linalg import SparseMatrix
from dualis.report import (
    SCHEMA,
    CheckResult,
    Report,
    matrix_json,
    parse_scalar,
    scalar_str,
)


def test_scalar_round_trip_rationals():
    for s in ["0", "7", "-3", "2/3", "-11/4", "1000000000000/7"]:
        v = parse_scalar(QQ, s)
        assert scalar_str(QQ, v) == s
    assert parse_scalar(QQ, "4/2") == Fraction(2)
    assert scalar_str(QQ, Fraction(4, 2)) == "2"


def test_scalar_round_trip_prime_field():
    F = GF(13)
    for n in range(13):
        assert parse_scalar(F, str(n)) == n
    assert parse_scalar(F, "-1") == 12
    assert parse_scalar(F, "1/2") == 7  # 2 * 7 = 14 = 1 mod 13
    assert scalar_str(F, 20) == "7"


def test_scalar_rejects_floats_and_zero_residue_denominator():
    with pytest.raises(SpecParseError):
        parse_scalar(QQ, "1.5")
    with pytest.raises(SpecParseError):
        parse_scalar(QQ, "1/0")
    with pytest.raises(SpecParseError):
        parse_scalar(GF(5), "1/10")


def test_vector_and_matrix_json():
    M = SparseMatrix.from_rows(QQ, [[Fraction(1), Fraction(0)],
                                    [Fraction(0), Fraction(-1, 2)]])
    assert matrix_json(M) == {
        "rows": 2, "cols": 2,
        "entries": [[0, 0, "1"], [1, 1, "-1/2"]],
    }


def test_report_payload_shape_and_passed():
    checks = [
        CheckResult(1, "beta", "pass", {"n": 3}, None, 12.5),
        CheckResult(0, "alpha", "fail", {"message": "broke"},
                    {"check": "alpha", "seed": 4, "index": 0}, 1.0),
    ]
    rep = Report(4, "0.1.0", checks)
    assert not rep.passed
    payload = rep.payload()
    assert payload["schema"] == SCHEMA
    assert payload["seed"] == 4
    assert [c["index"] for c in payload["checks"]] == [0, 1]
    assert "duration_ms" not in payload["checks"][0]
    assert payload["checks"][0]["replay"]["check"] == "alpha"
    assert "replay" not in payload["checks"][1]
    timed = rep.payload(with_timings=True)
    assert timed["checks"][1]["duration_ms"] == 12.5


def test_canonical_json_is_timing_free_and_stable():
    a = Report(0, "0.1.0", [CheckResult(0, "x", "pass", {}, None, 5.0)])
    b = Report(0, "0.1.0", [CheckResult(0, "x", "pass", {}, None, 99.0)])
    assert a.canonical_json() == b.canonical_json()
    parsed = json.loads(a.canonical_json())
    assert parsed["passed"] is True


def test_to_text_lines():
    rep = Report(0, "0.1.0", [
        CheckResult(0, "good", "pass"),
        CheckResult(1, "bad", "fail", {"message": "nope"}),
        CheckResult(2, "ugly", "error", {"message": "TypeError: x"}),
    ])
    lines = rep.to_text().splitlines()
    assert lines[0] == "PASS [0] good"
    assert lines[1] == "FAIL [1] bad: nope"
    assert lines[2].startswith("ERROR [2] ugly")
    assert "FAILURES present" in lines[3]
    empty = Report(0, "0.1.0", [])
    assert empty.passed
    assert "all checks passed (0 checks)" in empty.to_text()
