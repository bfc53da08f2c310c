"""Acceptance gate: thirteen exact criteria, one test line per criterion.

Criteria 1 through 12 read their verdicts, details and durations from one
`dualis suite paper-theorems --seed 0` run, so a green gate here is a
passing battery run.  Every comparison is exact; there are no tolerances
anywhere in the suite.  Criterion 13 runs the battery once more and
compares the canonical report bytes.  The randomized suite's seed-0 bytes
are pinned beside it.
"""

import hashlib

import pytest

from dualis.suite import builtin_suite


@pytest.fixture(scope="module")
def battery():
    return builtin_suite("paper-theorems", seed=0)


@pytest.fixture
def run_criterion(battery):
    """(details, seconds) of a criterion that passed in the seed-0 run."""
    def run(name):
        check = next(c for c in battery.checks if c.name == name)
        assert check.passed, check.details
        return check.details, check.duration_ms / 1000.0
    return run


def test_criterion_01_counitalization_adjunction(run_criterion):
    details, elapsed = run_criterion("counitalization-adjunction")
    assert details["lifts"] == 200
    assert details["fields"] == ["q", "fp:101"]
    assert elapsed < 10.0


def test_criterion_02_dual_of_counitalization(run_criterion):
    details, _ = run_criterion("dual-of-counitalization")
    assert details["isomorphisms"] >= 100


def test_criterion_03_dual_of_unitalization(run_criterion):
    details, _ = run_criterion("dual-of-unitalization")
    assert details["isomorphisms"] >= 100


def test_criterion_04_generated_closures_match_oracles(run_criterion):
    details, _ = run_criterion("generated-closures")
    assert details["trials"] == 200
    assert details["comodule_trials"] == 200
    assert details["comatrix_covers"] > 0


def test_criterion_05_lattice_coincidence(run_criterion):
    details, _ = run_criterion("lattice-coincidence")
    assert details["exhaustive_subspaces"] > 0
    assert details["sampled_subspaces"] > 0


def test_criterion_06_path_dual_quiver_corpus(run_criterion):
    details, elapsed = run_criterion("pathdual-corpus")
    assert details["quivers"] >= 200
    assert elapsed < 60.0


def test_criterion_07_incidence_dual_posets(run_criterion):
    details, _ = run_criterion("incidencedual-posets")
    assert details["exhaustive"] == 1 + 2 + 5 + 16 + 63
    assert details["sampled_at_6"] > 0


def test_criterion_08_linearly_recursive_recognition(run_criterion):
    details, _ = run_criterion("linearly-recursive")
    assert details["fibonacci_order"] == 2
    assert details["products_checked"] == sum(21 - a for a in range(21))


def test_criterion_09_evaluation_bijective_on_corpus(run_criterion):
    details, _ = run_criterion("evaluation-bijective")
    assert details["instances"] >= 300


def test_criterion_10_semiperfect_cross_validation(run_criterion):
    details, _ = run_criterion("semiperfect-cross-validation")
    assert details["templates"] == 5
    assert details["records"] == 50
    assert details["line_fails_both_sides"] is True


def test_criterion_11_counit_recovered_from_blocks(run_criterion):
    details, _ = run_criterion("counit-recovered")
    assert details["verified"] > 150


def test_criterion_12_hopf_self_duality(run_criterion):
    details, _ = run_criterion("hopf-selfduality")
    assert len(details["instances"]) == 8


def test_criterion_13_reports_byte_identical(battery):
    first = battery
    second = builtin_suite("paper-theorems", seed=0)
    assert first.passed
    assert second.passed
    assert first.canonical_json() == second.canonical_json()
    # the seed-0 bytes themselves; a change that alters them on purpose
    # updates this digest and says so
    assert hashlib.sha256(first.canonical_json().encode()).hexdigest() == \
        "90b5a22ee0ccc901b9d5e8b1d117a5009c33a32055120b80a4a00d5ae7197f21"


def test_randomized_report_digest():
    report = builtin_suite("randomized", seed=0)
    assert report.passed
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == \
        "0d19e4510f3024a7372f20798b13a335e5dc0637b9fc8e8b3386b0690fe61d16"
