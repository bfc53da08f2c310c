"""Built-in batteries: determinism, vacuous knobs, runner behavior."""

import json

import pytest

from dualis.errors import DualisError
from dualis.suite import (
    CRITERIA,
    CriterionFailure,
    RandomKnobs,
    SuiteKnobs,
    _run_items,
    builtin_suite,
    corpus_coalgebras,
)


def test_unknown_suite_name():
    with pytest.raises(DualisError):
        builtin_suite("no-such-battery")


def test_randomized_suite_passes_and_is_deterministic():
    knobs = RandomKnobs(trials=15, max_dim=4)
    a = builtin_suite("randomized", seed=1, knobs=knobs)
    b = builtin_suite("randomized", seed=1, knobs=knobs)
    assert a.passed
    assert [c.name for c in a.checks] == [
        "algebras-validate", "double-dual-identity", "closures-idempotent",
        "conjugation-iso", "adjunction-lifts"]
    assert a.canonical_json() == b.canonical_json()
    c = builtin_suite("randomized", seed=2, knobs=knobs)
    assert a.canonical_json() != c.canonical_json()


def test_randomized_dims_knob_zero_is_vacuous_pass():
    rep = builtin_suite("randomized", seed=1, knobs=RandomKnobs(max_dim=0))
    assert rep.passed
    assert rep.checks == []
    rep = builtin_suite("randomized", seed=1, knobs=RandomKnobs(trials=0))
    assert rep.passed and rep.checks == []


def test_randomized_single_field_knob():
    rep = builtin_suite("randomized", seed=4,
                        knobs=RandomKnobs(trials=8, field="fp:3"))
    assert rep.passed


def test_criteria_registry_is_the_documented_battery():
    assert [name for name, _ in CRITERIA] == [
        "counitalization-adjunction",
        "dual-of-counitalization",
        "dual-of-unitalization",
        "generated-closures",
        "lattice-coincidence",
        "pathdual-corpus",
        "incidencedual-posets",
        "linearly-recursive",
        "evaluation-bijective",
        "semiperfect-cross-validation",
        "counit-recovered",
        "hopf-selfduality",
    ]


def test_paper_theorems_smoke_at_reduced_knobs():
    knobs = SuiteKnobs(triples=6, coalgebras=6, algebras=6,
                       closure_trials=10, lattice_corpus=4,
                       lattice_samples=20, quivers=10, poset_samples=4,
                       corpus_min=20)
    rep = builtin_suite("paper-theorems", seed=5, knobs=knobs)
    assert rep.passed, rep.to_text()
    assert len(rep.checks) == 12
    rep2 = builtin_suite("paper-theorems", seed=5, knobs=knobs)
    assert rep.canonical_json() == rep2.canonical_json()


def test_runner_captures_failures_and_errors_in_order():
    def ok(rng):
        return True, {"n": rng.randrange(10)}

    def fails(rng):
        return False, {"message": "wrong"}

    def raises_domain(rng):
        raise CriterionFailure("bad instance", {"which": 3})

    def raises_bug(rng):
        raise RuntimeError("boom")

    rep = _run_items([("a", ok), ("b", fails), ("c", raises_domain),
                      ("d", raises_bug)], seed=9)
    assert [c.verdict for c in rep.checks] == \
        ["pass", "fail", "fail", "error"]
    assert rep.checks[0].replay is None
    assert rep.checks[1].replay == {"check": "b", "seed": 9, "index": 1}
    assert rep.checks[2].replay["which"] == 3
    assert "boom" in rep.checks[3].details["message"]
    assert not rep.passed


def test_runner_merges_replay_base():
    def fails(rng):
        return False, {}

    rep = _run_items([("x", fails, {"refs": ["obj"], "params": {"n": 1}})],
                     seed=0)
    assert rep.checks[0].replay == {
        "check": "x", "seed": 0, "index": 0,
        "refs": ["obj"], "params": {"n": 1}}


def test_runner_results_are_order_stable_regardless_of_finish_order():
    import time

    def slow(rng):
        time.sleep(0.05)
        return True, {"slot": "slow"}

    def fast(rng):
        return True, {"slot": "fast"}

    rep = _run_items([("slow", slow), ("fast", fast)], seed=0)
    assert [c.name for c in rep.checks] == ["slow", "fast"]
    assert [c.index for c in rep.checks] == [0, 1]


def test_corpus_meets_size_floor_and_mixes_kinds():
    knobs = SuiteKnobs()
    from random import Random
    corpus = corpus_coalgebras(knobs, Random("corpus-probe"))
    assert len(corpus) >= knobs.corpus_min
    labels = {label.split("-")[0] for label, _ in corpus}
    assert {"random", "path", "incidence", "comatrix"} <= labels
    counital = sum(1 for _, C in corpus if C.counit is not None)
    assert counital >= 150
    assert any(C.counit is None for _, C in corpus)


def test_canonical_json_has_no_floats():
    rep = builtin_suite("randomized", seed=0,
                        knobs=RandomKnobs(trials=5, max_dim=3))
    text = rep.canonical_json()
    parsed = json.loads(text)

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(parsed)
