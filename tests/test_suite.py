"""Built-in batteries: determinism, vacuous knobs, runner behavior, and
trials that replay alone."""

import ast
import json
from pathlib import Path
from random import Random
from time import perf_counter

import pytest

from dualis import algebra, linalg, randgen, suite
from dualis.errors import DualisError
from dualis.fields import field_from_name
from dualis.suite import (
    CRITERIA,
    CriterionFailure,
    RandomKnobs,
    SuiteKnobs,
    _run_items,
    builtin_suite,
    c01_counitalization_adjunction,
    corpus_coalgebras,
    replay_trial,
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
    labels = {label.split("-")[0] for label, _, _ in corpus}
    assert {"random", "path", "incidence", "comatrix"} <= labels
    counital = sum(1 for _, C, _ in corpus if C.counit is not None)
    assert counital >= 150
    assert any(C.counit is None for _, C, _ in corpus)
    # a drawn instance carries the trial that rebuilds it, a fixed one none
    for label, C, trial in corpus:
        assert (set(trial) == {"trial", "field", "key"}) == (label in ("random", "path"))
    label, C, trial = corpus[7]
    again = replay_trial({"check": "evaluation-bijective", **trial}, knobs)
    assert (again.comult, again.counit) == (C.comult, C.counit)


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


def _fingerprint(f):
    return repr((sorted(f.matrix.entries.items()), sorted(f.source.comult.items()),
                 sorted(f.target.comult.items())))


def test_a_failing_trial_replays_alone(monkeypatch):
    # a fault that fires on one drawn morphism only, far into the run
    knobs = SuiteKnobs(triples=6)
    item = [("counitalization-adjunction",
             lambda rng: (True, c01_counitalization_adjunction(knobs, rng)))]
    real = suite.counital_lift
    seen = []

    def observed(f, C1, proj):
        seen.append(_fingerprint(f))
        return real(f, C1, proj)

    monkeypatch.setattr(suite, "counital_lift", observed)
    assert _run_items(item, seed=4).passed
    assert len(seen) == 12
    # the last morphism drawn once, well after the first trial
    target = next(fp for fp in reversed(seen) if seen.count(fp) == 1)
    assert seen.index(target) >= 6

    def faulty(f, C1, proj):
        seen.append(_fingerprint(f))
        g, freedom = real(f, C1, proj)
        return g, (1 if seen[-1] == target else freedom)

    monkeypatch.setattr(suite, "counital_lift", faulty)
    result = _run_items(item, seed=4).checks[0]
    assert result.verdict == "fail"
    assert result.details == {"message": "lift not unique, freedom 1"}
    block = result.replay
    assert block["trial"] == "unique_counital_lift"
    assert block["field"] in ("q", "fp:101")
    # the key alone re-runs that trial: one lift, the same failure
    seen.clear()
    t0 = perf_counter()
    with pytest.raises(CriterionFailure, match="lift not unique, freedom 1"):
        suite.unique_counital_lift(knobs, field_from_name(block["field"]), Random(block["key"]))
    assert perf_counter() - t0 < 1.0
    assert seen == [target]
    with pytest.raises(CriterionFailure, match="freedom 1"):
        replay_trial(block, knobs)


def test_one_round_closure_fails_c04(monkeypatch):
    # c04's sparse seeds need more than one round of Delta legs or rho
    # columns to reach the closure; the battery's seed-0 run must catch a
    # close() that stops after one
    def one_round(self, images):
        for row in list(self._int_rows().values()):
            for w in images(row):
                self.add(w)
        return self

    monkeypatch.setattr(linalg.RowSpace, "close", one_round)
    monkeypatch.setattr(suite, "CRITERIA", [
        (name, fn if name == "generated-closures" else (lambda knobs, rng: {}))
        for name, fn in CRITERIA])
    result = builtin_suite("paper-theorems", seed=0).checks[3]
    assert result.name == "generated-closures"
    # the first short closure is caught by subcoalgebra_on_span's
    # certificate, before the oracle compares dimensions
    assert result.verdict == "error"
    assert result.details == {"message": "ValidationError: span is not a subcoalgebra"}
    assert {"trial", "field", "key"} <= set(result.replay)
    with pytest.raises(Exception, match=result.details["message"].split(": ")[-1]):
        replay_trial(result.replay)


def test_shared_matrix_algebras_survive_a_battery(monkeypatch):
    # matrix_algebra hands every caller one shared instance per (F, n), so a
    # caller that changed a table would change it for every later caller
    cached = algebra.matrix_algebra
    seen = {}

    def spy(F, n):
        seen[(F, n)] = cached(F, n)
        return seen[(F, n)]

    for module in (algebra, randgen):
        monkeypatch.setattr(module, "matrix_algebra", spy)
    assert builtin_suite("paper-theorems", seed=0).passed
    assert len(seen) >= 5, sorted(seen)
    for (F, n), M in seen.items():
        assert M == cached.__wrapped__(F, n), (F, n)


_FIELDS = {"FIELDS", "fields"}


def _loops(fn):
    """(iterables, node) of each for statement and comprehension in fn."""
    for node in ast.walk(fn):
        if isinstance(node, ast.For):
            yield [node.iter], node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            yield [g.iter for g in node.generators], node


def _is_range(it) -> bool:
    return isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range"


def _counts_own_trials(fn) -> bool:
    """Does fn pick fields by index, loop over the fields around a range
    loop, or, handed a check's generator as (knobs, rng), draw from it in a
    range loop?"""
    if any(isinstance(n, ast.Subscript) and getattr(n.value, "id", None) in _FIELDS
           for n in ast.walk(fn)):
        return True
    takes_stream = [a.arg for a in fn.args.args] == ["knobs", "rng"]
    for iters, node in _loops(fn):
        inner = [i for its, _ in _loops(node) for i in its]  # node's own iters too
        if any(getattr(i, "id", None) in _FIELDS for i in iters) and any(map(_is_range, inner)):
            return True
        if takes_stream and any(map(_is_range, iters)) and any(
                getattr(n, "id", None) == "rng" for n in ast.walk(node)):
            return True
    return False


def test_random_trials_go_through_each_trial():
    # every Random of the suites is built in the one trial loop, in the
    # runner, by replay_trial or as c05's fixed per-instance coalgebras, and
    # no other function runs trials over the fields or the check's stream
    # itself; c05's fixed corpus of lattice instances is the one exception
    allowed = {"each_trial", "_run_items", "replay_trial", "c05_lattice_coincidence"}
    makers, own_loops = set(), set()
    tree = ast.parse(Path(suite.__file__).read_text(encoding="utf-8"))
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Random"
               for n in ast.walk(fn)):
            makers.add(fn.name)
        if _counts_own_trials(fn):
            own_loops.add(fn.name)
    assert "each_trial" in makers and makers <= allowed, sorted(makers - allowed)
    assert own_loops == {"each_trial", "c05_lattice_coincidence"}, sorted(own_loops)
