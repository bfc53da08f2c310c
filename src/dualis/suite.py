"""Built-in verification suites and the serial check runner.

The paper-theorems suite is the fixed acceptance battery: twelve named
criteria, each deterministic given the seed.  The randomized suite draws
fresh structures at the caller's knobs and re-checks the structural
invariants on them.  Check functions either return a details dict or raise
CriterionFailure carrying a replayable input block; anything else that
escapes is reported as an error verdict.

Every random trial of either suite, apart from criterion 5's lattice
corpus, runs through each_trial as a predicate prop(knobs, F, rng) on a
Random(key) of its own, key = f"{base}:{F.name()}:{t}" with base drawn
once from the check's generator.  A trial that raises adds "trial" (the
predicate's name), "field" and "key" to its verdict's replay block, as do
criteria 9 and 11 for a drawn corpus instance, so one trial re-runs alone,
without the trials before it: replay_trial(report.checks[i].replay) raises
as it did (a corpus trial returns the instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from time import perf_counter

from . import __version__
from .algebra import unitalize
from .coalgebra import (
    comatrix,
    comatrix_cover,
    counital_lift,
    counitalize,
    dual_algebra,
    dual_coalgebra,
    dual_unitalization_iso,
    subcoalgebra_generated,
)
from .combinat import (
    FiniteTemplate,
    Quiver,
    all_posets_up_to_iso,
    incidence_coalgebra,
    make_template,
    path_coalgebra,
    verify_incidencedual_iso,
    verify_pathdual_iso,
)
from .comodule import lattice_agreement_check, subcomodule_generated
from .errors import DualisError
from .fields import GF, QQ, field_from_name
from .linalg import basis_vec, dense_vec
from .finite_dual import (
    LinRec,
    NotWithinBound,
    delta_of_functional,
    linrec_analyze,
    polynomial_algebra,
    seq_functional,
    unital_dual_compat,
)
from .randgen import (
    conjugate_coalgebra,
    divided_power_coalgebra,
    grouplike_coalgebra,
    hopf_instances,
    rand_acyclic_quiver,
    rand_algebra,
    rand_coalgebra,
    rand_comodule,
    rand_invertible,
    rand_morphism_triple,
    rand_poset,
)
from .reflexivity import (
    counit_from_decomposition,
    decompose_injectives,
    hopf_selfdual_check,
    left_coreflexive_check,
    semiperfect_iff_injective_harness,
)
from .report import CheckResult, Report
from .specdoc import run_check


class CriterionFailure(Exception):
    def __init__(self, message: str, replay: dict | None = None):
        super().__init__(message)
        self.replay = replay or {}


@dataclass(frozen=True)
class SuiteKnobs:
    triples: int = 100
    coalgebras: int = 100
    algebras: int = 100
    closure_trials: int = 200
    lattice_corpus: int = 20
    lattice_samples: int = 100
    quivers: int = 200
    quiver_path_cap: int = 90
    poset_samples: int = 30
    linrec_terms: int = 45
    corpus_min: int = 300
    radii: tuple = (2, 3, 4, 5, 6)
    max_dim: int = 5


FIELDS = (QQ, GF(101))


def _require(holds: bool, message: str, **replay) -> None:
    if not holds:
        raise CriterionFailure(message, replay)


def each_trial(knobs, rng: Random, count: int, prop, fields=FIELDS) -> list:
    """The one trial loop: [(trial, prop(knobs, F, Random(key)))] for count
    trials, F cycling through fields.  Each key is f"{base}:{F.name()}:{t}"
    on a base drawn once from rng, so every trial has a stream of its own.
    trial is {"trial": prop's name, "field", "key"}; an exception leaves
    with it merged into its replay block, and replay_trial re-runs it."""
    base = rng.getrandbits(64)
    out = []
    for t in range(count):
        F = fields[t % len(fields)]
        trial = {"trial": prop.__name__, "field": F.name(), "key": f"{base}:{F.name()}:{t}"}
        try:
            out.append((trial, prop(knobs, F, Random(trial["key"]))))
        except Exception as e:
            e.replay = {**getattr(e, "replay", {}), **trial}
            raise
    return out


# ---------------------------------------------------------------------------
# per-trial predicates prop(knobs, F, rng): they raise on a failed trial

def random_coalgebra(knobs, F, rng):
    """A coalgebra of dim <= knobs.max_dim, counital half the time."""
    return rand_coalgebra(F, rng, max_dim=knobs.max_dim, counital=bool(rng.randrange(2)))


def random_path_coalgebra(knobs, F, rng):
    Q = rand_acyclic_quiver(rng, max_vertices=5, max_arrows=6, path_cap=30)
    return path_coalgebra(F, Q)[0]


def unique_counital_lift(knobs, F, rng):
    D, C, f = rand_morphism_triple(F, rng, max_dim=4)
    C1, proj = counitalize(C)
    g, freedom = counital_lift(f, C1, proj)
    _require(freedom == 0, f"lift not unique, freedom {freedom}")
    _require(g.counital, "lift lost the counit")


def dual_of_counitalization(knobs, F, rng):
    dual_unitalization_iso(random_coalgebra(knobs, F, rng))  # raises unless bijective


def dual_of_unitalization(knobs, F, rng):
    A = rand_algebra(F, rng, max_dim=knobs.max_dim, unital=bool(rng.randrange(2)))
    unital_dual_compat(A)  # raises unless bijective


def _seed_vector(F, rng, dim: int) -> tuple:
    """A nonzero closure seed with entries in -2..2, half the time cut to at
    most two entries: a sparse seed can take more than one round to close."""
    x = [F.from_int(rng.randint(-2, 2)) for _ in range(dim)]
    if rng.randrange(2):
        keep = rng.sample(range(dim), min(dim, rng.randint(1, 2)))
        x = [v if i in keep else F.zero for i, v in enumerate(x)]
    if all(F.is_zero(v) for v in x):
        x[0] = F.one
    return tuple(x)


def _dense_reduce(F, vecs):
    """Row-reduce a list of dense vectors, dropping zero rows."""
    out = []
    for v in vecs:
        v = list(v)
        for b in out:
            lead = next((i for i, c in enumerate(b) if not F.is_zero(c)),
                        None)
            if lead is not None and not F.is_zero(v[lead]):
                r = F.div(v[lead], b[lead])
                v = [F.sub(a, F.mul(r, c)) for a, c in zip(v, b)]
        if any(not F.is_zero(c) for c in v):
            lead = next(i for i, c in enumerate(v) if not F.is_zero(c))
            v = [F.div(c, v[lead]) for c in v]
            out.append(v)
    return out


def _closure_oracle(F, dim: int, x, terms, flips) -> int:
    """Brute-force dimension of the smallest space holding x and, with each
    vector v, the dense legs of terms(v) = {(i, j): c}: one vector sum_j c e_j
    per i, and for a flip the same with (i, j) read as (j, i)."""
    def legs(v):
        out: dict = {}
        for flip in flips:
            for key, c in terms(v).items():
                i, j = reversed(key) if flip else key
                out.setdefault((flip, i), [F.zero] * dim)[j] = c
        return list(out.values())
    span = _dense_reduce(F, [list(x)])
    while True:
        new = _dense_reduce(F, span + [w for v in span for w in legs(tuple(v))])
        if len(new) == len(span):
            return len(span)
        span = new


def closures_match_oracles(knobs, F, rng) -> bool:
    """Generated subcoalgebra and subcomodule against the dense oracles;
    True when the coalgebra was counital and its comatrix cover checked."""
    C = random_coalgebra(knobs, F, rng)
    x = _seed_vector(F, rng, C.dim)
    D, _ = subcoalgebra_generated(C, x)
    want = _closure_oracle(F, C.dim, x, C.comult_of, (False, True))
    _require(D.dim == want, f"closure dim {D.dim} vs oracle {want}")
    M = rand_comodule(rng, C)
    y = _seed_vector(F, rng, M.dim)
    N, _ = subcomodule_generated(M, y)
    want = _closure_oracle(F, M.dim, y, M.coaction_of, (True,))
    _require(N.dim == want, f"subcomodule dim {N.dim} vs oracle {want}")
    if C.is_counital():
        comatrix_cover(C)
    return C.is_counital()


def pathdual_random_quiver(knobs, F, rng) -> int:
    Q = rand_acyclic_quiver(rng, path_cap=knobs.quiver_path_cap)
    return verify_pathdual_iso(F, Q)[0].source.dim


def incidencedual_six_poset(knobs, F, rng):
    P = rand_poset(rng, 6)
    for G in FIELDS:
        verify_incidencedual_iso(G, P)


# ---------------------------------------------------------------------------
# the twelve criteria

def c01_counitalization_adjunction(knobs: SuiteKnobs, rng: Random) -> dict:
    lifts = each_trial(knobs, rng, len(FIELDS) * knobs.triples, unique_counital_lift)
    return {"lifts": len(lifts), "fields": [F.name() for F in FIELDS]}


def c02_dual_of_counitalization(knobs: SuiteKnobs, rng: Random) -> dict:
    done = each_trial(knobs, rng, len(FIELDS) * knobs.coalgebras, dual_of_counitalization)
    return {"isomorphisms": len(done)}


def c03_dual_of_unitalization(knobs: SuiteKnobs, rng: Random) -> dict:
    done = each_trial(knobs, rng, len(FIELDS) * knobs.algebras, dual_of_unitalization)
    return {"isomorphisms": len(done)}


def c04_generated_closures(knobs: SuiteKnobs, rng: Random) -> dict:
    covered = each_trial(knobs, rng, knobs.closure_trials, closures_match_oracles)
    return {"trials": len(covered), "comatrix_covers": sum(c for _, c in covered),
            "comodule_trials": len(covered)}


def c05_lattice_coincidence(knobs: SuiteKnobs, rng: Random) -> dict:
    F2 = GF(2)
    exhaustive_checked = 0
    corpus = []
    while len(corpus) < knobs.lattice_corpus:
        kind = len(corpus) % 4
        if kind == 0:
            C = grouplike_coalgebra(F2, 1 + len(corpus) % 3)
        elif kind == 1:
            C = divided_power_coalgebra(F2, 1 + len(corpus) % 2)
        elif kind == 2:
            C = comatrix(F2, 2)
        else:
            C, _ = conjugate_coalgebra(
                divided_power_coalgebra(F2, 1),
                rand_invertible(F2, rng, 2))
        copies = 1 if C.dim > 2 else 1 + len(corpus) % 2
        M = rand_comodule(rng, C, copies=copies)
        if M.dim > 4:
            M = rand_comodule(rng, C, copies=1)
        if M.dim > 4:
            continue
        corpus.append(M)
    for n, M in enumerate(corpus):
        out = lattice_agreement_check(M, seed=rng.randrange(1 << 30))
        _require(out["exhaustive"], "corpus instance was not checked exhaustively",
                 instance=n, dim=M.dim)
        _require(out["agree"] == out["checked"], "lattices disagree", instance=n)
        exhaustive_checked += out["checked"]
    sampled = 0
    for n in range(knobs.lattice_corpus):
        C = rand_coalgebra(QQ, Random(f"c05:{n}"), max_dim=3, counital=True)
        M = rand_comodule(rng, C, copies=1)
        out = lattice_agreement_check(M, seed=rng.randrange(1 << 30),
                                      samples=knobs.lattice_samples)
        _require(out["agree"] == out["checked"], "sampled lattices disagree", instance=n)
        sampled += out["checked"]
    return {"exhaustive_subspaces": exhaustive_checked, "sampled_subspaces": sampled}


def c06_pathdual_corpus(knobs: SuiteKnobs, rng: Random) -> dict:
    t0 = perf_counter()
    dims = [d for _, d in each_trial(knobs, rng, knobs.quivers, pathdual_random_quiver, (QQ,))]
    elapsed = perf_counter() - t0
    _require(elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s")
    return {"quivers": len(dims), "max_dim": max(dims), "total_dim": sum(dims)}


def c07_incidencedual_posets(knobs: SuiteKnobs, rng: Random) -> dict:
    exhaustive = [P for n in range(1, 6) for P in all_posets_up_to_iso(n)]
    for P in exhaustive:
        verify_incidencedual_iso(QQ, P)
    sampled = each_trial(knobs, rng, knobs.poset_samples, incidencedual_six_poset, (QQ,))
    return {"exhaustive": len(exhaustive), "sampled_at_6": len(sampled)}


def c08_linearly_recursive(knobs: SuiteKnobs, rng: Random) -> dict:
    terms = knobs.linrec_terms
    fib = [0, 1]
    while len(fib) < terms:
        fib.append(fib[-1] + fib[-2])
    out = linrec_analyze(QQ, fib, 10)
    _require(isinstance(out, LinRec) and out.order == 2, "Fibonacci recurrence not found")
    _require(list(out.poly) == [-1, -1, 1], f"wrong minimal polynomial {out.poly}")
    G = polynomial_algebra(QQ, terms - 1)
    f = seq_functional(QQ, fib)
    pairs = delta_of_functional(G, f, 4)
    _require(not isinstance(pairs, NotWithinBound), "Fibonacci delta fell outside its bound")
    for a in range(21):
        for b in range(21 - a):
            lhs = f({(a + b, 0): QQ.one})
            rhs = QQ.zero
            for g, h in pairs:
                rhs = QQ.add(rhs, QQ.mul(g({(a, 0): QQ.one}),
                                         h({(b, 0): QQ.one})))
            _require(lhs == rhs, f"delta identity fails at degrees {a},{b}")
    const = linrec_analyze(QQ, [3] * terms, 10)
    _require(isinstance(const, LinRec) and const.order == 1 and list(const.poly) == [-1, 1],
             "constant sequence recurrence wrong")
    fact = [1]
    for n in range(1, terms):
        fact.append(fact[-1] * n)
    worse = linrec_analyze(QQ, fact, 15)
    _require(isinstance(worse, NotWithinBound) and worse.dim == 16,
             "factorial sequence was not rejected at bound 15")
    return {"fibonacci_order": 2, "delta_pairs": len(pairs),
            "products_checked": sum(21 - a for a in range(21))}


def corpus_coalgebras(knobs: SuiteKnobs, rng: Random) -> list:
    """The shared instance corpus for criteria 9 and 11: (label, C, trial),
    where trial is the each_trial block of a drawn instance and {} for a
    fixed one."""
    drawn = each_trial(knobs, rng, len(FIELDS) * knobs.coalgebras, random_coalgebra)
    corpus = [("random", C, trial) for trial, C in drawn]
    drawn = each_trial(knobs, rng, 40, random_path_coalgebra, (QQ,))
    corpus += [("path", C, trial) for trial, C in drawn]
    fixed = [("incidence", incidence_coalgebra(QQ, P)[0])
             for n in range(1, 5) for P in all_posets_up_to_iso(n)]
    fixed += [(name, H.coalgebra) for F in FIELDS for name, H in hopf_instances(F)]
    fixed += [(f"{t}-r{r}", path_coalgebra(QQ, make_template(t).truncate(r), max_len=r)[0])
              for r in knobs.radii for t in ("ray", "line", "star:2", "loop")]
    for F in FIELDS:
        for n in (1, 2):
            fixed.append((f"comatrix-{n}", comatrix(F, n)))
        for n in (2, 3, 4):
            fixed.append((f"divided-{n}", divided_power_coalgebra(F, n)))
            fixed.append((f"grouplike-{n}", grouplike_coalgebra(F, n)))
    return corpus + [(label, C, {}) for label, C in fixed]


def c09_evaluation_bijective(knobs: SuiteKnobs, rng: Random) -> dict:
    corpus = corpus_coalgebras(knobs, rng)
    _require(len(corpus) >= knobs.corpus_min, f"corpus too small: {len(corpus)}")
    for n, (label, C, trial) in enumerate(corpus):
        rep = left_coreflexive_check(C)
        _require(rep.bijective and rep.kernel_rank == 0 and rep.source_dim == rep.target_dim,
                 "evaluation not bijective", instance=n, label=label, **trial)
    return {"instances": len(corpus)}


def c10_semiperfect_cross_validation(knobs: SuiteKnobs, rng: Random) -> dict:
    finite = FiniteTemplate(Quiver((0, 1, 2), ((0, 1), (1, 2))))
    # name, template, and the expected verdicts on the right and left sides
    templates = [("finite", finite, "holds", "holds"),
                 ("ray", make_template("ray"), "holds", "fails"),
                 ("line", make_template("line"), "fails", "fails"),
                 ("star", make_template("star:3"), "holds", "fails"),
                 ("loop", make_template("loop"), "fails", "fails")]
    records = 0
    for name, template, right, left in templates:
        out = semiperfect_iff_injective_harness(template, radii=knobs.radii)
        _require(not out["disagreements"], f"{name}: {out['disagreements']} disagreements",
                 template=name)
        for rec in out["records"]:
            want = right if rec["side"] == "right" else left
            _require(rec["status"] == want, f"{name} {rec['side']} r{rec['radius']}: "
                     f"{rec['status']} != {want}", template=name)
            records += 1
    return {"templates": len(templates), "records": records,
            "line_fails_both_sides": True}


def c11_counit_recovered(knobs: SuiteKnobs, rng: Random) -> dict:
    corpus = corpus_coalgebras(knobs, rng)
    done = 0
    skipped = 0
    for n, (label, C, trial) in enumerate(corpus):
        if not C.is_counital():
            skipped += 1
            continue
        dec = decompose_injectives(C, "right")
        total = counit_from_decomposition(dec)
        for k in range(C.dim):
            acc = C.field.zero
            for e in dec.idempotents:
                acc = C.field.add(acc, e[k])
            _require(acc == C.counit[k], "counit composite mismatch", instance=n,
                     label=label, **trial)
        _require(total == tuple(C.counit), "recovered counit differs", instance=n,
                 label=label, **trial)
        done += 1
    for radius in knobs.radii:
        Q = make_template("ray").truncate(radius)
        C, flat = path_coalgebra(QQ, Q, max_len=radius)
        verts = len(Q.vertices)
        idems = [basis_vec(QQ, C.dim, i) for i in range(verts)]
        dec = decompose_injectives(C, "right", idempotents=idems)
        _require(counit_from_decomposition(dec) == tuple(C.counit),
                 f"ray truncation radius {radius} counit differs")
        done += 1
    return {"verified": done, "skipped_non_counital": skipped}


def c12_hopf_selfduality(knobs: SuiteKnobs, rng: Random) -> dict:
    checked = []
    for F in FIELDS:
        for name, H in hopf_instances(F):
            out = hopf_selfdual_check(H)
            _require(out["double_dual_identity"] and out["evaluation_bijective"]
                     and out["counit_recovered"], f"{name} over {F.name()} failed",
                     instance=name)
            checked.append(f"{name}:{F.name()}")
    return {"instances": checked}


CRITERIA = [
    ("counitalization-adjunction", c01_counitalization_adjunction),
    ("dual-of-counitalization", c02_dual_of_counitalization),
    ("dual-of-unitalization", c03_dual_of_unitalization),
    ("generated-closures", c04_generated_closures),
    ("lattice-coincidence", c05_lattice_coincidence),
    ("pathdual-corpus", c06_pathdual_corpus),
    ("incidencedual-posets", c07_incidencedual_posets),
    ("linearly-recursive", c08_linearly_recursive),
    ("evaluation-bijective", c09_evaluation_bijective),
    ("semiperfect-cross-validation", c10_semiperfect_cross_validation),
    ("counit-recovered", c11_counit_recovered),
    ("hopf-selfduality", c12_hopf_selfduality),
]


# ---------------------------------------------------------------------------
# randomized property suite

@dataclass(frozen=True)
class RandomKnobs:
    trials: int = 50
    max_dim: int = 4
    field: str | None = None


def algebras_validate(knobs, F, rng):
    A = rand_algebra(F, rng, max_dim=knobs.max_dim, unital=bool(rng.randrange(2)))
    _require(unitalize(A)[0].dim == A.dim + 1, "unitalization dimension wrong")


def double_dual_identity(knobs, F, rng):
    C = random_coalgebra(knobs, F, rng)
    D = dual_coalgebra(dual_algebra(C))
    _require(D.comult == C.comult and D.counit == C.counit, "double dual changed the tables")


def closures_idempotent(knobs, F, rng):
    C = rand_coalgebra(F, rng, max_dim=knobs.max_dim)
    D, incl = subcoalgebra_generated(C, _seed_vector(F, rng, C.dim))
    y = dense_vec(F, C.dim, incl.matrix.columns()[0])
    _require(subcoalgebra_generated(C, y)[0].dim <= D.dim, "closure grew on re-generation")


def conjugation_iso(knobs, F, rng):
    C = rand_coalgebra(F, rng, max_dim=knobs.max_dim)
    P = rand_invertible(F, rng, C.dim)
    _require(conjugate_coalgebra(C, P)[1].is_bijective(), "conjugation not bijective")


def adjunction_lifts(knobs, F, rng):
    D, C, f = rand_morphism_triple(F, rng, max_dim=knobs.max_dim)
    C1, proj = counitalize(C)
    _require(counital_lift(f, C1, proj)[1] == 0, "non-unique lift")


# the randomized suite's properties, each named as its predicate with dashes
RANDOMIZED = (algebras_validate, double_dual_identity, closures_idempotent, conjugation_iso,
              adjunction_lifts)

# every predicate each_trial runs, by the name a failure block gives it
TRIALS = {p.__name__: p for p in (
    random_coalgebra, random_path_coalgebra, unique_counital_lift, dual_of_counitalization,
    dual_of_unitalization, closures_match_oracles, pathdual_random_quiver,
    incidencedual_six_poset, *RANDOMIZED)}


def _randomized_items(knobs: RandomKnobs):
    if knobs.trials <= 0 or knobs.max_dim <= 0:
        return []
    fields = FIELDS if knobs.field is None else (field_from_name(knobs.field),)

    def run(prop):
        return lambda rng: (True, {"trials": len(each_trial(knobs, rng, knobs.trials, prop,
                                                            fields))})
    return [(prop.__name__.replace("_", "-"), run(prop)) for prop in RANDOMIZED]


def replay_trial(block: dict, knobs=None):
    """Re-run, alone, the trial a replay block names; it raises as it did.
    knobs default to the defaults of the block's suite."""
    knobs = knobs or (SuiteKnobs() if block["check"] in dict(CRITERIA) else RandomKnobs())
    return TRIALS[block["trial"]](knobs, field_from_name(block["field"]), Random(block["key"]))


# ---------------------------------------------------------------------------
# runner

def _run_items(items, seed: int) -> Report:
    """Run (name, fn(rng) -> (ok, details)[, replay_base]) items one after
    another, in order; each item gets its own seeded generator, so a result
    does not depend on the items before it.  replay_base is merged into the
    replay block on fail/error."""

    def work(ix: int, name: str, fn, base: dict):
        rng = Random(f"{seed}:{ix}:{name}")
        block = {"check": name, "seed": seed, "index": ix, **base}
        t0 = perf_counter()
        try:
            ok, details = fn(rng)
            verdict = "pass" if ok else "fail"
            replay = None if ok else block
        except Exception as e:  # noqa: BLE001 - report, never crash the run
            failed = isinstance(e, CriterionFailure)
            verdict = "fail" if failed else "error"
            details = {"message": str(e) if failed else f"{type(e).__name__}: {e}"}
            replay = {**block, **getattr(e, "replay", {})}
        ms = (perf_counter() - t0) * 1000.0
        return CheckResult(ix, name, verdict, details, replay, ms)

    results = [work(ix, item[0], item[1], item[2] if len(item) > 2 else {})
               for ix, item in enumerate(items)]
    return Report(seed, __version__, results)


def builtin_suite(name: str, seed: int = 0, knobs=None) -> Report:
    """Run a named suite; paper-theorems is the fixed acceptance battery."""
    if name == "paper-theorems":
        sk = knobs if isinstance(knobs, SuiteKnobs) else SuiteKnobs()
        items = [(cname, (lambda fn: lambda rng: (True, fn(sk, rng)))(fn))
                 for cname, fn in CRITERIA]
        return _run_items(items, seed)
    if name == "randomized":
        rk = knobs if isinstance(knobs, RandomKnobs) else RandomKnobs()
        return _run_items(_randomized_items(rk), seed)
    raise DualisError(f"unknown suite {name!r}")


def run_document(doc, seed: int = 0) -> Report:
    """Execute every check of a parsed spec document."""
    items = [(check.name,
              (lambda c: lambda rng: run_check(doc, c, rng))(check),
              {"refs": list(check.refs), "params": dict(check.params)})
             for check in doc.checks]
    return _run_items(items, seed)
