"""Built-in verification suites and the serial check runner.

The paper-theorems suite is the fixed acceptance battery: twelve named
criteria, each deterministic given the seed.  The randomized suite draws
fresh structures at the caller's knobs and re-checks the structural
invariants on them.  Check functions either return a details dict or raise
CriterionFailure carrying a replayable input block; anything else that
escapes is reported as an error verdict.
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
from .fields import GF, QQ
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


def _fail(name, message, **extra):
    raise CriterionFailure(message, {"criterion": name, **extra})


# ---------------------------------------------------------------------------
# the twelve criteria

def c01_counitalization_adjunction(knobs: SuiteKnobs, rng: Random) -> dict:
    lifted = 0
    for F in FIELDS:
        for n in range(knobs.triples):
            D, C, f = rand_morphism_triple(F, rng, max_dim=4)
            C1, proj = counitalize(C)
            g, freedom = counital_lift(f, C1, proj)
            if freedom != 0:
                _fail("c01", f"lift not unique, freedom {freedom}",
                      field=F.name(), trial=n)
            if not g.counital:
                _fail("c01", "lift lost the counit", field=F.name(), trial=n)
            lifted += 1
    return {"lifts": lifted, "fields": [F.name() for F in FIELDS]}


def c02_dual_of_counitalization(knobs: SuiteKnobs, rng: Random) -> dict:
    done = 0
    for F in FIELDS:
        for _ in range(knobs.coalgebras):
            C = rand_coalgebra(F, rng, max_dim=knobs.max_dim,
                               counital=bool(rng.randrange(2)))
            dual_unitalization_iso(C)  # raises unless bijective
            done += 1
    return {"isomorphisms": done}


def c03_dual_of_unitalization(knobs: SuiteKnobs, rng: Random) -> dict:
    done = 0
    for F in FIELDS:
        for _ in range(knobs.algebras):
            A = rand_algebra(F, rng, max_dim=knobs.max_dim,
                             unital=bool(rng.randrange(2)))
            unital_dual_compat(A)  # raises unless bijective
            done += 1
    return {"isomorphisms": done}


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


def _closure_oracle_coalgebra(C, x) -> int:
    """Brute-force smallest subcoalgebra dimension by dense iteration."""
    F = C.field
    span = _dense_reduce(F, [list(x)])
    while True:
        extra = []
        for v in span:
            tensor = C.comult_of(tuple(v))
            rows: dict = {}
            cols: dict = {}
            for (i, j), c in tensor.items():
                r = rows.setdefault(i, [F.zero] * C.dim)
                r[j] = F.add(r[j], c)
                cl = cols.setdefault(j, [F.zero] * C.dim)
                cl[i] = F.add(cl[i], c)
            extra.extend(rows.values())
            extra.extend(cols.values())
        new = _dense_reduce(F, span + extra)
        if len(new) == len(span):
            return len(span)
        span = new


def _closure_oracle_comodule(M, x) -> int:
    """Brute-force smallest subcomodule dimension by dense iteration."""
    F = M.coalgebra.field
    span = _dense_reduce(F, [list(x)])
    while True:
        extra = []
        for v in span:
            cols: dict = {}
            for (s, k), c in M.coaction_of(tuple(v)).items():
                col = cols.setdefault(k, [F.zero] * M.dim)
                col[s] = F.add(col[s], c)
            extra.extend(cols.values())
        new = _dense_reduce(F, span + extra)
        if len(new) == len(span):
            return len(span)
        span = new


def c04_generated_closures(knobs: SuiteKnobs, rng: Random) -> dict:
    trials = 0
    covers = 0
    while trials < knobs.closure_trials:
        F = FIELDS[trials % 2]
        C = rand_coalgebra(F, rng, max_dim=knobs.max_dim,
                           counital=bool(rng.randrange(2)))
        x = tuple(F.from_int(rng.randint(-2, 2)) for _ in range(C.dim))
        if all(F.is_zero(v) for v in x):
            x = tuple(F.one if i == 0 else F.zero for i in range(C.dim))
        D, incl = subcoalgebra_generated(C, x)
        want = _closure_oracle_coalgebra(C, x)
        if D.dim != want:
            _fail("c04", f"closure dim {D.dim} vs oracle {want}",
                  field=F.name(), trial=trials,
                  comult={str(k): {f"{i},{j}": str(v)
                                   for (i, j), v in t.items()}
                          for k, t in C.comult.items()})
        M = rand_comodule(rng, C)
        y = tuple(F.from_int(rng.randint(-2, 2)) for _ in range(M.dim))
        if all(F.is_zero(v) for v in y):
            y = tuple(F.one if i == 0 else F.zero for i in range(M.dim))
        N, _ = subcomodule_generated(M, y)
        want_m = _closure_oracle_comodule(M, y)
        if N.dim != want_m:
            _fail("c04", f"subcomodule dim {N.dim} vs oracle {want_m}",
                  field=F.name(), trial=trials)
        if C.is_counital():
            comatrix_cover(C)
            covers += 1
        trials += 1
    return {"trials": trials, "comatrix_covers": covers,
            "comodule_trials": trials}


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
        if not out["exhaustive"]:
            _fail("c05", "corpus instance was not checked exhaustively",
                  instance=n, dim=M.dim)
        if out["agree"] != out["checked"]:
            _fail("c05", "lattices disagree", instance=n)
        exhaustive_checked += out["checked"]
    sampled = 0
    for n in range(knobs.lattice_corpus):
        C = rand_coalgebra(QQ, Random(f"c05:{n}"), max_dim=3, counital=True)
        M = rand_comodule(rng, C, copies=1)
        out = lattice_agreement_check(M, seed=rng.randrange(1 << 30),
                                      samples=knobs.lattice_samples)
        if out["agree"] != out["checked"]:
            _fail("c05", "sampled lattices disagree", instance=n)
        sampled += out["checked"]
    return {"exhaustive_subspaces": exhaustive_checked,
            "sampled_subspaces": sampled}


def c06_pathdual_corpus(knobs: SuiteKnobs, rng: Random) -> dict:
    t0 = perf_counter()
    dims = []
    for n in range(knobs.quivers):
        Q = rand_acyclic_quiver(rng, path_cap=knobs.quiver_path_cap)
        alg, co = verify_pathdual_iso(QQ, Q)
        dims.append(alg.source.dim)
    elapsed = perf_counter() - t0
    if elapsed >= 60.0:
        _fail("c06", f"runtime budget exceeded: {elapsed:.1f}s")
    return {"quivers": knobs.quivers, "max_dim": max(dims),
            "total_dim": sum(dims)}


def c07_incidencedual_posets(knobs: SuiteKnobs, rng: Random) -> dict:
    checked = 0
    for n in range(1, 6):
        for P in all_posets_up_to_iso(n):
            verify_incidencedual_iso(QQ, P)
            checked += 1
    sampled = 0
    for _ in range(knobs.poset_samples):
        P = rand_poset(rng, 6)
        verify_incidencedual_iso(QQ, P)
        verify_incidencedual_iso(GF(101), P)
        sampled += 1
    return {"exhaustive": checked, "sampled_at_6": sampled}


def c08_linearly_recursive(knobs: SuiteKnobs, rng: Random) -> dict:
    terms = knobs.linrec_terms
    fib = [0, 1]
    while len(fib) < terms:
        fib.append(fib[-1] + fib[-2])
    out = linrec_analyze(QQ, fib, 10)
    if not isinstance(out, LinRec) or out.order != 2:
        _fail("c08", "Fibonacci recurrence not found")
    if list(out.poly) != [-1, -1, 1]:
        _fail("c08", f"wrong minimal polynomial {out.poly}")
    G = polynomial_algebra(QQ, terms - 1)
    f = seq_functional(QQ, fib)
    pairs = delta_of_functional(G, f, 4)
    if isinstance(pairs, NotWithinBound):
        _fail("c08", "Fibonacci delta fell outside its bound")
    for a in range(21):
        for b in range(21 - a):
            lhs = f({(a + b, 0): QQ.one})
            rhs = QQ.zero
            for g, h in pairs:
                rhs = QQ.add(rhs, QQ.mul(g({(a, 0): QQ.one}),
                                         h({(b, 0): QQ.one})))
            if lhs != rhs:
                _fail("c08", f"delta identity fails at degrees {a},{b}")
    const = linrec_analyze(QQ, [3] * terms, 10)
    if not isinstance(const, LinRec) or const.order != 1 or \
            list(const.poly) != [-1, 1]:
        _fail("c08", "constant sequence recurrence wrong")
    fact = [1]
    for n in range(1, terms):
        fact.append(fact[-1] * n)
    worse = linrec_analyze(QQ, fact, 15)
    if not isinstance(worse, NotWithinBound) or worse.dim != 16:
        _fail("c08", "factorial sequence was not rejected at bound 15")
    return {"fibonacci_order": 2, "delta_pairs": len(pairs),
            "products_checked": sum(21 - a for a in range(21))}


def corpus_coalgebras(knobs: SuiteKnobs, rng: Random) -> list:
    """The shared instance corpus for criteria 9 and 11."""
    corpus = []
    for F in FIELDS:
        for n in range(knobs.coalgebras):
            corpus.append(("random", rand_coalgebra(
                F, rng, max_dim=knobs.max_dim,
                counital=bool(rng.randrange(2)))))
    for n in range(40):
        Q = rand_acyclic_quiver(rng, max_vertices=5, max_arrows=6,
                                path_cap=30)
        C, _ = path_coalgebra(QQ, Q)
        corpus.append(("path", C))
    for n in range(1, 5):
        for P in all_posets_up_to_iso(n):
            C, _ = incidence_coalgebra(QQ, P)
            corpus.append(("incidence", C))
    for F in FIELDS:
        for name, H in hopf_instances(F):
            corpus.append((name, H.coalgebra))
    for radius in knobs.radii:
        for tname in ("ray", "line", "star:2", "loop"):
            Q = make_template(tname).truncate(radius)
            C, _ = path_coalgebra(QQ, Q, max_len=radius)
            corpus.append((f"{tname}-r{radius}", C))
    for F in FIELDS:
        for n in (1, 2):
            corpus.append((f"comatrix-{n}", comatrix(F, n)))
        for n in (2, 3, 4):
            corpus.append((f"divided-{n}", divided_power_coalgebra(F, n)))
            corpus.append((f"grouplike-{n}", grouplike_coalgebra(F, n)))
    return corpus


def c09_evaluation_bijective(knobs: SuiteKnobs, rng: Random) -> dict:
    corpus = corpus_coalgebras(knobs, rng)
    if len(corpus) < knobs.corpus_min:
        _fail("c09", f"corpus too small: {len(corpus)}")
    for n, (label, C) in enumerate(corpus):
        rep = left_coreflexive_check(C)
        if not rep.bijective or rep.kernel_rank != 0 or \
                rep.source_dim != rep.target_dim:
            _fail("c09", "evaluation not bijective", instance=n, label=label)
    return {"instances": len(corpus)}


def c10_semiperfect_cross_validation(knobs: SuiteKnobs, rng: Random) -> dict:
    finite = FiniteTemplate(Quiver((0, 1, 2), ((0, 1), (1, 2))))
    templates = [("finite", finite), ("ray", make_template("ray")),
                 ("line", make_template("line")),
                 ("star", make_template("star:3")),
                 ("loop", make_template("loop"))]
    expected = {
        "finite": {"right": "holds", "left": "holds"},
        "ray": {"right": "holds", "left": "fails"},
        "line": {"right": "fails", "left": "fails"},
        "star": {"right": "holds", "left": "fails"},
        "loop": {"right": "fails", "left": "fails"},
    }
    records = 0
    for name, template in templates:
        out = semiperfect_iff_injective_harness(template, radii=knobs.radii)
        if out["disagreements"]:
            _fail("c10", f"{name}: {out['disagreements']} disagreements",
                  template=name)
        for rec in out["records"]:
            want = expected[name][rec["side"]]
            if rec["status"] != want:
                _fail("c10",
                      f"{name} {rec['side']} r{rec['radius']}: "
                      f"{rec['status']} != {want}", template=name)
            records += 1
    return {"templates": len(templates), "records": records,
            "line_fails_both_sides": True}


def c11_counit_recovered(knobs: SuiteKnobs, rng: Random) -> dict:
    corpus = corpus_coalgebras(knobs, rng)
    done = 0
    skipped = 0
    for n, (label, C) in enumerate(corpus):
        if not C.is_counital():
            skipped += 1
            continue
        dec = decompose_injectives(C, "right")
        total = counit_from_decomposition(dec)
        for k in range(C.dim):
            acc = C.field.zero
            for e in dec.idempotents:
                acc = C.field.add(acc, e[k])
            if acc != C.counit[k]:
                _fail("c11", "counit composite mismatch", instance=n,
                      label=label)
        if total != tuple(C.counit):
            _fail("c11", "recovered counit differs", instance=n, label=label)
        done += 1
    for radius in knobs.radii:
        Q = make_template("ray").truncate(radius)
        C, flat = path_coalgebra(QQ, Q, max_len=radius)
        verts = len(Q.vertices)
        idems = [basis_vec(QQ, C.dim, i) for i in range(verts)]
        dec = decompose_injectives(C, "right", idempotents=idems)
        if counit_from_decomposition(dec) != tuple(C.counit):
            _fail("c11", f"ray truncation radius {radius} counit differs")
        done += 1
    return {"verified": done, "skipped_non_counital": skipped}


def c12_hopf_selfduality(knobs: SuiteKnobs, rng: Random) -> dict:
    checked = []
    for F in FIELDS:
        for name, H in hopf_instances(F):
            out = hopf_selfdual_check(H)
            if not (out["double_dual_identity"] and
                    out["evaluation_bijective"] and out["counit_recovered"]):
                _fail("c12", f"{name} over {F.name()} failed", instance=name)
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


def _randomized_items(knobs: RandomKnobs):
    if knobs.trials <= 0 or knobs.max_dim <= 0:
        return []
    if knobs.field is None:
        fields = FIELDS
    else:
        from .fields import field_from_name
        fields = (field_from_name(knobs.field),)

    def each_trial(prop, message):
        """Run prop(F, rng) -> holds once per trial, on a field drawn first."""
        def run(rng):
            for _ in range(knobs.trials):
                if not prop(fields[rng.randrange(len(fields))], rng):
                    return False, {"message": message}
            return True, {"trials": knobs.trials}
        return run

    def algebras_validate(F, rng):
        A = rand_algebra(F, rng, max_dim=knobs.max_dim,
                         unital=bool(rng.randrange(2)))
        return unitalize(A)[0].dim == A.dim + 1

    def double_dual_identity(F, rng):
        C = rand_coalgebra(F, rng, max_dim=knobs.max_dim,
                           counital=bool(rng.randrange(2)))
        D = dual_coalgebra(dual_algebra(C))
        return D.comult == C.comult and D.counit == C.counit

    def closures_idempotent(F, rng):
        C = rand_coalgebra(F, rng, max_dim=knobs.max_dim)
        x = tuple(F.from_int(rng.randint(-2, 2)) for _ in range(C.dim))
        D, incl = subcoalgebra_generated(C, x)
        if D.dim == 0:
            return True
        y = dense_vec(F, C.dim, incl.matrix.columns()[0])
        return subcoalgebra_generated(C, y)[0].dim <= D.dim

    def conjugation_iso(F, rng):
        C = rand_coalgebra(F, rng, max_dim=knobs.max_dim)
        P = rand_invertible(F, rng, C.dim)
        return conjugate_coalgebra(C, P)[1].is_bijective()

    def adjunction_lifts(F, rng):
        D, C, f = rand_morphism_triple(F, rng, max_dim=knobs.max_dim)
        C1, proj = counitalize(C)
        return counital_lift(f, C1, proj)[1] == 0

    return [
        ("algebras-validate", each_trial(algebras_validate, "unitalization dimension wrong")),
        ("double-dual-identity", each_trial(double_dual_identity,
                                            "double dual changed the tables")),
        ("closures-idempotent", each_trial(closures_idempotent,
                                           "closure grew on re-generation")),
        ("conjugation-iso", each_trial(conjugation_iso, "conjugation not bijective")),
        ("adjunction-lifts", each_trial(adjunction_lifts, "non-unique lift")),
    ]


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
        except CriterionFailure as e:
            verdict = "fail"
            details = {"message": str(e)}
            replay = {**block, **e.replay}
        except Exception as e:  # noqa: BLE001 - report, never crash the run
            verdict = "error"
            details = {"message": f"{type(e).__name__}: {e}"}
            replay = block
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
    from .specdoc import run_check

    items = [(check.name,
              (lambda c: lambda rng: run_check(doc, c, rng))(check),
              {"refs": list(check.refs), "params": dict(check.params)})
             for check in doc.checks]
    return _run_items(items, seed)
