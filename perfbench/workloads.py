"""The benchmark's workloads: inputs made from a seed, the calls into dualis
that are timed, and the independent check each output must pass.

Each workload is a class with three steps, run in one fresh interpreter:

* ``__init__(seed, workdir)`` makes the inputs (part of set-up time);
* ``run(op_clock=None)`` makes every call into dualis and keeps the raw
  outputs; this is the measured phase.  ``op_clock``, when given, is read
  around each operation so the traced run can time them one by one;
* ``check()`` returns one ``(operation, problem)`` pair per operation, with
  ``problem`` None when the output passed its check.

The seed sets entries only (matrix factors, conjugating matrices, start
values, labels and orders), never sizes, so every seed asks for the same
amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import dualis
from dualis import GF, QQ, RowSpace, SparseMatrix, cli, linalg
from dualis.suite import CRITERIA, SuiteKnobs

import reference as ref


# ---------------------------------------------------------------------------
# battery: the acceptance suite exactly as `dualis suite paper-theorems` runs it

class Battery:
    """``builtin_suite("paper-theorems", seed)`` with default knobs and the
    default worker pool; one operation per criterion."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.knobs = SuiteKnobs()
        self.names = [name for name, _ in CRITERIA]

    def run(self, op_clock=None):
        try:
            self.report = dualis.builtin_suite("paper-theorems", self.seed)
        except Exception as e:  # reported by check() as failed operations
            self.report = e

    def expected_details(self) -> dict:
        """Detail values that follow from the default knobs alone."""
        k = self.knobs
        fields = 2  # Q and F_101
        # criterion 9's corpus: random coalgebras, 40 path coalgebras, the
        # posets on 1..4 elements up to isomorphism (1+2+5+16, OEIS A000112),
        # 4 Hopf instances per field, 4 templates per radius, and per field
        # 2 comatrix + 3 divided-power + 3 grouplike coalgebras.
        corpus = (fields * k.coalgebras + 40 + (1 + 2 + 5 + 16)
                  + fields * 4 + 4 * len(k.radii) + fields * (2 + 3 + 3))
        hopf = [f"{name}:{F}" for F in ("q", "fp:101")
                for name in ("group-z2", "group-z4", "group-s3", "functions-s3")]
        return {
            "counitalization-adjunction": {"lifts": fields * k.triples},
            "dual-of-counitalization": {"isomorphisms": fields * k.coalgebras},
            "dual-of-unitalization": {"isomorphisms": fields * k.algebras},
            "generated-closures": {"trials": k.closure_trials,
                                   "comodule_trials": k.closure_trials},
            "pathdual-corpus": {"quivers": k.quivers},
            # all posets on 1..5 elements up to isomorphism: 1+2+5+16+63
            "incidencedual-posets": {"exhaustive": 87,
                                     "sampled_at_6": k.poset_samples},
            "linearly-recursive": {"fibonacci_order": 2,
                                   "products_checked": sum(21 - a for a in range(21))},
            "evaluation-bijective": {"instances": corpus},
            # 5 templates x 2 sides x len(radii) radii
            "semiperfect-cross-validation": {"templates": 5,
                                             "records": 5 * 2 * len(k.radii),
                                             "line_fails_both_sides": True},
            "hopf-selfduality": {"instances": hopf},
        }

    def check(self):
        if isinstance(self.report, Exception):
            return [(name, f"suite raised {self.report!r}") for name in self.names]
        want = self.expected_details()
        by_name = {c.name: c for c in self.report.checks}
        out = []
        for name in self.names:
            c = by_name.get(name)
            if c is None:
                out.append((name, "missing from the report"))
                continue
            if c.verdict != "pass":
                out.append((name, f"verdict {c.verdict}: {c.details}"))
                continue
            problem = None
            for key, value in want.get(name, {}).items():
                if c.details.get(key) != value:
                    problem = f"{key} = {c.details.get(key)!r}, expected {value!r}"
                    break
            if name == "lattice-coincidence" and problem is None:
                if not (c.details["exhaustive_subspaces"] > 0
                        and c.details["sampled_subspaces"] > 0):
                    problem = "no subspaces compared"
            if name == "counit-recovered" and problem is None:
                # every corpus instance plus one ray truncation per radius
                seen = c.details["verified"] + c.details["skipped_non_counital"]
                total = want["evaluation-bijective"]["instances"] + len(self.knobs.radii)
                if seen != total or c.details["verified"] < len(self.knobs.radii):
                    problem = f"{seen} instances seen, expected {total}"
            out.append((name, problem))
        return out


# ---------------------------------------------------------------------------
# large-objects: one generated spec document through `dualis run`

GRID = (2, 6)           # grid quiver, 98 paths
LADDER = 5              # 2 x 5 ladder poset, 45 comparable pairs
RAY_RADIUS = 9          # ray truncation, 55 paths
STAR = (3, 5)           # star with 3 rays truncated at radius 5, 61 paths
LOOP_BOUND = 2_000_000  # walk count on the loop, O(bound)
RAY_WALK = (600, 1000)  # ray semiperfect check: radius, bound
LINREC = (16, 30, 80)   # order, rank bound, number of terms


def _grid_quiver(rng):
    a, b = GRID
    cells = [(i, j) for i in range(a) for j in range(b)]
    labels = list(range(len(cells)))
    rng.shuffle(labels)
    name = dict(zip(cells, labels))
    arrows = [(name[(i, j)], name[(i + 1, j)]) for i in range(a - 1) for j in range(b)]
    arrows += [(name[(i, j)], name[(i, j + 1)]) for i in range(a) for j in range(b - 1)]
    rng.shuffle(arrows)
    vertices = sorted(labels)
    return vertices, arrows


def _ladder_poset(rng):
    cells = [(i, j) for i in range(2) for j in range(LADDER)]
    labels = list(range(len(cells)))
    rng.shuffle(labels)
    name = dict(zip(cells, labels))
    covers = [(name[(0, j)], name[(1, j)]) for j in range(LADDER)]
    covers += [(name[(i, j)], name[(i, j + 1)]) for i in range(2) for j in range(LADDER - 1)]
    rng.shuffle(covers)
    return sorted(labels), covers


def _ray_quiver():
    return list(range(RAY_RADIUS + 1)), [(i, i + 1) for i in range(RAY_RADIUS)]


def _star_quiver():
    rays, radius = STAR
    vertices = list(range(1 + rays * radius))
    arrows = []
    for r in range(rays):
        first = 1 + r * radius
        arrows.append((0, first))
        arrows += [(first + n, first + n + 1) for n in range(radius - 1)]
    return vertices, arrows


def _path_coalgebra_table(vertices, arrows):
    """Deconcatenation coalgebra of an acyclic quiver without parallel
    arrows: the basis is all paths, written as vertex sequences, and each
    path splits as every (prefix, suffix) pair."""
    outs = {v: [w for u, w in arrows if u == v] for v in vertices}
    paths = [(v,) for v in vertices]
    frontier = list(paths)
    while frontier:
        frontier = [p + (w,) for p in frontier for w in outs[p[-1]]]
        paths += frontier
    index = {p: n for n, p in enumerate(paths)}
    comult = {n: {(index[p[:k + 1]], index[p[k:]]): 1 for k in range(len(p))}
              for n, p in enumerate(paths)}
    counit = [1 if len(p) == 1 else 0 for p in paths]
    return comult, counit


def _conjugated_block(rng, vertices, arrows) -> dict:
    """The path coalgebra transported along a sparse unimodular P:
    Delta' = (P x P) Delta P^-1 and eps' = eps P^-1."""
    comult, counit = _path_coalgebra_table(vertices, arrows)
    n = len(counit)
    P, Pinv = ref.sparse_unimodular(rng, n, n // 4)
    cols = [[(i, P[i][a]) for i in range(n) if P[i][a]] for a in range(n)]
    table = []
    new_counit = []
    for k in range(n):
        terms: dict = {}
        for a in range(n):
            c = Pinv[a][k]
            if not c:
                continue
            for (i, j), w in comult[a].items():
                for ii, x in cols[i]:
                    for jj, y in cols[j]:
                        terms[(ii, jj)] = terms.get((ii, jj), 0) + c * w * x * y
        table += [[k, i, j, str(v)] for (i, j), v in sorted(terms.items()) if v]
        new_counit.append(str(sum(Pinv[a][k] * counit[a] for a in range(n))))
    return {"type": "coalgebra", "field": "q", "dim": n,
            "comult": table, "counit": new_counit}


class LargeObjects:
    """A few large objects in one spec document, run in-process through the
    ``dualis run`` entry point with an ``--out`` report; one operation per
    check of the document."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"large-objects:{seed}")
        self.seed = seed
        self.spec_path = os.path.join(workdir, f"large-objects-{seed}.json")
        self.report_path = os.path.join(workdir, f"large-objects-{seed}.report.json")
        gv, ga = _grid_quiver(rng)
        pe, pc = _ladder_poset(rng)
        rv, ra = _ray_quiver()
        sv, sa = _star_quiver()
        order, bound, terms = LINREC
        seq = [rng.randint(1, 9) for _ in range(order)]
        while len(seq) < terms:
            seq.append(seq[-order] + seq[-order + 1])  # s(n+r) = s(n+1) + s(n)
        doc = {
            "objects": {
                "grid": {"type": "quiver", "vertices": gv, "arrows": ga},
                "ladder": {"type": "poset", "elements": pe, "relation": pc},
                "ray": _conjugated_block(rng, rv, ra),
                "star": _conjugated_block(rng, sv, sa),
                "loop_t": {"type": "quiver-template", "name": "loop"},
                "ray_t": {"type": "quiver-template", "name": "ray"},
                "seq": {"type": "functional", "field": "q",
                        "sequence": [str(v) for v in seq]},
            },
            "checks": [
                {"check": "verify_pathdual_iso", "refs": ["grid"], "params": {"field": "q"}},
                {"check": "verify_incidencedual_iso", "refs": ["ladder"], "params": {"field": "q"}},
                {"check": "coreflexive", "refs": ["ray"], "params": {}},
                {"check": "coreflexive", "refs": ["star"], "params": {}},
                {"check": "decompose_injectives", "refs": ["ray"], "params": {"side": "right"}},
                {"check": "decompose_injectives", "refs": ["star"], "params": {"side": "right"}},
                {"check": "semiperfect", "refs": ["loop_t"],
                 "params": {"side": "right", "radius": 3, "bound": LOOP_BOUND,
                            "expect": "fails"}},
                {"check": "semiperfect", "refs": ["ray_t"],
                 "params": {"side": "right", "radius": RAY_WALK[0],
                            "bound": RAY_WALK[1], "expect": "holds"}},
                {"check": "linrec", "refs": ["seq"],
                 "params": {"rank_bound": bound, "expect_order": order}},
            ],
        }
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if os.path.exists(self.report_path):
            os.remove(self.report_path)  # a stale report must not pass for this run's
        # what each check must report, from the reference computations
        grid_end = ref.paths_ending_at(gv, ga)
        ray_end = ref.paths_ending_at(rv, ra)
        star_end = ref.paths_ending_at(sv, sa)
        self.expect = [
            {"dim": sum(grid_end.values())},
            {"dim": ref.comparable_pairs(pe, pc)},
            _coreflexive_expectation(sum(ray_end.values())),
            _coreflexive_expectation(sum(star_end.values())),
            # one injective block per vertex, of dimension the number of
            # paths ending there; these sum to the dimension
            {"block_dims": sorted(ray_end.values())},
            {"block_dims": sorted(star_end.values())},
            {"status": "fails", "count": LOOP_BOUND + 1},
            # right semiperfectness counts the paths ending at each vertex:
            # on the ray, vertex v has exactly v + 1 of them
            {"status": "holds",
             "per_vertex": [[str(v), v + 1] for v in range(RAY_WALK[0] + 1)]},
            {"order": order, "poly": ["-1", "-1"] + ["0"] * (order - 2) + ["1"]},
        ]
        self.names = [c["check"] for c in doc["checks"]]

    def run(self, op_clock=None):
        argv = ["run", self.spec_path, "--seed", str(self.seed),
                "--out", self.report_path]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.exit_code = cli.main(argv)
        except Exception as e:  # reported by check() as failed operations
            self.exit_code = e

    def check(self):
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            checks = {c["index"]: c for c in report["checks"]}
        except (OSError, ValueError, KeyError) as e:
            return [(name, f"no report: {e}") for name in self.names]
        out = []
        for ix, (name, want) in enumerate(zip(self.names, self.expect)):
            c = checks.get(ix)
            out.append((f"{ix}:{name}", _large_object_problem(c, want)))
        if self.exit_code != 0 and all(p is None for _, p in out):
            out[-1] = (out[-1][0], f"dualis run ended with {self.exit_code!r}")
        return out


def _coreflexive_expectation(dim: int) -> dict:
    return {"bijective": True, "kernel_rank": 0,
            "source_dim": dim, "target_dim": dim}


def _large_object_problem(c, want):
    if c is None:
        return "missing from the report"
    if c["verdict"] != "pass":
        return f"verdict {c['verdict']}: {c['details']}"
    d = c["details"]
    for key, value in want.items():
        got = d.get(key)
        if key == "block_dims":
            if got is None or sorted(got) != value:
                return f"block dims {got}, expected {value} in some order"
        elif got != value:
            return f"{key} = {str(got)[:200]}, expected {str(value)[:200]}"
    return None


# ---------------------------------------------------------------------------
# exact-linalg: direct calls into the elimination layer

FIELDS = (("q", QQ, 0), ("fp101", GF(101), 101))
SIZES = (20, 40, 80)


def _to_field(F, p, rows):
    if p:
        return SparseMatrix.from_rows(F, [[v % p for v in r] for r in rows])
    return SparseMatrix.from_rows(F, [[Fraction(v) for v in r] for r in rows])


def _vec(p, v):
    return tuple(x % p for x in v) if p else tuple(Fraction(x) for x in v)


class _Case:
    """One input matrix of known rank, M = P * diag(I_r, 0) * Q with
    unimodular integer P and Q, so its rank is r over Q and every F_p."""

    def __init__(self, rng, n: int, dense: bool):
        if dense:
            P, _ = ref.dense_unimodular(rng, n)
            Q, Qinv = ref.dense_unimodular(rng, n)
        else:
            P, _ = ref.sparse_unimodular(rng, n, n // 4)
            Q, Qinv = ref.sparse_unimodular(rng, n, n // 4)
        self.n, self.r, self.dense = n, n // 2, dense
        self.M = ref.matmul([row[:self.r] for row in P], Q[:self.r])
        self.Q, self.Qinv = Q, Qinv
        self.x0 = [rng.randint(-3, 3) for _ in range(n)]
        self.b = ref.matvec(self.M, self.x0)


class ExactLinalg:
    """``SparseMatrix.rank``, ``kernel_basis``, ``solve`` and ``inverse``,
    ``RowSpace.add`` and ``intersect_spans`` on matrices of known rank over
    Q and F_101 at n = 20, 40, 80, dense and sparse; one operation per call.
    The same integer matrices serve both fields.
    """

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"exact-linalg:{seed}")
        self.ops = []  # (name, callable, check)
        for n in SIZES:
            for dense in (True, False):
                case = _Case(rng, n, dense)
                for tag, F, p in FIELDS:
                    self._add_ops(case, tag, F, p)

    def _add_ops(self, case, tag, F, p):
        # every call looks its method up when it runs, so wrappers installed
        # after set-up (tracing, fault injection) see it
        n, r = case.n, case.r
        M = _to_field(F, p, case.M)
        kind = "dense" if case.dense else "sparse"
        key = f"{tag}.n{n}.{kind}"
        self.ops.append((f"rank.{key}", lambda: M.rank(),
                         lambda got: None if got == r else f"rank {got}, built {r}"))
        self.ops.append((f"kernel.{key}", lambda: M.kernel_basis(),
                         lambda got: _kernel_problem(case, p, got)))
        b = _vec(p, case.b)
        self.ops.append((f"solve.{key}", lambda: M.solve(b),
                         lambda got: _solve_problem(case, p, got)))
        Qm = _to_field(F, p, case.Q)
        self.ops.append((f"inverse.{key}", lambda: Qm.inverse(),
                         lambda got: _inverse_problem(case, p, got)))
        rows = [_vec(p, row) for row in case.M]
        self.ops.append((f"rowspace.{key}", lambda: _grow_rowspace(F, n, rows),
                         lambda got: _rowspace_problem(case, p, got)))
        a, c = n // 2, n // 4
        U = [_vec(p, row) for row in case.Q[:a]]
        W = [_vec(p, row) for row in case.Q[a - c:2 * a - c]]
        self.ops.append((f"intersect.{key}", lambda: linalg.intersect_spans(F, U, W, n),
                         lambda got: _intersect_problem(case, p, got, a - c, a)))

    def run(self, op_clock=None):
        self.results = []
        for name, call, _ in self.ops:
            t0 = op_clock() if op_clock else None
            try:
                got = call()
            except Exception as e:  # reported by check() as a failed operation
                got = e
            self.results.append((got, op_clock() - t0 if op_clock else None))

    def op_times(self) -> dict:
        """Seconds per linalg.<op>.<field>.n<size>, dense and sparse
        inputs summed."""
        out: dict = {}
        for (name, _, _), (_, dt) in zip(self.ops, self.results):
            op, tag, n, _ = name.split(".")
            key = f"linalg.{op}.{tag}.{n}"
            out[key] = out.get(key, 0.0) + dt
        return out

    def check(self):
        out = []
        for (name, _, judge), (got, _) in zip(self.ops, self.results):
            if isinstance(got, Exception):
                out.append((name, f"raised {got!r}"))
                continue
            try:
                out.append((name, judge(got)))
            except (ValueError, TypeError, AttributeError, IndexError, ZeroDivisionError) as e:
                out.append((name, f"malformed output: {e!r}"))
        return out


def _grow_rowspace(F, n, rows):
    space = RowSpace(F, n)
    grew = sum(1 for row in rows if space.add(row))
    return grew, space.basis()


def _kernel_problem(case, p, got):
    if len(got) != case.n - case.r:
        return f"{len(got)} kernel vectors, expected {case.n - case.r}"
    ks = [ref.as_int_vector(k, p) for k in got]
    for k in ks:
        if not ref.is_zero_vector(ref.matvec(case.M, k), p):
            return "M k != 0"
    if ref.rank(ks, p) != len(ks):
        return "kernel vectors are dependent"
    return None


def _solve_problem(case, p, got):
    if got is None:
        return "no solution returned for a consistent system"
    x = [Fraction(v) for v in got] if not p else ref.as_int_vector(got, p)
    lhs = ref.matvec(case.M, x)
    if any((l - b) % p if p else l != b for l, b in zip(lhs, case.b)):
        return "M x != b"
    return None


def _inverse_problem(case, p, got):
    want = [[v % p for v in row] for row in case.Qinv] if p else case.Qinv
    have = [[0] * case.n for _ in range(case.n)]
    for (i, j), v in got.entries.items():
        have[i][j] = v
    return None if have == want else "inverse differs from the known inverse"


def _coords(case, p, vec):
    """Coordinates of vec in the basis of rows of Q (vec * Q^-1)."""
    return ref.vecmat(ref.as_int_vector(vec, p), case.Qinv)


def _rowspace_problem(case, p, got):
    grew, basis = got
    if grew != case.r or len(basis) != case.r:
        return f"row space grew {grew} times to dim {len(basis)}, expected {case.r}"
    # the row space of M is spanned by the first r rows of Q
    cs = [_coords(case, p, v) for v in basis]
    if any(not ref.is_zero_vector(c[case.r:], p) for c in cs):
        return "basis vector outside the row space"
    if ref.rank([c[:case.r] for c in cs], p) != case.r:
        return "basis vectors are dependent"
    return None


def _intersect_problem(case, p, got, lo, hi):
    # U = rows [0, a) of Q and W = rows [a - c, 2a - c), so U n W is
    # spanned by rows [a - c, a)
    if len(got) != hi - lo:
        return f"intersection has dim {len(got)}, expected {hi - lo}"
    cs = [_coords(case, p, v) for v in got]
    if any(not ref.is_zero_vector(c[:lo] + c[hi:], p) for c in cs):
        return "vector outside U n W"
    if ref.rank([c[lo:hi] for c in cs], p) != hi - lo:
        return "intersection vectors are dependent"
    return None


WORKLOADS = {
    "battery": Battery,
    "large-objects": LargeObjects,
    "exact-linalg": ExactLinalg,
}
