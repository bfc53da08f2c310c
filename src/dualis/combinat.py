"""Quivers, posets, and their path / incidence (co)algebras.

Paths compose in diagram order: p * q walks p first and is nonzero exactly
when p ends where q starts.  With that convention the dual of the path
coalgebra of a finite acyclic quiver IS the path algebra on the nose (the
comparison matrix is the identity), and likewise for incidence structures.
verify_pathdual_iso and verify_incidencedual_iso certify it by one morphism
check, A -> C*, which certifies C as well, and return its transpose C -> A*
too (algebra._trusted).

Infinite shapes (the integer line, a ray, stars, a loop) are templates: they
answer local arrow queries, share one truncation to finite quivers (the
vertices within a radius and the arrows between them), and
semiperfect_check walks them directly, reporting per-vertex path counts as
explicit bounded certificates.  A walk whose frontier recurs (the loop, any
cycle) skips whole periods: each next frontier is determined by the current
one, so every later period adds exactly the same number of paths, and the
count reported is the one a step-by-step walk would reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import AlgebraMorphism, FinAlgebra, _trusted
from .coalgebra import CoalgebraMorphism, FinCoalgebra, dual_algebra, dual_coalgebra
from .errors import NotAcyclic, ValidationError, quoted
from .fields import Field
from .finite_dual import CancelToken, GradedAlgebra
from .linalg import SparseMatrix


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; arrows are (source, target) vertex pairs."""

    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValidationError("duplicate vertices")
        for (u, v) in self.arrows:
            if u not in seen or v not in seen:
                raise ValidationError(f"arrow ({u},{v}) references unknown vertex")

    def out_map(self) -> dict:
        out: dict = {v: [] for v in self.vertices}
        for idx, (u, _) in enumerate(self.arrows):
            out[u].append(idx)
        return out

    def is_acyclic(self) -> bool:
        indeg = {v: 0 for v in self.vertices}
        for (_, v) in self.arrows:
            indeg[v] += 1
        stack = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        outs = self.out_map()
        while stack:
            u = stack.pop()
            seen += 1
            for idx in outs[u]:
                w = self.arrows[idx][1]
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return seen == len(self.vertices)


def path_target(Q: Quiver, path) -> object:
    v = path[0]
    for idx in path[1]:
        v = Q.arrows[idx][1]
    return v


def paths_by_length(Q: Quiver, max_len: int | None):
    """Paths grouped by arrow count, in a stable enumeration order.

    Returns (levels, truncated): truncated is True when enumeration stopped
    at max_len with longer paths still available.
    """
    if max_len is None and not Q.is_acyclic():
        raise NotAcyclic("cyclic quiver has infinitely many paths")
    outs = Q.out_map()
    levels = [[(v, ()) for v in Q.vertices]]
    while True:
        if max_len is not None and len(levels) - 1 >= max_len:
            more = any(outs[path_target(Q, p)] for p in levels[-1])
            return levels, more
        nxt = []
        for p in levels[-1]:
            for idx in outs[path_target(Q, p)]:
                nxt.append((p[0], p[1] + (idx,)))
        if not nxt:
            return levels, False
        levels.append(nxt)


def path_algebra(F: Field, Q: Quiver, max_len: int | None = None
                 ) -> tuple[GradedAlgebra, dict]:
    """Graded by arrow count, degree 0 spanned by the trivial paths.

    Returns the algebra and the path -> (degree, index) key map.
    """
    levels, _ = paths_by_length(Q, max_len)
    key_of = {}
    for d, lev in enumerate(levels):
        for i, p in enumerate(lev):
            key_of[p] = (d, i)
    mult = {}
    top = len(levels) - 1
    for p, kp in key_of.items():
        for q, kq in key_of.items():
            if kp[0] + kq[0] > top:
                continue
            if path_target(Q, p) != q[0]:
                continue
            joined = (p[0], p[1] + q[1])
            mult[(kp, kq)] = {key_of[joined]: F.one}
    unit = {key_of[(v, ())]: F.one for v in Q.vertices}
    return GradedAlgebra(F, tuple(len(lev) for lev in levels), mult, unit=unit), key_of


def _path_tables(F: Field, Q: Quiver, max_len: int | None) -> tuple[dict, tuple, list]:
    """The path coalgebra's unvalidated tables, and its paths in order."""
    flat = [p for lev in paths_by_length(Q, max_len)[0] for p in lev]
    index = {p: n for n, p in enumerate(flat)}
    comult = {}
    for n, (v, arrows) in enumerate(flat):
        # split point k gives the prefix of length k, so no two keys collide
        terms = {}
        for k in range(len(arrows) + 1):
            pre = (v, arrows[:k])
            terms[(index[pre], index[(path_target(Q, pre), arrows[k:])])] = F.one
        comult[n] = terms
    return comult, tuple(F.zero if p[1] else F.one for p in flat), flat


def path_coalgebra(F: Field, Q: Quiver, max_len: int | None = None
                   ) -> tuple[FinCoalgebra, list]:
    """Deconcatenation coalgebra on the same paths; exact at any truncation
    because splitting never raises the length.

    Returns the coalgebra and the flat list of paths in basis order.
    """
    comult, counit, flat = _path_tables(F, Q, max_len)
    return FinCoalgebra(F, len(flat), comult, counit), flat


def _dual_iso(A: FinAlgebra, comult: dict, counit: tuple
              ) -> tuple[AlgebraMorphism, CoalgebraMorphism]:
    """The identity comparisons A -> C* and C -> A* for the coalgebra C on
    these tables.  Trusted (ii), P = identity: the check against the
    validated A compares every entry, and the unit with the counit, so C*
    carries A's axioms.  Trusted (i): C -> A* is the transpose of A -> C*."""
    C = _trusted(FinCoalgebra, A.field, len(counit), comult, counit)
    alg = AlgebraMorphism(A, dual_algebra(C), SparseMatrix.identity(A.field, A.dim), unital=True)
    return alg, _trusted(CoalgebraMorphism, C, dual_coalgebra(A), alg.matrix, True)


def verify_pathdual_iso(F: Field, Q: Quiver, max_len: int | None = None
                        ) -> tuple[AlgebraMorphism, CoalgebraMorphism]:
    """Dual of the path coalgebra vs the path algebra, both directions."""
    G, _ = path_algebra(F, Q, max_len)
    A, _ = G.as_fin_algebra()
    comult, counit, _ = _path_tables(F, Q, max_len)
    return _dual_iso(A, comult, counit)


# ---------------------------------------------------------------------------
# posets and incidence structures

def transitive_closure(pairs) -> set:
    """Smallest transitive relation containing the given pairs: (a, b) for
    each b reachable from a by one or more pairs, one search per a."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for a in succ:
        seen, stack = set(), list(succ[a])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        closure.update((a, b) for b in seen)
    return closure


@dataclass(frozen=True)
class Poset:
    """Finite poset; relation holds the pairs (a, b) with a <= b."""

    elements: tuple
    relation: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "relation", frozenset(tuple(r) for r in self.relation))
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValidationError("duplicate elements")
        rel = self.relation
        for (a, b) in rel:
            if a not in elems or b not in elems:
                raise ValidationError(f"relation pair ({a},{b}) off the ground set")
        for a in elems:
            if (a, a) not in rel:
                raise ValidationError(f"relation not reflexive at {a}")
        for (a, b) in rel:
            if a != b and (b, a) in rel:
                raise ValidationError(f"relation not antisymmetric on ({a},{b})")
        for (a, b) in rel:
            for c in elems:
                if (b, c) in rel and (a, c) not in rel:
                    raise ValidationError(f"relation not transitive via ({a},{b},{c})")

    def le(self, a, b) -> bool:
        return (a, b) in self.relation

    def intervals(self) -> list:
        out = []
        for a in self.elements:
            for b in self.elements:
                if self.le(a, b):
                    out.append((a, b))
        return out


def chain_poset(n: int) -> Poset:
    return Poset(tuple(range(n)),
                 frozenset((i, j) for i in range(n) for j in range(i, n)))


def antichain_poset(n: int) -> Poset:
    return Poset(tuple(range(n)), frozenset((i, i) for i in range(n)))


def incidence_algebra(F: Field, P: Poset) -> tuple[FinAlgebra, list]:
    """Interval basis, e_uv * e_vy = e_uy, unit the sum of diagonals."""
    ivs = P.intervals()
    index = {iv: n for n, iv in enumerate(ivs)}
    mult = {}
    for (u, v) in ivs:
        for (x, y) in ivs:
            if v == x:
                mult[(index[(u, v)], index[(x, y)])] = {index[(u, y)]: F.one}
    unit = [F.zero] * len(ivs)
    for a in P.elements:
        unit[index[(a, a)]] = F.one
    return FinAlgebra(F, len(ivs), mult, tuple(unit)), ivs


def _incidence_tables(F: Field, P: Poset) -> tuple[dict, tuple, list]:
    """The incidence coalgebra's unvalidated tables, and its intervals."""
    ivs = P.intervals()
    index = {iv: n for n, iv in enumerate(ivs)}
    comult = {index[(x, y)]: {(index[(x, z)], index[(z, y)]): F.one
                              for z in P.elements if P.le(x, z) and P.le(z, y)}
              for (x, y) in ivs}
    return comult, tuple(F.one if x == y else F.zero for (x, y) in ivs), ivs


def incidence_coalgebra(F: Field, P: Poset) -> tuple[FinCoalgebra, list]:
    """Interval basis, splitting at every midpoint; counit on diagonals."""
    comult, counit, ivs = _incidence_tables(F, P)
    return FinCoalgebra(F, len(ivs), comult, counit), ivs


def verify_incidencedual_iso(F: Field, P: Poset
                             ) -> tuple[AlgebraMorphism, CoalgebraMorphism]:
    """Incidence algebra vs dual of the incidence coalgebra, both directions."""
    A, _ = incidence_algebra(F, P)
    comult, counit, _ = _incidence_tables(F, P)
    return _dual_iso(A, comult, counit)


def all_posets_up_to_iso(n: int) -> list:
    """All isomorphism classes of n-element posets, exhaustively (n <= 5)."""
    if n < 1 or n > 5:
        raise ValidationError("exhaustive poset enumeration supported for 1 <= n <= 5")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reps = {}
    for bits in range(1 << len(pairs)):
        strict = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        # transitivity within the upper triangle
        ok = True
        for (a, b) in strict:
            for c in range(b + 1, n):
                if (b, c) in strict and (a, c) not in strict:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        key = min(
            tuple(sorted((perm[a], perm[b]) for (a, b) in strict))
            for perm in itertools.permutations(range(n))
        )
        if key not in reps:
            rel = set(key) | {(i, i) for i in range(n)}
            reps[key] = Poset(tuple(range(n)), frozenset(rel))
    return list(reps.values())


# ---------------------------------------------------------------------------
# quiver templates

class FiniteTemplate:
    """A finite quiver wearing the template interface."""

    name = "finite"

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self._ins: dict = {v: [] for v in quiver.vertices}
        self._outs: dict = {v: [] for v in quiver.vertices}
        for idx, (u, v) in enumerate(quiver.arrows):
            self._outs[u].append((idx, v))
            self._ins[v].append((idx, u))

    def vertices_within(self, radius: int) -> list:
        return list(self.quiver.vertices)

    def out_arrows(self, v) -> list:
        return self._outs[v]

    def in_arrows(self, v) -> list:
        return self._ins[v]

    def truncate(self, radius: int) -> Quiver:
        return self.quiver


class _InfiniteTemplate:
    """What the infinite templates share: truncation keeps the vertices
    within the radius and every arrow between two of them."""

    def truncate(self, radius: int) -> Quiver:
        vs = self.vertices_within(radius)
        inside = set(vs)
        return Quiver(tuple(vs), tuple((u, w) for u in vs for (_, w) in self.out_arrows(u)
                                       if w in inside))


class LineTemplate(_InfiniteTemplate):
    """The integer line: vertices are all integers, arrows i -> i+1."""

    name = "line"

    def vertices_within(self, radius: int) -> list:
        return list(range(-radius, radius + 1))

    def out_arrows(self, v) -> list:
        return [((v, v + 1), v + 1)]

    def in_arrows(self, v) -> list:
        return [((v - 1, v), v - 1)]


class RayTemplate(_InfiniteTemplate):
    """Vertices 0, 1, 2, ... with arrows i -> i+1."""

    name = "ray"

    def vertices_within(self, radius: int) -> list:
        return list(range(radius + 1))

    def out_arrows(self, v) -> list:
        return [((v, v + 1), v + 1)]

    def in_arrows(self, v) -> list:
        return [((v - 1, v), v - 1)] if v > 0 else []


MAX_STAR_RAYS = 1024  # the centre's walk step lists every ray, so it is O(rays)


class StarTemplate(_InfiniteTemplate):
    """A center with k infinite rays pointing outward, 1 <= k <= MAX_STAR_RAYS."""

    name = "star"

    def __init__(self, rays: int):
        if not 1 <= rays <= MAX_STAR_RAYS:
            raise ValidationError(f"star needs 1..{MAX_STAR_RAYS} rays, got {quoted(rays)}")
        self.rays = rays

    def vertices_within(self, radius: int) -> list:
        out = ["c"]
        for r in range(self.rays):
            for n in range(1, radius + 1):
                out.append((r, n))
        return out

    def out_arrows(self, v) -> list:
        if v == "c":
            return [(("c", r), (r, 1)) for r in range(self.rays)]
        r, n = v
        return [((v, (r, n + 1)), (r, n + 1))]

    def in_arrows(self, v) -> list:
        if v == "c":
            return []
        r, n = v
        if n == 1:
            return [(("c", r), "c")]
        return [(((r, n - 1), v), (r, n - 1))]


class LoopTemplate(_InfiniteTemplate):
    """One vertex with one loop; every truncation keeps the cycle."""

    name = "loop"

    def vertices_within(self, radius: int) -> list:
        return ["v"]

    def out_arrows(self, v) -> list:
        return [("a", "v")]

    def in_arrows(self, v) -> list:
        return [("a", "v")]


def make_template(spec: str):
    """Template by name: finite templates are built from Quiver directly."""
    if spec == "line":
        return LineTemplate()
    if spec == "ray":
        return RayTemplate()
    if spec == "loop":
        return LoopTemplate()
    if spec.startswith("star:"):
        return StarTemplate(int(spec.split(":", 1)[1]))
    raise ValidationError(f"unknown template {quoted(spec)}")


# ---------------------------------------------------------------------------
# semiperfectness certificates

@dataclass(frozen=True)
class SemiperfectReport:
    """Outcome of a bounded per-vertex path count.

    holds: every vertex within the radius has all its paths enumerated below
    the bound (counts in per_vertex).  fails: the witness vertex already has
    more than bound paths, listed with the count reached.
    """

    side: str
    status: str
    radius: int
    bound: int
    vertex: object = None
    count: int | None = None
    per_vertex: tuple | None = None


def _count_walks(template, v, forward: bool, bound: int, known: dict | None = None):
    """Count the paths starting (forward) or ending at v, stopping once the
    count passes bound.  Returns ("finite", total) or ("exceeded", total).

    known maps vertices to their finite counts.  A walk entry reaching such
    a vertex w is not walked on: its extensions are the paths from (or to)
    w, known[w] of them counting the entry itself.  The total then jumps
    past totals the plain walk would reach, so a count that used known and
    passed bound is walked again without it: the reported total is always
    the first one above bound.

    The next frontier is a function of the ordered current one, so once a
    frontier recurs the growth repeats with that period.  A saved frontier
    (Brent, BIT 20, 1980: the save point moves after a window that doubles)
    finds the period; whole periods are then added in one step, stopping
    short of bound, and the walk goes on to the exact first total above it.
    """
    step = template.out_arrows if forward else template.in_arrows
    known = known or {}
    jumped = False
    total = 1  # the trivial path
    frontier = [v]
    saved, saved_total = frontier, total
    window, since = 1, 0
    while True:
        nxt = []
        for u in frontier:
            for (_, w) in step(u):
                if w in known:
                    total += known[w]
                    jumped = True
                else:
                    nxt.append(w)
        total += len(nxt)
        if total > bound:
            if jumped:
                return _count_walks(template, v, forward, bound)
            return "exceeded", total
        if not nxt:
            return "finite", total
        frontier = nxt
        since += 1
        if frontier == saved:
            per = total - saved_total
            total += (bound - total) // per * per
            saved, saved_total = frontier, total  # counts on from the skipped total
        elif since == window:
            saved, saved_total = frontier, total
            window *= 2
            since = 0


MAX_RADIUS = 100_000  # a check walks from every vertex within the radius


def check_radius(template, radius: int) -> None:
    """A star has rays x radius vertices within the radius, the others at
    most 2 x radius + 1: refuse a radius above MAX_RADIUS // rays."""
    cap = MAX_RADIUS // getattr(template, "rays", 1)
    if not 0 <= radius <= cap:
        raise ValidationError(f"radius {quoted(radius)} is outside 0..{cap} for {template.name}")


def semiperfect_check(template, side: str, radius: int, bound: int,
                      cancel: CancelToken | None = None) -> SemiperfectReport:
    """Right semiperfect needs finitely many paths ending at each vertex,
    left semiperfect finitely many starting; walk the template and certify."""
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    check_radius(template, radius)
    if bound < 0:
        raise ValidationError(f"bound must be nonnegative, got {quoted(bound)}")
    forward = side == "left"
    known: dict = {}  # the certified counts so far, which later walks reuse
    for v in template.vertices_within(radius):
        if cancel is not None:
            cancel.check()
        status, total = _count_walks(template, v, forward, bound, known)
        if status == "exceeded":
            return SemiperfectReport(side, "fails", radius, bound, vertex=v, count=total)
        known[v] = total
    return SemiperfectReport(side, "holds", radius, bound, per_vertex=tuple(known.items()))
