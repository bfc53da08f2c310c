"""Path and incidence structures, templates, semiperfectness certificates."""

import random

import pytest

from dualis.coalgebra import CoalgebraMorphism
from dualis.combinat import (
    FiniteTemplate,
    LineTemplate,
    LoopTemplate,
    Poset,
    Quiver,
    RayTemplate,
    StarTemplate,
    all_posets_up_to_iso,
    antichain_poset,
    chain_poset,
    incidence_algebra,
    incidence_coalgebra,
    make_template,
    path_algebra,
    path_coalgebra,
    SemiperfectReport,
    _count_walks,
    paths_by_length,
    semiperfect_check,
    transitive_closure,
    verify_incidencedual_iso,
    verify_pathdual_iso,
)
from dualis.errors import NotAcyclic, ValidationError
from dualis.fields import GF, QQ
from dualis.randgen import rand_acyclic_quiver

A3 = Quiver((0, 1, 2), ((0, 1), (1, 2)))
LOOP = Quiver(("v",), (("v", "v"),))


def test_quiver_validation():
    with pytest.raises(ValidationError):
        Quiver((0, 0), ())
    with pytest.raises(ValidationError):
        Quiver((0,), ((0, 1),))


def test_acyclicity():
    assert A3.is_acyclic()
    assert not LOOP.is_acyclic()
    assert not Quiver((0, 1), ((0, 1), (1, 0))).is_acyclic()


def test_paths_by_length_a3():
    levels, truncated = paths_by_length(A3, None)
    assert [len(l) for l in levels] == [3, 2, 1]
    assert not truncated
    levels, truncated = paths_by_length(A3, 1)
    assert [len(l) for l in levels] == [3, 2]
    assert truncated


def test_paths_require_acyclic_or_cap():
    with pytest.raises(NotAcyclic):
        paths_by_length(LOOP, None)
    levels, truncated = paths_by_length(LOOP, 3)
    assert [len(l) for l in levels] == [1, 1, 1, 1]
    assert truncated


def test_path_algebra_diagram_order():
    F = QQ
    G, key_of = path_algebra(F, A3)
    assert G.total_dim == 6
    p01 = key_of[(0, (0,))]
    p12 = key_of[(1, (1,))]
    p012 = key_of[(0, (0, 1))]
    # p01 then p12 composes; the other order does not
    assert G.mul_flat({p01: F.one}, {p12: F.one}) == {p012: F.one}
    assert G.mul_flat({p12: F.one}, {p01: F.one}) == {}
    e0 = key_of[(0, ())]
    e1 = key_of[(1, ())]
    assert G.mul_flat({e0: F.one}, {p01: F.one}) == {p01: F.one}
    assert G.mul_flat({p01: F.one}, {e1: F.one}) == {p01: F.one}
    assert G.mul_flat({p01: F.one}, {e0: F.one}) == {}
    assert G.unit is not None


def test_path_coalgebra_a3():
    F = QQ
    C, flat = path_coalgebra(F, A3)
    assert flat == [(0, ()), (1, ()), (2, ()), (0, (0,)), (1, (1,)), (0, (0, 1))]
    assert C.comult[5] == {(0, 5): F.one, (3, 4): F.one, (5, 2): F.one}
    assert C.counit == (F.one, F.one, F.one, F.zero, F.zero, F.zero)


def _revalidated(coalg: CoalgebraMorphism) -> CoalgebraMorphism:
    """The full constructor run on a (possibly trusted) coalgebra map."""
    return CoalgebraMorphism(coalg.source, coalg.target, coalg.matrix, coalg.counital)


def test_pathdual_iso_a3_and_kronecker():
    for F in (QQ, GF(101)):
        alg, coalg = verify_pathdual_iso(F, A3)
        assert alg.is_bijective() and coalg.is_bijective()
        assert _revalidated(coalg) == coalg
    kron = Quiver((0, 1), ((0, 1), (0, 1)))
    alg, coalg = verify_pathdual_iso(QQ, kron)
    assert alg.source.dim == 4
    assert _revalidated(coalg) == coalg


def test_pathdual_iso_truncated_loop():
    alg, coalg = verify_pathdual_iso(QQ, LOOP, max_len=4)
    assert alg.source.dim == 5
    with pytest.raises(NotAcyclic):
        verify_pathdual_iso(QQ, LOOP)


def test_incidence_chain3():
    F = QQ
    A, ivs = incidence_algebra(F, chain_poset(3))
    assert ivs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    # e_00 * e_01 = e_01, e_01 * e_12 = e_02
    assert A.mult.get((0, 1), {}) == {1: F.one}
    assert A.mult.get((1, 4), {}) == {2: F.one}
    assert A.mult.get((4, 1), {}) == {}
    C, _ = incidence_coalgebra(F, chain_poset(2))
    assert C.comult[1] == {(0, 1): F.one, (1, 2): F.one}
    assert C.counit == (F.one, F.zero, F.one)


def test_incidencedual_iso_assorted():
    # chain, antichain, and the V with one bottom under two tops
    v_poset = Poset((0, 1, 2),
                    frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}))
    for P in (chain_poset(3), antichain_poset(3), v_poset):
        alg, coalg = verify_incidencedual_iso(QQ, P)
        assert alg.is_bijective() and coalg.is_bijective()
        assert _revalidated(coalg) == coalg


def test_poset_validation():
    with pytest.raises(ValidationError):
        Poset((0, 1), frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
    with pytest.raises(ValidationError):
        Poset((0, 1, 2), frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))
    closed = transitive_closure({(0, 1), (1, 2)})
    assert closed == {(0, 1), (1, 2), (0, 2)}
    Poset((0, 1, 2), frozenset(closed | {(0, 0), (1, 1), (2, 2)}))


def _closure_fixpoint(pairs) -> set:
    """Rescan every pair against every pair until nothing changes."""
    strict = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(strict):
            for (c, d) in list(strict):
                if b == c and (a, d) not in strict:
                    strict.add((a, d))
                    changed = True
    return strict


def test_transitive_closure_matches_the_fixpoint():
    rng = random.Random("closure")
    for trial in range(200):
        n = rng.randint(1, 9)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        assert transitive_closure(pairs) == _closure_fixpoint(pairs), pairs
    # the pairs may come from a one-shot iterator, as the spec parser passes them
    assert transitive_closure(iter([(0, 1), (1, 0)])) == {(0, 1), (1, 0), (0, 0), (1, 1)}
    chain = transitive_closure((i, i + 1) for i in range(1023))
    assert len(chain) == 1023 * 1024 // 2


def test_poset_counts_up_to_iso():
    assert [len(all_posets_up_to_iso(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]


def test_templates_truncate():
    line = LineTemplate()
    q = line.truncate(2)
    assert q.vertices == (-2, -1, 0, 1, 2)
    assert len(q.arrows) == 4
    ray = RayTemplate()
    q = ray.truncate(3)
    assert q.vertices == (0, 1, 2, 3)
    assert len(q.arrows) == 3
    star = StarTemplate(2)
    q = star.truncate(2)
    assert len(q.vertices) == 5
    assert len(q.arrows) == 4
    assert q.is_acyclic()
    assert not LoopTemplate().truncate(5).is_acyclic()
    # radius 0 keeps one vertex and no arrow, except the loop's own
    for tmpl, vertex in ((line, 0), (ray, 0), (StarTemplate(3), "c")):
        assert tmpl.truncate(0) == Quiver((vertex,), ())
    assert LoopTemplate().truncate(0) == Quiver(("v",), (("v", "v"),))
    finite = FiniteTemplate(Quiver((0, 1), ((0, 1),)))
    assert finite.truncate(0) is finite.quiver
    # the exact arrows between the vertices within the radius
    for r in (1, 2, 3):
        assert set(line.truncate(r).arrows) == {(i, i + 1) for i in range(-r, r)}
        assert set(ray.truncate(r).arrows) == {(i, i + 1) for i in range(r)}
        q = StarTemplate(3).truncate(r)
        assert set(q.arrows) == {("c", (k, 1)) for k in range(3)} | \
            {((k, n), (k, n + 1)) for k in range(3) for n in range(1, r)}
        assert len(q.arrows) == 3 * r
        assert LoopTemplate().truncate(r).arrows == (("v", "v"),)


def test_make_template():
    assert make_template("star:3").rays == 3
    assert make_template("ray").name == "ray"
    with pytest.raises(ValidationError):
        make_template("moebius")


def test_semiperfect_ray():
    ray = RayTemplate()
    right = semiperfect_check(ray, "right", 3, 64)
    assert right.status == "holds"
    assert right.per_vertex == ((0, 1), (1, 2), (2, 3), (3, 4))
    left = semiperfect_check(ray, "left", 3, 64)
    assert left.status == "fails"
    assert left.vertex == 0


def test_semiperfect_rejects_negative_radius_or_bound():
    for radius, bound in ((-3, 64), (3, -1)):
        with pytest.raises(ValidationError):
            semiperfect_check(RayTemplate(), "left", radius, bound)


def test_semiperfect_line_fails_both():
    line = LineTemplate()
    for side in ("left", "right"):
        rep = semiperfect_check(line, side, 2, 32)
        assert rep.status == "fails"
        assert rep.count > 32


def test_semiperfect_star_and_loop():
    star = StarTemplate(3)
    assert semiperfect_check(star, "right", 4, 64).status == "holds"
    rep = semiperfect_check(star, "left", 4, 64)
    assert rep.status == "fails" and rep.vertex == "c"
    loop = LoopTemplate()
    assert semiperfect_check(loop, "right", 2, 16).status == "fails"
    assert semiperfect_check(loop, "left", 2, 16).status == "fails"


def test_semiperfect_finite_acyclic_holds_both():
    t = FiniteTemplate(A3)
    assert semiperfect_check(t, "left", 1, 16).status == "holds"
    assert semiperfect_check(t, "right", 1, 16).status == "holds"


def _cycle(length, chord=None, tail=False):
    """Directed cycle 0 -> 1 -> ... -> 0; chord=k adds a second arrow 0 -> k,
    so path counts grow geometrically; tail adds t -> 0, so the frontiers
    from t, and those ending at 0, repeat only after a transient."""
    arrows = [(i, (i + 1) % length) for i in range(length)]
    if chord is not None:
        arrows.append((0, chord))
    if tail:
        arrows.append(("t", 0))
    return FiniteTemplate(Quiver(tuple(range(length)) + ("t",) * tail, tuple(arrows)))


def _walk_oracle(template, v, forward, bound):
    """The step-by-step count: one frontier per path length until the count
    passes bound or the frontier empties."""
    total, frontier = 1, [v]
    while True:
        frontier = [w for u in frontier for (_, w) in
                    (template.out_arrows(u) if forward else template.in_arrows(u))]
        total += len(frontier)
        if total > bound:
            return "exceeded", total
        if not frontier:
            return "finite", total


def _check_oracle(template, side, radius, bound):
    counts = []
    for v in template.vertices_within(radius):
        status, total = _walk_oracle(template, v, side == "left", bound)
        if status == "exceeded":
            return SemiperfectReport(side, "fails", radius, bound, vertex=v, count=total)
        counts.append((v, total))
    return SemiperfectReport(side, "holds", radius, bound, per_vertex=tuple(counts))


# a diamond 0 -> {1, 2} -> 3 -> 4 with a loop on 5, listed in two orders, so
# that later vertices reuse the counts of earlier ones on either side; and
# 2 -> 0 -> {3, 1}, with a loop on 1, where a walk that reuses a count then
# passes the bound (from 0 forward, to 1 backward)
_DIAMOND = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 5))
_LOOP_BEHIND_COUNT = Quiver((3, 0, 1, 2), ((0, 1), (1, 1), (0, 3), (2, 0)))

_ORACLE_TEMPLATES = {
    "loop": LoopTemplate(), "ray": RayTemplate(), "line": LineTemplate(),
    "star:3": StarTemplate(3),
    **{f"cycle{n}-chord{chord}-tail{int(tail)}": _cycle(n, chord, tail)
       for n in range(1, 6) for chord in (None, *range(n)) for tail in (False, True)},
    **{f"diamond{order}": FiniteTemplate(Quiver(order, _DIAMOND))
       for order in ((0, 1, 2, 3, 4, 5), (4, 3, 1, 2, 0, 5))},
    **{f"dag{seed}": FiniteTemplate(rand_acyclic_quiver(random.Random(seed), 7, 14))
       for seed in range(3)},
    "loop-behind-count": FiniteTemplate(_LOOP_BEHIND_COUNT),
}


@pytest.mark.parametrize("name", _ORACLE_TEMPLATES)
def test_walk_counts_match_step_by_step_oracle(name):
    template = _ORACLE_TEMPLATES[name]
    for bound in range(151):
        for side in ("left", "right"):
            forward = side == "left"
            for v in template.vertices_within(3):
                assert _count_walks(template, v, forward, bound) == \
                    _walk_oracle(template, v, forward, bound), (side, v, bound)
            assert semiperfect_check(template, side, 3, bound) == \
                _check_oracle(template, side, 3, bound), (side, bound)


def test_walk_counts_on_pure_cycles_at_large_bounds():
    for n in range(1, 6):
        template = _cycle(n, tail=True)
        for bound in (10**4, 10**4 + 7):
            for forward in (True, False):
                for v in template.vertices_within(0):
                    assert _count_walks(template, v, forward, bound) == \
                        _walk_oracle(template, v, forward, bound)


def test_loop_answers_at_bounds_no_walk_could_reach():
    rep = semiperfect_check(LoopTemplate(), "right", 2, 10**15)
    assert rep.status == "fails"
    assert rep.count == 10**15 + 1
