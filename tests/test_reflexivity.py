from fractions import Fraction
from random import Random

import pytest

from dualis.algebra import FinAlgebra
from dualis.coalgebra import FinCoalgebra, comatrix, dual_algebra, dual_coalgebra
from dualis.combinat import FiniteTemplate, Quiver, make_template, path_coalgebra
from dualis.comodule import FinModule, comodule_to_dual_module
from dualis.errors import (
    DecompositionFailed,
    InsufficientClosureRadius,
    UnsupportedCorner,
    ValidationError,
)
from dualis.fields import GF, QQ
from dualis.finite_dual import group_bialgebra
from dualis.linalg import basis_vec
from dualis.randgen import conjugate_coalgebra, rand_coalgebra, rand_invertible
from dualis.reflexivity import (
    counit_from_decomposition,
    decompose_injectives,
    hopf_selfdual_check,
    left_coreflexive_check,
    phi_l,
    rat_dual,
    rat_dual_template,
    rat_module_to_comodule,
    semiperfect_iff_injective_harness,
)


def pointed2(F):
    # group-like g, primitive x over it
    one = F.one
    comult = {0: {(0, 0): one}, 1: {(0, 1): one, (1, 0): one}}
    return FinCoalgebra(F, 2, comult, counit=(one, F.zero))


A3 = Quiver((0, 1, 2), ((0, 1), (1, 2)))


def test_local_dual_gives_single_block():
    C = pointed2(QQ)
    dec = decompose_injectives(C, "right")
    assert dec.block_dims == (2,)
    assert dec.idempotents == ((Fraction(1), Fraction(0)),)
    assert counit_from_decomposition(dec) == C.counit


def test_path_coalgebra_blocks_by_endpoint():
    C, flat = path_coalgebra(QQ, A3)
    dec = decompose_injectives(C, "right")
    assert sorted(dec.block_dims) == [1, 2, 3]
    left = decompose_injectives(C, "left")
    assert sorted(left.block_dims) == [1, 2, 3]
    # rows of the two decompositions pair up: dim of ending-at-v matches
    # starting-at-v read from the opposite end of the chain
    assert sorted(dec.block_dims) == sorted(left.block_dims)


def test_supplied_vertex_duals_are_verified_and_used():
    C, flat = path_coalgebra(GF(101), A3)
    F = GF(101)
    verts = [basis_vec(F, C.dim, i) for i in range(3)]  # trivial path duals
    dec = decompose_injectives(C, "right", idempotents=verts)
    assert dec.certificates == ("corner-dim-1",) * 3
    assert sorted(dec.block_dims) == [1, 2, 3]


def test_counit_itself_is_rejected_as_imprimitive():
    C, _ = path_coalgebra(QQ, A3)
    with pytest.raises(DecompositionFailed):
        decompose_injectives(C, "right", idempotents=[C.counit])


def quaternions(F):
    """Hamilton's quaternions on 1, i, j, k."""
    one, m = F.one, F.neg(F.one)
    mult = {(0, a): {a: one} for a in range(4)}
    mult.update({(a, 0): {a: one} for a in range(1, 4)})
    for a in range(1, 4):
        b, c = a % 3 + 1, (a + 1) % 3 + 1  # i j = k, j k = i, k i = j
        mult[(a, a)] = {0: m}
        mult[(a, b)] = {c: one}
        mult[(b, a)] = {c: m}
    return FinAlgebra(F, 4, mult, (one, F.zero, F.zero, F.zero))


def test_quaternion_corner_is_unsupported_over_q_and_split_mod_p():
    # over Q the quaternions are a division algebra: one noncommutative
    # corner the certifier cannot handle, reported as such, not as a bug
    with pytest.raises(UnsupportedCorner):
        decompose_injectives(dual_coalgebra(quaternions(QQ)), "right")
    # over F_101 they are M_2, whose dual coalgebra has two 2-dim blocks
    dec = decompose_injectives(dual_coalgebra(quaternions(GF(101))), "right")
    assert dec.block_dims == (2, 2)
    assert issubclass(UnsupportedCorner, DecompositionFailed)


def test_comatrix_blocks_are_columns():
    C = comatrix(QQ, 2)
    dec = decompose_injectives(C, "right")
    assert dec.block_dims == (2, 2)


def test_non_counital_is_rejected():
    comult = {0: {(0, 0): Fraction(1)}}
    C = FinCoalgebra(QQ, 1, comult, counit=None)
    with pytest.raises(ValidationError):
        decompose_injectives(C)


def test_rat_dual_ideal_dims_match_blocks():
    C, _ = path_coalgebra(QQ, A3)
    rd = rat_dual(C)
    ideal_dims = tuple(len(i) for i in rd.ideals)
    assert sorted(ideal_dims) == [1, 2, 3]
    assert ideal_dims == rd.decomposition.block_dims


def test_rat_dual_rejects_left_decomposition():
    C, _ = path_coalgebra(QQ, A3)
    dec = decompose_injectives(C, "left")
    with pytest.raises(ValidationError):
        rat_dual(C, dec)


def test_evaluation_is_identity_and_bijective():
    for C in (pointed2(QQ), comatrix(GF(101), 2)):
        m = phi_l(C)
        assert m.is_bijective()
        rep = left_coreflexive_check(C)
        assert rep.bijective
        assert rep.kernel_rank == 0
        assert rep.source_dim == rep.target_dim == C.dim


def convolution(C, f, g):
    """(f*g)(c_k) = sum over delta(c_k) of f(c_i) g(c_j), by a plain loop."""
    F = C.field
    out = []
    for k in range(C.dim):
        s = F.zero
        for (i, j), v in C.comult.get(k, {}).items():
            s = F.add(s, F.mul(v, F.mul(f[i], g[j])))
        out.append(s)
    return tuple(out)


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["q", "fp101"])
@pytest.mark.parametrize("counital", [True, False])
def test_dual_product_is_convolution_on_every_basis_pair(F, counital):
    rng = Random(f"convolution:{F.characteristic}:{counital}")
    cases = [rand_coalgebra(F, rng, max_dim=5, counital=counital) for _ in range(20)]
    # rand_coalgebra draws only cocommutative non-counital coalgebras, on
    # which a product read from delta transposed is the same table; the 2x2
    # comatrix table, with or without its counit, is not cocommutative
    M = comatrix(F, 2)
    M = FinCoalgebra(F, M.dim, M.comult, M.counit if counital else None)
    cases += [M] + [conjugate_coalgebra(M, rand_invertible(F, rng, M.dim))[0]
                    for _ in range(5)]
    for C in cases:
        B = dual_algebra(C)
        for a in range(C.dim):
            for b in range(C.dim):
                f, g = basis_vec(F, C.dim, a), basis_vec(F, C.dim, b)
                assert B.multiply(f, g) == convolution(C, f, g)


def test_module_transport_round_trips():
    C = pointed2(QQ)
    B = dual_algebra(C)
    action = {pair: dict(tbl) for pair, tbl in B.mult.items()}
    N = FinModule(B, B.dim, action)
    M = rat_module_to_comodule(N, C)
    assert M.coalgebra is C
    back = comodule_to_dual_module(M)
    assert back.action == N.action


def test_module_over_wrong_algebra_is_rejected():
    C = pointed2(QQ)
    D = comatrix(QQ, 2)
    B = dual_algebra(D)
    action = {pair: dict(tbl) for pair, tbl in B.mult.items()}
    N = FinModule(B, B.dim, action)
    with pytest.raises(ValidationError):
        rat_module_to_comodule(N, C)


def test_hopf_selfdual_group_algebra():
    table = [[0, 1], [1, 0]]
    H = group_bialgebra(QQ, table, [0, 1])
    out = hopf_selfdual_check(H)
    assert out["double_dual_identity"]
    assert out["evaluation_bijective"]
    assert out["block_dims"] == (1, 1)
    assert out["counit_recovered"]


def test_ray_template_blocks():
    data = rat_dual_template(make_template("ray"), 2, 4)
    right = data["sides"]["right"]
    assert right["window_dim"] == 6
    assert right["annihilator_dim"] == 0
    counts = {pv["vertex"]: pv["count"] for pv in right["per_vertex"]}
    assert counts == {0: 1, 1: 2, 2: 3}
    left = data["sides"]["left"]
    assert left["window_dim"] == 12
    assert left["covered_dim"] == 0
    assert left["annihilator_dim"] == 12
    assert all(pv["status"] == "exceeded" for pv in left["per_vertex"])


@pytest.mark.parametrize("name", ["ray", "line", "star:2", "loop"])
def test_template_anchor_groups_are_the_injective_blocks(name, monkeypatch):
    # rat_dual_template reads its blocks off the path anchors instead of
    # building the coalgebra; the blocks of the coalgebra must agree
    template = make_template(name)
    with monkeypatch.context() as m:
        m.setattr(FinCoalgebra, "__post_init__", lambda self: pytest.fail("coalgebra built"))
        data = rat_dual_template(template, 2, 4)
    assert "coalgebra" not in data
    assert data["bound"] == len(data["paths"]) + 1
    Q = template.truncate(4)
    C, flat = path_coalgebra(QQ, Q, max_len=4)
    assert flat == data["paths"]
    vertex_duals = [basis_vec(QQ, C.dim, flat.index((v, ()))) for v in Q.vertices]
    for side in ("right", "left"):
        dec = decompose_injectives(C, side, idempotents=vertex_duals)
        support = {v: sorted({k for b in block for k, c in enumerate(b) if c})
                   for v, block in zip(Q.vertices, dec.blocks)}
        for pv in data["sides"][side]["per_vertex"]:
            assert list(pv["members"]) == support[pv["vertex"]], (side, pv["vertex"])


def test_closure_radius_guard():
    with pytest.raises(InsufficientClosureRadius):
        rat_dual_template(make_template("ray"), 3, 5)


def test_harness_agreement_on_templates():
    expectations = {
        "ray": {"right": "holds", "left": "fails"},
        "line": {"right": "fails", "left": "fails"},
        "star:2": {"right": "holds", "left": "fails"},
        "loop": {"right": "fails", "left": "fails"},
    }
    for name, sides in expectations.items():
        out = semiperfect_iff_injective_harness(make_template(name), radii=(0, 2, 3))
        assert out["disagreements"] == 0, name
        for rec in out["records"]:
            assert rec["status"] == sides[rec["side"]], (name, rec)
            if rec["status"] == "holds":
                assert rec["annihilator_dim"] == 0
            else:
                assert rec["annihilator_dim"] > 0


def test_harness_finite_template_holds_both_sides():
    out = semiperfect_iff_injective_harness(FiniteTemplate(A3), radii=(2, 3))
    assert out["disagreements"] == 0
    for rec in out["records"]:
        assert rec["status"] == "holds"
        assert rec["annihilator_dim"] == 0


# ---------------------------------------------------------------------------
# decomposition oracle: the block properties, by plain loops over the tables

def _dense(M):
    F = M.field
    return [[M.entries.get((r, c), F.zero) for c in range(M.cols)] for r in range(M.rows)]


def _matmul(F, X, Y):
    n = len(X)
    out = [[F.zero] * n for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if not F.is_zero(X[r][k]):
                for c in range(n):
                    out[r][c] = F.add(out[r][c], F.mul(X[r][k], Y[k][c]))
    return out


def _hit(C, e, side):
    """P_e(c_k) = sum over delta(c_k) of e on the far leg, as a dense matrix."""
    F = C.field
    P = [[F.zero] * C.dim for _ in range(C.dim)]
    for k, table in C.comult.items():
        for (i, j), v in table.items():
            r, s = (i, j) if side == "right" else (j, i)
            P[r][k] = F.add(P[r][k], F.mul(v, e[s]))
    return P


def _apply(F, P, v):
    out = []
    for row in P:
        acc = F.zero
        for x, y in zip(row, v):
            acc = F.add(acc, F.mul(x, y))
        out.append(acc)
    return out


def _assert_blocks_hold(dec):
    C, side = dec.coalgebra, dec.side
    F, n = C.field, C.dim
    Ps = [_dense(M) for M in dec.projections]
    zero = [[F.zero] * n for _ in range(n)]
    total = [[F.zero] * n for _ in range(n)]
    for a, P in enumerate(Ps):
        assert P == _hit(C, dec.idempotents[a], side)
        assert _matmul(F, P, P) == P
        for b, R in enumerate(Ps):
            if a != b:
                assert _matmul(F, P, R) == zero
        total = [[F.add(x, y) for x, y in zip(tr, pr)] for tr, pr in zip(total, Ps[a])]
    assert total == [[F.one if r == c else F.zero for c in range(n)] for r in range(n)]
    for P, block in zip(Ps, dec.blocks):
        # an idempotent's rank is its trace; block vectors are fixed by P and
        # independent, their leading indices being distinct
        trace = F.zero
        for r in range(n):
            trace = F.add(trace, P[r][r])
        assert trace == F.from_int(len(block))
        leads = [next(k for k, x in enumerate(w) if not F.is_zero(x)) for w in block]
        assert len(set(leads)) == len(block)
        for w in block:
            assert _apply(F, P, list(w)) == list(w)
            # coideal: every slice of delta(w) on the block's leg lies in the block
            slices: dict = {}
            for k, x in enumerate(w):
                for (i, j), v in C.comult.get(k, {}).items():
                    outer, inner = (i, j) if side == "right" else (j, i)
                    row = slices.setdefault(outer, [F.zero] * n)
                    row[inner] = F.add(row[inner], F.mul(x, v))
            for row in slices.values():
                assert _apply(F, P, row) == row
    assert sum(len(b) for b in dec.blocks) == n


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["q", "fp101"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_decomposition_blocks_match_a_plain_loop_oracle(F, side):
    rng = Random(f"blocks:{F.characteristic}:{side}")
    cases = [rand_coalgebra(F, rng, max_dim=5, counital=True) for _ in range(12)]
    cases += [path_coalgebra(F, A3)[0], comatrix(F, 2)]
    cases += [conjugate_coalgebra(C, rand_invertible(F, rng, C.dim))[0]
              for C in (comatrix(F, 2), path_coalgebra(F, A3)[0], cases[0])]
    for C in cases:
        _assert_blocks_hold(decompose_injectives(C, side))
