"""Injective block decompositions, the rational dual, and the evaluation map.

A complete orthogonal primitive idempotent family (e_j) in the dual algebra
C* cuts a counital coalgebra into blocks through the hit operators

    right side:  P_e(c) = (id (x) e) delta(c)
    left side:   P_e(c) = (e (x) id) delta(c)

The operators are orthogonal idempotent projections summing to the identity,
and each image is a coideal on the matching side (right blocks satisfy
delta(W) <= C (x) W, left blocks delta(W) <= W (x) C).  P_e is e acting on C
through the transpose of its coaction, so C's axioms and the family's checks
already give all of this, and nothing is re-checked (algebra._trusted, (i)).
For a path coalgebra the right blocks are spanned by the paths ending at a
fixed vertex and the left blocks by the paths starting at one, which is the
bridge to the bounded walk counts used by the semiperfectness harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra, _trusted, multiples
from .coalgebra import CoalgebraMorphism, FinCoalgebra, dual_algebra, dual_coalgebra
from .combinat import _count_walks, path_target, paths_by_length, semiperfect_check
from .comodule import FinComodule, FinModule, module_to_comodule
from .errors import (
    InsufficientClosureRadius,
    NotLeftCoreflexive,
    ValidationError,
)
from .finite_dual import bialgebra_dual
from .idempotents import complete_primitive_idempotents, verify_family
from .linalg import RowSpace, SparseMatrix, dense_vec, dot, lincomb, sparse_vec, tensor_legs


@dataclass(frozen=True)
class InjectiveDecomposition:
    """Blocks of a counital coalgebra cut by dual idempotents.

    idempotents are functionals (coordinate tuples over the dual basis),
    projections the corresponding hit operators, blocks the column-space
    bases of the projections.
    """

    coalgebra: FinCoalgebra
    side: str
    idempotents: tuple
    projections: tuple
    blocks: tuple
    certificates: tuple

    @property
    def block_dims(self) -> tuple:
        return tuple(len(b) for b in self.blocks)


def _hit_matrix(C: FinCoalgebra, e: tuple, side: str) -> SparseMatrix:
    """Column k is P_e(c_k): e evaluated on the right tensor factors of
    delta(c_k) on the right side, on the left ones on the left side."""
    F = C.field
    es = sparse_vec(F, e)
    kept = 0 if side == "right" else 1
    return SparseMatrix(F, C.dim, C.dim, {
        (i, k): dot(F, leg, es)
        for k, table in C.comult.items() for i, leg in tensor_legs(table, kept).items()})


def decompose_injectives(C: FinCoalgebra, side: str = "right",
                         idempotents=None) -> InjectiveDecomposition:
    """Cut C into indecomposable injective blocks on the given side.

    When idempotents is None a complete primitive family is computed in the
    dual algebra; a supplied family is verified instead of trusted.
    Trusted (i): the hit operators are the family acting through the
    transpose of C's coaction, so they are complete orthogonal idempotent
    projections onto coideals because C is a counital coalgebra and the
    family checks passed.
    """
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    if not C.is_counital():
        raise ValidationError("injective decomposition needs a counit")
    B = dual_algebra(C)
    if idempotents is None:
        family, certs = complete_primitive_idempotents(B)
    else:
        family = [tuple(e) for e in idempotents]
        certs = verify_family(B, family)
    projections = [_hit_matrix(C, e, side) for e in family]
    blocks = [tuple(RowSpace(C.field, C.dim, M.columns()).basis()) for M in projections]
    return InjectiveDecomposition(C, side, tuple(family), tuple(projections),
                                  tuple(blocks), tuple(certs))


def counit_from_decomposition(dec: InjectiveDecomposition) -> tuple:
    """The counit recovered as the sum of the dual idempotents, which the
    family checks already certified to sum to the unit of C*, the counit."""
    F = dec.coalgebra.field
    ones = dict.fromkeys(range(len(dec.idempotents)), F.one)
    total = lincomb(F, ones, [sparse_vec(F, e) for e in dec.idempotents])
    return dense_vec(F, dec.coalgebra.dim, total)


@dataclass(frozen=True)
class RatDualAlgebra:
    """The dual algebra together with the left ideals B*e_j.

    Each ideal is dual to one injective right block and the verified
    dimension match is the finite shadow of rationality of the dual.
    """

    algebra: FinAlgebra
    decomposition: InjectiveDecomposition
    ideals: tuple


def rat_dual(C: FinCoalgebra,
             decomposition: InjectiveDecomposition | None = None) -> RatDualAlgebra:
    """Left ideals B e_j of the dual algebra, one per injective right block.

    dim(B e_j) must equal the dimension of the block E_j; the functional
    f*e_j acts as f composed with the block projection, so the two match
    exactly or the construction is rejected.
    """
    dec = decomposition if decomposition is not None else decompose_injectives(C, "right")
    if dec.side != "right":
        raise ValidationError("rational dual wants the right decomposition")
    B = dual_algebra(C)
    F = B.field
    ideals = []
    whole = RowSpace(F, B.dim)
    for j, e in enumerate(dec.idempotents):
        rs = RowSpace(F, B.dim, multiples(F, B.mult, B.dim, "left")(sparse_vec(F, e)))
        if rs.dim != len(dec.blocks[j]):
            raise ValidationError(
                f"ideal B*e_{j} has dim {rs.dim}, block has {len(dec.blocks[j])}")
        for v in rs.basis():
            whole.add(v)
        ideals.append(tuple(rs.basis()))
    if whole.dim != B.dim:
        raise ValidationError("ideals do not span the dual algebra")
    return RatDualAlgebra(B, dec, tuple(ideals))


def phi_l(C: FinCoalgebra) -> CoalgebraMorphism:
    """Evaluation of C into the finite dual of its dual algebra.

    Over a finite-dimensional coalgebra the matrix is the identity in dual
    bases.  Trusted (i): the target is C's double transpose, whose table and
    counit are C's own, so the identity is a counital coalgebra map by
    construction.
    """
    return _trusted(CoalgebraMorphism, C, dual_coalgebra(dual_algebra(C)),
                    SparseMatrix.identity(C.field, C.dim), C.is_counital())


@dataclass(frozen=True)
class CoreflexivityReport:
    bijective: bool
    kernel_rank: int
    source_dim: int
    target_dim: int


def left_coreflexive_check(C: FinCoalgebra) -> CoreflexivityReport:
    """Injectivity and surjectivity of the evaluation map, from one
    elimination: rank = source dim - kernel rank."""
    m = phi_l(C)
    kernel_rank = len(m.matrix.kernel_basis())
    return CoreflexivityReport(
        bijective=kernel_rank == 0 and m.source.dim == m.target.dim,
        kernel_rank=kernel_rank,
        source_dim=m.source.dim,
        target_dim=m.target.dim,
    )


def rat_module_to_comodule(N: FinModule, C: FinCoalgebra) -> FinComodule:
    """Transport a module over the dual algebra back to a C-comodule.

    Needs the evaluation map to be bijective; the module must genuinely be
    over dual_algebra(C) or the tables will not match.  Trusted (i): the
    result is the transpose of the validated N, whose algebra's tables were
    just checked to equal those of C*.
    """
    B = dual_algebra(C)
    if N.algebra.mult != B.mult or N.algebra.unit != B.unit:
        raise ValidationError("module is not over the dual algebra of C")
    rep = left_coreflexive_check(C)
    if not rep.bijective:
        raise NotLeftCoreflexive(
            f"evaluation has kernel rank {rep.kernel_rank}")
    M = module_to_comodule(N)
    return _trusted(FinComodule, C, M.dim, M.coaction)


def hopf_selfdual_check(H) -> dict:
    """Double-dual identity and evaluation bijectivity for a bialgebra.

    Verifies the double transpose reproduces every table on the nose, that
    evaluation is a bijective coalgebra morphism, and that the injective
    blocks of the underlying coalgebra cover it exactly.
    """
    double = bialgebra_dual(bialgebra_dual(H))
    if double.algebra != H.algebra:
        raise ValidationError("double dual algebra differs")
    if double.coalgebra != H.coalgebra:
        raise ValidationError("double dual coalgebra differs")
    if double.antipode != H.antipode:
        raise ValidationError("double dual antipode differs")
    rep = left_coreflexive_check(H.coalgebra)
    if not rep.bijective:
        raise ValidationError("evaluation is not bijective")
    dec = decompose_injectives(H.coalgebra, "right")
    return {
        "double_dual_identity": True,
        "evaluation_bijective": True,
        "block_dims": dec.block_dims,
        "counit_recovered": True,
    }


def rat_dual_template(template, radius: int, ambient_radius: int) -> dict:
    """Vertex blocks of a truncated path coalgebra with completeness flags.

    The path coalgebra is truncated at ambient_radius while blocks are
    only formed for vertices within radius; every path of length <= radius
    anchored in the window then survives intact, which needs ambient >=
    2*radius.  The right (left) block of v is spanned by the paths ending
    (starting) at v, so blocks are read off path anchors and the coalgebra is
    never built.  Walks are counted up to the path count plus one.  A block is
    certified complete when the template walk count is finite and equals the
    truncated block dimension.
    """
    if ambient_radius < 2 * radius:
        raise InsufficientClosureRadius(
            f"ambient radius {ambient_radius} < 2*radius = {2 * radius}")
    Q = template.truncate(ambient_radius)
    flat = [p for lev in paths_by_length(Q, ambient_radius)[0] for p in lev]
    bound = len(flat) + 1
    anchors = {
        "right": [path_target(Q, p) for p in flat],
        "left": [p[0] for p in flat],
    }
    verts = list(template.vertices_within(radius))
    sides = {}
    for side in ("right", "left"):
        by_anchor: dict = {}  # vertex -> indices of the paths anchored there
        for n, a in enumerate(anchors[side]):
            by_anchor.setdefault(a, []).append(n)
        per_vertex = []
        for v in verts:
            members = tuple(by_anchor.get(v, ()))
            status, count = _count_walks(template, v, side == "left", bound)
            complete = status == "finite" and count == len(members)
            if status == "finite" and count < len(members):
                raise ValidationError(
                    "truncated block larger than the certified total")
            per_vertex.append({
                "vertex": v,
                "members": members,
                "status": status,
                "count": count,
                "complete": complete,
            })
        window_dim = sum(len(pv["members"]) for pv in per_vertex)
        covered = sum(len(pv["members"]) for pv in per_vertex if pv["complete"])
        sides[side] = {
            "per_vertex": per_vertex,
            "window_dim": window_dim,
            "covered_dim": covered,
            "annihilator_dim": window_dim - covered,
        }
    return {
        "paths": flat,
        "radius": radius,
        "ambient_radius": ambient_radius,
        "bound": bound,
        "sides": sides,
    }


def semiperfect_iff_injective_harness(template, radii=(2, 3, 4, 5, 6)) -> dict:
    """Cross-validate bounded semiperfectness against block completeness.

    For each side and radius the bounded walk check must agree with the
    vanishing of the annihilator of the certified-complete blocks inside
    the window of the truncated path coalgebra.
    """
    records = []
    disagreements = 0
    for radius in radii:
        data = rat_dual_template(template, radius, 2 * radius)
        for side in ("right", "left"):
            rep = semiperfect_check(template, side, radius, data["bound"])
            ann = data["sides"][side]["annihilator_dim"]
            agree = (rep.status == "holds") == (ann == 0)
            if not agree:
                disagreements += 1
            records.append({
                "side": side,
                "radius": radius,
                "status": rep.status,
                "annihilator_dim": ann,
                "window_dim": data["sides"][side]["window_dim"],
                "agree": agree,
            })
    return {"records": records, "disagreements": disagreements}
