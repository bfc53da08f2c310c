"""Finite-dimensional coalgebras given by comultiplication constants.

comult[k][(i,j)] is the coefficient of c_i (x) c_j in delta(c_k).  A counit
is optional; adjoining one is the job of counitalize.

Every axiom is checked through the dual: coassociativity and the counit
axiom are associativity and the unit axiom of the transposed table, and f
is a coalgebra morphism exactly when its transpose is an algebra morphism,
so each axiom, and each range, length, field and shape check, is stated
once, in algebra.py, and its errors name the algebra-side table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraMorphism,
    FinAlgebra,
    _Map,
    _trusted,
    matrix_algebra,
    radical,
    regular_matrix_embedding,
    unitalize,
)
from .errors import ValidationError
from .fields import Field
from .linalg import (RowSpace, SparseMatrix, basis_vec, dense_vec, dot, lincomb, regroup,
                     sparse_vec, tensor_legs)


def transpose_comult(comult: dict) -> dict:
    """comult[k][(i,j)] = c  becomes  mult[(i,j)][k] = c."""
    return regroup(comult, lambda k, ij: (ij, k))


def transpose_mult(mult: dict) -> dict:
    return regroup(mult, lambda ij, k: (k, ij))


@dataclass(frozen=True)
class FinCoalgebra:
    """Coassociative coalgebra on basis c_0..c_{dim-1}, optionally counital;
    stores the pruned table and counit its validated transpose reads back."""

    field: Field
    dim: int
    comult: dict
    counit: tuple | None = None

    def __post_init__(self):
        A = FinAlgebra(self.field, self.dim, transpose_comult(self.comult), self.counit)
        object.__setattr__(self, "comult", transpose_mult(A.mult))
        object.__setattr__(self, "counit", A.unit)

    # -- coproducts -----------------------------------------------------------

    def comult_of(self, x: tuple) -> dict:
        """delta(x) as a sparse {(i,j): scalar} tensor."""
        return lincomb(self.field, sparse_vec(self.field, x, self.dim), self.comult)

    def counit_of(self, x: tuple):
        if self.counit is None:
            raise ValidationError("coalgebra has no counit")
        F = self.field
        return dot(F, sparse_vec(F, x, self.dim), sparse_vec(F, self.counit))

    def is_counital(self) -> bool:
        return self.counit is not None


@dataclass(frozen=True)
class CoalgebraMorphism(_Map):
    """Linear map f with delta(f(c)) = (f (x) f)(delta(c)) on every basis c,
    validated as its transpose, an algebra map between the duals."""

    source: FinCoalgebra
    target: FinCoalgebra
    matrix: SparseMatrix
    counital: bool = False

    def __post_init__(self):
        AlgebraMorphism(dual_algebra(self.target), dual_algebra(self.source),
                        self.matrix.transpose(), unital=self.counital)


def compose_coalgebra(g: CoalgebraMorphism, f: CoalgebraMorphism) -> CoalgebraMorphism:
    if f.target != g.source:
        raise ValidationError("composition target/source mismatch")
    return CoalgebraMorphism(f.source, g.target, g.matrix @ f.matrix,
                             counital=f.counital and g.counital)


# ---------------------------------------------------------------------------
# counitalization

def _adjoin_counit(C: FinCoalgebra) -> tuple[dict, tuple]:
    """The comult and counit tables of counitalize(C), unvalidated.  C's keys
    stop below the new grouplike e = c_dim, so every entry added is fresh."""
    F = C.field
    n = C.dim
    comult = {k: {**C.comult.get(k, {}), (k, n): F.one, (n, k): F.one} for k in range(n)}
    comult[n] = {(n, n): F.one}
    return comult, tuple([F.zero] * n + [F.one])


def counitalize(C: FinCoalgebra) -> tuple[FinCoalgebra, CoalgebraMorphism]:
    """Adjoin a grouplike e: delta(c) gains c(x)e + e(x)c, and eps picks the
    e-coordinate.  Returns the enlarged coalgebra and the projection killing e."""
    F = C.field
    n = C.dim
    C1 = FinCoalgebra(F, n + 1, *_adjoin_counit(C))
    proj = CoalgebraMorphism(C1, C, SparseMatrix(F, n, n + 1, {(i, i): F.one for i in range(n)}))
    return C1, proj


def counital_lift(f: CoalgebraMorphism, C1: FinCoalgebra, proj: CoalgebraMorphism
                  ) -> tuple[CoalgebraMorphism, int]:
    """Unique counital lift of f: D -> C through proj: C1 -> C.

    The lift is pinned by the linear constraints proj . g = f and
    eps_C1 . g = eps_D; the second return value is the dimension of the
    homogeneous solution space (always 0, computed rather than assumed).
    """
    D = f.source
    if D.counit is None:
        raise ValidationError("lift needs a counital source")
    F = D.field
    n = C1.dim
    # stack proj's matrix and the counit row; kernel dim 0 means uniqueness
    ent = dict(proj.matrix.entries)
    for j, v in enumerate(C1.counit):
        if not F.is_zero(v):
            ent[(proj.matrix.rows, j)] = v
    stacked = SparseMatrix(F, proj.matrix.rows + 1, n, ent)
    freedom = len(stacked.kernel_basis()) * D.dim
    cols = []
    for k, fk in enumerate(f.matrix.columns()):
        rhs = dense_vec(F, f.matrix.rows, fk) + (D.counit[k],)
        sol = stacked.solve(rhs)
        if sol is None:
            raise ValidationError("lift constraints are inconsistent")
        cols.append(sol)
    g = CoalgebraMorphism(D, C1, SparseMatrix.from_rows(F, cols, n).transpose(),
                          counital=True)
    if proj.matrix @ g.matrix != f.matrix:
        raise ValidationError("lift does not project back to f")
    return g, freedom


# ---------------------------------------------------------------------------
# duals

def dual_algebra(C: FinCoalgebra) -> FinAlgebra:
    """Convolution algebra on the dual basis; unital exactly when C is
    counital.  Trusted (i): the transpose of C."""
    return _trusted(FinAlgebra, C.field, C.dim, transpose_comult(C.comult), C.counit)


def dual_coalgebra(A: FinAlgebra) -> FinCoalgebra:
    """Full dual of a finite-dimensional algebra as a coalgebra on the dual
    basis; the counit is evaluation at the unit, when there is one.
    Trusted (i): the transpose of A."""
    return _trusted(FinCoalgebra, A.field, A.dim, transpose_mult(A.mult), A.unit)


def dual_unitalization_iso(C: FinCoalgebra) -> AlgebraMorphism:
    """Unitalizing the dual equals dualizing the counitalization; under
    dual-basis indexing the isomorphism is the identity matrix.

    Trusted (ii), P = identity: the counitalization C1 is built unvalidated,
    and the check against the validated unitalization B1 compares the tables
    entry by entry and unit with counit, so C1 carries B1's axioms.
    """
    B1, _ = unitalize(dual_algebra(C))
    C1 = _trusted(FinCoalgebra, C.field, C.dim + 1, *_adjoin_counit(C))
    return AlgebraMorphism(B1, dual_algebra(C1), SparseMatrix.identity(C.field, C.dim + 1),
                           unital=True)


# ---------------------------------------------------------------------------
# comatrix and grouplike coalgebras

def comatrix(F: Field, n: int) -> FinCoalgebra:
    """Matrix-unit coalgebra: delta(e_ij) = sum_k e_ik (x) e_kj, eps = [i == j].
    The transpose of matrix_algebra(F, n), so it is validated once per (F, n)."""
    return dual_coalgebra(matrix_algebra(F, n))


def grouplike_coalgebra(F: Field, n: int) -> FinCoalgebra:
    """delta(g_k) = g_k (x) g_k and eps(g_k) = 1 on every basis element."""
    comult = {k: {(k, k): F.one} for k in range(n)}
    return FinCoalgebra(F, n, comult, tuple([F.one] * n))


def comatrix_cover(C: FinCoalgebra) -> CoalgebraMorphism:
    """Surjection from the (dim+1)-square comatrix coalgebra onto C, obtained
    by dualizing the regular matrix embedding pi of the dual algebra.

    Trusted (i): the cover theta is the transpose of pi, and its source the
    transpose of pi's target, the matrix algebra: the comatrix coalgebra.  The
    comatrix identity delta(theta(e_ij)) = sum_k theta(e_ik) (x) theta(e_kj)
    is pi's multiplicativity, and theta is onto because pi is one to one;
    regular_matrix_embedding checked both.
    """
    pi = regular_matrix_embedding(dual_algebra(C))
    return _trusted(CoalgebraMorphism, dual_coalgebra(pi.target), C,
                    pi.matrix.transpose(), False)


# ---------------------------------------------------------------------------
# subcoalgebras

def delta_legs(C: FinCoalgebra):
    """v -> the legs of the tensor delta(v): its right factors, then its left
    factors.  A span holding both legs of its vectors is a subcoalgebra."""
    def images(v: dict):
        tensor = C.comult_of(v)
        for outer in (0, 1):
            yield from tensor_legs(tensor, outer).values()
    return images


def subcoalgebra_on_span(C: FinCoalgebra, vectors) -> tuple[FinCoalgebra, CoalgebraMorphism]:
    """Induced coalgebra on a span, or ValidationError if it is not closed.
    Trusted (ii): the inclusion's check runs on its transpose C* -> D*, onto
    as the basis is independent, so D* inherits C*'s axioms."""
    F = C.field
    rs = RowSpace(F, C.dim, vectors)

    def coords(v):
        out = rs.coords(v)
        if out is None:
            raise ValidationError("span is not a subcoalgebra")
        return out

    basis = rs.basis()
    comult = {}
    for a, vec in enumerate(basis):
        rows = tensor_legs(C.comult_of(vec))
        # rewrite the tensor in the sub-basis, first by rows then by columns;
        # both succeed exactly when delta(vec) lies in W (x) W, since
        # C (x) W meets W (x) C in W (x) W
        by_b = regroup({i: sparse_vec(F, coords(row)) for i, row in rows.items()},
                       lambda i, b: (b, i))
        table = {(a2, b): ca for b, by_i in by_b.items()
                 for a2, ca in sparse_vec(F, coords(by_i)).items()}
        if table:
            comult[a] = table
    counit = None
    if C.counit is not None:
        counit = tuple(C.counit_of(v) for v in basis)
    D = _trusted(FinCoalgebra, F, len(basis), comult, counit)
    incl = CoalgebraMorphism(D, C, SparseMatrix.from_rows(F, basis, C.dim).transpose(),
                             counital=counit is not None)
    return D, incl


def subcoalgebra_generated(C: FinCoalgebra, x: tuple) -> tuple[FinCoalgebra, CoalgebraMorphism]:
    """Smallest subcoalgebra containing x: close the span under all rows and
    columns of coefficient tensors of delta."""
    rs = RowSpace(C.field, C.dim, [x]).close(delta_legs(C))
    return subcoalgebra_on_span(C, rs.basis())


def coradical(C: FinCoalgebra) -> tuple[FinCoalgebra, CoalgebraMorphism]:
    """Largest cosemisimple subcoalgebra: the annihilator of the radical of
    the dual algebra."""
    F = C.field
    rad = radical(dual_algebra(C))
    M = SparseMatrix.from_rows(F, rad.basis, C.dim)
    vectors = M.kernel_basis() if rad.basis else [basis_vec(F, C.dim, i) for i in range(C.dim)]
    return subcoalgebra_on_span(C, vectors)
