"""Finite-dimensional associative algebras given by structure constants.

An algebra is stored as a sparse table mult[(i,j)][k] = coefficient of the
k-th basis element in the product b_i * b_j; an absent (i,j) key means the
product of those basis elements is zero.  Algebras need not have a unit;
adjoining one is the job of unitalize.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    NotTwoSided,
    UnsupportedCharacteristic,
    ValidationError,
)
from .fields import Field
from .linalg import (
    RowSpace,
    SparseMatrix,
    axpy,
    bilinear,
    dense_vec,
    dot,
    intersect_spans,
    lincomb,
    prune,
    sparse_vec,
)


def _trusted(cls, *values):
    """An instance of cls built from values, one per field, unvalidated.

    The one rule for what gets validated: every FinAlgebra, FinCoalgebra,
    FinModule, FinComodule, FinBialgebra, SubspaceIdeal and morphism is
    certified once, by its constructor or because it was built from a
    certified input as (i) that input's transpose, whose axioms are the
    input's read backwards (dual_algebra, dual_coalgebra,
    comodule_to_dual_module, module_to_comodule, rat_module_to_comodule,
    bialgebra_dual, unital_dual_compat, comatrix_cover, conjugate_coalgebra,
    phi_l onto C's double transpose, and rand_comodule's base, copies of
    C's comultiplication), or (ii) an end of a map P whose morphism check
    runs right after.  An onto P carries its source's axioms to its target,
    and its kernel is a two-sided ideal (quotient_algebra,
    _radical_quotient, randgen's _conjugate, rand_comodule's P: base -> M,
    and with P = identity dual_unitalization_iso and combinat's _dual_iso);
    a one to one P carries its target's axioms back to its source (the
    inclusions of subcomodule_on_span, checked as a ModuleMorphism, and of
    subcoalgebra_on_span, checked through its onto transpose C* -> D*).
    decompose_injectives re-checks nothing, by (i): its hit operators are
    the idempotents of C* acting through the transpose of C's coaction, so
    C's axioms make them multiply and sum as the idempotents do, onto
    coideals; complete_primitive_idempotents or verify_family certifies the
    family.  Each site's docstring says "Trusted (i)" or "Trusted (ii)",
    and a tier-1 test fails unless every function calling _trusted is named
    above.  Constructors that take outside input (matrix_algebra,
    truncated_poly_algebra, unitalize, counitalize, path_coalgebra,
    incidence_coalgebra, SubspaceIdeal, spec parsing) always validate;
    comatrix and divided_power_coalgebra validate through matrix_algebra and
    truncated_poly_algebra, as their transposes (i).  No structure is built
    that nothing reads.
    """
    obj = object.__new__(cls)
    for f, v in zip(fields(cls), values, strict=True):
        object.__setattr__(obj, f.name, v)
    return obj


def check_associative(F: Field, mult: dict, action: dict) -> None:
    """Raise unless (b_i b_j) m_t = b_i (b_j m_t) on every basis triple.

    action[(i,t)][s] is the coefficient of m_s in b_i m_t: the algebra's own
    mult for associativity, a module's action for the module axiom.  Only
    triples where one side can be nonzero are visited, in sorted order, so
    monomial-type tables stay cheap.
    """
    acts_on: dict[int, set] = {}
    acted_on_by: dict[int, set] = {}
    for (i, t) in action:
        acts_on.setdefault(i, set()).add(t)
        acted_on_by.setdefault(t, set()).add(i)
    triples = {(i, j, t) for (i, j), prod in mult.items() for k in prod
               for t in acts_on.get(k, ())}
    triples |= {(i, j, t) for (j, t), terms in action.items() for s in terms
                for i in acted_on_by.get(s, ())}
    for (i, j, t) in sorted(triples):
        lhs: dict = {}
        for k, c in mult.get((i, j), {}).items():
            axpy(F, lhs, c, action.get((k, t), {}))
        rhs: dict = {}
        for s, c in action.get((j, t), {}).items():
            axpy(F, rhs, c, action.get((i, s), {}))
        if lhs != rhs:
            raise ValidationError(f"associativity fails at basis triple ({i},{j},{t})")


def multiples(F: Field, table: dict, n: int, side: str):
    """v -> the products b_i v (side "left"), v b_i ("right") or both ("two")
    over the basis b_0..b_{n-1}, under a multiplication or action table.  A
    span holding them for each of its vectors is a sided ideal or submodule."""
    units = [{i: F.one} for i in range(n)]

    def images(v: dict):
        if side != "right":
            yield from (bilinear(F, table, e, v) for e in units)
        if side != "left":
            yield from (bilinear(F, table, v, e) for e in units)
    return images


@dataclass(frozen=True)
class FinAlgebra:
    """Associative algebra on basis b_0..b_{dim-1}, optionally unital."""

    field: Field
    dim: int
    mult: dict
    unit: tuple | None = None

    def __post_init__(self):
        F = self.field
        for (i, j), terms in self.mult.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise DimensionMismatch(f"mult key ({i},{j}) out of range")
            for k in terms:
                if not 0 <= k < self.dim:
                    raise DimensionMismatch(f"mult target {k} out of range")
        object.__setattr__(self, "mult", prune(F, self.mult))
        check_associative(F, self.mult, self.mult)
        if self.unit is not None:
            u = tuple(self.unit)
            if len(u) != self.dim:
                raise DimensionMismatch("unit has wrong length")
            object.__setattr__(self, "unit", u)
            ud = sparse_vec(F, u)
            for i in range(self.dim):
                e = {i: F.one}
                if bilinear(F, self.mult, ud, e) != e or bilinear(F, self.mult, e, ud) != e:
                    raise ValidationError(f"declared unit fails on basis element {i}")

    # -- products -------------------------------------------------------------

    def multiply(self, x: tuple, y: tuple) -> tuple:
        F = self.field
        return dense_vec(F, self.dim, bilinear(F, self.mult, sparse_vec(F, x, self.dim),
                                               sparse_vec(F, y, self.dim)))


@lru_cache(maxsize=16)
def matrix_algebra(F: Field, n: int) -> FinAlgebra:
    """Full matrix algebra; basis unit e_{rc} sits at index r*n + c.  One
    validated instance per (F, n) is shared, so no caller may change it."""
    mult = {}
    for r in range(n):
        for c in range(n):
            for d in range(n):
                mult[(r * n + c, c * n + d)] = {r * n + d: F.one}
    unit = [F.zero] * (n * n)
    for r in range(n):
        unit[r * n + r] = F.one
    return FinAlgebra(F, n * n, mult, tuple(unit))


class _Map:
    """What a morphism of any kind does with its matrix."""

    def __call__(self, x: tuple) -> tuple:
        return self.matrix.apply(x)

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def is_bijective(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()


@dataclass(frozen=True)
class AlgebraMorphism(_Map):
    """Linear map between algebras, multiplicative on basis pairs."""

    source: FinAlgebra
    target: FinAlgebra
    matrix: SparseMatrix
    unital: bool = False

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise DimensionMismatch("morphism matrix shape mismatch")
        F = self.source.field
        if F != self.target.field:
            raise ValidationError("morphism between different base fields")
        images = self.matrix.columns()
        # Only pairs with a source product, or with a target product between
        # the images' supports, can have a nonzero side; all others read 0 = 0.
        right: dict = {}  # left index -> right indices of target.mult
        for a, b in self.target.mult:
            right.setdefault(a, []).append(b)
        holders: dict = {}  # target index -> source indices whose image has it
        for j, col in enumerate(images):
            for b in col:
                holders.setdefault(b, []).append(j)
        partners = [set() for _ in range(self.source.dim)]
        for i, j in self.source.mult:
            partners[i].add(j)
        for i, js in enumerate(partners):
            for a in images[i]:
                for b in right.get(a, ()):
                    js.update(holders.get(b, ()))
            for j in sorted(js):
                lhs = lincomb(F, self.source.mult.get((i, j), {}), images)
                if lhs != bilinear(F, self.target.mult, images[i], images[j]):
                    raise ValidationError(f"morphism not multiplicative at ({i},{j})")
        if self.unital:
            if self.source.unit is None or self.target.unit is None:
                raise ValidationError("unital morphism requires units on both sides")
            if self.matrix.apply(self.source.unit) != self.target.unit:
                raise ValidationError("morphism does not map unit to unit")


def compose(g: AlgebraMorphism, f: AlgebraMorphism) -> AlgebraMorphism:
    if f.target is not g.source and f.target != g.source:
        raise ValidationError("composition target/source mismatch")
    return AlgebraMorphism(f.source, g.target, g.matrix @ f.matrix,
                           unital=f.unital and g.unital)


# ---------------------------------------------------------------------------
# unitalization

def unitalize(A: FinAlgebra) -> tuple[FinAlgebra, AlgebraMorphism]:
    """Adjoin a unit u: (a + s*u)(b + t*u) = ab + s*b + t*a + st*u.

    Returns the enlarged algebra (unit at the last index) and the inclusion.
    """
    F = A.field
    n = A.dim
    mult = {k: dict(v) for k, v in A.mult.items()}
    for i in range(n):
        mult[(i, n)] = {i: F.one}
        mult[(n, i)] = {i: F.one}
    mult[(n, n)] = {n: F.one}
    unit = tuple([F.zero] * n + [F.one])
    A1 = FinAlgebra(F, n + 1, mult, unit)
    incl = AlgebraMorphism(A, A1, SparseMatrix(F, n + 1, n, {(i, i): F.one for i in range(n)}))
    return A1, incl


def unitalize_morphism(f: AlgebraMorphism, A1: FinAlgebra, B1: FinAlgebra) -> AlgebraMorphism:
    """Extend f: A -> B to the unitalizations by sending u to u."""
    F = f.source.field
    n, m = f.source.dim, f.target.dim
    ent = {(i, j): v for (i, j), v in f.matrix.entries.items()}
    ent[(m, n)] = F.one
    return AlgebraMorphism(A1, B1, SparseMatrix(F, m + 1, n + 1, ent), unital=True)


def regular_matrix_embedding(A: FinAlgebra) -> AlgebraMorphism:
    """Embed A into the (dim+1)-square matrix algebra by left multiplication
    on the unitalization A + Ku, read off A's table (b_i u = b_i).  Injective
    because a*u = a recovers the element; the morphism check and the rank
    certify it."""
    F = A.field
    n = A.dim
    M = matrix_algebra(F, n + 1)
    ent = {(i * (n + 1) + n, i): F.one for i in range(n)}
    for (i, c), terms in A.mult.items():
        for r, v in terms.items():
            ent[(r * (n + 1) + c, i)] = v
    mor = AlgebraMorphism(A, M, SparseMatrix(F, (n + 1) ** 2, n, ent))
    if not mor.is_injective():
        raise ValidationError("regular embedding unexpectedly non-injective")
    return mor


# ---------------------------------------------------------------------------
# ideals

@dataclass(frozen=True)
class SubspaceIdeal:
    """A subspace of an algebra closed under the flagged multiplications."""

    ambient: FinAlgebra
    basis: tuple
    sided: str  # "left" | "right" | "two"

    def __post_init__(self):
        if self.sided not in ("left", "right", "two"):
            raise ValidationError(f"bad sidedness {self.sided!r}")
        A = self.ambient
        F = A.field
        rs = RowSpace(F, A.dim, self.basis)
        if rs.dim != len(self.basis):
            raise ValidationError("ideal basis is linearly dependent")
        object.__setattr__(self, "basis", tuple(rs.basis()))
        for side in ("left", "right"):
            if self.sided in (side, "two") and \
                    not rs.closed_under(multiples(F, A.mult, A.dim, side)):
                raise ValidationError(f"subspace not closed under {side} multiplication")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: tuple) -> bool:
        return RowSpace(self.ambient.field, self.ambient.dim, self.basis).contains(vec)


def ideal_closure(A: FinAlgebra, seed_vectors, sided: str = "two") -> SubspaceIdeal:
    """Smallest sided ideal containing the seed vectors."""
    if sided not in ("left", "right", "two"):
        raise ValidationError(f"bad sidedness {sided!r}")
    rs = RowSpace(A.field, A.dim, seed_vectors).close(multiples(A.field, A.mult, A.dim, sided))
    return SubspaceIdeal(A, tuple(rs.basis()), sided)


def _complement_projection(A: FinAlgebra, basis) -> tuple[list, object]:
    """The echelon complement of span(basis), indices comp, and the map
    sending a vector to the comp coordinates of its residual mod the span."""
    rs = RowSpace(A.field, A.dim, basis)
    pivots = set(rs.pivots())
    comp = [c for c in range(A.dim) if c not in pivots]

    def project(vec) -> tuple:
        res = rs.residual(vec)
        return tuple(res[c] for c in comp)
    return comp, project


def quotient_algebra(A: FinAlgebra, I: SubspaceIdeal) -> tuple[FinAlgebra, AlgebraMorphism]:
    """Quotient by a two-sided ideal, on the echelon complement of its basis.

    Trusted (ii): Q is built unvalidated and the projection's morphism check
    certifies it.  The projection sends b_c to the c-th basis vector of Q for
    each complement index c, so it is onto: Q inherits A's associativity and
    unit, and span(I), its kernel, is two-sided.
    """
    if I.ambient != A:
        raise ValidationError("ideal belongs to a different algebra")
    if I.sided != "two":
        raise NotTwoSided("quotient requires a two-sided ideal")
    F = A.field
    comp, project = _complement_projection(A, I.basis)
    q = len(comp)
    mult = {}
    for a, ca in enumerate(comp):
        for b, cb in enumerate(comp):
            terms = sparse_vec(F, project(A.mult.get((ca, cb), {})))
            if terms:
                mult[(a, b)] = terms
    unit = project(A.unit) if A.unit is not None else None
    Q = _trusted(FinAlgebra, F, q, mult, unit)
    columns = [project({i: F.one}) for i in range(A.dim)]
    return Q, AlgebraMorphism(A, Q, SparseMatrix.from_rows(F, columns, q).transpose())


def cofinite_two_sided_inside(A: FinAlgebra, I: SubspaceIdeal) -> SubspaceIdeal:
    """Two-sided ideal I ∩ Ker(phi) inside a left ideal I, where phi is the
    representation of A on the left module A/I."""
    if I.sided not in ("left", "two"):
        raise ValidationError("expected a left ideal")
    F = A.field
    comp, project = _complement_projection(A, I.basis)
    q = len(comp)
    # column i of the big matrix is phi(b_i) flattened (q*q entries)
    ent = {}
    for i in range(A.dim):
        for c, cc in enumerate(comp):
            col = project(A.mult.get((i, cc), {}))
            for r, v in enumerate(col):
                if not F.is_zero(v):
                    ent[(r * q + c, i)] = v
    ker = SparseMatrix(F, q * q, A.dim, ent).kernel_basis()
    return SubspaceIdeal(A, tuple(intersect_spans(F, list(I.basis), ker, A.dim)), "two")


def _nilpotent_squarings(A: FinAlgebra, basis) -> int:
    """Certify J = span(basis) nilpotent: square J^2k = J^k J^k to zero and
    return the number of squarings.  J^(n+1) = 0, n = dim A, for nilpotent
    J, so a nonzero J^k with k > n proves J is not."""
    F, n = A.field, A.dim
    power, k = [sparse_vec(F, b) for b in basis], 1
    while power:
        if k > n:
            raise ValidationError("radical candidate is not nilpotent")
        square = RowSpace(F, n, (bilinear(F, A.mult, x, y) for x in power for y in power))
        power, k = [sparse_vec(F, b) for b in square.basis()], 2 * k
    return k.bit_length() - 1


def _radical_quotient(A: FinAlgebra) -> tuple[SubspaceIdeal, FinAlgebra, AlgebraMorphism]:
    """The Jacobson radical rad, the semisimple quotient A/rad and its
    projection.  Trusted (ii): rad is built unvalidated, certified nilpotent
    by about log2(dim A) squarings, and certified two-sided as the kernel of
    the projection quotient_algebra checks."""
    F = A.field
    p = F.characteristic
    if p != 0 and p <= A.dim + 1:
        raise UnsupportedCharacteristic(
            f"radical needs char 0 or p > dim+1 = {A.dim + 1}, got p = {p}")
    n = A.dim
    # t[l] = trace of left multiplication by b_l on the unitalization
    t: dict = {}
    for (l, k), terms in A.mult.items():
        c = terms.get(k)
        if c is not None:
            t[l] = F.add(t.get(l, F.zero), c)
    G = SparseMatrix(F, n, n, {ij: dot(F, terms, t) for ij, terms in A.mult.items()})
    rad = _trusted(SubspaceIdeal, A, tuple(RowSpace(F, n, G.kernel_basis()).basis()), "two")
    _nilpotent_squarings(A, rad.basis)
    Q, proj = quotient_algebra(A, rad)
    return rad, Q, proj


def radical(A: FinAlgebra) -> SubspaceIdeal:
    """Jacobson radical via the trace form of left multiplication on the
    unitalization.  Requires characteristic 0 or p > dim(A) + 1."""
    return _radical_quotient(A)[0]
