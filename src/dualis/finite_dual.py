"""Finite duals of graded algebras, observed through a truncation window.

A functional f on a graded algebra belongs to the finite dual exactly when
its two-sided translates a -> f <- b span a finite-dimensional space.  With
only finitely many degrees stored we cannot decide that outright, so
membership_bounded returns certificates with explicit semantics:

  Member(dim, ...)   the translate span, restricted to the window of degrees
                     0..bound, reached dimension dim <= bound and a full
                     extra generation of translates added nothing;
  NotWithinBound     the restricted span already exceeds the bound, which is
                     a proof that the true span does too (restriction can
                     only lose dimension);
  InsufficientTruncation is raised when the stored degrees cannot support
                     the generation budget (known degree < 2 * bound) or the
                     span is still growing when the budget runs out.

Sequences are the one-variable special case: a functional on K[X] is a
sequence, translates are shifts, and membership within bound d is a linear
recurrence of order at most d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra, _trusted
from .coalgebra import (
    CoalgebraMorphism,
    FinCoalgebra,
    dual_algebra,
    dual_coalgebra,
    dual_unitalization_iso,
    grouplike_coalgebra,
)
from .errors import (
    DimensionMismatch,
    IncompatibleStructure,
    InsufficientData,
    InsufficientTruncation,
    OperationCancelled,
    ValidationError,
)
from .fields import Field
from .linalg import RowSpace, SparseMatrix, axpy, bilinear, dot, lincomb, outer, prune, sparse_vec


class CancelToken:
    """Cooperative cancellation flag for the long-running searches."""

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def check(self):
        if self.cancelled:
            raise OperationCancelled("operation cancelled")


@dataclass(frozen=True)
class GradedAlgebra:
    """Nonnegatively graded algebra with basis keys (degree, index).

    component_dims[d] is the dimension of the degree-d part, and
    mult[(key1, key2)][key3] the structure constant; output degrees must add.
    The flattened FinAlgebra (as_fin_algebra) is validated once, here.
    """

    field: Field
    component_dims: tuple
    mult: dict
    unit: dict | None = None

    def __post_init__(self):
        F = self.field
        object.__setattr__(self, "component_dims", tuple(self.component_dims))
        dims = self.component_dims
        if not dims:
            raise DimensionMismatch("graded algebra needs at least degree 0")

        def ok(key):
            d, i = key
            return 0 <= d < len(dims) and 0 <= i < dims[d]

        for (k1, k2), terms in self.mult.items():
            if not (ok(k1) and ok(k2)):
                raise DimensionMismatch(f"mult key ({k1},{k2}) out of range")
            for k3 in terms:
                if not ok(k3):
                    raise DimensionMismatch(f"mult target {k3} out of range")
                if k3[0] != k1[0] + k2[0]:
                    raise ValidationError(
                        f"product of degrees {k1[0]},{k2[0]} lands in degree {k3[0]}")
        object.__setattr__(self, "mult", prune(F, self.mult))
        if self.unit is not None:
            u = {k: v for k, v in self.unit.items() if not F.is_zero(v)}
            for k in u:
                if not ok(k) or k[0] != 0:
                    raise ValidationError("unit must live in degree 0")
            object.__setattr__(self, "unit", u)
        index = {key: n for n, key in enumerate(self.basis_keys())}
        mult = {(index[k1], index[k2]): {index[k3]: v for k3, v in terms.items()}
                for (k1, k2), terms in self.mult.items()}
        unit = None if self.unit is None else tuple(self.unit.get(k, F.zero) for k in index)
        object.__setattr__(self, "_flat", (FinAlgebra(F, self.total_dim, mult, unit), index))

    @property
    def max_degree(self) -> int:
        return len(self.component_dims) - 1

    @property
    def total_dim(self) -> int:
        return sum(self.component_dims)

    def basis_keys(self):
        for d, nd in enumerate(self.component_dims):
            for i in range(nd):
                yield (d, i)

    def mul_flat(self, x: dict, y: dict) -> dict:
        """Product of sparse {key: scalar} elements."""
        return bilinear(self.field, self.mult, x, y)

    def as_fin_algebra(self) -> tuple[FinAlgebra, dict]:
        """The FinAlgebra validated at construction, and the key -> index map."""
        A, index = self._flat
        return A, dict(index)


def polynomial_algebra(F: Field, max_degree: int) -> GradedAlgebra:
    """K[X] stored through degree max_degree, products beyond it dropped."""
    one = F.one
    mult = {}
    for d1 in range(max_degree + 1):
        for d2 in range(max_degree + 1 - d1):
            mult[((d1, 0), (d2, 0))] = {(d1 + d2, 0): one}
    return GradedAlgebra(F, (1,) * (max_degree + 1), mult, unit={(0, 0): one})


@dataclass(frozen=True)
class GradedFunctional:
    """Functional on a graded algebra, trusted through known_degree."""

    field: Field
    values: dict
    known_degree: int

    def __post_init__(self):
        F = self.field
        vals = {}
        for key, v in self.values.items():
            if key[0] > self.known_degree:
                raise DimensionMismatch(f"value at degree {key[0]} beyond known degree")
            if not F.is_zero(v):
                vals[key] = v
        object.__setattr__(self, "values", vals)

    def __call__(self, x: dict):
        for key in x:
            if key[0] > self.known_degree:
                raise InsufficientTruncation(
                    f"functional not known at degree {key[0]}")
        return dot(self.field, x, self.values)


def seq_functional(F: Field, seq) -> GradedFunctional:
    """A sequence as a functional on K[X]: f(X^n) = seq[n]."""
    vals = {(n, 0): F.from_int(v) if isinstance(v, int) else v
            for n, v in enumerate(seq)}
    return GradedFunctional(F, vals, len(seq) - 1)


# ---------------------------------------------------------------------------
# translate spans and bounded membership

@dataclass(frozen=True)
class Member:
    """Bounded membership certificate; see the module docstring for exactly
    what it promises."""

    dim: int
    bound: int
    level_dims: tuple
    witness: tuple


@dataclass(frozen=True)
class NotWithinBound:
    """The translate span provably exceeds the bound."""

    dim: int
    level: int


def _translate_levels(G: GradedAlgebra, f: GradedFunctional, bound: int, sides: str):
    """The set-up shared by every translate span: the stored degree D, the
    window of keys of degree <= bound, and the translating pairs (a, b) of
    each level t = 0 .. D - bound, a pair's degrees summing to t (None for
    no translation).  D >= 2 * bound keeps every needed product stored."""
    if sides not in ("both", "left", "right"):
        raise ValidationError(f"unknown sides {sides!r}")
    D = min(G.max_degree, f.known_degree)
    if D < 2 * bound:
        raise InsufficientTruncation(
            f"need stored degree >= {2 * bound}, have {D}")

    def by_deg(d):
        return [(d, i) for i in range(G.component_dims[d])]

    levels = []
    for t in range(D - bound + 1):
        pairs = [(None, None)] if t == 0 else []
        if sides != "right":
            pairs += [(a, None) for a in by_deg(t)]
        if sides != "left":
            pairs += [(None, b) for b in by_deg(t)]
        if sides == "both":
            pairs += [(a, b) for qa in range(t + 1) for a in by_deg(qa) for b in by_deg(t - qa)]
        levels.append(pairs)
    return D, [key for key in G.basis_keys() if key[0] <= bound], levels


def _translate_row(G: GradedAlgebra, f: GradedFunctional, a_key, b_key, keys) -> tuple:
    """(a -> f <- b)(c) = f(b c a) for each c in keys."""
    one = G.field.one
    out = []
    for c in keys:
        x = {c: one}
        if b_key is not None:
            x = G.mul_flat({b_key: one}, x)
        if a_key is not None:
            x = G.mul_flat(x, {a_key: one})
        out.append(f(x))
    return tuple(out)


def translate_span(G: GradedAlgebra, f: GradedFunctional, bound: int,
                   sides: str = "both", cancel: CancelToken | None = None):
    """Span of translates restricted to the window of degrees <= bound.

    Returns (rowspace, level_dims, window_keys).  Levels are indexed by the
    total degree of the translating pair; the budget is chosen so every
    needed product stays inside the stored degrees.
    """
    _, window, levels = _translate_levels(G, f, bound, sides)
    rs = RowSpace(G.field, len(window))
    level_dims = []
    for pairs in levels:
        if cancel is not None:
            cancel.check()
        for a_key, b_key in pairs:
            rs.add(_translate_row(G, f, a_key, b_key, window))
        level_dims.append(rs.dim)
    return rs, tuple(level_dims), window


def membership_bounded(G: GradedAlgebra, f: GradedFunctional, bound: int,
                       cancel: CancelToken | None = None):
    """Decide bounded membership of f in the finite dual; see module docs."""
    if bound < 0:
        raise ValidationError("bound must be nonnegative")
    rs, level_dims, _ = translate_span(G, f, bound, "both", cancel)
    dim = level_dims[-1]
    if dim > bound:
        first_bad = next(t for t, d in enumerate(level_dims) if d > bound)
        return NotWithinBound(dim, first_bad)
    if len(level_dims) >= 2 and level_dims[-1] != level_dims[-2]:
        raise InsufficientTruncation(
            "translate span still growing at the truncation budget")
    return Member(dim, bound, level_dims, tuple(rs.basis()))


def delta_of_functional(G: GradedAlgebra, f: GradedFunctional, bound: int,
                        cancel: CancelToken | None = None):
    """Factor f(ab) = sum_i g_i(a) h_i(b) through the right-translate span.

    Returns a list of (g_i, h_i) pairs of GradedFunctionals.  The identity is
    verified on every in-range basis pair before returning.
    """
    F = G.field
    D, window, levels = _translate_levels(G, f, bound, "right")
    # right translates f <- b, remembering which b produced each basis row
    rs = RowSpace(F, len(window))
    added = []
    for pairs in levels:
        if cancel is not None:
            cancel.check()
        added += [b_key for _, b_key in pairs if rs.add(_translate_row(G, f, None, b_key, window))]
    d = rs.dim
    if d > bound:
        return NotWithinBound(d, 0)
    # h_i = f <- b_i known through degree D - deg(b_i)
    hs = []
    for b_key in added:
        known = D - (0 if b_key is None else b_key[0])
        keys = [c for c in G.basis_keys() if c[0] <= known]
        hs.append(GradedFunctional(F, dict(zip(keys, _translate_row(G, f, None, b_key, keys))),
                                   known))
    h_deg = [h.known_degree for h in hs]
    # on the window (degrees <= bound <= D - deg b_i) h_i is the row that rs
    # accepted for b_i, so these d columns are independent; g_i(a) is the
    # i-th coordinate of f <- a in them
    H = SparseMatrix.from_rows(F, [[h.values.get(c, F.zero) for c in window] for h in hs],
                               len(window)).transpose()
    gs_vals: list[dict] = [dict() for _ in range(d)]
    g_known = min([D - bound] + h_deg)
    for a in G.basis_keys():
        if a[0] > g_known:
            continue
        coords = H.solve(_translate_row(G, f, None, a, window))
        if coords is None:
            raise ValidationError("right translate escapes its own span")
        for i, c in enumerate(coords):
            if not F.is_zero(c):
                gs_vals[i][a] = c
    gs = [GradedFunctional(F, vals, g_known) for vals in gs_vals]
    # verify the factorization on all pairs both sides can see
    min_h = min(h_deg) if h_deg else D
    h_at = {b: {i: h({b: F.one}) for i, h in enumerate(hs)}
            for b in G.basis_keys() if b[0] <= min_h}
    for a in G.basis_keys():
        if a[0] > g_known:
            continue
        g_at = {i: g({a: F.one}) for i, g in enumerate(gs)}
        for b, h_b in h_at.items():
            if a[0] + b[0] > D:
                continue
            lhs = f(G.mul_flat({a: F.one}, {b: F.one}))
            if lhs != dot(F, g_at, h_b):
                raise ValidationError(f"delta factorization fails at ({a},{b})")
    return list(zip(gs, hs))


# ---------------------------------------------------------------------------
# coefficient functions of a finite-dimensional representation

def coefficient_functions(G: GradedAlgebra, rep: dict, dim: int):
    """Matrix coefficients of a representation as finite-dual members.

    rep maps graded basis keys to dim x dim matrices (SparseMatrix); it must
    be multiplicative on every in-range basis pair.  Returns the dim^2
    functionals rho[i][j](a) = (matrix of a)[i, j], each known through the
    full stored degree, after verifying rho_ij(ab) = sum_k rho_ik(a) rho_kj(b).
    """
    F = G.field
    for key in rep:
        m = rep[key]
        if m.rows != dim or m.cols != dim:
            raise DimensionMismatch("representation matrix has wrong shape")
    for k1 in G.basis_keys():
        for k2 in G.basis_keys():
            if k1[0] + k2[0] > G.max_degree:
                continue
            prod = G.mul_flat({k1: F.one}, {k2: F.one})
            lhs = SparseMatrix(F, dim, dim, {})
            for k3, c in prod.items():
                if k3 in rep:
                    lhs = lhs + rep[k3].scale(c)
            m1 = rep.get(k1, SparseMatrix(F, dim, dim, {}))
            m2 = rep.get(k2, SparseMatrix(F, dim, dim, {}))
            if (m1 @ m2).entries != lhs.entries:
                raise ValidationError(f"representation fails at ({k1},{k2})")
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            vals = {}
            for key, m in rep.items():
                v = m.entries.get((i, j))
                if v is not None:
                    vals[key] = v
            row.append(GradedFunctional(F, vals, G.max_degree))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# finite-dimensional cases and bialgebras

def finite_dual_findim(A: FinAlgebra) -> FinCoalgebra:
    """For finite-dimensional algebras the finite dual is the whole dual."""
    return dual_coalgebra(A)


def unital_dual_compat(A: FinAlgebra) -> CoalgebraMorphism:
    """Dualizing the unitalization equals counitalizing the dual; under
    dual-basis indexing the comparison map is the identity.

    Trusted (i): the transpose of iso = dual_unitalization_iso(A*).  Its
    matrix, the identity, is its own inverse, so the check iso passed (equal
    tables, unit to counit) is this map's check read backwards.
    """
    iso = dual_unitalization_iso(dual_coalgebra(A))
    return _trusted(CoalgebraMorphism, dual_coalgebra(iso.source), dual_coalgebra(iso.target),
                    iso.matrix, True)


@dataclass(frozen=True)
class FinBialgebra:
    """Unital algebra + counital coalgebra on one space, with the coproduct
    and counit multiplicative; an optional antipode is checked to be the
    convolution inverse of the identity."""

    algebra: FinAlgebra
    coalgebra: FinCoalgebra
    antipode: SparseMatrix | None = None

    def __post_init__(self):
        A, C = self.algebra, self.coalgebra
        F = A.field
        if F != C.field or A.dim != C.dim:
            raise IncompatibleStructure("algebra and coalgebra do not match")
        if A.unit is None or C.counit is None:
            raise IncompatibleStructure("bialgebra needs a unit and a counit")
        n = A.dim
        eps = sparse_vec(F, C.counit)
        for i in range(n):
            for j in range(n):
                prod = A.mult.get((i, j), {})
                # delta(b_i) delta(b_j), a product in the algebra A (x) A
                rhs: dict = {}
                for (p, q), v in C.comult.get(i, {}).items():
                    for (r, s), w in C.comult.get(j, {}).items():
                        axpy(F, rhs, F.mul(v, w),
                             outer(F, A.mult.get((p, r), {}), A.mult.get((q, s), {})))
                if lincomb(F, prod, C.comult) != rhs:
                    raise IncompatibleStructure(
                        f"coproduct not multiplicative at ({i},{j})")
                if dot(F, prod, eps) != F.mul(C.counit[i], C.counit[j]):
                    raise IncompatibleStructure(f"counit not multiplicative at ({i},{j})")
        unit = sparse_vec(F, A.unit)
        if C.comult_of(unit) != outer(F, unit, unit):
            raise IncompatibleStructure("coproduct of the unit is not unit (x) unit")
        if dot(F, unit, eps) != F.one:
            raise IncompatibleStructure("counit of the unit is not 1")
        if self.antipode is not None:
            S = self.antipode
            if S.rows != n or S.cols != n:
                raise DimensionMismatch("antipode matrix has wrong shape")
            cols = S.columns()
            for k in range(n):
                left: dict = {}
                right: dict = {}
                for (i, j), v in C.comult.get(k, {}).items():
                    axpy(F, left, v, bilinear(F, A.mult, cols[i], {j: F.one}))
                    axpy(F, right, v, bilinear(F, A.mult, {i: F.one}, cols[j]))
                target = axpy(F, {}, C.counit[k], unit)
                if left != target or right != target:
                    raise IncompatibleStructure(f"antipode axiom fails at {k}")

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim


def bialgebra_dual(H: FinBialgebra) -> FinBialgebra:
    """Transpose everything; exact in finite dimension.

    Trusted (i): the transpose of H.  The bialgebra axioms are self-dual
    (delta(ab) = delta(a)delta(b), the (co)unit laws and m(S (x) id)delta =
    eta eps transpose to themselves), so H's validation covers its dual.
    """
    S = H.antipode.transpose() if H.antipode is not None else None
    return _trusted(FinBialgebra, dual_algebra(H.coalgebra), dual_coalgebra(H.algebra), S)


def group_bialgebra(F: Field, table, inverses) -> FinBialgebra:
    """Group algebra K[G] from a Cayley table: grouplike basis, antipode g -> g^-1."""
    n = len(table)
    mult = {(i, j): {table[i][j]: F.one} for i in range(n) for j in range(n)}
    unit = [F.zero] * n
    # identity = the element fixing everything
    e = next((i for i in range(n) if all(table[i][j] == j for j in range(n))), None)
    if e is None:
        raise ValidationError("Cayley table has no identity element")
    unit[e] = F.one
    A = FinAlgebra(F, n, mult, tuple(unit))
    S = SparseMatrix(F, n, n, {(inverses[i], i): F.one for i in range(n)})
    return FinBialgebra(A, grouplike_coalgebra(F, n), S)


# ---------------------------------------------------------------------------
# linear recurrences

@dataclass(frozen=True)
class LinRec:
    """Order-d recurrence with monic annihilator polynomial (low to high)."""

    order: int
    poly: tuple


def linrec_analyze(F: Field, seq, rank_bound: int):
    """Smallest-order linear recurrence valid over the whole stored sequence,
    by Berlekamp-Massey (Massey, IEEE Trans. Inf. Theory 15, 1969) in
    O(n * order) field operations.

    Returns LinRec or NotWithinBound; raises InsufficientData when the
    sequence is too short to make the recurrence of order <= rank_bound unique.
    """
    seq = [F.from_int(v) if isinstance(v, int) else v for v in seq]
    n = len(seq)
    if n < 2 * rank_bound + 2:
        raise InsufficientData(
            f"need at least {2 * rank_bound + 2} terms, have {n}")
    if all(F.is_zero(v) for v in seq):
        return LinRec(0, (F.one,))
    # C annihilates seq[:m] (sum of C[i] * seq[k - i] is 0 for L <= k < m);
    # B was C before L last grew, when its discrepancy was b, gap steps ago
    C, B, b, L, gap = {0: F.one}, {0: F.one}, F.one, 0, 1
    for m in range(n):
        d = dot(F, C, {i: seq[m - i] for i in C})
        if not F.is_zero(d):
            C, prev = axpy(F, dict(C), F.neg(F.div(d, b)), {i + gap: v for i, v in B.items()}), C
            if 2 * L <= m:
                L, B, b, gap = m + 1 - L, prev, d, 0
                if L > rank_bound:
                    return NotWithinBound(rank_bound + 1, rank_bound)
        gap += 1
    return LinRec(L, tuple(C.get(L - j, F.zero) for j in range(L + 1)))
