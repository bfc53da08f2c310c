"""Seeded generators for randomized checks.

Everything here is driven by a caller-supplied random.Random so runs are
reproducible.  Random structures are built by conjugating known-good tables
with random invertible basis changes: the result looks arbitrary but stays
exactly (co)associative, and the morphism check on the conjugating map is
what certifies it.
"""

from __future__ import annotations

from random import Random

from .algebra import AlgebraMorphism, FinAlgebra, _trusted, matrix_algebra
from .coalgebra import (CoalgebraMorphism, FinCoalgebra, comatrix, counitalize, dual_algebra,
                        dual_coalgebra, grouplike_coalgebra)
from .combinat import Poset, Quiver, path_coalgebra, paths_by_length, transitive_closure
from .comodule import FinComodule, ModuleMorphism, comodule_to_dual_module
from .errors import ValidationError
from .fields import Field
from .finite_dual import bialgebra_dual, group_bialgebra
from .linalg import SparseMatrix, axpy, bilinear, lincomb, tensor_legs


def rand_scalar(F: Field, rng: Random):
    return F.from_int(rng.randint(-3, 3))


def rand_invertible(F: Field, rng: Random, n: int) -> SparseMatrix:
    """Product of random elementary row operations, so exactly invertible;
    each operation is applied in place to the rows of the identity."""
    rows = [{i: F.one} for i in range(n)]
    for _ in range(2 * n + rng.randrange(3)):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:  # swap
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:  # scale by a unit
            c = F.from_int(rng.choice([1, -1, 2, 3]))
            rows[i] = axpy(F, {}, F.one if F.is_zero(c) else c, rows[i])
        elif i != j:  # shear
            axpy(F, rows[i], rand_scalar(F, rng), rows[j])
    return SparseMatrix(F, n, n, {(i, k): v for i, row in enumerate(rows) for k, v in row.items()})


def conjugate_coalgebra(C: FinCoalgebra, P: SparseMatrix
                        ) -> tuple[FinCoalgebra, CoalgebraMorphism]:
    """Transport the structure along P; returns the new coalgebra D and the
    isomorphism from C onto it.  D is the transpose of C* transported along
    P^-T.  Trusted (ii): that transport's check of P^T: D* -> C* is the
    check of P: C -> D.  Trusted (i): D and P are transposes of D* and P^T."""
    Pinv = P.inverse()
    D = dual_coalgebra(_conjugate(dual_algebra(C), Pinv.transpose(), P.transpose()))
    return D, _trusted(CoalgebraMorphism, C, D, P, C.counit is not None)


def conjugate_algebra(A: FinAlgebra, P: SparseMatrix) -> FinAlgebra:
    """Transport the structure along P.  Trusted (ii), by _conjugate."""
    return _conjugate(A, P, P.inverse())


def _conjugate(A: FinAlgebra, P: SparseMatrix, Pinv: SparseMatrix) -> FinAlgebra:
    """A transported along P, given P's inverse.  Trusted (ii): the
    AlgebraMorphism check of P^-1 back onto A (the sparse original table)
    certifies it."""
    F = A.field
    inv_cols = Pinv.columns()
    cols = P.columns()
    mult = {(i, j): table for i, vi in enumerate(inv_cols) for j, vj in enumerate(inv_cols)
            if (table := lincomb(F, bilinear(F, A.mult, vi, vj), cols))}
    unit = tuple(P.apply(tuple(A.unit))) if A.unit is not None else None
    B = _trusted(FinAlgebra, F, A.dim, mult, unit)
    AlgebraMorphism(B, A, Pinv, unital=unit is not None)
    return B


def direct_sum_coalgebra(C1: FinCoalgebra, C2: FinCoalgebra) -> FinCoalgebra:
    """Trusted (i): the transpose of the direct sum of the dual algebras,
    which FinAlgebra validates."""
    return dual_coalgebra(direct_sum_algebra(dual_algebra(C1), dual_algebra(C2)))


def direct_sum_algebra(A1: FinAlgebra, A2: FinAlgebra) -> FinAlgebra:
    F = A1.field
    if F != A2.field:
        raise ValidationError("mixed fields in a direct sum")
    d1 = A1.dim
    mult = {pair: dict(t) for pair, t in A1.mult.items()}
    for (i, j), t in A2.mult.items():
        mult[(i + d1, j + d1)] = {k + d1: v for k, v in t.items()}
    unit = None
    if A1.unit is not None and A2.unit is not None:
        unit = tuple(A1.unit) + tuple(A2.unit)
    return FinAlgebra(F, d1 + A2.dim, mult, unit)


def truncated_poly_algebra(F: Field, n: int, unital: bool = True) -> FinAlgebra:
    """K[t]/(t^{n+1}), or its positive part t*K[t]/(t^{n+1}) without a unit."""
    lo = 0 if unital else 1
    dim = n - lo + 1
    mult = {}
    for i in range(lo, n + 1):
        for j in range(lo, n + 1):
            if i + j <= n:
                mult[(i - lo, j - lo)] = {i + j - lo: F.one}
    unit = None
    if unital:
        unit = tuple(F.one if k == 0 else F.zero for k in range(dim))
    return FinAlgebra(F, dim, mult, unit)


def divided_power_coalgebra(F: Field, n: int, counital: bool = True) -> FinCoalgebra:
    """delta(c_k) = sum of c_i (x) c_j over i+j=k; dropping c_0 loses the
    counit.  The transpose of truncated_poly_algebra(F, n, counital)."""
    return dual_coalgebra(truncated_poly_algebra(F, n, unital=counital))


def _counital_block(F: Field, rng: Random, dim: int) -> FinCoalgebra:
    kind = rng.randrange(4)
    if kind == 0:
        return grouplike_coalgebra(F, dim)
    if kind == 1:
        return divided_power_coalgebra(F, dim - 1)
    if kind == 2 and dim == 4:
        return comatrix(F, 2)
    if kind == 3 and dim >= 3:
        # two vertices with dim-2 parallel arrows: exactly dim paths
        Q = Quiver((0, 1), tuple((0, 1) for _ in range(dim - 2)))
        C, _ = path_coalgebra(F, Q, max_len=1)
        return C
    return divided_power_coalgebra(F, dim - 1)


def rand_coalgebra(F: Field, rng: Random, max_dim: int = 5,
                   counital: bool = True) -> FinCoalgebra:
    dim = rng.randint(1, max_dim)
    if counital:
        parts = []
        left = dim
        while left > 0:
            take = rng.randint(1, left)
            parts.append(_counital_block(F, rng, take))
            left -= parts[-1].dim
        C = parts[0]
        for p in parts[1:]:
            C = direct_sum_coalgebra(C, p)
    else:
        C = divided_power_coalgebra(F, dim, counital=False)
    P = rand_invertible(F, rng, C.dim)
    D, _ = conjugate_coalgebra(C, P)
    return D


def rand_algebra(F: Field, rng: Random, max_dim: int = 5,
                 unital: bool = True) -> FinAlgebra:
    dim = rng.randint(1, max_dim)
    if unital:
        parts = []
        left = dim
        while left > 0:
            if left >= 4 and rng.random() < 0.3:
                parts.append(matrix_algebra(F, 2))
                left -= 4
            else:
                take = rng.randint(1, left)
                parts.append(truncated_poly_algebra(F, take - 1))
                left -= take
        A = parts[0]
        for p in parts[1:]:
            A = direct_sum_algebra(A, p)
    else:
        A = truncated_poly_algebra(F, dim, unital=False)
    P = rand_invertible(F, rng, A.dim)
    return conjugate_algebra(A, P)


def rand_comodule(rng: Random, C: FinCoalgebra, copies: int = 1) -> FinComodule:
    """Conjugated direct sum of copies of the regular comodule.  Trusted (i):
    the base, copies of C's comultiplication.  Trusted (ii): M, by the
    ModuleMorphism check of P: base -> M."""
    F = C.field
    dim = C.dim * copies
    coaction = {}
    for c in range(copies):
        for t, table in C.comult.items():
            coaction[t + c * C.dim] = {(s + c * C.dim, k): v
                                       for (s, k), v in table.items()}
    base = _trusted(FinComodule, C, dim, coaction)
    P = rand_invertible(F, rng, dim)
    cols = P.columns()
    # rho(P^-1 m_t), with P applied to its left leg
    new = {t: row for t, v in enumerate(P.inverse().columns())
           if (row := {(s, k): x for k, leg in tensor_legs(lincomb(F, v, coaction), 1).items()
                       for s, x in lincomb(F, leg, cols).items()})}
    M = _trusted(FinComodule, C, dim, new)
    ModuleMorphism(comodule_to_dual_module(base), comodule_to_dual_module(M), P)
    return M


def rand_morphism_triple(F: Field, rng: Random, max_dim: int = 4):
    """(D, C, f) with D counital, C a plain coalgebra, f: D -> C a morphism.

    This is the shape the counitalization adjunction lifts: f factors
    uniquely through the counitalization of C by a counital morphism.
    """
    D = rand_coalgebra(F, rng, max_dim=max_dim, counital=True)
    style = rng.randrange(4)
    if style == 0:
        C = rand_coalgebra(F, rng, max_dim=max_dim, counital=False)
        return D, C, CoalgebraMorphism(D, C, SparseMatrix(F, C.dim, D.dim, {}))
    if style == 1:
        C = FinCoalgebra(F, D.dim, D.comult)
        return D, C, CoalgebraMorphism(D, C, SparseMatrix.identity(F, D.dim))
    if style == 2:
        P = rand_invertible(F, rng, D.dim)
        E, _ = conjugate_coalgebra(D, P)
        C = FinCoalgebra(F, E.dim, E.comult)
        return D, C, CoalgebraMorphism(D, C, P)
    # canonical projection out of a counitalization
    C = rand_coalgebra(F, rng, max_dim=max_dim, counital=False)
    D1, proj = counitalize(C)
    return D1, C, proj


def rand_acyclic_quiver(rng: Random, max_vertices: int = 6,
                        max_arrows: int = 10, path_cap: int = 400) -> Quiver:
    """Arrows only go up a random vertex order, so the result is acyclic;
    rejection keeps the total path count under the cap."""
    while True:
        n = rng.randint(1, max_vertices)
        order = list(range(n))
        rng.shuffle(order)
        pos = {v: order.index(v) for v in range(n)}
        arrows = []
        for _ in range(rng.randint(0, max_arrows)):
            a = rng.randrange(n)
            b = rng.randrange(n)
            if pos[a] < pos[b]:
                arrows.append((a, b))
        Q = Quiver(tuple(range(n)), tuple(arrows))
        levels, _ = paths_by_length(Q, None)
        if sum(len(l) for l in levels) <= path_cap:
            return Q


def rand_poset(rng: Random, n: int) -> Poset:
    """Random order on 0..n-1 compatible with the integer order."""
    strict = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                strict.add((i, j))
    rel = frozenset(transitive_closure(strict)) | frozenset((i, i) for i in range(n))
    return Poset(tuple(range(n)), rel)


def _s3_tables():
    elems = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = [[elems.index(compose(p, q)) for q in elems] for p in elems]
    inverses = [elems.index(tuple(sorted(range(3), key=lambda i: p[i])))
                for p in elems]
    return table, inverses


def hopf_instances(F: Field) -> list:
    """Four bialgebras with antipodes: Z/2, Z/4, S3, and functions on S3."""
    z2 = group_bialgebra(F, [[0, 1], [1, 0]], [0, 1])
    z4 = group_bialgebra(F, [[(i + j) % 4 for j in range(4)] for i in range(4)],
                         [(-i) % 4 for i in range(4)])
    table, inv = _s3_tables()
    s3 = group_bialgebra(F, table, inv)
    fns3 = bialgebra_dual(s3)
    return [("group-z2", z2), ("group-z4", z4), ("group-s3", s3),
            ("functions-s3", fns3)]


def rand_subspace(F: Field, rng: Random, ambient: int, max_vectors: int = 3) -> list:
    vecs = []
    for _ in range(rng.randint(0, max_vectors)):
        vecs.append(tuple(rand_scalar(F, rng) for _ in range(ambient)))
    return vecs
