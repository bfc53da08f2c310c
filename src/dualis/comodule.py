"""Comodules, modules, and the correspondence between them.

coaction[t][(s,k)] is the coefficient of m_s (x) c_k in rho(m_t), and
action[(i,t)][s] the coefficient of m_s in a_i . m_t.  Over a
finite-dimensional coalgebra the two pictures are transposes of each other,
and the subspace lattices agree; lattice_agreement_check makes that an
executable statement.  FinComodule checks nothing itself: FinModule
checks its transpose over the dual algebra, every range, module
associativity (algebra.check_associative on the action) and the unit law;
a comodule map is checked as a ModuleMorphism of the dual modules.
Sub-objects are spans closed under linear maps (the coaction columns, the
action of each basis element), so RowSpace.close builds them and
RowSpace.closed_under tests them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import FinAlgebra, _Map, _trusted, check_associative, multiples
from .coalgebra import FinCoalgebra, counitalize, dual_algebra, dual_coalgebra
from .errors import DimensionMismatch, ValidationError
from .fields import Field
from .linalg import (RowSpace, SparseMatrix, basis_vec, bilinear, dense_vec, lincomb, prune,
                     regroup, sparse_vec, tensor_legs)


@dataclass(frozen=True)
class FinComodule:
    """Right coaction rho: M -> M (x) C on basis m_0..m_{dim-1}, validated
    as its transpose, a module over the dual algebra."""

    coalgebra: FinCoalgebra
    dim: int
    coaction: dict

    def __post_init__(self):
        N = FinModule(dual_algebra(self.coalgebra), self.dim, transpose_coaction(self.coaction))
        object.__setattr__(self, "coaction", transpose_action(N.action))

    def coaction_of(self, x: tuple) -> dict:
        """rho(x) as a sparse {(s,k): scalar} tensor."""
        F = self.coalgebra.field
        return lincomb(F, sparse_vec(F, x, self.dim), self.coaction)


@dataclass(frozen=True)
class FinModule:
    """Left action of a finite-dimensional algebra on basis m_0..m_{dim-1}."""

    algebra: FinAlgebra
    dim: int
    action: dict

    def __post_init__(self):
        A = self.algebra
        F = A.field
        for (i, t), terms in self.action.items():
            if not (0 <= i < A.dim and 0 <= t < self.dim):
                raise DimensionMismatch(f"action key ({i},{t}) out of range")
            for s in terms:
                if not 0 <= s < self.dim:
                    raise DimensionMismatch(f"action target {s} out of range")
        object.__setattr__(self, "action", prune(F, self.action))
        check_associative(F, A.mult, self.action)
        if A.unit is not None:
            unit = sparse_vec(F, A.unit)
            for t in range(self.dim):
                if bilinear(F, self.action, unit, {t: F.one}) != {t: F.one}:
                    raise ValidationError(f"unit does not act as identity on {t}")

    def act(self, a: tuple, x: tuple) -> tuple:
        A = self.algebra
        F = A.field
        return dense_vec(F, self.dim, bilinear(F, self.action, sparse_vec(F, a, A.dim),
                                               sparse_vec(F, x, self.dim)))


@dataclass(frozen=True)
class ModuleMorphism(_Map):
    """Linear map f between modules over one algebra with
    f(b_i . m_t) = b_i . f(m_t) on every basis pair."""

    source: FinModule
    target: FinModule
    matrix: SparseMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise DimensionMismatch("module map matrix shape mismatch")
        A = self.source.algebra
        if A != self.target.algebra:
            raise ValidationError("module map between modules over different algebras")
        F = A.field
        images = self.matrix.columns()
        for i in range(A.dim):
            for t, image in enumerate(images):
                lhs = lincomb(F, self.source.action.get((i, t), {}), images)
                if lhs != bilinear(F, self.target.action, {i: F.one}, image):
                    raise ValidationError(f"module map does not commute with b_{i} at m_{t}")


# ---------------------------------------------------------------------------
# correspondences

def comodule_counitalize(M: FinComodule) -> tuple[FinComodule, FinCoalgebra]:
    """Extend the coaction along counitalization: rho1(m) = rho(m) + m (x) e."""
    C = M.coalgebra
    F = C.field
    C1, _ = counitalize(C)
    # C's keys stop below the new grouplike e = c_dim, so every entry is fresh
    coaction = {t: {**M.coaction.get(t, {}), (t, C.dim): F.one} for t in range(M.dim)}
    return FinComodule(C1, M.dim, coaction), C1


def transpose_coaction(coaction: dict) -> dict:
    """coaction[t][(s,k)] = c  becomes  action[(k,t)][s] = c."""
    return regroup(coaction, lambda t, sk: ((sk[1], t), sk[0]))


def comodule_to_dual_module(M: FinComodule) -> FinModule:
    """The dual-basis functional c^k acts by contracting the coaction.
    Trusted (i): the transpose of M."""
    return _trusted(FinModule, dual_algebra(M.coalgebra), M.dim, transpose_coaction(M.coaction))


def transpose_action(action: dict) -> dict:
    """action[(k,t)][s] = c  becomes  coaction[t][(s,k)] = c."""
    return regroup(action, lambda kt, s: (kt[1], (s, kt[0])))


def module_to_comodule(N: FinModule) -> FinComodule:
    """Inverse transpose: a module over a finite-dimensional algebra is a
    comodule over the dual coalgebra.  Trusted (i): the transpose of N."""
    return _trusted(FinComodule, dual_coalgebra(N.algebra), N.dim, transpose_action(N.action))


# ---------------------------------------------------------------------------
# sub-objects

def coaction_columns(M: FinComodule):
    """w -> the columns (I (x) c^k) rho(w), one per coalgebra basis index k;
    a span holding them for each of its vectors is a subcomodule."""
    return lambda w: tensor_legs(M.coaction_of(w), 1).values()


def is_subcomodule(M: FinComodule, vectors) -> bool:
    """Does the span satisfy rho(W) <= W (x) C?"""
    return RowSpace(M.coalgebra.field, M.dim, vectors).closed_under(coaction_columns(M))


def is_submodule(N: FinModule, vectors) -> bool:
    A = N.algebra
    return RowSpace(A.field, N.dim, vectors).closed_under(
        multiples(A.field, N.action, A.dim, "left"))


def subcomodule_on_span(M: FinComodule, vectors) -> tuple[FinComodule, SparseMatrix]:
    """Induced comodule on a closed span, with its inclusion matrix.
    Trusted (ii): the inclusion, one to one, is checked as a ModuleMorphism."""
    C = M.coalgebra
    F = C.field
    rs = RowSpace(F, M.dim, vectors)
    basis = rs.basis()
    coaction = {}
    for a, w in enumerate(basis):
        table = {}
        for k, col in tensor_legs(M.coaction_of(w), 1).items():
            coords = rs.coords(col)
            if coords is None:
                raise ValidationError("span is not a subcomodule")
            table.update(((b, k), cb) for b, cb in sparse_vec(F, coords).items())
        if table:
            coaction[a] = table
    sub = _trusted(FinComodule, C, len(basis), coaction)
    incl = SparseMatrix.from_rows(F, basis, M.dim).transpose()
    ModuleMorphism(comodule_to_dual_module(sub), comodule_to_dual_module(M), incl)
    return sub, incl


def subcomodule_generated(M: FinComodule, x: tuple) -> tuple[FinComodule, SparseMatrix]:
    """Smallest subcomodule containing x: close under (I (x) f) . rho."""
    rs = RowSpace(M.coalgebra.field, M.dim, [x]).close(coaction_columns(M))
    return subcomodule_on_span(M, rs.basis())


# ---------------------------------------------------------------------------
# lattice agreement

def _all_subspaces_gf2(dim: int):
    """Every subspace of GF(2)^dim, each by its reduced echelon basis: one
    per set of pivot columns and 0/1 filling of the entries that lie right
    of a row's pivot and outside every pivot column."""
    spaces = []
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = [(r, j) for r, pc in enumerate(pivots)
                    for j in range(pc + 1, dim) if j not in pivots]
            for bits in itertools.product((0, 1), repeat=len(free)):
                rows = [[int(j == pc) for j in range(dim)] for pc in pivots]
                for (r, j), bit in zip(free, bits):
                    rows[r][j] = bit
                spaces.append([tuple(row) for row in rows])
    return spaces


def _random_subspace(F: Field, dim: int, rng: random.Random):
    r = rng.randrange(dim + 1)
    vecs = []
    for _ in range(r):
        if F.characteristic == 0:
            vecs.append(tuple(F.from_int(rng.randrange(-3, 4)) for _ in range(dim)))
        else:
            vecs.append(tuple(F.from_int(rng.randrange(F.characteristic))
                              for _ in range(dim)))
    return vecs


def lattice_agreement_check(M: FinComodule, seed: int = 0, samples: int = 100) -> dict:
    """Confirm that the three notions of sub-object pick out the same spans:
    C-subcomodules, C1-subcomodules after counitalizing, and modules over the
    dual algebra.  Exhaustive over GF(2) up to dimension 4, seeded samples
    otherwise.  Raises ValidationError on any disagreement."""
    C = M.coalgebra
    F = C.field
    M1, _ = comodule_counitalize(M)
    N = comodule_to_dual_module(M)
    exhaustive = F.characteristic == 2 and M.dim <= 4
    if exhaustive:
        candidates = _all_subspaces_gf2(M.dim)
    else:
        rng = random.Random(seed)
        candidates = [_random_subspace(F, M.dim, rng) for _ in range(samples)]
        # always include the full space, the zero space, and generated closures
        candidates.append([basis_vec(F, M.dim, i) for i in range(M.dim)])
        candidates.append([])
        for t in range(M.dim):
            _, incl = subcomodule_generated(M, basis_vec(F, M.dim, t))
            candidates.append(incl.columns())
    agree = 0
    closed = 0
    for vecs in candidates:
        a = is_subcomodule(M, vecs)
        b = is_subcomodule(M1, vecs)
        c = is_submodule(N, vecs)
        if not (a == b == c):
            raise ValidationError(
                f"lattices disagree: comodule={a} counitalized={b} dual-module={c}")
        agree += 1
        if a:
            closed += 1
    return {"checked": len(candidates), "closed": closed,
            "exhaustive": exhaustive, "agree": agree}
