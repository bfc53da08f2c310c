"""Where validation happens: every public entry point rejects a corrupted
table, and the duals, which skip re-validation, equal the validated build."""

import json
from random import Random

import pytest

from dualis.algebra import AlgebraMorphism, FinAlgebra
from dualis.coalgebra import (
    CoalgebraMorphism,
    FinCoalgebra,
    dual_algebra,
    dual_coalgebra,
    transpose_comult,
    transpose_mult,
)
from dualis.comodule import FinComodule, FinModule
from dualis.errors import DualisError
from dualis.fields import GF, QQ
from dualis.finite_dual import FinBialgebra, GradedAlgebra, bialgebra_dual, group_bialgebra
from dualis.linalg import SparseMatrix
from dualis.randgen import hopf_instances, rand_algebra, rand_coalgebra
from dualis.specdoc import parse_spec

ONE = QQ.one
ZERO = QQ.zero
UNIT = (ONE, ZERO, ZERO)


def _mult(bad: bool) -> dict:
    """K[t]/(t^3) on 1, t, t^2; the bad table has t*t = 1, so that
    (t*t)*t^2 = t^2 while t*(t*t^2) = 0."""
    mult = {(i, j): {i + j: ONE} for i in range(3) for j in range(3) if i + j < 3}
    if bad:
        mult[(1, 1)] = {0: ONE}
    return mult


def _algebra():
    return FinAlgebra(QQ, 3, _mult(False), UNIT)


def _coalgebra():
    return FinCoalgebra(QQ, 3, transpose_mult(_mult(False)), UNIT)


def _diag(bad: bool) -> SparseMatrix:
    """The identity, or diag(1, 1, 2), which neither multiplies nor
    comultiplies on t^2."""
    return SparseMatrix(QQ, 3, 3, {(0, 0): ONE, (1, 1): ONE, (2, 2): QQ.from_int(2 if bad else 1)})


def _regular_coaction(bad: bool) -> dict:
    coaction = transpose_mult(_mult(False))
    if bad:
        coaction[2] = {**coaction[2], (1, 1): QQ.from_int(2)}
    return coaction


def _regular_action(bad: bool) -> dict:
    action = _mult(False)
    if bad:
        action[(1, 0)] = {1: QQ.from_int(2)}
    return action


def _graded(bad_assoc: bool = False, bad_unit: bool = False) -> GradedAlgebra:
    """K[X] through degree 3; the bad table has X*X^2 = 2 X^3 but X^2*X = X^3."""
    mult = {((a, 0), (b, 0)): {(a + b, 0): ONE} for a in range(4) for b in range(4 - a)}
    if bad_assoc:
        mult[((1, 0), (2, 0))] = {(3, 0): QQ.from_int(2)}
    unit = {(0, 0): QQ.from_int(2) if bad_unit else ONE}
    return GradedAlgebra(QQ, (1, 1, 1, 1), mult, unit)


def _group(n: int):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return table, [(-i) % n for i in range(n)]


def _bialgebra_coproduct(bad: bool) -> FinBialgebra:
    """K[Z/2] with grouplike coproduct, or with the function coproduct on
    the same basis, which is not multiplicative."""
    H = group_bialgebra(QQ, *_group(2))
    C = dual_coalgebra(H.algebra) if bad else H.coalgebra
    return FinBialgebra(H.algebra, C)


def _bialgebra_antipode(bad: bool) -> FinBialgebra:
    """K[Z/3] with g -> g^-1, or with the identity, which is no antipode."""
    H = group_bialgebra(QQ, *_group(3))
    S = SparseMatrix.identity(QQ, 3) if bad else H.antipode
    return FinBialgebra(H.algebra, H.coalgebra, S)


def _spec(kind: str, bad: bool) -> object:
    """parse_spec on an algebra, coalgebra or comodule block."""
    mult = _mult(bad and kind == "algebra")
    comult = transpose_mult(_mult(bad and kind == "coalgebra"))
    coaction = _regular_coaction(bad and kind == "comodule")
    objects = {
        "a": {"type": "algebra", "field": "q", "dim": 3, "unit": ["1", "0", "0"],
              "mult": [[i, j, k, str(c)] for (i, j), t in mult.items() for k, c in t.items()]},
        "c": {"type": "coalgebra", "field": "q", "dim": 3, "counit": ["1", "0", "0"],
              "comult": [[k, i, j, str(c)] for k, t in comult.items() for (i, j), c in t.items()]},
        "m": {"type": "comodule", "coalgebra": "c", "dim": 3,
              "coaction": [[t, s, k, str(c)] for t, d in coaction.items()
                           for (s, k), c in d.items()]},
    }
    return parse_spec(json.dumps({"objects": objects, "checks": []}))


CASES = {
    "FinAlgebra-associativity": lambda bad: FinAlgebra(QQ, 3, _mult(bad), UNIT),
    "FinAlgebra-unit": lambda bad: FinAlgebra(QQ, 3, _mult(False), (ONE, ONE, ZERO) if bad else UNIT),
    "FinCoalgebra-coassociativity":
        lambda bad: FinCoalgebra(QQ, 3, transpose_mult(_mult(bad)), UNIT),
    "FinCoalgebra-counit":
        lambda bad: FinCoalgebra(QQ, 3, transpose_mult(_mult(False)), (ONE, ONE, ZERO) if bad else UNIT),
    "AlgebraMorphism-matrix": lambda bad: AlgebraMorphism(_algebra(), _algebra(), _diag(bad)),
    "CoalgebraMorphism-matrix": lambda bad: CoalgebraMorphism(_coalgebra(), _coalgebra(), _diag(bad)),
    "FinComodule-coassociativity": lambda bad: FinComodule(_coalgebra(), 3, _regular_coaction(bad)),
    "FinComodule-counit":
        lambda bad: FinComodule(_coalgebra(), 3, {} if bad else _regular_coaction(False)),
    "FinModule-associativity": lambda bad: FinModule(_algebra(), 3, _regular_action(bad)),
    "FinModule-unit": lambda bad: FinModule(_algebra(), 3, {} if bad else _regular_action(False)),
    "GradedAlgebra-associativity": lambda bad: _graded(bad_assoc=bad),
    "GradedAlgebra-unit": lambda bad: _graded(bad_unit=bad),
    "FinBialgebra-coproduct": _bialgebra_coproduct,
    "FinBialgebra-antipode": _bialgebra_antipode,
    "parse_spec-algebra": lambda bad: _spec("algebra", bad),
    "parse_spec-coalgebra": lambda bad: _spec("coalgebra", bad),
    "parse_spec-comodule": lambda bad: _spec("comodule", bad),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_public_entry_point_rejects_a_corrupted_table(name):
    build = CASES[name]
    build(False)
    with pytest.raises(DualisError):
        build(True)


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["q", "fp101"])
def test_duals_equal_the_validated_construction(F):
    rng = Random(f"duals:{F.name()}")
    for n in range(30):
        C = rand_coalgebra(F, rng, max_dim=4, counital=bool(n % 2))
        assert dual_algebra(C) == FinAlgebra(F, C.dim, transpose_comult(C.comult), C.counit)
        A = rand_algebra(F, rng, max_dim=4, unital=bool(n % 2))
        assert dual_coalgebra(A) == FinCoalgebra(F, A.dim, transpose_mult(A.mult), A.unit)
    for _, H in hopf_instances(F):
        D = bialgebra_dual(H)
        assert D.algebra == FinAlgebra(F, H.dim, transpose_comult(H.coalgebra.comult),
                                       H.coalgebra.counit)
        assert D.coalgebra == FinCoalgebra(F, H.dim, transpose_mult(H.algebra.mult),
                                           H.algebra.unit)
