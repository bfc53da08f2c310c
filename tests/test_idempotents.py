import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from dualis import idempotents
from dualis.algebra import FinAlgebra, matrix_algebra
from dualis.coalgebra import dual_algebra
from dualis.combinat import chain_poset, incidence_algebra, path_coalgebra
from dualis.errors import DecompositionFailed, ValidationError
from dualis.fields import GF, QQ
from dualis.finite_dual import group_bialgebra
from dualis.idempotents import (
    complete_primitive_idempotents,
    min_poly_in_corner,
    newton_lift,
    split_semisimple_unit,
    verify_family,
)
from dualis.linalg import basis_vec
from dualis.randgen import conjugate_coalgebra, rand_acyclic_quiver, rand_invertible


def vec_add(F, x, y):
    return tuple(F.add(a, b) for a, b in zip(x, y))


def diagonal_algebra(F, n):
    """F^n with coordinatewise product: n orthogonal idempotents b_i."""
    return FinAlgebra(F, n, {(i, i): {i: F.one} for i in range(n)},
                      unit=(F.one,) * n)


def cyclic_group_algebra(F, n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inverses = [(-i) % n for i in range(n)]
    return group_bialgebra(F, table, inverses).algebra


def check_family(A, family):
    F = A.field
    total = tuple([F.zero] * A.dim)
    for e in family:
        assert A.multiply(e, e) == e
        total = vec_add(F, total, e)
    assert total == A.unit
    for i, e in enumerate(family):
        for f in family[i + 1:]:
            assert all(F.is_zero(v) for v in A.multiply(e, f))
            assert all(F.is_zero(v) for v in A.multiply(f, e))


def test_min_poly_of_matrix_unit():
    A = matrix_algebra(QQ, 2)
    e00 = basis_vec(QQ, 4, 0)
    # relative to the local unit e00 itself, e00 satisfies t - 1
    assert min_poly_in_corner(A, e00, e00) == [Fraction(-1), Fraction(1)]
    # relative to the global unit it satisfies t^2 - t
    one = tuple(A.unit)
    assert min_poly_in_corner(A, e00, one) == \
        [Fraction(0), Fraction(-1), Fraction(1)]


def test_matrix_algebra_splits_into_two():
    A = matrix_algebra(QQ, 2)
    family, certs = split_semisimple_unit(A)
    assert len(family) == 2
    assert certs == ["corner-dim-1", "corner-dim-1"]
    check_family(A, family)


def test_cyclic_group_rational():
    # K[Z/4] over the rationals: t^4 - 1 = (t-1)(t+1)(t^2+1)
    A = cyclic_group_algebra(QQ, 4)
    family, certs = complete_primitive_idempotents(A)
    assert len(family) == 3
    assert sorted(certs) == ["corner-dim-1", "corner-dim-1", "corner-field"]
    check_family(A, family)


def test_cyclic_group_split_field():
    # 13 = 1 mod 4, so the fourth roots of unity all exist and we get four blocks
    A = cyclic_group_algebra(GF(13), 4)
    family, certs = complete_primitive_idempotents(A)
    assert len(family) == 4
    assert certs == ["corner-dim-1"] * 4
    check_family(A, family)


def test_incidence_algebra_vertex_idempotents():
    A, ivs = incidence_algebra(QQ, chain_poset(3))
    family, certs = complete_primitive_idempotents(A)
    assert len(family) == 3
    check_family(A, family)
    # each lifted idempotent is a diagonal interval unit up to ordering
    diag = {ivs.index((a, a)) for a in range(3)}
    got = set()
    for e in family:
        support = {i for i, v in enumerate(e) if not QQ.is_zero(v)}
        assert len(support) == 1
        got |= support
    assert got == diag


def test_newton_lift_fixes_radical_error():
    A, ivs = incidence_algebra(QQ, chain_poset(3))
    e00 = basis_vec(QQ, A.dim, ivs.index((0, 0)))
    e12 = basis_vec(QQ, A.dim, ivs.index((1, 2)))
    x = vec_add(QQ, e00, e12)
    assert A.multiply(x, x) != x
    assert newton_lift(A, x) == e00


def test_newton_lift_gives_up_on_garbage():
    A = matrix_algebra(QQ, 2)
    x = vec_add(QQ, basis_vec(QQ, 4, 0), basis_vec(QQ, 4, 3))
    x = tuple(Fraction(2) * v for v in x)  # 2*I, nowhere near idempotent
    with pytest.raises(DecompositionFailed):
        newton_lift(A, x)


def test_verify_family_accepts_interval_units():
    A, ivs = incidence_algebra(GF(101), chain_poset(3))
    F = GF(101)
    family = [basis_vec(F, A.dim, ivs.index((a, a))) for a in range(3)]
    certs = verify_family(A, family)
    assert certs == ["corner-dim-1"] * 3


def test_verify_family_rejects_incomplete_and_nonorthogonal():
    A, ivs = incidence_algebra(QQ, chain_poset(3))
    e0 = basis_vec(QQ, A.dim, ivs.index((0, 0)))
    with pytest.raises(ValidationError):
        verify_family(A, [e0])
    one = tuple(A.unit)
    with pytest.raises(ValidationError):
        verify_family(A, [e0, one])  # sums to 1 + e0, and not orthogonal


def test_verify_family_rejects_imprimitive():
    A = matrix_algebra(QQ, 2)
    with pytest.raises(DecompositionFailed):
        verify_family(A, [tuple(A.unit)])


def test_nonsplit_corner_is_certified_not_split():
    # K[Z/3] over the rationals: t^3 - 1 = (t-1)(t^2+t+1), one quadratic field
    A = cyclic_group_algebra(QQ, 3)
    family, certs = complete_primitive_idempotents(A)
    assert len(family) == 2
    assert sorted(certs) == ["corner-dim-1", "corner-field"]
    check_family(A, family)


def test_symmetric_group_rational():
    # S_3: two linear characters and one 2x2 block, so 3 conjugacy blocks but
    # a complete primitive family has 1 + 1 + 2 = 4 members
    elems = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))
    table = [[elems.index(compose(p, q)) for q in elems] for p in elems]
    inverses = [elems.index(tuple(sorted(range(3), key=lambda i: p[i])))
                for p in elems]
    A = group_bialgebra(QQ, table, inverses).algebra
    family, certs = complete_primitive_idempotents(A)
    assert len(family) == 4
    check_family(A, family)


# Every certificate check of the splitter, reached on inputs that fail it.

def test_verify_family_rejects_a_non_idempotent():
    A = diagonal_algebra(QQ, 1)
    with pytest.raises(ValidationError, match="proposed element is not idempotent"):
        verify_family(A, [(2,)])


def test_verify_family_rejects_a_non_orthogonal_family_summing_to_1():
    # over F_2, 1 + 1 + 1 = 1, so three copies of 1 pass the sum check;
    # in characteristic 0 idempotents summing to 1 are always orthogonal
    A = diagonal_algebra(GF(2), 1)
    with pytest.raises(ValidationError, match="proposed family is not orthogonal"):
        verify_family(A, [(1,), (1,), (1,)])


def test_split_rejects_a_non_idempotent(monkeypatch):
    # a polynomial evaluation that returns 2e instead of q(x)
    honest = idempotents._poly_eval
    monkeypatch.setattr(idempotents, "_poly_eval",
                        lambda A, coeffs, x, e: honest(A, [QQ.from_int(2)], x, e))
    with pytest.raises(DecompositionFailed, match="splitting produced a non-idempotent"):
        split_semisimple_unit(diagonal_algebra(QQ, 2))


def test_split_rejects_a_non_orthogonal_split(monkeypatch):
    # The first split, of 1, stays honest; the second returns e1 = 1 + e.
    # Over F_2 both e1 and e - e1 = 1 are idempotent, but e1 * (e - e1) = e1
    # is not zero when e is a proper idempotent.
    F = GF(2)
    honest = idempotents._poly_eval
    corners = []

    def planted(A, coeffs, x, e):
        corners.append(e)
        if len(corners) != 2:
            return honest(A, coeffs, x, e)
        return honest(A, [F.one, F.one], e, corners[0])  # 1 + 1 * e
    monkeypatch.setattr(idempotents, "_poly_eval", planted)
    with pytest.raises(DecompositionFailed, match="splitting is not orthogonal"):
        split_semisimple_unit(diagonal_algebra(F, 3))


def test_lift_rejects_a_family_that_lost_orthogonality(monkeypatch):
    # a lift that returns 1 for every idempotent of the quotient
    monkeypatch.setattr(idempotents, "newton_lift", lambda B, x: B.unit)
    with pytest.raises(DecompositionFailed, match="lifted family lost orthogonality"):
        complete_primitive_idempotents(matrix_algebra(QQ, 2))


def test_lift_rejects_a_family_that_does_not_sum_to_1(monkeypatch):
    # a lift that returns 0 keeps the family orthogonal but sums to 0
    monkeypatch.setattr(idempotents, "newton_lift",
                        lambda B, x: (B.field.zero,) * B.dim)
    with pytest.raises(DecompositionFailed, match="lifted family does not sum to 1"):
        complete_primitive_idempotents(matrix_algebra(QQ, 2))


# The exact root search against sympy, on the splitter's own inputs.

@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["q", "fp101"])
def test_family_matches_the_sympy_path_on_conjugated_path_coalgebras(F, monkeypatch):
    cases = []
    for seed in range(6):
        rng = Random(seed)
        C, _ = path_coalgebra(F, rand_acyclic_quiver(rng, 5, 7, path_cap=30))
        D, _ = conjugate_coalgebra(C, rand_invertible(F, rng, C.dim))
        B = dual_algebra(D)
        cases.append((B, complete_primitive_idempotents(B)))
    # with no root search, every factorization goes to sympy's factor_list
    asked = []
    honest = idempotents._to_sympy_poly
    monkeypatch.setattr(idempotents, "_roots", lambda F, m: None)
    monkeypatch.setattr(idempotents, "_to_sympy_poly",
                        lambda *args: asked.append(args) or honest(*args))
    for B, got in cases:
        assert complete_primitive_idempotents(B) == got
    assert asked


def test_the_battery_and_a_decomposition_run_without_sympy(tmp_path):
    # the dual of the path coalgebra of 0 -> 1 is the upper triangular 2x2
    # matrices, split into two vertex idempotents by the roots 0 and 1
    spec = {"objects": {"c": {"type": "coalgebra", "field": "q", "dim": 3,
                              "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"],
                                         [2, 0, 2, "1"], [2, 2, 1, "1"]],
                              "counit": ["1", "1", "0"]}},
            "checks": [{"check": "decompose_injectives", "refs": ["c"]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    program = (
        "import contextlib, io, sys\n"
        "from dualis.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['suite', 'paper-theorems', '--seed', '0']),\n"
        "             main(['run', sys.argv[1], '--json'])]\n"
        "print(codes, 'sympy' in sys.modules)\n")
    src = str(Path(idempotents.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", program, str(path)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["[0,", "0]", "False"], proc.stderr
