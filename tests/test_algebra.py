"""Algebra core: unitalization, embeddings, ideals, quotients, radical."""

import math
from fractions import Fraction

import pytest

from dualis.algebra import (
    AlgebraMorphism,
    FinAlgebra,
    SubspaceIdeal,
    cofinite_two_sided_inside,
    compose,
    ideal_closure,
    matrix_algebra,
    quotient_algebra,
    radical,
    regular_matrix_embedding,
    unitalize,
    unitalize_morphism,
    _nilpotent_squarings,
)
from dualis.coalgebra import _trusted
from dualis.errors import NotTwoSided, UnsupportedCharacteristic, ValidationError
from dualis.fields import GF, QQ
from dualis.linalg import SparseMatrix, basis_vec


def F(n, d=1):
    return Fraction(n, d)


def upper_triangular_2x2():
    # basis E11, E12, E22
    mult = {
        (0, 0): {0: F(1)},
        (0, 1): {1: F(1)},
        (1, 2): {1: F(1)},
        (2, 2): {2: F(1)},
    }
    return FinAlgebra(QQ, 3, mult, (F(1), F(0), F(1)))


def upper_triangular_3x3():
    # basis E11, E12, E13, E22, E23, E33; E_ij E_jk = E_ik
    units = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    mult = {(a, b): {units.index((i, k)): F(1)}
            for a, (i, j) in enumerate(units) for b, (j2, k) in enumerate(units) if j == j2}
    return FinAlgebra(QQ, 6, mult, (F(1), F(0), F(0), F(1), F(0), F(1)))


def null_algebra(dim=1):
    return FinAlgebra(QQ, dim, {})


def test_associativity_validation_rejects_bad_table():
    # b0*b0 = b1, b0*b1 = b0 is not associative
    with pytest.raises(ValidationError):
        FinAlgebra(QQ, 2, {(0, 0): {1: F(1)}, (0, 1): {0: F(1)}})


def test_unit_validation():
    with pytest.raises(ValidationError):
        FinAlgebra(QQ, 1, {}, (F(1),))  # null product, so nothing is a unit


def test_matrix_algebra_is_validated_once_per_field_and_size():
    for F in (QQ, GF(2), GF(101)):
        for n in (1, 2, 3):
            M = matrix_algebra(F, n)
            assert matrix_algebra(F, n) is M
            fresh = matrix_algebra.__wrapped__(F, n)
            assert fresh is not M and fresh == M
            assert FinAlgebra(F, M.dim, M.mult, M.unit) == M


def test_matrix_algebra_products():
    M = matrix_algebra(QQ, 2)
    e01 = basis_vec(QQ, 4, 0 * 2 + 1)
    e10 = basis_vec(QQ, 4, 1 * 2 + 0)
    assert M.multiply(e01, e10) == basis_vec(QQ, 4, 0)  # E01*E10 = E00
    assert M.multiply(e01, e01) == (F(0),) * 4


def test_unitalize_null_algebra_gives_dual_numbers():
    A = null_algebra()
    A1, incl = unitalize(A)
    assert A1.dim == 2 and A1.unit == (F(0), F(1))
    x = incl((F(1),))
    assert x == (F(1), F(0))
    assert A1.multiply(x, x) == (F(0), F(0))
    assert A1.multiply(x, A1.unit) == x
    # product rule with scalar parts: (x+u)(x+2u) = x*x + 2x + x + 2u
    assert A1.multiply((F(1), F(1)), (F(1), F(2))) == (F(3), F(2))


def test_unitalize_is_unital_extension_of_unital_algebra():
    A = upper_triangular_2x2()
    A1, incl = unitalize(A)
    # old unit is an idempotent but no longer the unit
    old = incl(A.unit)
    assert A1.multiply(old, old) == old
    assert A1.unit == (F(0),) * 3 + (F(1),)


def test_regular_matrix_embedding_null():
    A = null_algebra()
    mor = regular_matrix_embedding(A)
    # pi(x) acts on basis (x, u): x*x = 0, x*u = x, so the matrix is E_{01}
    img = mor((F(1),))
    assert img == basis_vec(QQ, 4, 1)
    assert mor.is_injective()


def test_regular_matrix_embedding_multiplicative_on_ut2():
    A = upper_triangular_2x2()
    mor = regular_matrix_embedding(A)  # validation already checks products
    assert mor.is_injective()
    assert mor.target.dim == 16


def test_ideal_closure_and_quotient():
    A = upper_triangular_2x2()
    I = ideal_closure(A, [basis_vec(QQ, 3, 1)], "two")  # ideal generated by E12
    assert I.dim == 1
    Q, proj = quotient_algebra(A, I)
    assert Q.dim == 2
    assert Q.unit is not None
    # quotient is the diagonal pair, so it is commutative
    a, b = basis_vec(QQ, 2, 0), basis_vec(QQ, 2, 1)
    assert Q.multiply(a, b) == Q.multiply(b, a) == (F(0), F(0))
    assert proj(A.unit) == Q.unit


def test_quotient_rejects_one_sided():
    A = upper_triangular_2x2()
    I = SubspaceIdeal(A, (basis_vec(QQ, 3, 0),), "left")  # span{E11} is only left
    with pytest.raises(NotTwoSided):
        quotient_algebra(A, I)


def test_left_only_ideal_validation():
    A = upper_triangular_2x2()
    with pytest.raises(ValidationError):
        SubspaceIdeal(A, (basis_vec(QQ, 3, 0),), "two")  # E11*E12 = E12 escapes


def test_quotient_rejects_a_trusted_one_sided_ideal():
    # span{E12} is closed on the left only (E12 E23 = E13); handed in
    # unvalidated as two-sided, the projection's morphism check catches it
    A = upper_triangular_3x3()
    I = _trusted(SubspaceIdeal, A, (basis_vec(QQ, 6, 1),), "two")
    with pytest.raises(ValidationError):
        quotient_algebra(A, I)


def test_cofinite_two_sided_inside():
    A = upper_triangular_2x2()
    I = SubspaceIdeal(A, (basis_vec(QQ, 3, 0), basis_vec(QQ, 3, 1)), "left")
    J = cofinite_two_sided_inside(A, I)
    assert J.sided == "two"
    for v in J.basis:
        assert I.contains(v)
    # here the left ideal is itself two-sided and acts as zero on A/I
    assert J.dim == 2

    K = cofinite_two_sided_inside(A, SubspaceIdeal(A, (basis_vec(QQ, 3, 0),), "left"))
    assert K.dim == 0


def test_radical_of_upper_triangular():
    A = upper_triangular_2x2()
    rad = radical(A)
    assert rad.dim == 1
    assert rad.basis == (basis_vec(QQ, 3, 1),)
    Q, _ = quotient_algebra(A, rad)
    assert radical(Q).dim == 0
    for A in (A, upper_triangular_3x3()):
        rad = radical(A)
        assert rad == SubspaceIdeal(A, rad.basis, "two")
        Q, _ = quotient_algebra(A, rad)
        assert Q == FinAlgebra(QQ, Q.dim, Q.mult, Q.unit)
        assert Q.dim == {3: 2, 6: 3}[A.dim]


def test_radical_rejects_a_candidate_that_is_not_nilpotent(monkeypatch):
    # a kernel step that returns every basis vector makes the candidate the
    # whole unital algebra, whose powers never reach zero
    monkeypatch.setattr(SparseMatrix, "kernel_basis",
                        lambda self: [basis_vec(QQ, self.cols, i) for i in range(self.cols)])
    with pytest.raises(ValidationError, match="radical candidate is not nilpotent"):
        radical(upper_triangular_2x2())


def truncated_powers(F, n):
    """The non-unital algebra t, t^2, ..., t^n with t^(n+1) = 0; b_i = t^(i+1)."""
    mult = {(i, j): {i + j + 1: F.one} for i in range(n) for j in range(n - 1 - i)}
    return FinAlgebra(F, n, mult)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 16, 40])
def test_radical_of_truncated_powers_is_everything(n):
    # nilpotency index exactly n + 1 = dim + 1, the edge of the squaring
    # certificate's bound: J^k != 0 for k = n must not be read as a failure
    for F in (QQ, GF(101)):
        A = truncated_powers(F, n)
        basis = [basis_vec(F, n, i) for i in range(n)]
        assert radical(A).basis == tuple(basis)
        assert _nilpotent_squarings(A, basis) <= math.ceil(math.log2(n + 1))


def test_nilpotency_certificate_rejects_a_nonzero_power_past_dim():
    # in span{e, x} with e idempotent, ex = xe = x and x^2 = 0, span{x} is
    # nilpotent and span{e} is not: e^k = e for every k
    A = FinAlgebra(QQ, 2, {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}})
    with pytest.raises(ValidationError, match="radical candidate is not nilpotent"):
        _nilpotent_squarings(A, [basis_vec(QQ, 2, 0)])
    assert _nilpotent_squarings(A, [basis_vec(QQ, 2, 1)]) == 1


def test_radical_rejects_a_candidate_that_is_not_two_sided(monkeypatch):
    # span{E12} is nilpotent but not a right ideal, so only the two-sidedness
    # certificate can reject it
    monkeypatch.setattr(SparseMatrix, "kernel_basis",
                        lambda self: [basis_vec(QQ, self.cols, 1)])
    with pytest.raises(ValidationError):
        radical(upper_triangular_3x3())


def test_radical_characteristic_guard():
    A3 = FinAlgebra(GF(3), 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}})
    with pytest.raises(UnsupportedCharacteristic):
        radical(A3)
    # over a big enough prime the same table is fine
    A101 = FinAlgebra(GF(101), 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}})
    radical(A101)


def test_radical_nilpotent_and_semisimple_quotient_for_matrix_algebra():
    M = matrix_algebra(QQ, 2)
    assert radical(M).dim == 0


def test_unitalize_functorial_on_quotient_projection():
    A = upper_triangular_2x2()
    rad = radical(A)
    Q, proj = quotient_algebra(A, rad)
    A1, iA = unitalize(A)
    Q1, iQ = unitalize(Q)
    proj1 = unitalize_morphism(proj, A1, Q1)
    lhs = compose(proj1, iA)
    rhs = compose(iQ, proj)
    assert lhs.matrix == rhs.matrix


def test_morphism_validation_catches_non_multiplicative():
    A = null_algebra()
    B = upper_triangular_2x2()
    # x -> E11 is not multiplicative: x*x = 0 but E11*E11 = E11
    with pytest.raises(ValidationError):
        AlgebraMorphism(A, B, SparseMatrix(QQ, 3, 1, {(0, 0): F(1)}))


def _first_non_multiplicative_pair(A, B, M):
    """Plain reference: scan every basis pair of A with dense vectors."""
    Fd = A.field
    images = [M.apply(basis_vec(Fd, A.dim, k)) for k in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = [Fd.zero] * B.dim
            for k, c in A.mult.get((i, j), {}).items():
                lhs = [Fd.add(u, Fd.mul(c, v)) for u, v in zip(lhs, images[k])]
            if tuple(lhs) != B.multiply(images[i], images[j]):
                return i, j
    return None


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["q", "fp2", "fp5"])
def test_morphism_validation_rejects_at_the_first_bad_pair(field):
    import random

    from dualis.randgen import conjugate_algebra, rand_algebra, rand_invertible, rand_scalar

    rng = random.Random(f"morphism:{field.name()}")
    rejected = accepted = 0
    for trial in range(150):
        A = rand_algebra(field, rng, max_dim=4)
        B = conjugate_algebra(A, rand_invertible(field, rng, A.dim)) if trial % 2 \
            else rand_algebra(field, rng, max_dim=4)
        ent = {(i, j): rand_scalar(field, rng) for i in range(B.dim) for j in range(A.dim)
               if rng.random() < 0.4}
        matrices = [SparseMatrix(field, B.dim, A.dim,
                                 {k: v for k, v in ent.items() if not field.is_zero(v)})]
        if A.dim == B.dim:
            matrices.append(SparseMatrix.identity(field, A.dim))
        for M in matrices:
            want = _first_non_multiplicative_pair(A, B, M)
            if want is None:
                AlgebraMorphism(A, B, M)
                accepted += 1
            else:
                with pytest.raises(ValidationError, match=rf"at \({want[0]},{want[1]}\)$"):
                    AlgebraMorphism(A, B, M)
                rejected += 1
    assert accepted > 0 and rejected > 0
