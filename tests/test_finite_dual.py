"""Finite dual through a truncation window: membership certificates, the
delta factorization, coefficient functions, bialgebra duals, recurrences."""

import random

import pytest

from dualis import algebra
from dualis.algebra import FinAlgebra, matrix_algebra, unitalize
from dualis.coalgebra import CoalgebraMorphism, comatrix, counitalize, dual_coalgebra
from dualis.errors import (
    IncompatibleStructure,
    InsufficientData,
    InsufficientTruncation,
    OperationCancelled,
    ValidationError,
)
from dualis.fields import GF, QQ
from dualis.finite_dual import (
    CancelToken,
    FinBialgebra,
    GradedFunctional,
    LinRec,
    Member,
    NotWithinBound,
    bialgebra_dual,
    coefficient_functions,
    delta_of_functional,
    group_bialgebra,
    linrec_analyze,
    membership_bounded,
    polynomial_algebra,
    seq_functional,
    translate_span,
    unital_dual_compat,
)
from dualis.linalg import SparseMatrix


def fib(n):
    out = [0, 1]
    while len(out) < n + 1:
        out.append(out[-1] + out[-2])
    return out[:n + 1]


def factorials(n):
    out = [1]
    for k in range(1, n + 1):
        out.append(out[-1] * k)
    return out


def test_polynomial_algebra_table():
    G = polynomial_algebra(QQ, 10)
    assert G.total_dim == 11
    assert G.mul_flat({(2, 0): QQ.one}, {(3, 0): QQ.one}) == {(5, 0): QQ.one}
    # truncated product vanishes
    assert G.mul_flat({(6, 0): QQ.one}, {(7, 0): QQ.one}) == {}


def test_graded_degree_additivity_enforced():
    F = QQ
    with pytest.raises(ValidationError):
        # X * X landing in degree 1 is not graded
        polynomial_algebra(F, 2)  # sanity that the good one builds
        from dualis.finite_dual import GradedAlgebra
        GradedAlgebra(F, (1, 1), {((1, 0), (1, 0)): {(1, 0): F.one}})


def test_fibonacci_is_member_of_bound_two():
    G = polynomial_algebra(QQ, 20)
    f = seq_functional(QQ, fib(20))
    res = membership_bounded(G, f, 2)
    assert isinstance(res, Member)
    assert res.dim == 2
    assert res.level_dims[-1] == res.level_dims[-2] == 2


def test_constant_sequence_member_of_bound_one():
    G = polynomial_algebra(QQ, 12)
    f = seq_functional(QQ, [3] * 13)
    res = membership_bounded(G, f, 1)
    assert isinstance(res, Member)
    assert res.dim == 1


def test_zero_functional_member_dim_zero():
    G = polynomial_algebra(QQ, 8)
    f = seq_functional(QQ, [0] * 9)
    res = membership_bounded(G, f, 1)
    assert isinstance(res, Member)
    assert res.dim == 0


def test_factorial_not_within_bound():
    G = polynomial_algebra(QQ, 30)
    f = seq_functional(QQ, factorials(30))
    res = membership_bounded(G, f, 15)
    assert isinstance(res, NotWithinBound)
    assert res.dim == 16


def test_shallow_data_raises():
    G = polynomial_algebra(QQ, 20)
    f = seq_functional(QQ, fib(3))
    with pytest.raises(InsufficientTruncation):
        membership_bounded(G, f, 2)


def test_left_right_two_sided_spans_agree_for_commutative():
    G = polynomial_algebra(GF(101), 16)
    f = seq_functional(GF(101), [v % 101 for v in fib(16)])
    dims = {}
    for sides in ("left", "right", "both"):
        rs, levels, _ = translate_span(G, f, 3, sides)
        dims[sides] = rs.dim
    assert dims["left"] == dims["right"] == dims["both"] == 2


def test_cancel_token():
    G = polynomial_algebra(QQ, 20)
    f = seq_functional(QQ, fib(20))
    tok = CancelToken()
    tok.cancel()
    with pytest.raises(OperationCancelled):
        membership_bounded(G, f, 2, cancel=tok)


def test_delta_factorization_fibonacci():
    G = polynomial_algebra(QQ, 20)
    f = seq_functional(QQ, fib(20))
    pairs = delta_of_functional(G, f, 2)
    assert len(pairs) == 2
    F = QQ
    seq = fib(20)
    for a in range(7):
        for b in range(7):
            lhs = F.from_int(seq[a + b])
            rhs = F.zero
            for g, h in pairs:
                rhs = F.add(rhs, F.mul(g({(a, 0): F.one}), h({(b, 0): F.one})))
            assert lhs == rhs


def test_delta_zero_functional():
    G = polynomial_algebra(QQ, 10)
    f = seq_functional(QQ, [0] * 11)
    assert delta_of_functional(G, f, 1) == []


def test_delta_not_within_bound():
    G = polynomial_algebra(QQ, 9)
    f = seq_functional(QQ, factorials(9))
    res = delta_of_functional(G, f, 3)
    assert isinstance(res, NotWithinBound)


def test_coefficient_functions_companion():
    F = QQ
    G = polynomial_algebra(F, 16)
    comp = SparseMatrix(F, 2, 2, {(0, 1): F.one, (1, 0): F.one, (1, 1): F.one})
    rep = {}
    cur = SparseMatrix.identity(F, 2)
    for d in range(17):
        rep[(d, 0)] = cur
        cur = cur @ comp
    rho = coefficient_functions(G, rep, 2)
    seq = fib(16)
    for n in range(17):
        assert rho[0][1]({(n, 0): F.one}) == F.from_int(seq[n])
    res = membership_bounded(G, rho[0][1], 2)
    assert isinstance(res, Member) and res.dim == 2


def test_coefficient_functions_reject_non_rep():
    F = QQ
    G = polynomial_algebra(F, 4)
    rep = {(d, 0): SparseMatrix.identity(F, 1) for d in range(5)}
    rep[(1, 0)] = SparseMatrix(F, 1, 1, {(0, 0): F.from_int(2)})
    # X^2 maps to 1 but X*X would map to 4
    with pytest.raises(ValidationError):
        coefficient_functions(G, rep, 1)


def test_unital_dual_compat_null_and_ut2():
    F = QQ
    null = FinAlgebra(F, 1, {})
    mult = {(0, 0): {0: F.one}, (0, 1): {1: F.one},
            (1, 2): {1: F.one}, (2, 2): {2: F.one}}
    ut2 = FinAlgebra(F, 3, mult, (F.one, F.zero, F.one))
    for A in (null, ut2):
        iso = unital_dual_compat(A)
        assert iso.is_bijective() and iso.counital
        assert iso.source.dim == A.dim + 1
        # the validated constructions, and the full morphism check, agree
        assert iso.source == dual_coalgebra(unitalize(A)[0])
        assert iso.target == counitalize(dual_coalgebra(A))[0]
        assert CoalgebraMorphism(iso.source, iso.target, iso.matrix, iso.counital) == iso


def test_graded_algebra_validates_its_table_once(monkeypatch):
    calls = []
    real = algebra.check_associative
    monkeypatch.setattr(algebra, "check_associative",
                        lambda *args: calls.append(1) or real(*args))
    G = polynomial_algebra(QQ, 5)
    assert len(calls) == 1
    A, index = G.as_fin_algebra()
    assert len(calls) == 1
    assert index == {(d, 0): d for d in range(6)}
    monkeypatch.undo()
    assert A == FinAlgebra(QQ, 6, A.mult, A.unit)
    assert A.mult.get((2, 3), {}) == {5: QQ.one}


def test_group_bialgebra_z2():
    F = QQ
    H = group_bialgebra(F, [[0, 1], [1, 0]], [0, 1])
    assert H.antipode.entries == {(0, 0): F.one, (1, 1): F.one}
    Hd = bialgebra_dual(H)
    # functions on Z/2: pointwise product, diagonal comult transposed
    assert Hd.algebra.mult.get((0, 0), {}) == {0: F.one}
    assert Hd.algebra.mult.get((0, 1), {}) == {}
    assert Hd.algebra.unit == (F.one, F.one)
    assert Hd.coalgebra.comult[0] == {(0, 0): F.one, (1, 1): F.one}
    assert Hd.coalgebra.comult[1] == {(0, 1): F.one, (1, 0): F.one}


def test_bialgebra_rejects_matrix_comatrix_mismatch():
    F = QQ
    with pytest.raises(IncompatibleStructure):
        FinBialgebra(matrix_algebra(F, 2), comatrix(F, 2))


def test_bad_antipode_rejected():
    F = QQ
    swap = SparseMatrix(F, 2, 2, {(0, 1): F.one, (1, 0): F.one})
    with pytest.raises(IncompatibleStructure):
        group_bialgebra(F, [[0, 1], [1, 0]], [1, 0]) and None
    with pytest.raises(IncompatibleStructure):
        H = group_bialgebra(F, [[0, 1], [1, 0]], [0, 1])
        FinBialgebra(H.algebra, H.coalgebra, swap)


def test_linrec_fibonacci():
    res = linrec_analyze(QQ, fib(12), 3)
    assert isinstance(res, LinRec)
    assert res.order == 2
    assert res.poly == (QQ.from_int(-1), QQ.from_int(-1), QQ.one)


def test_linrec_constant():
    res = linrec_analyze(QQ, [7] * 10, 2)
    assert res.order == 1
    assert res.poly == (QQ.from_int(-1), QQ.one)


def test_linrec_factorial_not_within_bound():
    res = linrec_analyze(QQ, factorials(39), 15)
    assert isinstance(res, NotWithinBound)
    assert res.dim == 16


def test_linrec_zero_sequence():
    res = linrec_analyze(QQ, [0] * 10, 2)
    assert res.order == 0
    assert res.poly == (QQ.one,)


def test_linrec_insufficient_data():
    with pytest.raises(InsufficientData):
        linrec_analyze(QQ, fib(10), 5)


def _linrec_by_hankel_solves(F, seq, rank_bound):
    """The search linrec_analyze replaced: for d = 1, 2, ..., solve the
    Hankel system of the order-d recurrence over the whole sequence and
    take the first d with a solution."""
    seq = [F.from_int(v) if isinstance(v, int) else v for v in seq]
    n = len(seq)
    if n < 2 * rank_bound + 2:
        raise InsufficientData(f"need at least {2 * rank_bound + 2} terms, have {n}")
    if all(F.is_zero(v) for v in seq):
        return LinRec(0, (F.one,))
    for d in range(1, rank_bound + 1):
        M = SparseMatrix.from_rows(F, [tuple(seq[m:m + d]) for m in range(n - d)], d)
        sol = M.solve(tuple(seq[m + d] for m in range(n - d)))
        if sol is not None:
            return LinRec(d, tuple(F.neg(c) for c in sol) + (F.one,))
    return NotWithinBound(rank_bound + 1, rank_bound)


def _linrec_cases(rng):
    """(sequence, rank_bound): recurrences of order 0..6, the same with one
    term perturbed, all-zero sequences and impulses, each at length exactly
    2 * bound + 2 or a few terms longer."""
    for _ in range(150):
        order, bound = rng.randrange(0, 7), rng.randrange(0, 9)
        n = 2 * bound + 2 + rng.choice((0, 0, rng.randrange(1, 6)))
        coeffs = [rng.randrange(-3, 4) for _ in range(order)]
        seq = [rng.randrange(-3, 4) for _ in range(order)]
        while len(seq) < n:
            seq.append(sum(c * v for c, v in zip(coeffs, seq[-order:])) if order else 0)
        seq = seq[:n]
        yield seq, bound
        bumped = list(seq)
        bumped[rng.randrange(n)] += rng.randrange(1, 4)
        yield bumped, bound
        yield [0] * n, bound
        at = rng.randrange(n)
        yield [int(i == at) for i in range(n)], bound


def test_linrec_matches_hankel_solves_seeded():
    kinds = {"order": set(), "not_within": 0}
    for F in (QQ, GF(2), GF(3), GF(101)):
        rng = random.Random(f"linrec:{F.name()}")
        for seq, bound in _linrec_cases(rng):
            seq = [F.from_int(v) for v in seq]
            want = _linrec_by_hankel_solves(F, seq, bound)
            assert linrec_analyze(F, seq, bound) == want, (F, seq, bound)
            if isinstance(want, LinRec):
                kinds["order"].add(want.order)
            else:
                kinds["not_within"] += 1
        with pytest.raises(InsufficientData):
            linrec_analyze(F, [1] * 9, 4)
    assert kinds["order"] >= set(range(7)) and kinds["not_within"] >= 50, kinds


def test_functional_refuses_unknown_degree():
    f = seq_functional(QQ, [1, 2, 3])
    with pytest.raises(InsufficientTruncation):
        f({(5, 0): QQ.one})
