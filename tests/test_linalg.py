"""Exact linear algebra: pinned examples plus seeded property sweeps."""

import random
from fractions import Fraction

import pytest

from dualis.errors import DimensionMismatch
from dualis.fields import GF, QQ, Field, field_from_name, is_prime
from dualis.idempotents import _from_sympy_coeffs, _to_sympy_poly
from dualis.linalg import (
    RowSpace,
    SparseMatrix,
    _rref_dense,
    _rref_rows,
    axpy,
    bilinear,
    intersect_spans,
    prune,
    sparse_vec,
    span_basis,
)
from dualis.report import parse_scalar, scalar_str


def F(n, d=1):
    return Fraction(n, d)


def test_field_parse_and_fmt_roundtrip():
    assert scalar_str(QQ, F(-3, 4)) == "-3/4"
    assert scalar_str(QQ, F(5)) == "5"
    f7 = GF(7)
    assert scalar_str(f7, 6) == "6"
    assert field_from_name("fp:101").characteristic == 101
    assert field_from_name("q") == QQ


def test_field_rejects_composite_characteristic():
    with pytest.raises(Exception):
        Field(6)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 2)


def test_big_prime_field_arithmetic():
    p = 2305843009213693951  # 2^61 - 1
    f = GF(p)
    a = f.from_int(-7)
    assert f.mul(a, f.inv(a)) == 1


def test_rank_and_kernel_pinned():
    # rows (1,2,3),(2,4,6),(0,1,1): rank 2, kernel spanned by (-1,-1,1)
    M = SparseMatrix.from_rows(QQ, [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]])
    assert M.rank() == 2
    ker = M.kernel_basis()
    assert ker == [(F(-1), F(-1), F(1))]
    for v in ker:
        assert all(c == 0 for c in M.apply(v))


def test_solve_free_variables_zeroed_and_inconsistency():
    M = SparseMatrix.from_rows(QQ, [[F(1), F(1), F(0)], [F(0), F(0), F(1)]])
    x = M.solve((F(3), F(5)))
    assert x == (F(3), F(0), F(5))  # free column 1 pinned to zero
    M2 = SparseMatrix.from_rows(QQ, [[F(1), F(0)], [F(1), F(0)]])
    assert M2.solve((F(1), F(2))) is None
    with pytest.raises(DimensionMismatch):
        M2.solve((F(1),))


def test_tensor_index_convention():
    # (M tensor N)[(i*rN + k, j*cN + l)] = M[i,j] * N[k,l]
    M = SparseMatrix.from_rows(QQ, [[F(1), F(2)], [F(0), F(1)]])
    N = SparseMatrix.from_rows(QQ, [[F(3)], [F(5)]])  # 2x1
    T = M.tensor(N)
    assert (T.rows, T.cols) == (4, 2)
    assert T.entries[(0, 0)] == F(3)
    assert T.entries[(1, 0)] == F(5)
    assert T.entries[(0, 1)] == F(6)
    assert T.entries[(3, 1)] == F(5)


def test_dense_and_sparse_rref_agree_seeded():
    rng = random.Random(20260815)
    for field in (QQ, GF(101)):
        for _ in range(60):
            r = rng.randrange(0, 5)
            c = rng.randrange(1, 6)
            rows = []
            for _ in range(r):
                row = {}
                for j in range(c):
                    if rng.random() < 0.6:
                        v = field.from_int(rng.randrange(-4, 5))
                        if not field.is_zero(v):
                            row[j] = v
                rows.append(row)
            a = _rref_rows(field, rows, c)
            b = _rref_dense(field, rows, c)
            assert a == b


def test_rank_nullity_property_seeded():
    rng = random.Random(7)
    for field in (QQ, GF(5), GF(101)):
        for _ in range(80):
            r = rng.randrange(0, 6)
            c = rng.randrange(0, 6)
            ent = {}
            for i in range(r):
                for j in range(c):
                    if rng.random() < 0.5:
                        v = field.from_int(rng.randrange(-3, 4))
                        if not field.is_zero(v):
                            ent[(i, j)] = v
            M = SparseMatrix(field, r, c, ent)
            ker = M.kernel_basis()
            assert M.rank() + len(ker) == c
            for v in ker:
                assert all(field.is_zero(x) for x in M.apply(v))
            # solve returns an actual solution whenever it claims one
            x = tuple(field.from_int(rng.randrange(-3, 4)) for _ in range(c))
            b = M.apply(x)
            got = M.solve(b)
            assert got is not None
            assert M.apply(got) == b


def test_matmul_transpose_inverse():
    rng = random.Random(99)
    f = GF(13)
    A = SparseMatrix.from_rows(f, [[rng.randrange(13) for _ in range(3)] for _ in range(3)])
    if A.is_invertible():
        I = A @ A.inverse()
        assert I == SparseMatrix.identity(f, 3)
    B = SparseMatrix.from_rows(f, [[rng.randrange(13) for _ in range(4)] for _ in range(3)])
    assert (A @ B).transpose() == B.transpose() @ A.transpose()


def test_rowspace_incremental_matches_batch():
    rng = random.Random(4242)
    for field in (QQ, GF(7)):
        for _ in range(40):
            n = rng.randrange(1, 6)
            vecs = [tuple(field.from_int(rng.randrange(-2, 3)) for _ in range(n))
                    for _ in range(rng.randrange(0, 6))]
            rs = RowSpace(field, n, vecs)
            assert RowSpace(field, n, [sparse_vec(field, v) for v in vecs]).basis() == rs.basis()
            M = SparseMatrix.from_rows(field, [list(v) for v in vecs], n) if vecs else None
            if M is not None:
                assert rs.dim == M.rank()
            assert rs.basis() == span_basis(field, vecs, n)
            for v in vecs:
                assert rs.contains(v)
                coords = rs.coords(v)
                assert coords is not None
                assert rs.coords(sparse_vec(field, v)) == coords
                acc = [field.zero] * n
                for c, bv in zip(coords, rs.basis()):
                    for i, x in enumerate(bv):
                        acc[i] = field.add(acc[i], field.mul(c, x))
                assert tuple(acc) == v


def test_intersect_spans():
    u = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    w = [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
    got = intersect_spans(QQ, u, w, 3)
    assert got == [(F(0), F(1), F(0))]
    assert intersect_spans(QQ, u, [], 3) == []


# ---------------------------------------------------------------------------
# the sparse kernel against plain loops over every key

def _axpy_reference(field, acc, c, x):
    keys = set(acc) | set(x)
    out = {k: field.add(acc.get(k, field.zero), field.mul(c, x.get(k, field.zero)))
           for k in keys}
    return {k: v for k, v in out.items() if not field.is_zero(v)}


def _bilinear_reference(field, table, x, y):
    out = {}
    for (i, j), terms in table.items():
        xy = field.mul(x.get(i, field.zero), y.get(j, field.zero))
        for k, v in terms.items():
            out[k] = field.add(out.get(k, field.zero), field.mul(xy, v))
    return {k: v for k, v in out.items() if not field.is_zero(v)}


def _rand_scalar(field, rng):
    if field.characteristic == 0:
        return F(rng.randint(-4, 4), rng.randint(1, 3))
    return field.from_int(rng.randrange(field.characteristic))


def _rand_sparse(field, rng, keys):
    d = {k: _rand_scalar(field, rng) for k in rng.sample(keys, rng.randrange(len(keys) + 1))}
    return {k: v for k, v in d.items() if not field.is_zero(v)}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["q", "fp2", "fp101"])
def test_sparse_kernel_matches_plain_loops(field):
    rng = random.Random(f"kernel:{field.name()}")
    key_sets = [list(range(6)),
                [(i, j) for i in range(3) for j in range(3)],
                [(i, j, k) for i in range(2) for j in range(2) for k in range(3)]]
    cancelled = 0
    for trial in range(300):
        keys = key_sets[trial % 3]
        x = _rand_sparse(field, rng, keys)
        c = _rand_scalar(field, rng)
        acc = _rand_sparse(field, rng, keys)
        for k in rng.sample(sorted(x, key=str), len(x) // 2):
            acc[k] = field.neg(field.mul(c, x[k]))  # these entries cancel to zero
        acc = {k: v for k, v in acc.items() if not field.is_zero(v)}
        want = _axpy_reference(field, acc, c, x)
        got = axpy(field, acc, c, x)
        assert got is acc and got == want
        cancelled += len(set(x) - set(want))
        table = {(i, j): _rand_sparse(field, rng, keys) for i in range(4) for j in range(4)
                 if rng.random() < 0.5}
        x, y = _rand_sparse(field, rng, list(range(4))), _rand_sparse(field, rng, list(range(4)))
        assert bilinear(field, prune(field, table), x, y) == _bilinear_reference(field, table, x, y)
    assert cancelled > 0


def test_prune_drops_zero_scalars_and_empty_rows():
    table = {(0, 0): {0: F(1), 1: F(0)}, (0, 1): {1: F(0)}, (1, 1): {}}
    assert prune(QQ, table) == {(0, 0): {0: F(1)}}
    assert table[(0, 0)] == {0: F(1), 1: F(0)}  # the input is left alone


# ---------------------------------------------------------------------------
# the Q scalar contract: int when integral, otherwise Fraction, never a float


def _is_canonical_rational(v) -> bool:
    if type(v) is int:
        return True
    return type(v) is Fraction and v.denominator != 1


def _rand_rational(rng):
    if rng.random() < 0.5:
        return rng.randrange(-9, 10)
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))


def test_qq_ops_match_plain_fraction_arithmetic_seeded():
    rng = random.Random("qq-contract")
    pairs = [(_rand_rational(rng), _rand_rational(rng)) for _ in range(400)]
    # cancellations that leave an integer or zero behind
    for a, b in list(pairs):
        if b != 0:
            pairs.append((b, QQ.inv(b)))  # x * x^-1
            fb = Fraction(b)
            pairs.append((fb.numerator * Fraction(1, fb.denominator),
                          Fraction(fb.denominator, 1) / fb.numerator))
        pairs.append((a, QQ.neg(a)))  # a + (-a)
        pairs.append((Fraction(a) * 3, Fraction(1, 3)))
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }
    seen_int_from_fraction = 0
    for a, b in pairs:
        a = a.numerator if a.denominator == 1 else a
        b = b.numerator if b.denominator == 1 else b
        for name, ref in ops.items():
            if name == "div" and b == 0:
                continue
            got = getattr(QQ, name)(a, b)
            assert got == ref(Fraction(a), Fraction(b)), (name, a, b)
            assert _is_canonical_rational(got), (name, a, b, got)
            if type(got) is int and (type(a) is Fraction or type(b) is Fraction):
                seen_int_from_fraction += 1
        for x in (a, b):
            assert QQ.neg(x) == -Fraction(x) and _is_canonical_rational(QQ.neg(x))
            if x != 0:
                assert QQ.inv(x) == 1 / Fraction(x)
                assert _is_canonical_rational(QQ.inv(x)), x
    assert seen_int_from_fraction > 0
    half = Fraction(1, 2)
    assert QQ.add(half, half) == 1 and type(QQ.add(half, half)) is int
    assert type(QQ.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(QQ.mul(Fraction(5, 7), QQ.inv(Fraction(5, 7)))) is int
    assert QQ.add(Fraction(2, 5), QQ.neg(Fraction(2, 5))) == 0


def test_qq_inv_returns_exact_rationals():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert type(QQ.inv(Fraction(1, 4))) is int and QQ.inv(Fraction(1, 4)) == 4
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_qq_scalars_entering_from_outside_are_canonical():
    for v in (QQ.zero, QQ.one, QQ.from_int(7), QQ.from_int(-3)):
        assert type(v) is int
    for text, want in (("4/2", 2), ("-6/3", -2), ("5", 5), ("0/7", 0),
                       ("-3/4", Fraction(-3, 4)), (" 10/4 ", Fraction(5, 2))):
        got = parse_scalar(QQ, text)
        assert got == want and _is_canonical_rational(got), text
    table = {(0, 0): {0: F(4, 2), 1: F(0), 2: F(1, 3)}, (1, 0): {0: F(-5)}}
    pruned = prune(QQ, table)
    assert pruned == {(0, 0): {0: 2, 2: F(1, 3)}, (1, 0): {0: -5}}
    assert all(_is_canonical_rational(v) for terms in pruned.values()
               for v in terms.values())
    import sympy

    t = sympy.Symbol("t")
    coeffs = [F(-2), 0, F(3, 2), 1]
    back = _from_sympy_coeffs(QQ, _to_sympy_poly(QQ, coeffs, t))
    assert back == [-2, 0, F(3, 2), 1]
    assert all(_is_canonical_rational(c) for c in back)
