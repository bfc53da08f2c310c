"""Exact linear algebra: pinned examples plus seeded property sweeps."""

import random
from fractions import Fraction

import pytest

from dualis.errors import DimensionMismatch
from dualis.fields import GF, QQ, Field, field_from_name, is_prime
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


def F(n, d=1):
    return Fraction(n, d)


def test_field_parse_and_fmt_roundtrip():
    assert QQ.fmt(F(-3, 4)) == "-3/4"
    assert QQ.fmt(F(5)) == "5"
    f7 = GF(7)
    assert f7.fmt(6) == "6"
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
