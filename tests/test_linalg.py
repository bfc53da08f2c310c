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
    axpy,
    basis_vec,
    bilinear,
    dense_vec,
    dot,
    intersect_spans,
    lincomb,
    outer,
    prune,
    regroup,
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


# ---------------------------------------------------------------------------
# elimination against a plain dense Gauss-Jordan on Fraction / int-mod-p
# arithmetic, which shares no code with dualis

def _gauss_jordan(p, rows, ncols):
    """Reduced row echelon rows and pivot columns over Q (p = 0) or F_p."""
    norm = (lambda x: x % p) if p else Fraction
    inv = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / x)
    m = [[norm(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = inv(m[r][c])
        m[r] = [norm(s * x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [norm(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _oracle(p, rows, ncols, bs):
    """(reduced rows, pivot columns, kernel basis, the solution of Mx = b or
    None for each b in bs, inverse rows or None)."""
    norm = (lambda x: x % p) if p else Fraction
    red0, pivots0 = _gauss_jordan(p, rows, ncols)
    kernel = []
    for fc in range(ncols):
        if fc not in pivots0:
            v = [norm(0)] * ncols
            v[fc] = norm(1)
            for r, pc in enumerate(pivots0):
                v[pc] = norm(-red0[r][fc])
            kernel.append(tuple(v))
    xs = []
    for b in bs:
        red, pivots = _gauss_jordan(p, [row + [bi] for row, bi in zip(rows, b)], ncols + 1)
        x = None
        if ncols not in pivots:
            x = [norm(0)] * ncols
            for r, pc in enumerate(pivots):
                x[pc] = red[r][ncols]
            x = tuple(x)
        xs.append(x)
    inverse = None
    n = len(rows)
    if n == ncols:
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        red, pivots = _gauss_jordan(p, [row + e for row, e in zip(rows, eye)], 2 * n)
        if pivots[:n] == list(range(n)):
            inverse = [row[n:] for row in red]
    return red0, pivots0, kernel, xs, inverse


def _elimination_cases(p, rng):
    """Integer matrices (rows, ncols): empty, zero, single-column, rank-deficient
    and singular ones by construction, then random shapes and densities."""
    def rand(r, c, density=0.6):
        return [[rng.randrange(-4, 5) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]

    def product(r, k, c):
        A, B = rand(r, k, 1), rand(k, c, 1)
        return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(c)] for i in range(r)]

    cases = [([], 0), ([], 3), ([[], [], []], 0), ([[0] * 4 for _ in range(3)], 4),
             ([[1], [2], [3]], 1), ([[0], [0]], 1), ([[1, 2], [2, 4]], 2)]
    for _ in range(20):
        cases.append((rand(rng.randrange(1, 6), 1), 1))
        n = rng.randrange(2, 6)
        cases.append((rand(n, n, 1), n))
        singular = rand(n, n)
        singular[0] = [a + b for a, b in zip(singular[1], singular[-1])]
        cases.append((singular, n))
        r, c = rng.randrange(2, 7), rng.randrange(2, 7)
        cases.append((product(r, rng.randrange(1, min(r, c)), c), c))
    for _ in range(80):
        r, c = rng.randrange(0, 7), rng.randrange(0, 7)
        cases.append((rand(r, c, rng.random()), c))
    return cases


def test_elimination_matches_dense_gauss_jordan_seeded():
    kinds = {"rank-deficient": 0, "singular": 0, "invertible": 0, "inconsistent": 0}
    for field in (QQ, GF(2), GF(101)):
        p = field.characteristic
        rng = random.Random(f"elimination:{field.name()}")
        for rows, ncols in _elimination_cases(p, rng):
            M = SparseMatrix.from_rows(field, [[field.from_int(x) for x in row] for row in rows],
                                       ncols)
            x0 = [rng.randrange(-4, 5) for _ in range(ncols)]
            consistent = [sum(a * b for a, b in zip(row, x0)) for row in rows]
            arbitrary = [rng.randrange(-4, 5) for _ in rows]
            _, pivots, kernel, xs, inverse = _oracle(p, rows, ncols, (consistent, arbitrary))
            rank = len(pivots)
            assert M.rank() == rank, (field, rows)
            assert M.kernel_basis() == kernel, (field, rows)
            for b, x in zip((consistent, arbitrary), xs):
                assert M.solve(tuple(field.from_int(v) for v in b)) == x, (field, rows, b)
            assert xs[0] is not None
            kinds["inconsistent"] += xs[1] is None
            kinds["rank-deficient"] += rank < min(len(rows), ncols)
            if len(rows) != ncols:
                continue
            if inverse is None:
                kinds["singular"] += 1
                with pytest.raises(DimensionMismatch):
                    M.inverse()
            else:
                kinds["invertible"] += 1
                got = M.inverse()
                assert got == SparseMatrix.from_rows(field, inverse, ncols), (field, rows)
    assert all(count >= 10 for count in kinds.values()), kinds


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
    if A.rank() == A.rows:
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


def test_sparse_vectors_in_a_wide_space_match_dense_gauss_jordan_seeded():
    # 1-3 entry vectors in 40-64 columns, like the products a radical's
    # powers and a closure feed elimination: reduction walks only their support
    for field in (QQ, GF(2), GF(101)):
        p = field.characteristic
        norm = (lambda x: x % p) if p else Fraction
        rng = random.Random(f"sparse-elimination:{field.name()}")

        def sparse(n):
            vec = {rng.randrange(n): rng.randrange(-5, 6) % p if p else
                   Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                   for _ in range(rng.randrange(1, 4))}
            return {j: v for j, v in vec.items() if v != 0}

        for _ in range(6):
            n = rng.randrange(40, 65)
            rs, dense = RowSpace(field, n), []
            for count in (n // 2, n // 2 + rng.randrange(0, 20)):
                while len(dense) < count:
                    vec = sparse(n)
                    before = rs.dim
                    assert rs.add(vec) is (rs.dim > before)
                    dense.append([vec.get(j, norm(0)) for j in range(n)])
                red, pivots = _gauss_jordan(p, dense, n)
                assert rs.pivots() == pivots, (field, dense)
                assert rs.basis() == [tuple(r) for r in red], (field, dense)
            for vec in [sparse(n) for _ in range(10)] + [{j: v for j, v in enumerate(red[0]) if v}]:
                row = [vec.get(j, norm(0)) for j in range(n)]
                residual = tuple(norm(x - sum(row[pc] * r[j] for pc, r in zip(pivots, red)))
                                 for j, x in enumerate(row))
                inside = not any(residual)
                assert rs.residual(vec) == residual, (field, vec)
                assert rs.contains(vec) is inside
                assert rs.coords(vec) == (tuple(row[pc] for pc in pivots) if inside else None)


def test_rowspace_rejects_vectors_outside_its_ambient_space():
    rs = RowSpace(QQ, 3, [(F(1), F(0), F(0))])
    outside = ({5: F(1)}, {-1: F(1)}, {3: F(1)}, (F(1), F(0)), (F(0),) * 4)
    for method in (rs.add, rs.contains, rs.residual, rs.coords):
        for vec in outside:
            with pytest.raises(DimensionMismatch):
                method(vec)
    assert rs.dim == 1 and rs.basis() == [(F(1), F(0), F(0))]
    assert rs.contains({}) and rs.contains({0: F(2)})
    with pytest.raises(DimensionMismatch):
        rs.close(lambda v: [{3: F(1)}])


# ---------------------------------------------------------------------------
# RowSpace.close and closed_under against a plain dense fixpoint

def _apply(p, T, row):
    """row * T over Q (p = 0) or F_p, as a list."""
    norm = (lambda x: x % p) if p else Fraction
    return [norm(sum(row[i] * T[i][j] for i in range(len(row)))) for j in range(len(T))]


def _closure_oracle(p, seeds, maps, n):
    """Reduced basis of the span of the seeds closed under the maps: apply
    every map to every basis row until the basis stops changing."""
    basis, _ = _gauss_jordan(p, seeds, n)
    while True:
        grown, _ = _gauss_jordan(p, basis + [_apply(p, T, v) for T in maps for v in basis], n)
        if grown == basis:
            return basis
        basis = grown


def _images(field, maps, n):
    """v -> v * T for each T, alternately as a dense tuple and a sparse dict."""
    def images(v):
        dense = [v.get(i, field.zero) for i in range(n)]
        for k, T in enumerate(maps):
            w = [field.zero] * n
            for i, vi in enumerate(dense):
                for j in range(n):
                    w[j] = field.add(w[j], field.mul(vi, field.from_int(T[i][j])))
            yield tuple(w) if k % 2 else sparse_vec(field, w)
    return images


# companion matrix of x^4 + x + 1, irreducible over Q, F_2 and F_101, so
# every nonzero vector generates the whole space
_IRREDUCIBLE = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, 0, 0]]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["q", "fp2", "fp101"])
def test_rowspace_close_and_closed_under_match_plain_fixpoint(field):
    p = field.characteristic
    rng = random.Random(f"closure:{field.name()}")

    def rand_rows(k, n, density):
        return [[rng.randrange(-3, 4) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(k)]

    cases = []
    for n in range(1, 6):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        cases.append(([], [rand_rows(n, n, 0.5)], n))
        cases.append(([[0] * n, [0] * n], [rand_rows(n, n, 0.7)], n))
        cases.append((eye, [rand_rows(n, n, 0.5), rand_rows(n, n, 0.3)], n))
        cases.append((rand_rows(1, n, 0.8), [], n))
    cases += [([[0, 0, 1, 0]], [_IRREDUCIBLE], 4), (rand_rows(1, 4, 1.0), [_IRREDUCIBLE], 4)]
    for _ in range(40):
        n = rng.randrange(1, 7)
        # nilpotent (strictly upper) maps have proper invariant subspaces
        upper = [[x if j > i else 0 for j, x in enumerate(row)]
                 for i, row in enumerate(rand_rows(n, n, 0.6))]
        maps = rng.choice([[rand_rows(n, n, rng.random())], [upper],
                           [upper, rand_rows(n, n, 0.2)]])
        cases.append((rand_rows(rng.randrange(0, 3), n, rng.random()), maps, n))
    closed_seen = {True: 0, False: 0}
    for seeds, maps, n in cases:
        want = _closure_oracle(p, seeds, maps, n)
        vectors = [tuple(field.from_int(x) for x in row) for row in seeds]
        rs = RowSpace(field, n, vectors)
        start, _ = _gauss_jordan(p, seeds, n)
        closed = rs.closed_under(_images(field, maps, n))
        assert closed == (want == start), (field, seeds, maps)
        closed_seen[closed] += 1
        assert rs.close(_images(field, maps, n)) is rs
        assert rs.basis() == [tuple(row) for row in want], (field, seeds, maps)
        assert rs.closed_under(_images(field, maps, n))
        if maps == [_IRREDUCIBLE] and any(x % p if p else x for row in seeds for x in row):
            assert rs.dim == 4
    assert min(closed_seen.values()) >= 10, closed_seen


# ---------------------------------------------------------------------------
# Q elimination on inputs that stress the fraction-free arithmetic: mixed
# denominators, entries up to 10^6, sizes up to 16, negative pivot minors


def _q(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _rational_cases(rng):
    """(rows, ncols) over Q: pinned cases, then seeded random ones."""
    def entry(kind):
        if kind == "big":
            return rng.randrange(-10**6, 10**6 + 1)
        top = 10**6 if kind == "big-frac" else 9
        return _q(Fraction(rng.randrange(-top, top + 1), rng.randrange(1, 13)))

    def rand(r, c, kind, density=1.0):
        return [[entry(kind) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]

    def product(r, k, c, kind):
        A, B = rand(r, k, kind), rand(k, c, kind)
        return [[_q(sum(Fraction(A[i][t]) * B[t][j] for t in range(k))) for j in range(c)]
                for i in range(r)]

    cases = [
        # det -208: the first pivot entry, -3, is negative as well
        ([[-3, 1, 4], [2, 5, -1], [7, -2, 3]], 3),
        ([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]], 2),
        ([[F(-1, 6), 0, F(5, 4)], [0, F(7, 10), 0], [F(2, 3), 0, -5]], 3),
    ]
    for kind in ("frac", "big", "big-frac"):
        cases += [(rand(12, 12, kind), 12), (rand(16, 16, kind), 16),
                  (rand(16, 16, kind, 0.3), 16), (product(12, 6, 12, kind), 12)]
        cases.append((rand(8, 14, kind, 0.6), 14))
        cases.append((rand(14, 8, kind, 0.6), 8))
    return cases


def _det(rows):
    """Determinant over Q by plain Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _all_canonical(values) -> bool:
    return all(_is_canonical_rational(v) for v in values)


def test_rational_elimination_matches_dense_gauss_jordan_seeded():
    rng = random.Random("elimination:q-rational")
    cases = _rational_cases(rng)
    assert _det(cases[0][0]) < 0
    seen = {"fractional": 0, "big": 0, "singular": 0, "invertible": 0, "outside": 0}
    for rows, ncols in cases:
        M = SparseMatrix.from_rows(QQ, rows, ncols)
        x0 = [_q(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))) for _ in range(ncols)]
        consistent = [_q(sum(Fraction(a) * b for a, b in zip(row, x0))) for row in rows]
        arbitrary = [_q(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))) for _ in rows]
        red, pivots, kernel, xs, inverse = _oracle(0, rows, ncols, (consistent, arbitrary))
        assert M.rank() == len(pivots), rows
        got = M.kernel_basis()
        assert got == kernel and _all_canonical(v for k in got for v in k), rows
        for b, x in zip((consistent, arbitrary), xs):
            got = M.solve(tuple(b))
            assert got == x, (rows, b)
            assert got is None or _all_canonical(got)
        assert xs[0] is not None
        if len(rows) == ncols:
            if inverse is None:
                seen["singular"] += 1
                with pytest.raises(DimensionMismatch):
                    M.inverse()
            else:
                seen["invertible"] += 1
                got = M.inverse()
                assert got == SparseMatrix.from_rows(QQ, inverse, ncols), rows
                assert _all_canonical(got.entries.values())
        seen["fractional"] += any(type(v) is Fraction for row in rows for v in row)
        seen["big"] += any(abs(v) > 10**5 for row in rows for v in row)

        # RowSpace membership, coordinates and residuals of members and of
        # random vectors, against the dense reduced form
        rs = RowSpace(QQ, ncols, [tuple(row) for row in rows])
        assert rs.basis() == [tuple(row) for row in red]
        assert _all_canonical(v for row in rs.basis() for v in row)
        probes = [tuple(row) for row in rows[:3]]
        for _ in range(4):
            coeffs = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in red]
            probes.append(tuple(_q(sum(c * row[j] for c, row in zip(coeffs, red)))
                                for j in range(ncols)))
            probes.append(tuple(_q(Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 9)))
                                for _ in range(ncols)))
        for v in probes:
            # v minus its pivot entries times the reduced rows; v is in the
            # row space exactly when this is zero
            want = [Fraction(a) for a in v]
            for pc, row in zip(pivots, red):
                c = Fraction(v[pc])
                want = [a - c * b for a, b in zip(want, row)]
            member = not any(want)
            seen["outside"] += not member
            assert rs.contains(v) == member == rs.contains(sparse_vec(QQ, v))
            res = rs.residual(v)
            assert res == tuple(want) and _all_canonical(res), v
            coords = rs.coords(v)
            if not member:
                assert coords is None
                continue
            assert _all_canonical(coords)
            assert [_q(sum(c * row[j] for c, row in zip(coords, red)))
                    for j in range(ncols)] == list(v)
    assert min(seen.values()) >= 3, seen


def test_intersect_spans():
    u = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    w = [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
    got = intersect_spans(QQ, u, w, 3)
    assert got == [(F(0), F(1), F(0))]
    assert intersect_spans(QQ, u, [], 3) == []


# ---------------------------------------------------------------------------
# packed rows over F_p against a plain dict Gauss-Jordan

_PACKED_PRIMES = (2, 3, 101, 2**61 - 1)


def _gauss_jordan_mod(p, vectors):
    """{pivot: row} of the reduced echelon form mod p, rows as dicts."""
    rows: dict = {}
    for vec in vectors:
        w = {j: r for j, v in vec.items() if (r := v % p)}
        for pc, row in rows.items():
            c = w.get(pc)
            if c:
                for j, v in row.items():
                    s = (w.get(j, 0) - c * v) % p
                    if s:
                        w[j] = s
                    else:
                        w.pop(j, None)
        if not w:
            continue
        pc = min(w)
        inv = pow(w[pc], -1, p)
        w = {j: v * inv % p for j, v in w.items()}
        for q, row in rows.items():
            c = row.get(pc)
            if c:
                for j, v in w.items():
                    s = (row.get(j, 0) - c * v) % p
                    if s:
                        row[j] = s
                    else:
                        row.pop(j, None)
        rows[pc] = w
    return dict(sorted(rows.items()))


def _rand_fp_vec(rng, p, n, density):
    """A vector mod p as a dict whose values are any integers, negative and
    >= p included; some are multiples of p, zero mod p."""
    return {j: rng.randrange(p) + p * rng.randint(-2, 2) for j in range(n)
            if rng.random() < density}


def test_packed_rowspace_matches_dict_gauss_jordan():
    rng = random.Random(20240)
    for p in _PACKED_PRIMES:
        Fp = GF(p)
        for n in (1, 2, 3, 7, 8, 9, 31, 64, 65, 130, 200):
            for density in (1.0, 0.05):
                count = min(n + 3, 30)
                vecs = [_rand_fp_vec(rng, p, n, density) for _ in range(count)]
                # repeat some vectors and their sums, so that some adds fail
                vecs += [vecs[0], {j: v + vecs[1].get(j, 0) for j, v in vecs[0].items()}]
                want = _gauss_jordan_mod(p, vecs)
                rs = RowSpace(Fp, n)
                grew = [rs.add(v) for v in vecs]
                assert sum(grew) == len(want) == rs.dim, (p, n, density)
                assert rs._rows == want, (p, n, density)
                assert rs.pivots() == list(want)
                assert rs.basis() == [tuple(row.get(j, 0) for j in range(n))
                                      for row in want.values()]
                # tuples with non-canonical entries name the same vectors
                assert RowSpace(Fp, n, [tuple(v.get(j, 0) for j in range(n))
                                        for v in vecs])._rows == want
                for probe in vecs[:3] + [_rand_fp_vec(rng, p, n, density) for _ in range(3)]:
                    res = {j: v % p for j, v in probe.items() if v % p}
                    for pc, row in want.items():
                        c = res.get(pc)
                        if c:
                            for j, v in row.items():
                                res[j] = (res.get(j, 0) - c * v) % p
                    res = {j: v for j, v in res.items() if v}
                    assert rs.residual(probe) == tuple(res.get(j, 0) for j in range(n))
                    assert rs.contains(probe) == (not res)
                    coords = rs.coords(probe)
                    assert (coords is None) == bool(res)
                    if coords is not None:
                        assert list(coords) == [probe.get(pc, 0) % p for pc in want]


def test_packed_slots_hold_the_largest_growth():
    # one row updated ambient - 2 times with residue c = 1 at each new pivot
    # and p - 1 in its last slot, then a reduction through every row with
    # coefficient p - 1; a slot that outgrew its width would carry into the
    # next or raise OverflowError when the row is decoded
    p = 2**61 - 1
    Fp = GF(p)
    for n in (3, 10, 200):
        rs = RowSpace(Fp, n, [{j: 1 for j in range(n)}])
        for k in range(1, n - 1):
            assert rs.add({k: 1, n - 1: p - 1})
        want = _gauss_jordan_mod(p, [{j: 1 for j in range(n)}]
                                 + [{k: 1, n - 1: p - 1} for k in range(1, n - 1)])
        assert rs._rows == want
        probe = {j: 1 for j in range(n - 1)}
        assert not rs.contains(probe)
        # row 0 is e_0 + (n - 1) e_{n-1}, row k is e_k - e_{n-1}
        assert rs.residual(probe) == (0,) * (n - 1) + (p - 1,)
        assert rs.add({n - 1: p + 5})
        assert rs.basis() == [basis_vec(Fp, n, i) for i in range(n)]
        assert rs.coords(probe) == (1,) * (n - 1) + (0,)


# ---------------------------------------------------------------------------
# intersect_spans against the Zassenhaus construction it replaced

def _zassenhaus(field, basis_u, basis_w, ambient):
    """Among the reduced echelon rows of (u | u) for u in U and (w | 0) for
    w in W, those with a pivot in the second half are (0 | b) for the
    reduced echelon basis b of the intersection."""
    zeros = (field.zero,) * ambient
    rs = RowSpace(field, 2 * ambient,
                  [tuple(u) * 2 for u in basis_u] + [tuple(w) + zeros for w in basis_w])
    return [dense_vec(field, ambient, {j - ambient: v for j, v in row.items()})
            for pc, row in rs._rows.items() if pc >= ambient]


def _rand_vec(rng, field, n, density=0.6):
    if field.characteristic:
        return tuple(rng.randrange(field.characteristic) if rng.random() < density else 0
                     for _ in range(n))
    return tuple(_q(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) if rng.random() < density
                 else 0 for _ in range(n))


def test_intersect_spans_matches_zassenhaus():
    rng = random.Random(7)
    seen = {"meet": 0, "disjoint": 0}
    for field in (QQ, GF(101)):
        for n in (1, 2, 5, 12, 30):
            for _ in range(6):
                a, b = rng.randint(0, n + 1), rng.randint(0, n + 1)
                U = [_rand_vec(rng, field, n) for _ in range(a)]
                W = [_rand_vec(rng, field, n) for _ in range(b)]
                cases = [(U, W), (U, []), ([], W), ([], []),
                         ([basis_vec(field, n, i) for i in range(n)], W)]
                if U and W:
                    # dependent inputs: repeats, zero vectors, W built from U
                    shared = [tuple(field.add(x, y) for x, y in zip(U[0], W[-1]))]
                    cases.append((U + U[:1] + [(0,) * n], W + shared + W[:1]))
                    cases.append((U, U[::-1] + W))
                for u, w in cases:
                    got = intersect_spans(field, u, w, n)
                    assert got == _zassenhaus(field, u, w, n), (field, n, u, w)
                    seen["meet" if got else "disjoint"] += 1
        bad = (0,) * 3
        for u, w in (([bad], [bad[:2]]), ([bad[:2]], []), ([], [bad[:2]]), ([bad], [bad + (0,)])):
            with pytest.raises(DimensionMismatch):
                _zassenhaus(field, u, w, 3)
            with pytest.raises(DimensionMismatch):
                intersect_spans(field, u, w, 3)
    assert min(seen.values()) >= 20, seen


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


def _lincomb_reference(field, coeffs, vectors):
    if isinstance(vectors, list):
        vectors = dict(enumerate(vectors))
    out = {}
    for k, c in coeffs.items():
        for key, v in vectors.get(k, {}).items():
            out[key] = field.add(out.get(key, field.zero), field.mul(c, v))
    return {k: v for k, v in out.items() if not field.is_zero(v)}


def _dot_reference(field, x, y):
    s = field.zero
    for k in set(x) | set(y):
        s = field.add(s, field.mul(x.get(k, field.zero), y.get(k, field.zero)))
    return s


def _kernel_result_ok(field, out: dict) -> bool:
    """No zero stored, and over Q every value an int when integral."""
    return all(not field.is_zero(v) and (field.characteristic or _is_canonical_rational(v))
               for v in out.values())


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
    cancelled = lin_cancelled = 0
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
        got = bilinear(field, prune(field, table), x, y)
        assert got == _bilinear_reference(field, table, x, y) and _kernel_result_ok(field, got)
        # lincomb over a list, and over a dict that lacks some keys; vector 3
        # repeats vector 0 against the opposite coefficient, so they cancel
        vectors = [_rand_sparse(field, rng, keys) for _ in range(4)]
        if 0 in x and trial % 2:
            vectors[3], x[3] = dict(vectors[0]), field.neg(x[0])
        for vecs in (vectors, {k: v for k, v in enumerate(vectors) if rng.random() < 0.7}):
            got = lincomb(field, x, vecs)
            assert got == _lincomb_reference(field, x, vecs) and _kernel_result_ok(field, got)
        lin_cancelled += len(set(vectors[0]) - set(lincomb(field, x, vectors)))
        s = dot(field, x, y)
        assert s == _dot_reference(field, x, y) and _kernel_result_ok(field, {0: s} if s else {})
        got = outer(field, x, y)
        prods = {(i, j): field.mul(x.get(i, field.zero), y.get(j, field.zero))
                 for i in range(4) for j in range(4)}
        assert got == {k: v for k, v in prods.items() if not field.is_zero(v)}
        assert _kernel_result_ok(field, got)
        flipped = {}
        for (i, j), terms in table.items():
            for k, v in terms.items():
                flipped.setdefault(k, {})[(j, i)] = v
        assert regroup(table, lambda ij, k: (k, ij[::-1])) == flipped
    assert cancelled > 0 and lin_cancelled > 0


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


def test_rowspace_coords_are_canonical():
    # the coordinates are read off the caller's vector at the pivots, and
    # come back canonical, as axpy leaves scalars, however it wrote them
    rs = RowSpace(GF(101), 2, [(1, 0)])
    assert rs.coords({0: -1}) == (100,)
    assert rs.coords((205, 0)) == (3,)
    got = RowSpace(QQ, 2, [(1, 0)]).coords({0: F(2)})
    assert got == (2,) and type(got[0]) is int


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
