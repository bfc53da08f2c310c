"""Elimination invariants and the sparse kernel as hypothesis properties,
over Q, F_2 and F_101.

Skipped when hypothesis is not installed (it is the ``test`` extra).
"""

import pytest

from dualis.errors import DimensionMismatch
from dualis.fields import GF, QQ
from dualis.linalg import SparseMatrix, axpy

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def systems(draw):
    """A field, a matrix over it, a vector x0 and a right-hand side b; the
    scalars over Q are fractions a/b with b in 1..6."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    r = draw(st.integers(0, 5))
    c = draw(st.integers(0, 5))
    if field.characteristic:
        scalar = st.integers(-4, 4).map(field.from_int)
    else:
        scalar = st.builds(field.div, st.integers(-4, 4), st.integers(1, 6))
    rows = draw(st.lists(st.lists(scalar, min_size=c, max_size=c), min_size=r, max_size=r))
    x0 = tuple(draw(st.lists(scalar, min_size=c, max_size=c)))
    b = tuple(draw(st.lists(scalar, min_size=r, max_size=r)))
    return field, SparseMatrix.from_rows(field, rows, c), x0, b


@hypothesis.settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@hypothesis.given(systems())
def test_rank_nullity_kernel_solve_and_inverse(system):
    field, M, x0, b = system
    kernel = M.kernel_basis()
    assert M.rank() + len(kernel) == M.cols
    zero = (field.zero,) * M.rows
    for k in kernel:
        assert M.apply(k) == zero
    reachable = M.apply(x0)
    x = M.solve(reachable)
    assert x is not None and M.apply(x) == reachable
    x = M.solve(b)
    if x is not None:
        assert M.apply(x) == b
    if M.rows == M.cols:
        if M.rank() == M.rows:
            I = SparseMatrix.identity(field, M.rows)
            assert M.inverse() @ M == I and M @ M.inverse() == I
        else:
            with pytest.raises(DimensionMismatch):
                M.inverse()


def _axpy_reference(F, acc: dict, c, x: dict) -> dict:
    """acc + c * x by Field's methods, one entry at a time."""
    out = dict(acc)
    for k, v in x.items():
        s = F.add(out.get(k, F.zero), F.mul(c, v))
        if F.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


@st.composite
def axpy_cases(draw):
    """acc, c and x over a few shared keys, so entries cancel; over Q the
    scalars mix ints and Fractions that sum to 0, to integers or not."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    if field.characteristic:
        scalar = st.integers(1, field.characteristic - 1)
    else:
        scalar = st.builds(field.div, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    vec = st.dictionaries(st.integers(0, 5), scalar, max_size=6)
    return field, draw(vec), draw(st.one_of(scalar, st.just(field.zero))), draw(vec)


@hypothesis.settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@hypothesis.given(axpy_cases())
def test_axpy_matches_field_methods(case):
    field, acc, c, x = case
    want = _axpy_reference(field, acc, c, x)
    got = axpy(field, dict(acc), c, x)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is type(want[k]) for k, v in got.items())
    assert all(not field.is_zero(v) for v in got.values())
    if not field.characteristic:
        assert all(type(v) is int for v in got.values() if v.denominator == 1)
