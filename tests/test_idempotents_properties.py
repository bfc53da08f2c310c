"""The splitter's exact root search against sympy's factor_list, as
hypothesis properties over Q and F_101.

Skipped when hypothesis is not installed (it is the ``test`` extra).
"""

import pytest

from dualis.fields import GF, QQ
from dualis.idempotents import (
    _first_factor,
    _from_sympy_coeffs,
    _poly_mul,
    _roots,
    _to_sympy_poly,
)

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies


@st.composite
def polynomials(draw):
    """A monic m of degree at least 2: planted roots with multiplicities,
    times up to two random monic quadratics (irreducible or not; two
    irreducible ones make a quartic without a root) and a random monic cubic
    (split, linear times quadratic, or irreducible)."""
    F = draw(st.sampled_from([QQ, GF(101)]))
    if F.characteristic:
        scalar = st.integers(0, 100)
    else:
        scalar = st.builds(F.div, st.integers(-9, 9), st.integers(1, 4))
    m = {0: F.one}
    for r, k in draw(st.lists(st.tuples(scalar, st.integers(1, 3)), max_size=3)):
        for _ in range(k):
            m = _poly_mul(F, m, {0: F.neg(r), 1: F.one})
    for degree in (2, 2, 3):
        if draw(st.booleans()):
            tail = draw(st.lists(scalar, min_size=degree, max_size=degree))
            f = {i: c for i, c in enumerate(tail) if c}
            m = _poly_mul(F, m, {**f, degree: F.one})
    hypothesis.assume(max(m) >= 2)
    return F, m


def _coeff_list(F, f):
    return [f.get(i, F.zero) for i in range(max(f) + 1)]


def _sympy_factors(F, m):
    t = sympy.Symbol("t")
    return [(_from_sympy_coeffs(F, f), k)
            for f, k in _to_sympy_poly(F, _coeff_list(F, m), t).factor_list()[1]]


def _monic(F, coeffs):
    return [F.div(c, coeffs[-1]) for c in coeffs]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(polynomials())
def test_roots_and_first_factor_match_sympy(case):
    F, m = case
    factors = _sympy_factors(F, m)
    roots = _roots(F, m)
    if roots is not None:  # None: past the search limits, so sympy answers
        want = sorted((F.div(F.neg(f[0]), f[1]), k) for f, k in factors if len(f) == 2)
        assert sorted(roots) == want
    f, k, alone = _first_factor(F, m)
    assert _monic(F, _coeff_list(F, f)) == _monic(F, factors[0][0])
    assert k == factors[0][1]
    assert alone == (len(factors) == 1)
