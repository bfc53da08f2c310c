"""Comodule/module correspondence and the subspace lattice agreement."""

import pytest

from dualis.algebra import FinAlgebra
from dualis.coalgebra import FinCoalgebra, comatrix
from dualis.comodule import (
    FinComodule,
    FinModule,
    comodule_counitalize,
    comodule_to_dual_module,
    is_subcomodule,
    is_submodule,
    _all_subspaces_gf2,
    lattice_agreement_check,
    module_to_comodule,
    subcomodule_generated,
    subcomodule_on_span,
)
from dualis.errors import ValidationError
from dualis.fields import GF, QQ
from dualis.linalg import basis_vec


def pointed2(F):
    one = F.one
    comult = {0: {(0, 0): one}, 1: {(0, 1): one, (1, 0): one}}
    return FinCoalgebra(F, 2, comult, (one, F.zero))


def regular_comodule(C):
    """C coacting on itself by its own comultiplication."""
    coaction = {k: dict(terms) for k, terms in C.comult.items()}
    return FinComodule(C, C.dim, coaction)


def test_regular_comodule_validates():
    M = regular_comodule(pointed2(QQ))
    assert M.dim == 2


def test_coassociativity_enforced():
    C = pointed2(QQ)
    with pytest.raises(ValidationError):
        FinComodule(C, 1, {0: {(0, 1): QQ.one}})


def test_dual_module_of_regular():
    F = QQ
    M = regular_comodule(pointed2(F))
    N = comodule_to_dual_module(M)
    # dual numbers act: the nilpotent t sends x to g and kills g
    t = basis_vec(F, 2, 1)
    assert N.act(t, basis_vec(F, 2, 1)) == (F.one, F.zero)
    assert N.act(t, basis_vec(F, 2, 0)) == (F.zero, F.zero)
    assert N.act(N.algebra.unit, (F.one, F.one)) == (F.one, F.one)


def test_counitalized_coaction_table():
    F = QQ
    M = regular_comodule(pointed2(F))
    M1, C1 = comodule_counitalize(M)
    assert C1.dim == 3
    assert M1.coaction[0] == {(0, 0): F.one, (0, 2): F.one}
    assert M1.coaction[1] == {(0, 1): F.one, (1, 0): F.one, (1, 2): F.one}


def test_counitalize_handles_non_counital_base():
    F = QQ
    # 1-dim coalgebra with zero comultiplication has no possible counit
    C = FinCoalgebra(F, 1, {})
    M = FinComodule(C, 1, {0: {}})
    M1, C1 = comodule_counitalize(M)
    assert M1.coaction[0] == {(0, 1): F.one}
    assert C1.counit == (F.zero, F.one)


def test_module_validation():
    F = QQ
    null = FinAlgebra(F, 1, {})
    with pytest.raises(ValidationError):
        FinModule(null, 1, {(0, 0): {0: F.one}})
    # zero action is fine without a unit
    FinModule(null, 1, {})


def test_unit_must_act_as_identity():
    F = QQ
    mult = {(0, 0): {0: F.one}, (0, 1): {1: F.one},
            (1, 2): {1: F.one}, (2, 2): {2: F.one}}
    ut2 = FinAlgebra(F, 3, mult, (F.one, F.zero, F.one))
    with pytest.raises(ValidationError):
        FinModule(ut2, 1, {})


def test_module_comodule_round_trip():
    F = GF(101)
    mult = {(0, 0): {0: F.one}, (0, 1): {1: F.one},
            (1, 2): {1: F.one}, (2, 2): {2: F.one}}
    ut2 = FinAlgebra(F, 3, mult, (F.one, F.zero, F.one))
    N = FinModule(ut2, 3, {(i, t): dict(v) for (i, t), v in mult.items()})
    M = module_to_comodule(N)
    back = comodule_to_dual_module(M)
    assert back.action == N.action
    assert back.algebra.mult == ut2.mult


def test_round_trip_contraction_oracle():
    import random
    F = QQ
    M = regular_comodule(comatrix(F, 2))
    N = comodule_to_dual_module(M)
    rng = random.Random(11)
    for _ in range(25):
        a = tuple(F.from_int(rng.randrange(-4, 5)) for _ in range(4))
        x = tuple(F.from_int(rng.randrange(-4, 5)) for _ in range(4))
        # contract rho(x) against a viewed as a functional on the dual basis
        out = [F.zero] * 4
        for (s, k), v in M.coaction_of(x).items():
            out[s] = F.add(out[s], F.mul(v, a[k]))
        assert N.act(a, x) == tuple(out)


def test_subcomodule_generated_in_pointed():
    F = QQ
    M = regular_comodule(pointed2(F))
    sub_g, incl_g = subcomodule_generated(M, basis_vec(F, 2, 0))
    assert sub_g.dim == 1
    assert incl_g.apply(basis_vec(F, 1, 0)) == (F.one, F.zero)
    sub_x, _ = subcomodule_generated(M, basis_vec(F, 2, 1))
    assert sub_x.dim == 2


def test_sub_agreement_simple():
    F = QQ
    M = regular_comodule(pointed2(F))
    N = comodule_to_dual_module(M)
    g_line = [basis_vec(F, 2, 0)]
    x_line = [basis_vec(F, 2, 1)]
    assert is_subcomodule(M, g_line) and is_submodule(N, g_line)
    assert not is_subcomodule(M, x_line) and not is_submodule(N, x_line)


def test_lattice_agreement_exhaustive_gf2():
    M = regular_comodule(pointed2(GF(2)))
    report = lattice_agreement_check(M)
    assert report["exhaustive"]
    assert report["checked"] == 5
    assert report["agree"] == 5
    big = regular_comodule(comatrix(GF(2), 2))
    report = lattice_agreement_check(big)
    assert report["checked"] == 67


def _gaussian_binomial_2(n, k):
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def test_all_subspaces_gf2_are_each_subspace_once():
    for n in range(5):
        spaces = _all_subspaces_gf2(n)
        for k in range(n + 1):
            assert sum(len(gens) == k for gens in spaces) == _gaussian_binomial_2(n, k)
        # the set of all vectors in each span, closed by brute force
        spans = set()
        for gens in spaces:
            span = {(0,) * n}
            for g in gens:
                span |= {tuple((a + b) % 2 for a, b in zip(v, g)) for v in span}
            assert len(span) == 2 ** len(gens)  # the generators are independent
            spans.add(frozenset(span))
        assert len(spans) == len(spaces)


def test_lattice_agreement_sampled_rational():
    M = regular_comodule(comatrix(QQ, 2))
    report = lattice_agreement_check(M, seed=5, samples=40)
    assert not report["exhaustive"]
    assert report["agree"] == report["checked"]


def test_subcomodule_on_span_rejects_non_closed():
    F = QQ
    M = regular_comodule(pointed2(F))
    # rho(x) = g (x) x + x (x) g leaves the line through x
    with pytest.raises(ValidationError, match="span is not a subcomodule"):
        subcomodule_on_span(M, [basis_vec(F, 2, 1)])
    sub, incl = subcomodule_on_span(M, [basis_vec(F, 2, 0)])
    assert sub.dim == 1 and incl.cols == 1
