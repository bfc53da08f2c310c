"""Coalgebra core: counitalization, duals, comatrix covers, subcoalgebras.

Pinned values are hand-computed.  The running example is the 2-dimensional
pointed coalgebra with a grouplike g and a (g,g)-primitive x:

    delta(g) = g (x) g,   delta(x) = g (x) x + x (x) g,   eps = (1, 0)

whose dual is the dual numbers K[t]/(t^2).
"""

from fractions import Fraction
from random import Random

import pytest

from dualis import coalgebra
from dualis.algebra import matrix_algebra, unitalize
from dualis.coalgebra import (
    CoalgebraMorphism,
    FinCoalgebra,
    comatrix,
    comatrix_cover,
    compose_coalgebra,
    coradical,
    counital_lift,
    counitalize,
    dual_algebra,
    dual_unitalization_iso,
    grouplike_coalgebra,
    subcoalgebra_generated,
    subcoalgebra_on_span,
)
from dualis.errors import ValidationError
from dualis.fields import GF, QQ
from dualis.finite_dual import group_bialgebra
from dualis.linalg import SparseMatrix, basis_vec
from dualis.randgen import divided_power_coalgebra, rand_coalgebra


def pointed2(F):
    one = F.one
    comult = {0: {(0, 0): one}, 1: {(0, 1): one, (1, 0): one}}
    return FinCoalgebra(F, 2, comult, (one, F.zero))


def test_counit_axiom_enforced():
    F = QQ
    comult = {0: {(0, 0): F.one}, 1: {(0, 1): F.one, (1, 0): F.one}}
    with pytest.raises(ValidationError):
        FinCoalgebra(F, 2, comult, (F.zero, F.one))


def test_non_coassociative_rejected():
    F = QQ
    # delta(c0) = c1 (x) c1 with delta(c1) = c0 (x) c0 fails when expanded
    comult = {0: {(1, 1): F.one}, 1: {(0, 0): F.one}}
    with pytest.raises(ValidationError):
        FinCoalgebra(F, 2, comult)


def test_dual_of_pointed_is_dual_numbers():
    C = pointed2(QQ)
    B = dual_algebra(C)
    assert B.unit == (Fraction(1), Fraction(0))
    assert B.mult.get((1, 1), {}) == {}
    assert B.mult.get((0, 1), {}) == {1: Fraction(1)}
    assert B.mult.get((1, 0), {}) == {1: Fraction(1)}


def test_counitalize_adds_grouplike():
    F = QQ
    # one-dimensional, delta(x) = 0; after counitalizing x becomes e-primitive
    C = FinCoalgebra(F, 1, {})
    C1, proj = counitalize(C)
    assert C1.dim == 2
    assert C1.comult[0] == {(0, 1): F.one, (1, 0): F.one}
    assert C1.comult[1] == {(1, 1): F.one}
    assert C1.counit == (F.zero, F.one)
    assert proj((F.one, Fraction(7))) == (F.one,)


def test_counital_lift_zero_map():
    F = QQ
    C = FinCoalgebra(F, 1, {})
    C1, proj = counitalize(C)
    D = comatrix(F, 1)
    f = CoalgebraMorphism(D, C, SparseMatrix(F, 1, 1, {}))
    g, freedom = counital_lift(f, C1, proj)
    assert freedom == 0
    assert g(basis_vec(F, 1, 0)) == (F.zero, F.one)


def test_counital_lift_nonzero_map():
    F = QQ
    two = Fraction(2)
    # delta(x) = 2 x (x) x; the grouplike must land on 2x + e
    C = FinCoalgebra(F, 1, {0: {(0, 0): two}})
    C1, proj = counitalize(C)
    D = comatrix(F, 1)
    f = CoalgebraMorphism(D, C, SparseMatrix(F, 1, 1, {(0, 0): two}))
    g, freedom = counital_lift(f, C1, proj)
    assert freedom == 0
    assert g(basis_vec(F, 1, 0)) == (two, F.one)


def test_dual_unitalization_iso_small():
    for F in (QQ, GF(101)):
        C = pointed2(F)
        iso = dual_unitalization_iso(C)
        assert iso.is_bijective()
        assert iso.unital
        # both sides equal the validated constructions
        assert iso.source == unitalize(dual_algebra(C))[0]
        assert iso.target == dual_algebra(counitalize(C)[0])


def _moved(F, comult: dict, k, ij) -> dict:
    """A copy of comult with entry comult[k][ij] moved by one."""
    out = {key: dict(terms) for key, terms in comult.items()}
    out.setdefault(k, {})[ij] = F.add(out[k].get(ij, F.zero), F.one)
    return out


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["q", "fp101"])
@pytest.mark.parametrize("counital", [True, False])
def test_dual_unitalization_iso_rejects_a_changed_counitalization(F, counital, monkeypatch):
    # the adjoined-counit table is built unvalidated, so the identity check
    # against the unitalized dual must see every entry and the counit
    rng = Random(f"counitalization:{F.name()}:{counital}")
    honest = coalgebra._adjoin_counit
    for _ in range(4):
        C = rand_coalgebra(F, rng, max_dim=3, counital=counital)
        comult, counit = honest(C)
        n = C.dim + 1
        changes = [(k, ij) for k, terms in sorted(comult.items()) for ij in sorted(terms)]
        changes += [(rng.randrange(n), (rng.randrange(n), rng.randrange(n))) for _ in range(5)]
        bad_counit = list(counit)
        i = rng.randrange(n)
        bad_counit[i] = F.add(bad_counit[i], F.one)
        tables = [(_moved(F, comult, k, ij), counit) for k, ij in changes]
        tables.append((comult, tuple(bad_counit)))
        for table in tables:
            monkeypatch.setattr(coalgebra, "_adjoin_counit", lambda _, t=table: t)
            with pytest.raises(ValidationError):
                dual_unitalization_iso(C)
        monkeypatch.setattr(coalgebra, "_adjoin_counit", honest)
        dual_unitalization_iso(C)


def test_comatrix2_structure():
    F = QQ
    M = comatrix(F, 2)
    assert M.dim == 4
    assert M.comult[1] == {(0, 1): F.one, (1, 3): F.one}
    assert M.counit == (F.one, F.zero, F.zero, F.one)
    # its dual is the 2x2 matrix algebra: e_01 * e_10 = e_00 in the dual
    B = dual_algebra(M)
    assert B.mult.get((1, 2), {}) == {0: F.one}
    assert B.mult.get((2, 1), {}) == {3: F.one}


# The textbook tables written out on the coalgebra side, as references for
# the builders, which transpose the matching algebras instead.

def _comatrix_table(F, n):
    """delta(e_ij) = sum_k e_ik (x) e_kj and eps(e_ij) = [i == j], e_ij at i*n + j."""
    comult = {i * n + j: {(i * n + k, k * n + j): F.one for k in range(n)}
              for i in range(n) for j in range(n)}
    counit = tuple(F.one if i == j else F.zero for i in range(n) for j in range(n))
    return n * n, comult, counit


def _divided_power_table(F, n, counital):
    """delta(c_k) = sum of c_i (x) c_j over i + j = k, on c_0..c_n or c_1..c_n."""
    lo = 0 if counital else 1
    comult = {k - lo: {(i - lo, k - i - lo): F.one for i in range(lo, k - lo + 1)}
              for k in range(2 * lo, n + 1)}
    counit = tuple(F.one if k == 0 else F.zero for k in range(n + 1)) if counital else None
    return n - lo + 1, comult, counit


def _grouplike_table(F, n):
    return n, {k: {(k, k): F.one} for k in range(n)}, tuple([F.one] * n)


@pytest.mark.parametrize("F", [QQ, GF(2), GF(101)], ids=["q", "fp2", "fp101"])
def test_textbook_coalgebras_match_their_coalgebra_side_tables(F):
    for n in range(6):
        cases = [(comatrix(F, n), _comatrix_table(F, n)),
                 (grouplike_coalgebra(F, n), _grouplike_table(F, n))]
        cases += [(divided_power_coalgebra(F, n, counital), _divided_power_table(F, n, counital))
                  for counital in (True, False)]
        if n:
            cyclic = [[(i + j) % n for j in range(n)] for i in range(n)]
            H = group_bialgebra(F, cyclic, [-i % n for i in range(n)])
            cases.append((H.coalgebra, _grouplike_table(F, n)))
        for built, table in cases:
            want = FinCoalgebra(F, *table)
            assert (built.dim, built.comult, built.counit) == (want.dim, want.comult, want.counit)


def test_comatrix_tables_are_not_the_shared_matrix_algebras():
    # comatrix transposes the one cached matrix_algebra instance; changing
    # its tables must leave that instance, and the next comatrix, intact
    for F in (QQ, GF(101)):
        M = matrix_algebra(F, 2)
        mult, unit = {ij: dict(t) for ij, t in M.mult.items()}, M.unit
        C = comatrix(F, 2)
        for terms in C.comult.values():
            terms[(0, 0)] = F.from_int(5)
        C.comult[9] = {}
        assert matrix_algebra(F, 2) is M and M.mult == mult and M.unit == unit
        assert comatrix(F, 2) == FinCoalgebra(F, *_comatrix_table(F, 2))


def test_comatrix_cover_pointed():
    C = pointed2(QQ)
    theta = comatrix_cover(C)
    assert theta.source.dim == 9
    assert theta.matrix.rank() == 2
    # the cover is built as a transpose, unchecked; the full constructors
    # must agree with it
    for F in (QQ, GF(101)):
        one = F.one
        for C in (FinCoalgebra(F, 0, {}, ()), FinCoalgebra(F, 1, {0: {(0, 0): one}}, (one,)),
                  FinCoalgebra(F, 1, {}, None), pointed2(F), divided_power_coalgebra(F, 2),
                  divided_power_coalgebra(F, 3, counital=False)):
            theta = comatrix_cover(C)
            assert theta.source == comatrix(F, C.dim + 1)
            assert theta.target is C and not theta.counital
            assert theta.matrix.rank() == C.dim
            CoalgebraMorphism(theta.source, C, theta.matrix)


def test_comatrix_cover_zero_dim():
    C = FinCoalgebra(QQ, 0, {}, ())
    theta = comatrix_cover(C)
    assert theta.source.dim == 1
    assert theta.matrix.rank() == 0


def test_morphism_validation_rejects_scaling():
    F = QQ
    D = comatrix(F, 1)
    with pytest.raises(ValidationError):
        CoalgebraMorphism(D, D, SparseMatrix(F, 1, 1, {(0, 0): Fraction(2)}))


def test_subcoalgebra_generated_in_comatrix():
    F = QQ
    M = comatrix(F, 2)
    D, incl = subcoalgebra_generated(M, basis_vec(F, 4, 0))
    assert D.dim == 4
    assert incl.counital


def test_subcoalgebra_generated_in_pointed():
    F = QQ
    C = pointed2(F)
    Dg, _ = subcoalgebra_generated(C, basis_vec(F, 2, 0))
    assert Dg.dim == 1
    Dx, incl = subcoalgebra_generated(C, basis_vec(F, 2, 1))
    assert Dx.dim == 2
    # inclusion really is a counital coalgebra map landing on the span
    assert incl(basis_vec(F, 2, 0)) in {(F.one, F.zero), (F.zero, F.one)}


def test_subcoalgebra_on_span_rejects_non_closed():
    F = QQ
    C = pointed2(F)
    with pytest.raises(ValidationError):
        subcoalgebra_on_span(C, [basis_vec(F, 2, 1)])


def test_subcoalgebra_on_span_rejects_one_sided_coideals():
    F = QQ
    # g0, g2 grouplike and delta(x) = g0 (x) x + x (x) g2, x = c1
    comult = {0: {(0, 0): F.one}, 2: {(2, 2): F.one},
              1: {(0, 1): F.one, (1, 2): F.one}}
    M = FinCoalgebra(F, 3, comult, (F.one, F.zero, F.one))
    # span(x, g2) holds every right factor of delta(x) but not the left g0,
    # and span(g0, x) holds the left factors but not the right g2
    for span in ([1, 2], [0, 1]):
        with pytest.raises(ValidationError, match="span is not a subcoalgebra"):
            subcoalgebra_on_span(M, [basis_vec(F, 3, i) for i in span])
    D, _ = subcoalgebra_on_span(M, [basis_vec(F, 3, i) for i in range(3)])
    assert D.dim == 3


def test_induced_comult_matches_ambient():
    F = GF(7)
    # three-step path-like coalgebra; the two endpoint grouplikes span a
    # subcoalgebra (the comatrix coalgebra itself is simple, so no luck there)
    comult = {0: {(0, 0): F.one}, 2: {(2, 2): F.one},
              1: {(0, 1): F.one, (1, 2): F.one}}
    M = FinCoalgebra(F, 3, comult, (F.one, F.zero, F.one))
    D, incl = subcoalgebra_on_span(M, [basis_vec(F, 3, 0), basis_vec(F, 3, 2)])
    assert D.dim == 2
    for a in range(2):
        e = basis_vec(F, 2, a)
        img = incl(e)
        lhs = M.comult_of(img)
        rhs = {}
        for (i, j), v in D.comult_of(e).items():
            vi, vj = incl(basis_vec(F, 2, i)), incl(basis_vec(F, 2, j))
            for s, a_ in enumerate(vi):
                for t, b_ in enumerate(vj):
                    c = F.mul(v, F.mul(a_, b_))
                    if not F.is_zero(c):
                        rhs[(s, t)] = F.add(rhs.get((s, t), F.zero), c)
        rhs = {k: v for k, v in rhs.items() if not F.is_zero(v)}
        assert lhs == rhs


def test_coradical_pointed():
    C = pointed2(QQ)
    D, incl = coradical(C)
    assert D.dim == 1
    assert incl(basis_vec(QQ, 1, 0))[1] == 0


def test_coradical_comatrix_is_everything():
    D, _ = coradical(comatrix(GF(7), 2))
    assert D.dim == 4


def test_coradical_three_step():
    F = QQ
    # path-like: delta(c1) = c0 (x) c1 + c1 (x) c2, grouplikes at the ends
    comult = {0: {(0, 0): F.one}, 2: {(2, 2): F.one},
              1: {(0, 1): F.one, (1, 2): F.one}}
    C = FinCoalgebra(F, 3, comult, (F.one, F.zero, F.one))
    D, incl = coradical(C)
    assert D.dim == 2
    for a in range(2):
        assert incl(basis_vec(F, 2, a))[1] == 0


def test_compose_coalgebra():
    F = QQ
    C = pointed2(F)
    C1, proj = counitalize(C)
    ident = CoalgebraMorphism(C, C, SparseMatrix.identity(F, 2), counital=True)
    comp = compose_coalgebra(ident, proj)
    assert comp.matrix.entries == proj.matrix.entries
