from random import Random

import pytest

from dualis.algebra import AlgebraMorphism, FinAlgebra
from dualis.coalgebra import (CoalgebraMorphism, FinCoalgebra, _trusted, comatrix, dual_algebra,
                              subcoalgebra_generated)
from dualis.combinat import Quiver, path_coalgebra, verify_incidencedual_iso, verify_pathdual_iso
from dualis.errors import ValidationError
from dualis.fields import GF, QQ
from dualis.linalg import SparseMatrix, basis_vec
from dualis.randgen import (
    conjugate_algebra,
    conjugate_coalgebra,
    direct_sum_algebra,
    direct_sum_coalgebra,
    divided_power_coalgebra,
    hopf_instances,
    rand_acyclic_quiver,
    rand_algebra,
    rand_coalgebra,
    rand_comodule,
    rand_invertible,
    rand_morphism_triple,
    rand_poset,
    truncated_poly_algebra,
)


def _rand_invertible_reference(F, rng, n):
    """rand_invertible as a product of elementary matrices, one per drawn
    row operation; the in-place row operations must give the same matrix."""
    M = SparseMatrix.identity(F, n)
    for _ in range(2 * n + rng.randrange(3)):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        ent = dict(SparseMatrix.identity(F, n).entries)
        if kind == 0 and i != j:  # swap
            del ent[(i, i)], ent[(j, j)]
            ent[(i, j)] = F.one
            ent[(j, i)] = F.one
        elif kind == 1:  # scale by a unit
            c = F.from_int(rng.choice([1, -1, 2, 3]))
            if F.is_zero(c):
                c = F.one
            ent[(i, i)] = c
        elif i != j:  # shear
            c = F.from_int(rng.randint(-3, 3))
            if not F.is_zero(c):
                ent[(i, j)] = c
        M = SparseMatrix(F, n, n, ent) @ M
    return M


def test_rand_invertible_is_invertible():
    rng = Random(7)
    for n in (1, 2, 3, 5):
        for _ in range(5):
            M = rand_invertible(QQ, rng, n)
            assert M @ M.inverse() == SparseMatrix.identity(QQ, n)
    for F in (QQ, GF(101), GF(2)):
        for seed in range(6):
            for n in (1, 2, 4, 7):
                got, want = Random(seed), Random(seed)
                assert rand_invertible(F, got, n) == _rand_invertible_reference(F, want, n)
                assert got.random() == want.random()  # the same draws


def test_conjugation_preserves_structure():
    rng = Random(1)
    C = comatrix(QQ, 2)
    D, iso = conjugate_coalgebra(C, rand_invertible(QQ, rng, 4))
    assert D.dim == 4
    assert D.is_counital()
    assert iso.is_bijective()
    A = truncated_poly_algebra(GF(101), 3)
    B = conjugate_algebra(A, rand_invertible(GF(101), rng, 4))
    assert B.unit is not None


def _changed(F, table: dict, key, inner):
    """A copy of a nested table with entry table[key][inner] moved by one."""
    out = {k: dict(t) for k, t in table.items()}
    terms = out.setdefault(key, {})
    v = F.add(terms.get(inner, F.zero), F.one)
    if F.is_zero(v):
        del terms[inner]
    else:
        terms[inner] = v
    return {k: t for k, t in out.items() if t}


def _trusted_coalgebras(F, rng):
    """(name, D, check) for each coalgebra D built unvalidated, where
    check(E, counital) runs the morphism check that certifies D, on E."""
    C = comatrix(F, 2)
    P = rand_invertible(F, rng, C.dim)
    D, _ = conjugate_coalgebra(C, P)
    yield "conjugate", D, lambda E, counital: CoalgebraMorphism(C, E, P, counital=counital)
    # a sub-coalgebra whose basis is not a set of coordinate vectors
    chain = Quiver(tuple(range(4)), ((0, 1), (1, 2), (2, 3)))
    C, iso = conjugate_coalgebra(path_coalgebra(F, chain)[0], rand_invertible(F, rng, 10))
    D, incl = subcoalgebra_generated(C, iso(basis_vec(F, 10, 7)))  # the path 0 -> 1 -> 2
    assert D.dim == 6
    yield "subcoalgebra", D, lambda E, counital: CoalgebraMorphism(E, C, incl.matrix,
                                                                   counital=counital)
    for name, (alg, co) in (("pathdual", verify_pathdual_iso(F, chain)),
                            ("incidencedual", verify_incidencedual_iso(F, rand_poset(rng, 4)))):
        yield name, co.source, lambda E, counital, alg=alg: AlgebraMorphism(
            alg.source, dual_algebra(E), alg.matrix, unital=counital)


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["q", "fp101"])
def test_transport_checks_reject_one_changed_entry(F):
    # a transported, included or dual structure is certified by its morphism
    # check alone, so that check must see every entry of the table and the
    # (co)unit
    rng = Random(f"transport:{F.name()}")
    for name, D, check in _trusted_coalgebras(F, rng):
        n = D.dim
        changes = [(k, ij) for k, t in sorted(D.comult.items()) for ij in sorted(t)]
        changes += [(rng.randrange(n), (rng.randrange(n), rng.randrange(n))) for _ in range(5)]
        for k, ij in changes:
            bad = _trusted(FinCoalgebra, F, n, _changed(F, D.comult, k, ij), D.counit)
            with pytest.raises(ValidationError):
                check(bad, False)
        counit = list(D.counit)
        i = rng.randrange(n)
        counit[i] = F.add(counit[i], F.one)
        moved = _trusted(FinCoalgebra, F, n, D.comult, tuple(counit))
        check(moved, False)
        with pytest.raises(ValidationError, match="unit to unit"):
            check(moved, True)

    A = truncated_poly_algebra(F, 3)
    P = rand_invertible(F, rng, A.dim)
    Pinv = P.inverse()
    B = conjugate_algebra(A, P)
    changes = [(ij, k) for ij, t in sorted(B.mult.items()) for k in sorted(t)]
    changes += [((rng.randrange(4), rng.randrange(4)), rng.randrange(4)) for _ in range(5)]
    for ij, k in changes:
        bad = _trusted(FinAlgebra, F, B.dim, _changed(F, B.mult, ij, k), B.unit)
        with pytest.raises(ValidationError):
            AlgebraMorphism(bad, A, Pinv)
    unit = list(B.unit)
    i = rng.randrange(4)
    unit[i] = F.add(unit[i], F.one)
    moved = _trusted(FinAlgebra, F, B.dim, B.mult, tuple(unit))
    AlgebraMorphism(moved, A, Pinv)
    with pytest.raises(ValidationError, match="unit to unit"):
        AlgebraMorphism(moved, A, Pinv, unital=True)


def test_rand_coalgebra_counit_flag():
    for F in (QQ, GF(101)):
        rng = Random(11)
        for _ in range(20):
            assert rand_coalgebra(F, rng).is_counital()
            assert not rand_coalgebra(F, rng, counital=False).is_counital()
    # the direct sum of the blocks: the second block's table shifted past the first
    C1, C2 = comatrix(QQ, 2), divided_power_coalgebra(QQ, 2)
    S = direct_sum_coalgebra(C1, C2)
    assert S.comult == {**C1.comult, **{k + 4: {(i + 4, j + 4): v for (i, j), v in t.items()}
                                        for k, t in C2.comult.items()}}
    assert S.counit == C1.counit + C2.counit
    assert direct_sum_coalgebra(C1, divided_power_coalgebra(QQ, 2, counital=False)).counit is None


def test_rand_algebra_unit_flag():
    rng = Random(3)
    for _ in range(20):
        assert rand_algebra(QQ, rng).unit is not None
        assert rand_algebra(QQ, rng, unital=False).unit is None
    # a direct sum over two fields is refused, for algebras and coalgebras alike
    with pytest.raises(ValidationError, match="mixed fields"):
        direct_sum_algebra(truncated_poly_algebra(QQ, 2), truncated_poly_algebra(GF(101), 2))
    with pytest.raises(ValidationError, match="mixed fields"):
        direct_sum_coalgebra(divided_power_coalgebra(QQ, 2), divided_power_coalgebra(GF(101), 2))


def test_rand_morphism_triples_validate():
    rng = Random(5)
    for _ in range(20):
        D, C, f = rand_morphism_triple(QQ, rng)
        assert f.source is D and f.target is C
        assert D.is_counital()
        assert not f.counital


def test_rand_quivers_acyclic_and_capped():
    rng = Random(9)
    for _ in range(20):
        Q = rand_acyclic_quiver(rng)
        assert Q.is_acyclic()
        assert len(Q.arrows) <= 10
        assert len(Q.vertices) <= 6


def test_rand_posets_validate():
    rng = Random(13)
    for _ in range(10):
        P = rand_poset(rng, 6)
        assert len(P.elements) == 6
    # (0, 3) comes from the transitive closure of the drawn pairs
    assert rand_poset(Random(13), 4).relation == frozenset(
        {(0, 1), (0, 3), (1, 3), (2, 3)} | {(i, i) for i in range(4)})


def test_rand_comodule_dims():
    rng = Random(17)
    C = divided_power_coalgebra(QQ, 2)
    M = rand_comodule(rng, C, copies=2)
    assert M.dim == 6


def test_hopf_instances_shapes():
    inst = hopf_instances(QQ)
    assert [name for name, _ in inst] == \
        ["group-z2", "group-z4", "group-s3", "functions-s3"]
    assert [H.algebra.dim for _, H in inst] == [2, 4, 6, 6]


def test_determinism():
    a = rand_coalgebra(QQ, Random(42))
    b = rand_coalgebra(QQ, Random(42))
    assert a.comult == b.comult and a.counit == b.counit
