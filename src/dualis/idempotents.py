"""Complete orthogonal primitive idempotent families, exactly.

Strategy: pass to the semisimple quotient by the radical, split idempotents
there by factoring minimal polynomials of corner elements (the only place
factorization is needed), lift back through the radical by Newton iteration,
and orthogonalize sequentially inside corners.  Every claimed property is
re-checked with exact arithmetic before returning; when the search cannot
certify primitivity it raises UnsupportedCorner rather than guess.
sympy, the factorizer, is imported on first use, so importing dualis does
not load it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FinAlgebra, quotient_algebra, radical
from .errors import DecompositionFailed, UnsupportedCorner, ValidationError
from .fields import Field
from .linalg import (
    RowSpace,
    SparseMatrix,
    basis_vec,
    bilinear,
    dense_vec,
    sparse_vec,
    vec_add,
    vec_scale,
    vec_sub,
)


def _to_sympy_poly(F: Field, coeffs, t):
    """coeffs low -> high in our scalars, to a sympy Poly (high -> low)."""
    import sympy

    if F.characteristic == 0:
        cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
        return sympy.Poly(cs, t, domain="QQ")
    return sympy.Poly([int(c) for c in reversed(coeffs)], t,
                      domain=sympy.GF(F.characteristic))


def _from_sympy_coeffs(F: Field, poly) -> list:
    """sympy Poly to our scalars, low -> high."""
    import sympy

    out = []
    for c in reversed(poly.all_coeffs()):
        if F.characteristic == 0:
            r = sympy.Rational(c)
            out.append(int(r.p) if r.q == 1 else Fraction(int(r.p), int(r.q)))
        else:
            out.append(int(c) % F.characteristic)
    return out


def _poly_eval(A: FinAlgebra, coeffs, x: tuple, e: tuple) -> tuple:
    """Evaluate with the convention t^0 = e (the corner's local unit)."""
    F = A.field
    acc = tuple([F.zero] * A.dim)
    power = e
    for c in coeffs:
        if not F.is_zero(c):
            acc = vec_add(F, acc, vec_scale(F, c, power))
        power = A.multiply(power, x)
    return acc


def min_poly_in_corner(A: FinAlgebra, x: tuple, e: tuple) -> list:
    """Monic minimal polynomial of x relative to the local unit e, low -> high."""
    F = A.field
    rs = RowSpace(F, A.dim)
    powers = [e]
    rs.add(e)
    cur = e
    while True:
        cur = A.multiply(cur, x)
        if rs.contains(cur):
            M = SparseMatrix.from_rows(F, powers, A.dim).transpose()
            sol = M.solve(cur)
            if sol is None:
                raise ValidationError("power dependence without coordinates")
            return [F.neg(c) for c in sol] + [F.one]
        rs.add(cur)
        powers.append(cur)


def _try_split(A: FinAlgebra, e: tuple, x: tuple):
    """Split e using the factorization of the minimal polynomial of x in eAe.

    Returns (e1, e2) with e = e1 + e2 orthogonal idempotents, or None when
    the minimal polynomial is a power of one irreducible.
    """
    import sympy

    F = A.field
    coeffs = min_poly_in_corner(A, x, e)
    if len(coeffs) <= 2:
        return None
    t = sympy.Symbol("t")
    m = _to_sympy_poly(F, coeffs, t)
    _, factors = m.factor_list()
    if len(factors) < 2:
        return None
    f1 = factors[0][0] ** factors[0][1]
    g = m.quo(f1)
    s, _, h = g.gcdex(f1)
    if h.degree() != 0:
        return None
    q = (s * g).quo(h)
    q = q.rem(m)
    e1 = _poly_eval(A, _from_sympy_coeffs(F, q), x, e)
    e2 = vec_sub(F, e, e1)
    if A.multiply(e1, e1) != e1 or A.multiply(e2, e2) != e2:
        raise DecompositionFailed("splitting produced a non-idempotent")
    if any(not F.is_zero(v) for v in A.multiply(e1, e2)):
        raise DecompositionFailed("splitting is not orthogonal")
    return e1, e2


def _corner_products(A: FinAlgebra, e: tuple) -> list:
    """e * b_i * e for every basis element b_i, as sparse dicts."""
    F = A.field
    ed = sparse_vec(F, e)
    return [bilinear(F, A.mult, bilinear(F, A.mult, ed, {i: F.one}), ed)
            for i in range(A.dim)]


def _corner_basis(A: FinAlgebra, e: tuple) -> list:
    return RowSpace(A.field, A.dim, _corner_products(A, e)).basis()


def _certify_primitive(A: FinAlgebra, e: tuple) -> str | None:
    """A certificate string when e is provably primitive in semisimple A."""
    import sympy

    F = A.field
    corner = _corner_basis(A, e)
    if len(corner) == 1:
        return "corner-dim-1"
    commutative = all(A.multiply(u, v) == A.multiply(v, u)
                      for i, u in enumerate(corner) for v in corner[i + 1:])
    if commutative:
        probes = list(corner)
        probes += [vec_add(F, u, v)
                   for i, u in enumerate(corner) for v in corner[i + 1:]]
        for u in probes:
            coeffs = min_poly_in_corner(A, u, e)
            if len(coeffs) - 1 == len(corner):
                t = sympy.Symbol("t")
                _, factors = _to_sympy_poly(F, coeffs, t).factor_list()
                if len(factors) == 1 and factors[0][1] == 1:
                    return "corner-field"
    return None


def split_semisimple_unit(A: FinAlgebra) -> tuple[list, list]:
    """Primitive orthogonal idempotents summing to 1 in a semisimple algebra."""
    F = A.field
    if A.unit is None:
        raise ValidationError("idempotent splitting needs a unit")
    pending = [tuple(A.unit)]
    done = []
    certs = []
    while pending:
        e = pending.pop()
        corner = _corner_basis(A, e)
        if len(corner) == 1:
            done.append(e)
            certs.append("corner-dim-1")
            continue
        candidates = [dense_vec(F, A.dim, x) for x in _corner_products(A, e)]
        candidates += [vec_add(F, u, v)
                       for i, u in enumerate(candidates[:6])
                       for v in candidates[i + 1:6]]
        split = None
        for x in candidates:
            if all(F.is_zero(v) for v in x):
                continue
            split = _try_split(A, e, x)
            if split is not None:
                break
        if split is not None:
            pending.extend(split)
            continue
        cert = _certify_primitive(A, e)
        if cert is None:
            raise UnsupportedCorner(
                "cannot split or certify an idempotent as primitive")
        done.append(e)
        certs.append(cert)
    return done, certs


def newton_lift(A: FinAlgebra, x: tuple) -> tuple:
    """Lift an idempotent-mod-radical to an exact one: x <- 3x^2 - 2x^3,
    giving up after dim + 2 steps."""
    F = A.field
    three = F.from_int(3)
    two = F.from_int(2)
    cur = x
    for _ in range(A.dim + 2):
        sq = A.multiply(cur, cur)
        if sq == cur:
            return cur
        cube = A.multiply(sq, cur)
        cur = vec_sub(F, vec_scale(F, three, sq), vec_scale(F, two, cube))
    raise DecompositionFailed("Newton iteration did not stabilize")


def complete_primitive_idempotents(B: FinAlgebra) -> tuple[list, list]:
    """Complete orthogonal primitive family in a finite-dimensional unital
    algebra; returns (idempotents, certificates).

    May raise UnsupportedCharacteristic (via the radical) or
    DecompositionFailed; both mean no answer, never a wrong one.
    """
    F = B.field
    if B.unit is None:
        raise ValidationError("need a unital algebra")
    rad = radical(B)
    Q, proj = quotient_algebra(B, rad)
    bars, certs = split_semisimple_unit(Q)
    # pull back along any linear section of the projection, then lift
    sect = _section_of(proj.matrix)
    lifted: list[tuple] = []
    one = tuple(B.unit)
    for ebar in bars:
        rep = sect.apply(ebar)
        s = lifted[0] if lifted else None
        for e in lifted[1:]:
            s = vec_add(F, s, e)
        if s is not None:
            comp = vec_sub(F, one, s)
            rep = B.multiply(B.multiply(comp, rep), comp)
        e = newton_lift(B, rep)
        for prev in lifted:
            if any(not F.is_zero(v) for v in B.multiply(prev, e)) or \
               any(not F.is_zero(v) for v in B.multiply(e, prev)):
                raise DecompositionFailed("lifted family lost orthogonality")
        lifted.append(e)
    total = tuple([F.zero] * B.dim)
    for e in lifted:
        total = vec_add(F, total, e)
    if total != one:
        raise DecompositionFailed("lifted family does not sum to 1")
    return lifted, certs


def _section_of(P: SparseMatrix) -> SparseMatrix:
    """A right inverse of a surjective matrix (free coordinates zero)."""
    F = P.field
    cols = []
    for j in range(P.rows):
        sol = P.solve(basis_vec(F, P.rows, j))
        if sol is None:
            raise ValidationError("matrix is not surjective")
        cols.append(sol)
    return SparseMatrix.from_rows(F, cols, P.cols).transpose()


def verify_family(B: FinAlgebra, family) -> list:
    """Check a proposed complete orthogonal family; returns certificates.

    Primitivity is certified through corners of the semisimple quotient;
    anything uncertifiable raises UnsupportedCorner.
    """
    F = B.field
    if B.unit is None:
        raise ValidationError("need a unital algebra")
    total = tuple([F.zero] * B.dim)
    for e in family:
        if B.multiply(e, e) != tuple(e):
            raise ValidationError("proposed element is not idempotent")
        total = vec_add(F, total, e)
    if total != tuple(B.unit):
        raise ValidationError("proposed family does not sum to 1")
    for i, e in enumerate(family):
        for f in family[i + 1:]:
            if any(not F.is_zero(v) for v in B.multiply(e, f)) or \
               any(not F.is_zero(v) for v in B.multiply(f, e)):
                raise ValidationError("proposed family is not orthogonal")
    Q, proj = quotient_algebra(B, radical(B))
    certs = []
    for e in family:
        cert = _certify_primitive(Q, proj(tuple(e)))
        if cert is None:
            raise UnsupportedCorner(
                "cannot certify a proposed idempotent as primitive")
        certs.append(cert)
    return certs
