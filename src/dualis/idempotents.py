"""Complete orthogonal primitive idempotent families, exactly.

Strategy: pass to the semisimple quotient by the radical, split idempotents
there by factoring minimal polynomials of corner elements (the only place
factorization is needed), lift back through the radical by Newton iteration,
and orthogonalize sequentially inside corners.  Every claimed property is
re-checked with exact arithmetic before returning; when the search cannot
certify primitivity it raises UnsupportedCorner rather than guess.
sympy, the factorizer, is imported on first use, so importing dualis does
not load it.

Elements are sparse {index: scalar} dicts throughout: products go through
bilinear on the multiplication table and sums through axpy.  The public
functions accept coordinate tuples or dicts and return coordinate tuples.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FinAlgebra, _complement_projection, _radical_quotient
from .errors import DecompositionFailed, UnsupportedCorner, ValidationError
from .fields import Field
from .linalg import RowSpace, SparseMatrix, axpy, bilinear, dense_vec, sparse_vec


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


def _poly_eval(A: FinAlgebra, coeffs, x: dict, e: dict) -> dict:
    """Evaluate with the convention t^0 = e (the corner's local unit)."""
    F = A.field
    acc: dict = {}
    power = e
    for c in coeffs:
        axpy(F, acc, c, power)
        power = bilinear(F, A.mult, power, x)
    return acc


def min_poly_in_corner(A: FinAlgebra, x, e) -> list:
    """Monic minimal polynomial of x relative to the local unit e, low -> high."""
    F = A.field
    x, e = sparse_vec(F, x), sparse_vec(F, e)
    rs = RowSpace(F, A.dim)
    powers = [e]
    rs.add(e)
    cur = e
    while True:
        cur = bilinear(F, A.mult, cur, x)
        if rs.contains(cur):
            # columns are the powers, so the solution is cur's coordinates
            M = SparseMatrix(F, A.dim, len(powers),
                             {(i, j): v for j, p in enumerate(powers) for i, v in p.items()})
            sol = M.solve(dense_vec(F, A.dim, cur))
            if sol is None:
                raise ValidationError("power dependence without coordinates")
            return [F.neg(c) for c in sol] + [F.one]
        rs.add(cur)
        powers.append(cur)


def _try_split(A: FinAlgebra, e: dict, x: dict):
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
    e2 = axpy(F, dict(e), F.neg(F.one), e1)
    if bilinear(F, A.mult, e1, e1) != e1 or bilinear(F, A.mult, e2, e2) != e2:
        raise DecompositionFailed("splitting produced a non-idempotent")
    if bilinear(F, A.mult, e1, e2):
        raise DecompositionFailed("splitting is not orthogonal")
    return e1, e2


def _corner_products(A: FinAlgebra, e: dict) -> list:
    """e * b_i * e for every basis element b_i."""
    F = A.field
    return [bilinear(F, A.mult, bilinear(F, A.mult, e, {i: F.one}), e)
            for i in range(A.dim)]


def _corner_basis(A: FinAlgebra, e: dict) -> list:
    F = A.field
    rs = RowSpace(F, A.dim, _corner_products(A, e))
    return [sparse_vec(F, u) for u in rs.basis()]


def _certify_primitive(A: FinAlgebra, e: dict) -> str | None:
    """A certificate string when e is provably primitive in semisimple A."""
    import sympy

    F = A.field
    corner = _corner_basis(A, e)
    if len(corner) == 1:
        return "corner-dim-1"
    commutative = all(bilinear(F, A.mult, u, v) == bilinear(F, A.mult, v, u)
                      for i, u in enumerate(corner) for v in corner[i + 1:])
    if commutative:
        probes = list(corner)
        probes += [axpy(F, dict(u), F.one, v)
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
    pending = [sparse_vec(F, A.unit)]
    done = []
    certs = []
    while pending:
        e = pending.pop()
        products = _corner_products(A, e)
        if RowSpace(F, A.dim, products).dim == 1:
            done.append(e)
            certs.append("corner-dim-1")
            continue
        candidates = products + [axpy(F, dict(u), F.one, v)
                                 for i, u in enumerate(products[:6])
                                 for v in products[i + 1:6]]
        split = None
        for x in candidates:
            if x:
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
    return [dense_vec(F, A.dim, e) for e in done], certs


def newton_lift(A: FinAlgebra, x) -> tuple:
    """Lift an idempotent-mod-radical to an exact one: x <- 3x^2 - 2x^3,
    giving up after dim + 2 steps."""
    F = A.field
    three = F.from_int(3)
    minus_two = F.from_int(-2)
    cur = sparse_vec(F, x)
    for _ in range(A.dim + 2):
        sq = bilinear(F, A.mult, cur, cur)
        if sq == cur:
            return dense_vec(F, A.dim, cur)
        cur = axpy(F, axpy(F, {}, three, sq), minus_two, bilinear(F, A.mult, sq, cur))
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
    rad, Q, _ = _radical_quotient(B)
    bars, certs = split_semisimple_unit(Q)
    # Q lives on the echelon complement free of rad: lift e_a to b_free[a]
    free, _ = _complement_projection(B, rad.basis)
    lifted: list[dict] = []
    comp = sparse_vec(F, B.unit)  # 1 minus the lifted family so far
    for ebar in bars:
        rep = {free[a]: v for a, v in sparse_vec(F, ebar).items()}
        if lifted:
            rep = bilinear(F, B.mult, bilinear(F, B.mult, comp, rep), comp)
        e = sparse_vec(F, newton_lift(B, rep))
        for prev in lifted:
            if bilinear(F, B.mult, prev, e) or bilinear(F, B.mult, e, prev):
                raise DecompositionFailed("lifted family lost orthogonality")
        lifted.append(e)
        axpy(F, comp, F.neg(F.one), e)
    if comp:
        raise DecompositionFailed("lifted family does not sum to 1")
    return [dense_vec(F, B.dim, e) for e in lifted], certs


def verify_family(B: FinAlgebra, family) -> list:
    """Check a proposed complete orthogonal family; returns certificates.

    Primitivity is certified through corners of the semisimple quotient;
    anything uncertifiable raises UnsupportedCorner.
    """
    F = B.field
    if B.unit is None:
        raise ValidationError("need a unital algebra")
    vecs = [sparse_vec(F, e) for e in family]
    total: dict = {}
    for e in vecs:
        if bilinear(F, B.mult, e, e) != e:
            raise ValidationError("proposed element is not idempotent")
        axpy(F, total, F.one, e)
    if total != sparse_vec(F, B.unit):
        raise ValidationError("proposed family does not sum to 1")
    for i, e in enumerate(vecs):
        for f in vecs[i + 1:]:
            if bilinear(F, B.mult, e, f) or bilinear(F, B.mult, f, e):
                raise ValidationError("proposed family is not orthogonal")
    _, Q, proj = _radical_quotient(B)
    certs = []
    for e in family:
        cert = _certify_primitive(Q, sparse_vec(F, proj(tuple(e))))
        if cert is None:
            raise UnsupportedCorner(
                "cannot certify a proposed idempotent as primitive")
        certs.append(cert)
    return certs
