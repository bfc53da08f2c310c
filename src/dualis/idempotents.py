"""Complete orthogonal primitive idempotent families, exactly.

Strategy: pass to the semisimple quotient by the radical, split idempotents
there by factoring minimal polynomials of corner elements (the only place
factorization is needed), lift back through the radical by Newton iteration,
and orthogonalize sequentially inside corners.  Every claimed property is
re-checked with exact arithmetic before returning; when the search cannot
certify primitivity it raises UnsupportedCorner rather than guess.

Factoring needs only the roots of the minimal polynomial in the field: a
split takes off one linear factor's full power, and a polynomial of degree
at most 3 without a root is irreducible.  Roots are found exactly, by the
rational-root theorem over Q and by trying every point of a small F_p.
sympy serves only as the fallback, for a polynomial of degree 4 or more
without a root and for a root search past MAX_ROOT_COEFF or MAX_SCAN_PRIME;
it is imported then, so a run that never needs it does not load it.

Elements and polynomials are sparse dicts throughout ({index: scalar} and
{power: scalar}): products go through bilinear on the multiplication table
and sums through axpy.  The public functions accept coordinate tuples or
dicts and return coordinate tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .algebra import FinAlgebra, _complement_projection, _radical_quotient
from .errors import DecompositionFailed, UnsupportedCorner, ValidationError
from .fields import Field
from .linalg import RowSpace, SparseMatrix, axpy, bilinear, dense_vec, sparse_vec

MAX_ROOT_COEFF = 10_000  # over Q: largest cleared constant or leading term searched
MAX_SCAN_PRIME = 4_096   # over F_p: largest p whose every point is tried


# ---------------------------------------------------------------------------
# polynomials in one variable: {power: nonzero scalar} dicts

def _shift(d: int, f: dict) -> dict:
    """t^d * f."""
    return {d + i: v for i, v in f.items()}


def _poly_mul(F: Field, f: dict, g: dict) -> dict:
    acc: dict = {}
    for d, c in f.items():
        axpy(F, acc, c, _shift(d, g))
    return acc


def _poly_divmod(F: Field, f: dict, g: dict) -> tuple[dict, dict]:
    """Quotient and remainder of f by a nonzero g."""
    dg = max(g)
    lead_inv = F.inv(g[dg])
    q: dict = {}
    r = dict(f)
    while r and max(r) >= dg:
        d = max(r)
        q[d - dg] = c = F.mul(r[d], lead_inv)
        axpy(F, r, F.neg(c), _shift(d - dg, g))
    return q, r


def _inverse_mod(F: Field, g: dict, f: dict) -> dict | None:
    """s with s * g = 1 mod f and deg s < deg f (extended Euclid), or None
    when g and f have a common factor."""
    r0, r1 = f, _poly_divmod(F, g, f)[1]
    s0, s1 = {}, {0: F.one}  # s_i * g = r_i mod f throughout
    while r1 and max(r1) > 0:
        q, r = _poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, axpy(F, dict(s0), F.neg(F.one), _poly_mul(F, q, s1))
    if not r1:
        return None
    return axpy(F, {}, F.inv(r1[0]), s1)


def _divisors(n: int) -> list:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _is_root(c: dict, a: int, b: int, p: int) -> bool:
    """Whether a/b is a root of c, a polynomial with integer coefficients
    (read mod p when p > 0), tested as b^deg c(a/b) = 0 in integers."""
    n = max(c)
    v = sum(ci * a ** i * b ** (n - i) for i, ci in c.items())
    return (v % p if p else v) == 0


def _roots(F: Field, m: dict) -> list | None:
    """The roots of m in F as (root, multiplicity) pairs, or None when the
    search would pass MAX_ROOT_COEFF or MAX_SCAN_PRIME.

    Besides 0, which a factor t^low of m gives, the candidates are every
    point of F_p, or over Q the rational-root theorem's +-a/b in lowest
    terms, a dividing the constant and b the leading term of m / t^low
    cleared of denominators."""
    p = F.characteristic
    low = min(m)
    if p:
        if p > MAX_SCAN_PRIME:
            return None
        found = [r for r in range(1, p) if _is_root(m, r, 1, p)]
    else:
        den = lcm(*(v.denominator for v in m.values()))
        c = {i: (v * den).numerator for i, v in m.items()}
        const, lead = abs(c[low]), abs(c[max(c)])
        if const > MAX_ROOT_COEFF or lead > MAX_ROOT_COEFF:
            return None
        found = [F.div(s * a, b) for a in _divisors(const) for b in _divisors(lead)
                 if gcd(a, b) == 1 for s in (1, -1) if _is_root(c, s * a, b, 0)]
    roots = [(F.zero, low)] if low else []
    for r in found:
        k, f = 0, m
        while True:
            q, rem = _poly_divmod(F, f, {0: F.neg(r), 1: F.one})
            if rem:
                break
            k, f = k + 1, q
        roots.append((r, k))
    return roots


def _factor_rank(F: Field, root: tuple) -> tuple:
    """Where sympy's factor_list puts (t - r)^k among the linear factors: by
    multiplicity, then by the coefficients high -> low of the factor, which
    is b t - a (r = a/b in lowest terms, b > 0) over Q and monic over F_p."""
    r, k = root
    if F.characteristic:
        return k, 1, F.neg(r)
    return k, r.denominator, -r.numerator


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


def _first_factor(F: Field, m: dict) -> tuple[dict, int, bool]:
    """(f, k, alone) for a monic m of degree at least 2: the irreducible f and
    multiplicity k that sympy's factor_list lists first, and whether f^k is
    all of m.  factor_list sorts by degree first, so when m has a root, f is
    the linear factor _factor_rank puts first; sympy itself is asked only
    when the root search cannot decide."""
    roots = _roots(F, m)
    if roots:
        r, k = min(roots, key=lambda root: _factor_rank(F, root))
        return {0: F.neg(r), 1: F.one}, k, k == max(m)
    if roots is not None and max(m) <= 3:
        return m, 1, True  # no root and degree at most 3: irreducible
    import sympy

    poly = _to_sympy_poly(F, [m.get(i, F.zero) for i in range(max(m) + 1)],
                          sympy.Symbol("t"))
    factors = poly.factor_list()[1]
    f, k = factors[0]
    return sparse_vec(F, _from_sympy_coeffs(F, f)), k, len(factors) == 1


def _poly_eval(A: FinAlgebra, coeffs, x: dict, e: dict) -> dict:
    """Evaluate coeffs (low -> high, as a list or a {power: c} dict) at x,
    with the convention t^0 = e (the corner's local unit)."""
    F = A.field
    coeffs = sparse_vec(F, coeffs)
    acc: dict = {}
    power = e
    for d in range(max(coeffs, default=-1) + 1):
        if d in coeffs:
            axpy(F, acc, coeffs[d], power)
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
    F = A.field
    coeffs = min_poly_in_corner(A, x, e)
    if len(coeffs) <= 2:
        return None
    m = sparse_vec(F, coeffs)
    f, k, alone = _first_factor(F, m)
    if alone:
        return None
    f1 = {0: F.one}
    for _ in range(k):
        f1 = _poly_mul(F, f1, f)
    g, _ = _poly_divmod(F, m, f1)
    s = _inverse_mod(F, g, f1)
    if s is None:
        return None
    # q = 1 mod f1 and 0 mod g; deg s < deg f1 puts q below deg m, so it is
    # the one such residue and e1 does not depend on how it was found
    e1 = _poly_eval(A, _poly_mul(F, s, g), x, e)
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
                _, k, alone = _first_factor(F, sparse_vec(F, coeffs))
                if alone and k == 1:
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
