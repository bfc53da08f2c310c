"""Reference arithmetic the benchmark checks dualis against.

Everything here is plain ``int``/``Fraction`` code written apart from
dualis: exact matrix products, fraction-free ranks, path and comparable-pair
counts.  Nothing in this module imports dualis, so a fault in the program
cannot leak into the answers it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


# ---------------------------------------------------------------------------
# integer matrices built with a known inverse

def dense_unimodular(rng, n: int):
    """G = L*U with unit triangular L, U whose off-diagonal entries are drawn
    from -2..2, and its exact inverse U^-1 * L^-1 by substitution."""
    L = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0)
          for j in range(n)] for i in range(n)]
    U = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0)
          for j in range(n)] for i in range(n)]
    return matmul(L, U), matmul(_unit_triangular_inverse(U, upper=True),
                                _unit_triangular_inverse(L, upper=False))


def _unit_triangular_inverse(T, upper: bool):
    n = len(T)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows = range(n - 1, -1, -1) if upper else range(n)
    for i in rows:
        # row i of T*inv = e_i: inv[i] = e_i - sum_{k != i} T[i][k] * inv[k]
        ks = range(i + 1, n) if upper else range(i)
        acc = inv[i]
        for k in ks:
            if T[i][k]:
                c = T[i][k]
                acc = [a - c * b for a, b in zip(acc, inv[k])]
        inv[i] = acc
    return inv


def sparse_unimodular(rng, n: int, shears: int):
    """A permutation matrix with ``shears`` random row additions
    row_i += c*row_j (c in {-2, -1, 1, 2}), and its exact inverse, which
    undoes the same operations in reverse order."""
    perm = list(range(n))
    rng.shuffle(perm)
    G = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    ops = []
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            ops.append((i, j, rng.choice((-2, -1, 1, 2))))
    for i, j, c in ops:
        G[i] = [a + c * b for a, b in zip(G[i], G[j])]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in reversed(ops):
        inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]
    # G = E_m ... E_1 Pi, so G^-1 = Pi^T E_1^-1 ... E_m^-1; inv holds the
    # E-part, and Pi^T moves its row k to row perm[k].
    Ginv = [None] * n
    for k in range(n):
        Ginv[perm[k]] = inv[k]
    return G, Ginv


def matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def vecmat(x, A):
    out = [0] * len(A[0])
    for c, row in zip(x, A):
        if c:
            out = [o + c * a for o, a in zip(out, row)]
    return out


# ---------------------------------------------------------------------------
# scalars coming back from dualis, as exact integers

def as_int_vector(vec, p: int) -> list:
    """A dualis vector scaled to integers (p == 0) or as residues mod p.

    Over Q the vector is multiplied by the lcm of its denominators, which
    changes neither its span nor whether it is zero.
    """
    if p:
        for v in vec:
            if not isinstance(v, int) or not 0 <= v < p:
                raise ValueError(f"{v!r} is not a canonical residue mod {p}")
        return list(vec)
    fr = [Fraction(v) for v in vec]
    m = lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * m) for f in fr]


def is_zero_vector(vec, p: int) -> bool:
    return all((v % p if p else v) == 0 for v in vec)


def rank(rows, p: int) -> int:
    """Rank of integer rows over Q (p == 0, fraction-free Bareiss) or F_p."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    if p:
        m = [[v % p for v in r] for r in m]
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        a = m[r][c]
        for i in range(r + 1, len(m)):
            b = m[i][c]
            if p:
                f = b * pow(a, -1, p) % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
            else:
                m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], m[r])]
        if not p:
            prev = a
        r += 1
        if r == len(m):
            break
    return r


# ---------------------------------------------------------------------------
# combinatorial counts

def paths_ending_at(vertices, arrows) -> dict:
    """Number of paths ending at each vertex of an acyclic quiver, trivial
    paths included, by dynamic programming over a topological order."""
    outs = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for u, w in arrows:
        outs[u].append(w)
        indeg[w] += 1
    order, ready = [], [v for v in vertices if indeg[v] == 0]
    while ready:
        u = ready.pop()
        order.append(u)
        for w in outs[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(vertices):
        raise ValueError("quiver has a cycle")
    ending = {v: 1 for v in vertices}
    for u in order:
        for w in outs[u]:
            ending[w] += ending[u]
    return ending


def comparable_pairs(elements, covers) -> int:
    """Pairs a <= b (a == b included) in the order generated by covers."""
    above = {e: {e} for e in elements}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            new = above[b] - above[a]
            if new:
                above[a] |= new
                changed = True
    return sum(len(s) for s in above.values())
