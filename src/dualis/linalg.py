"""Sparse exact linear algebra over Q and F_p.

Sparse vectors, tensors and structure tables are {key: nonzero scalar}
dicts, and every module works on them through one kernel: axpy, lincomb,
dot, outer and bilinear sum and multiply, tensor_legs and regroup re-key,
and prune cleans.  Matrices store only nonzero entries.  All elimination
goes through RowSpace, which keeps the unique reduced row echelon form of
the vectors added so far: spans grow one, intersections read one grown
from one span's residuals mod the other, and SparseMatrix rank, kernel,
solve and inverse read the one built from their rows.  A row's pivot is
its first nonzero entry once the earlier pivots are cleared, so every
result is deterministic; there are no magnitude-based choices to make in
exact arithmetic.  Rows are keyed by pivot and fully reduced: reducing a
vector walks its support and takes off its entry at each pivot times that
row.

Elimination is fraction-free: over Q a RowSpace keeps integer rows over one
shared denominator and divides by it exactly (Bareiss); over F_p it packs
each row's residues into one integer and takes them mod p only when the
row is read.  Fractions appear only when the form is read.

RowSpace is also the one closure engine: ideals, subcoalgebras, one-sided
coideals, subcomodules and submodules are spans closed under a family of
linear maps, which close grows and closed_under tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch
from .fields import Field


# ---------------------------------------------------------------------------
# coordinate tuples at the public API: sparse_vec and dense_vec convert them
# to and from the sparse dicts that all arithmetic below works on

def basis_vec(F: Field, n: int, i: int) -> tuple:
    return tuple(F.one if j == i else F.zero for j in range(n))

def sparse_vec(F: Field, x, n: int | None = None) -> dict:
    """x without its zero entries; a sparse dict is returned as it is.  A
    tuple must have length n when n is given."""
    if isinstance(x, dict):
        return x
    if n is not None and len(x) != n:
        raise DimensionMismatch(f"vector of length {len(x)}, expected {n}")
    return {i: v for i, v in enumerate(x) if not F.is_zero(v)}

def dense_vec(F: Field, n: int, x: dict) -> tuple:
    zero = F.zero
    return tuple(x.get(i, zero) for i in range(n))


# ---------------------------------------------------------------------------
# sparse kernel: {key: nonzero scalar} dicts, keys any hashable (indices,
# pairs, triples), so vectors, tensors and matrix rows share one code path

def axpy(F: Field, acc: dict, c, x: dict) -> dict:
    """acc += c * x in place, dropping entries that become zero; returns acc.

    The innermost loop of nearly every check, so it branches on the field
    once and inlines Field's add and mul: residues are reduced once per
    entry, and an integral rational is stored as its numerator."""
    get = acc.get
    p = F.characteristic
    if p:
        for k, v in x.items():
            s = (get(k, 0) + c * v) % p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    else:
        for k, v in x.items():
            s = get(k, 0) + c * v
            if s:
                acc[k] = s.numerator if s.denominator == 1 else s
            else:
                acc.pop(k, None)
    return acc


def lincomb(F: Field, coeffs: dict, vectors) -> dict:
    """Sum of coeffs[k] * vectors[k]; vectors is a list or a dict, and a key
    the dict lacks stands for the zero vector."""
    acc: dict = {}
    get = vectors.get if isinstance(vectors, dict) else vectors.__getitem__
    for k, c in coeffs.items():
        x = get(k)
        if x:
            axpy(F, acc, c, x)
    return acc


def dot(F: Field, x: dict, y: dict):
    """Sum of x[k] * y[k] over the keys both hold."""
    s = F.zero
    for k, v in x.items():
        w = y.get(k)
        if w is not None:
            s = F.add(s, F.mul(v, w))
    return s


def outer(F: Field, x: dict, y: dict) -> dict:
    """The tensor {(i, j): x[i] * y[j]}; a product of nonzero scalars is
    nonzero, so nothing needs pruning."""
    return {(i, j): F.mul(u, v) for i, u in x.items() for j, v in y.items()}


def bilinear(F: Field, table: dict, x: dict, y: dict) -> dict:
    """Sum of x[i] * y[j] * table[(i, j)] over the pairs the table holds."""
    acc: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            terms = table.get((i, j))
            if terms:
                axpy(F, acc, F.mul(xi, yj), terms)
    return acc


def tensor_legs(tensor: dict, outer: int = 0) -> dict:
    """Split a sparse {(i, j): v} tensor into sparse legs {i: {j: v}}, or
    {j: {i: v}} when outer is 1."""
    legs: dict = {}
    for key, v in tensor.items():
        legs.setdefault(key[outer], {})[key[1 - outer]] = v
    return legs


def regroup(table: dict, split) -> dict:
    """Re-key a nested {a: {b: v}} table as {o: {i: v}}, (o, i) = split(a, b):
    the one way structure tables are transposed."""
    out: dict = {}
    for a, terms in table.items():
        for b, v in terms.items():
            o, i = split(a, b)
            out.setdefault(o, {})[i] = v
    return out


def prune(F: Field, table: dict) -> dict:
    """Copy of a nested {key: {key: scalar}} table without zero scalars or
    empty rows; integral rationals become ints, as Field results are."""
    out = {}
    for key, terms in table.items():
        keep = {k: v.numerator if v.denominator == 1 else v
                for k, v in terms.items() if not F.is_zero(v)}
        if keep:
            out[key] = keep
    return out


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix; entries maps (row, col) to nonzero scalars."""

    field: Field
    rows: int
    cols: int
    entries: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        F = self.field
        clean = {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise DimensionMismatch(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
            if not F.is_zero(v):
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, F: Field, rows: list, cols: int | None = None) -> "SparseMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not F.is_zero(v):
                    ent[(i, j)] = v
        return cls(F, len(rows), cols, ent)

    @classmethod
    def identity(cls, F: Field, n: int) -> "SparseMatrix":
        return cls(F, n, n, {(i, i): F.one for i in range(n)})

    # -- structure ----------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.field, self.cols, self.rows,
                            {(j, i): v for (i, j), v in self.entries.items()})

    def _row_dicts(self) -> list[dict]:
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def columns(self) -> list[dict]:
        """Column j as a sparse {row: scalar} dict, for each j."""
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        F = self.field
        ent = axpy(F, dict(self.entries), F.one, other.entries)
        return SparseMatrix(F, self.rows, self.cols, ent)

    def scale(self, c) -> "SparseMatrix":
        F = self.field
        return SparseMatrix(F, self.rows, self.cols,
                            {k: F.mul(c, v) for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        F = self.field
        by_row = other._row_dicts()
        acc: dict[int, dict] = {}
        for (i, k), u in self.entries.items():
            axpy(F, acc.setdefault(i, {}), u, by_row[k])
        return SparseMatrix(F, self.rows, other.cols,
                            {(i, j): v for i, row in acc.items() for j, v in row.items()})

    def apply(self, x: tuple) -> tuple:
        """Matrix times column vector."""
        F = self.field
        return dense_vec(F, self.rows, lincomb(F, sparse_vec(F, x, self.cols), self.columns()))

    # -- elimination-backed queries -------------------------------------------

    def rank(self) -> int:
        return RowSpace(self.field, self.cols, self._row_dicts()).dim

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right null space, rows in reduced echelon order."""
        F = self.field
        rows = RowSpace(F, self.cols, self._row_dicts())._rows
        basis = []
        for fc in [c for c in range(self.cols) if c not in rows]:
            v = [F.zero] * self.cols
            v[fc] = F.one
            for pc, row in rows.items():
                coeff = row.get(fc)
                if coeff is not None:
                    v[pc] = F.neg(coeff)
            basis.append(tuple(v))
        return basis

    def solve(self, b: tuple) -> tuple | None:
        """One solution of Mx = b with free variables zero; None if none."""
        if len(b) != self.rows:
            raise DimensionMismatch("rhs length != rows")
        F = self.field
        rows = self._row_dicts()
        for i, bi in enumerate(b):
            if not F.is_zero(bi):
                rows[i][self.cols] = bi
        rs = RowSpace(F, self.cols + 1, rows)
        x = [F.zero] * self.cols
        for pc, row in rs._rows.items():
            if pc == self.cols:
                return None
            x[pc] = row.get(self.cols, F.zero)
        return tuple(x)

    def tensor(self, other: "SparseMatrix") -> "SparseMatrix":
        """Kronecker product; index (i, k) maps to i*other.rows + k."""
        F = self.field
        ent = {}
        for (i, j), u in self.entries.items():
            for (k, l), v in other.entries.items():
                ent[(i * other.rows + k, j * other.cols + l)] = F.mul(u, v)
        return SparseMatrix(F, self.rows * other.rows, self.cols * other.cols, ent)

    def inverse(self) -> "SparseMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        F = self.field
        n = self.rows
        rows = self._row_dicts()
        for i in range(n):
            rows[i][n + i] = F.one
        rs = RowSpace(F, 2 * n, rows)
        if rs.pivots()[:n] != list(range(n)):
            raise DimensionMismatch("matrix is singular")
        return SparseMatrix(F, n, n, {(i, j - n): v for i, row in enumerate(rs._rows.values())
                                      for j, v in row.items() if j >= n})


# ---------------------------------------------------------------------------
# incremental row spaces: the one elimination and closure engine

def _submul(acc: dict, c: int, x: dict) -> None:
    """acc -= c * x in place on integers, dropping entries that become zero:
    the one elimination step over Q."""
    for j, v in x.items():
        s = acc.get(j, 0) - c * v
        if s:
            acc[j] = s
        else:
            del acc[j]


def _ratio(v: int, d: int):
    """v / d as a canonical rational: an int when d divides v."""
    q, r = divmod(v, d)
    return Fraction(v, d) if r else q


# memoryview codes of packed slot widths; a big-endian host unpacks by shifts
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"} if sys.byteorder == "little" else {}


class RowSpace:
    """A subspace of F^n kept in reduced echelon form, grown one vector at a time.

    Vectors may be given as tuples of length n or as sparse {index: scalar}
    dicts with indices in range(n); anything else raises DimensionMismatch.

    The form is kept fraction-free: rows _num[pc], keyed by pivot column pc,
    over one positive integer _den, every pivot entry equal to _den, so that
    _num[pc] / _den is the reduced echelon row with pivot pc.  Over Q a row
    is a sparse integer dict and _den is |det| of the pivot block of the
    vectors that grew the space, each scaled to integers by the lcm of its
    denominators, and each entry of _num is a minor of those vectors
    (Cramer's rule).  Growing the space multiplies the rows by the new pivot
    and divides by the old _den, and that division is exact (Sylvester's
    identity; Bareiss, Math. Comp. 22, 1968).

    Over F_p _den is 1 and a row is one int, sum of row[j] * 2^(B*j), in
    slots of B bits, B the least of 8, 16, 32, 64 or a multiple of 64 with
    2^B > p + n*p^2 + n^2*p^3.  Reduction is delayed (Dumas, Giorgi and
    Pernet, ACM TOMS 35, 2008): a new row, packed from residues below p with
    pivot entry 1, is added p - c times to each row with residue c at its
    pivot, so stored slots stay below p + n*p^2, and a reduction adds at
    most n rows times coefficients below p.  So no slot carries into the
    next, and slots are taken mod p only when a row is decoded.
    """

    def __init__(self, F: Field, ambient: int, vectors=()):
        self.field = F
        self.ambient = ambient
        p = F.characteristic
        need = (p + ambient * p * p + ambient ** 2 * p ** 3).bit_length()
        self._slot = next((b for b in _CODES if b >= need), -(-need // 64) * 64) if p else 0
        self._num: dict = {}   # pivot column -> fully reduced row
        self._den = 1
        self._rref: dict | None = None
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._num)

    def _pack(self, y: dict) -> int:
        """The canonical residues y as one packed row."""
        B, row = self._slot, 0
        for j, v in y.items():
            row |= v << B * j
        return row

    def _unpack(self, row: int) -> dict:
        """A packed row as sparse canonical residues; to_bytes overflows if B was too small."""
        B, p = self._slot, self.field.characteristic
        raw = row.to_bytes(self.ambient * B // 8, sys.byteorder)
        slots = (memoryview(raw).cast(_CODES[B]) if B in _CODES else
                 [row >> B * j & (1 << B) - 1 for j in range(self.ambient)])
        return {j: r for j, v in enumerate(slots) if (r := v % p)}

    def _int_rows(self) -> dict:
        """The rows _num as fresh sparse integer dicts, in pivot order."""
        read = self._unpack if self._slot else dict
        return {pc: read(self._num[pc]) for pc in sorted(self._num)}

    @property
    def _rows(self) -> dict:
        """The reduced echelon rows _num / _den in pivot order, cached."""
        if self._rref is None:
            d = self._den
            self._rref = {pc: row if d == 1 else {j: _ratio(v, d) for j, v in row.items()}
                          for pc, row in self._int_rows().items()}
        return self._rref

    def _reduce(self, vec) -> tuple[dict, int, dict]:
        """(x, scale, w): vec as a sparse dict x, the lcm of its denominators,
        and w = _den * y - sum of y[pc] * _num[pc] over the pivots pc in y's
        support, for y = scale * x.  The rows are fully reduced, so vec is in
        the space exactly when w is empty, and its coordinates in basis() are
        then x at the pivots."""
        F = self.field
        if isinstance(vec, dict):
            if vec and (min(vec) < 0 or max(vec) >= self.ambient):
                raise DimensionMismatch("vector index outside the ambient dimension")
            x = vec
        elif len(vec) != self.ambient:
            raise DimensionMismatch("vector length != ambient dimension")
        else:
            x = sparse_vec(F, vec)
        num = self._num
        p = F.characteristic
        if p:
            # canonical residues first, so that no slot can borrow
            y = {j: r for j, v in x.items() if (r := v % p)}
            acc = sum((p - c) * num[j] for j, c in y.items() if j in num)
            return x, 1, self._unpack(acc + self._pack(y)) if acc else y
        scale, y = 1, x
        if any(type(v) is not int for v in x.values()):
            scale = lcm(*(v.denominator for v in x.values()))
            y = {j: v.numerator * (scale // v.denominator) for j, v in x.items()}
        d = self._den
        w = dict(y) if d == 1 else {j: d * v for j, v in y.items()}
        for j, c in y.items():
            row = num.get(j)
            if row is not None:
                _submul(w, c, row)
        return x, scale, w

    def contains(self, vec) -> bool:
        return not self._reduce(vec)[2]

    def residual(self, vec) -> tuple:
        """vec minus its projection along the pivots onto the space."""
        _, scale, w = self._reduce(vec)
        m = scale * self._den
        if m != 1:
            w = {j: _ratio(v, m) for j, v in w.items()}
        return dense_vec(self.field, self.ambient, w)

    def add(self, vec) -> bool:
        """Insert vec; True if the dimension grew."""
        return self._insert(self._reduce(vec)[2])

    def _insert(self, w: dict) -> bool:
        """Make w, reduced as _reduce reduces, a row; False if it is empty."""
        if not w:
            return False
        p = self.field.characteristic
        pc = min(w)
        a = w[pc]
        num = self._num
        self._rref = None
        if p:
            inv = pow(a, -1, p)
            new = self._pack({j: v * inv % p for j, v in w.items()})
            # only rows with a pivot left of pc can hold an entry at pc
            shift, mask = self._slot * pc, (1 << self._slot) - 1
            for q, row in num.items():
                if q < pc and (c := (row >> shift & mask) % p):
                    num[q] = row + (p - c) * new
            num[pc] = new
            return True
        if a < 0:
            w = {j: -v for j, v in w.items()}
            a = -a
        # row <- (a * row - row[pc] * w) / d clears pc and makes a the pivot
        # entry of every row; the division is exact
        d = self._den
        for q, row in num.items():
            c = row.get(pc)
            if c is None and a == d:
                continue
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            if c is not None:
                _submul(row, c, w)
            if d != 1:
                row = {j: v // d for j, v in row.items()}
            num[q] = row
        num[pc] = w
        self._den = a
        return True

    def close(self, images) -> "RowSpace":
        """Grow to the smallest space holding images(v) for every v in it;
        returns self.  images maps a sparse vector to the vectors some
        family of linear maps sends it to, so closing a basis suffices."""
        queue = list(self._int_rows().values())
        while queue:
            for w in images(queue.pop()):
                if self.add(w):
                    queue.append(sparse_vec(self.field, w))
        return self

    def closed_under(self, images) -> bool:
        """Does the space hold images(v) for every v in it?"""
        return all(self.contains(w) for row in self._int_rows().values() for w in images(row))

    def basis(self) -> list[tuple]:
        return [dense_vec(self.field, self.ambient, row) for row in self._rows.values()]

    def pivots(self) -> list[int]:
        return sorted(self._num)

    def coords(self, vec) -> tuple | None:
        """Canonical coordinates of vec in basis(); None if vec is outside."""
        x, _, w = self._reduce(vec)
        if w:
            return None
        F = self.field
        x = axpy(F, {}, F.one, x)
        return tuple(x.get(pc, F.zero) for pc in sorted(self._num))


def span_basis(F: Field, vectors, ambient: int) -> list[tuple]:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    return RowSpace(F, ambient, vectors).basis()


def intersect_spans(F: Field, basis_u: list[tuple], basis_w: list[tuple], ambient: int) -> list[tuple]:
    """Canonical basis of span(U) intersect span(W): the reduced echelon rows
    of (u | 0) for u in U and (w | w) for w in W with a pivot past ambient
    are (0 | b) for the reduced echelon basis b of the intersection.  U is
    reduced apart and never rewritten.  Each w enters T as _den * (res(w) | w),
    as one elimination would hold it, and T starts at U's _den, so dividing
    by it is exact and T's entries stay minors of the inputs (Bareiss)."""
    U = RowSpace(F, ambient, basis_u)
    d = U._den
    T = RowSpace(F, 2 * ambient)
    T._den = d
    for w in basis_w:
        x, scale, res = U._reduce(w)
        row = T._reduce({**res, **{ambient + j: d * scale * v for j, v in x.items()}})[2]
        T._insert({j: v // d for j, v in row.items()} if d != 1 else row)
    return [dense_vec(F, ambient, {j - ambient: v for j, v in row.items()})
            for pc, row in T._rows.items() if pc >= ambient]
