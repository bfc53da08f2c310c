"""Sparse exact linear algebra over Q and F_p.

Sparse vectors, tensors and structure tables are {key: nonzero scalar}
dicts, and every module updates them through one kernel: axpy, bilinear
and prune.  Matrices store only nonzero entries.  All elimination goes
through RowSpace, which keeps the unique reduced row echelon form of the
vectors added so far: spans and intersections grow one, and SparseMatrix
rank, kernel, solve and inverse read the one built from their rows.  A
row's pivot is its first nonzero entry once the earlier pivots are cleared,
so every result is deterministic; there are no magnitude-based choices to
make in exact arithmetic.

RowSpace is also the one closure engine: ideals, subcoalgebras, one-sided
coideals, subcomodules and submodules are spans closed under a family of
linear maps, which close grows and closed_under tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import DimensionMismatch
from .fields import Field


# ---------------------------------------------------------------------------
# vector helpers (vectors are tuples of scalars; sparse_vec and dense_vec
# convert to and from sparse dicts)

def vec_add(F: Field, x: tuple, y: tuple) -> tuple:
    return tuple(F.add(a, b) for a, b in zip(x, y))

def vec_sub(F: Field, x: tuple, y: tuple) -> tuple:
    return tuple(F.sub(a, b) for a, b in zip(x, y))

def vec_scale(F: Field, c, x: tuple) -> tuple:
    return tuple(F.mul(c, a) for a in x)

def basis_vec(F: Field, n: int, i: int) -> tuple:
    return tuple(F.one if j == i else F.zero for j in range(n))

def sparse_vec(F: Field, x) -> dict:
    """x without its zero entries; a sparse dict is returned as it is."""
    if isinstance(x, dict):
        return x
    return {i: v for i, v in enumerate(x) if not F.is_zero(v)}

def dense_vec(F: Field, n: int, x: dict) -> tuple:
    zero = F.zero
    return tuple(x.get(i, zero) for i in range(n))


# ---------------------------------------------------------------------------
# sparse kernel: {key: nonzero scalar} dicts, keys any hashable (indices,
# pairs, triples), so vectors, tensors and matrix rows share one code path

def axpy(F: Field, acc: dict, c, x: dict) -> dict:
    """acc += c * x in place, dropping entries that become zero; returns acc."""
    zero = F.zero
    for k, v in x.items():
        s = F.add(acc.get(k, zero), F.mul(c, v))
        if F.is_zero(s):
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


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

    @classmethod
    def zero(cls, F: Field, rows: int, cols: int) -> "SparseMatrix":
        return cls(F, rows, cols, {})

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

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(self.field.neg(self.field.one))

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
        if len(x) != self.cols:
            raise DimensionMismatch("vector length != cols")
        F = self.field
        out = [F.zero] * self.rows
        for (i, j), v in self.entries.items():
            if not F.is_zero(x[j]):
                out[i] = F.add(out[i], F.mul(v, x[j]))
        return tuple(out)

    # -- elimination-backed queries -------------------------------------------

    def rank(self) -> int:
        return RowSpace(self.field, self.cols, self._row_dicts()).dim

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right null space, rows in reduced echelon order."""
        F = self.field
        rs = RowSpace(F, self.cols, self._row_dicts())
        pivot_set = set(rs._pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [F.zero] * self.cols
            v[fc] = F.one
            for pc, row in zip(rs._pivots, rs._rows):
                coeff = row.get(fc, F.zero)
                if not F.is_zero(coeff):
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
        for pc, row in zip(rs._pivots, rs._rows):
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

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "SparseMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        F = self.field
        n = self.rows
        rows = self._row_dicts()
        for i in range(n):
            rows[i][n + i] = F.one
        rs = RowSpace(F, 2 * n, rows)
        if rs._pivots[:n] != list(range(n)):
            raise DimensionMismatch("matrix is singular")
        ent = {}
        for i, row in enumerate(rs._rows):
            for j, v in row.items():
                if j >= n:
                    ent[(i, j - n)] = v
        return SparseMatrix(F, n, n, ent)


# ---------------------------------------------------------------------------
# incremental row spaces: the one elimination and closure engine

class RowSpace:
    """A subspace of F^n kept in reduced echelon form, grown one vector at a time.

    Vectors may be given as tuples of length n or as sparse {index: scalar}
    dicts with indices in range(n); anything else raises DimensionMismatch.
    """

    def __init__(self, F: Field, ambient: int, vectors=()):
        self.field = F
        self.ambient = ambient
        self._rows: list[dict] = []   # sorted by pivot column, each fully reduced
        self._pivots: list[int] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec, coords: list | None = None) -> dict:
        """Remainder of vec after clearing every pivot; when coords is given,
        the multiple of each basis row taken out is appended to it."""
        F = self.field
        if isinstance(vec, dict):
            if vec and (min(vec) < 0 or max(vec) >= self.ambient):
                raise DimensionMismatch("vector index outside the ambient dimension")
            w = dict(vec)
        elif len(vec) != self.ambient:
            raise DimensionMismatch("vector length != ambient dimension")
        else:
            w = sparse_vec(F, vec)
        for pc, row in zip(self._pivots, self._rows):
            c = w.get(pc)
            if c is not None:
                axpy(F, w, F.neg(c), row)
            if coords is not None:
                coords.append(F.zero if c is None else c)
        return w

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def residual(self, vec) -> tuple:
        return dense_vec(self.field, self.ambient, self._reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; True if the dimension grew."""
        F = self.field
        w = self._reduce(vec)
        if not w:
            return False
        pc = min(w)
        inv = F.inv(w[pc])
        w = {j: F.mul(inv, v) for j, v in w.items()}
        for row in self._rows:
            c = row.get(pc)
            if c is not None:
                axpy(F, row, F.neg(c), w)
        at = 0
        while at < len(self._pivots) and self._pivots[at] < pc:
            at += 1
        self._rows.insert(at, w)
        self._pivots.insert(at, pc)
        return True

    def close(self, images) -> "RowSpace":
        """Grow to the smallest space holding images(v) for every v in it;
        returns self.  images maps a sparse vector to the vectors some
        family of linear maps sends it to, so closing the basis suffices."""
        # add reduces the kept rows in place, so the queue holds copies
        queue = [dict(row) for row in self._rows]
        while queue:
            for w in images(queue.pop()):
                if self.add(w):
                    queue.append(sparse_vec(self.field, w))
        return self

    def closed_under(self, images) -> bool:
        """Does the space hold images(v) for every v in it?"""
        return all(self.contains(w) for row in self._rows for w in images(row))

    def basis(self) -> list[tuple]:
        return [dense_vec(self.field, self.ambient, row) for row in self._rows]

    def pivots(self) -> list[int]:
        return list(self._pivots)

    def coords(self, vec) -> tuple | None:
        """Coordinates of vec in basis(); None if vec is outside."""
        out: list = []
        if self._reduce(vec, out):
            return None
        return tuple(out)


def span_basis(F: Field, vectors, ambient: int) -> list[tuple]:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    rs = RowSpace(F, ambient, vectors)
    return rs.basis()


def intersect_spans(F: Field, basis_u: list[tuple], basis_w: list[tuple], ambient: int) -> list[tuple]:
    """Canonical basis of span(U) intersect span(W)."""
    if not basis_u or not basis_w:
        return []
    cols = len(basis_u) + len(basis_w)
    ent = {}
    for a, u in enumerate(basis_u):
        for i, v in enumerate(u):
            if not F.is_zero(v):
                ent[(i, a)] = v
    for b, w in enumerate(basis_w):
        for i, v in enumerate(w):
            if not F.is_zero(v):
                ent[(i, len(basis_u) + b)] = F.neg(v)
    M = SparseMatrix(F, ambient, cols, ent)
    vecs = []
    for k in M.kernel_basis():
        acc = [F.zero] * ambient
        for a, u in enumerate(basis_u):
            if not F.is_zero(k[a]):
                for i, v in enumerate(u):
                    acc[i] = F.add(acc[i], F.mul(k[a], v))
        vecs.append(tuple(acc))
    return span_basis(F, vecs, ambient)
