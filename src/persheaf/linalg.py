"""Exact linear algebra over prime fields.

Dense matrices are numpy int64 arrays with entries reduced mod p; a
0 x n or n x 0 array is a legitimate zero map.  The (co)boundaries,
cohomology classes and induced maps of cohomology.py, the maps of
persistence modules and grids, and the graded (co)boundaries and the
block-diagonal bases of the diagram conversion in graded.py are
sparse instead: Columns stores
each column as its ascending row indices and nonzero values
(compressed sparse columns), in int64 arrays.

Field._column_echelon is the one column reduction, and it runs on
Columns: it walks columns left to right and pivots on the lowest
nonzero row, adding a multiple of the column that owns a row into a
later column whose low collides with it (the standard persistence
reduction of PHAT and Ripser), so equal inputs always produce equal
bases.  All the fixture matrices downstream depend on that
determinism.  The based (co)homology of cohomology.py runs it with
clearing on the stored columns, the sweep of persistence.py on each
map applied to a basis, and the graded engine on its (co)boundaries
in degree order; rank, kernel_basis, image_basis and solve reach it
through one conversion, Field.sparse, and the diagram conversion hands
it Columns directly, through Field._solve, the sparse core of solve.

_mulcols is the one product, Columns by Columns: every term is reduced
mod p before one segmented sum, so it is exact in int64 for every
p < 2^31 with no limb split.  The induced maps, the sweep, the
commutativity check of a grid, the diagram conversion, the graded
engine's check that consecutive maps compose to zero, and the diamond
and naturality checks of sheaves.py all multiply with it, and
Field.matmul is its dense face.  No product needs Python integers or
floating point.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = ["Field", "Columns", "matrix", "zeros", "identity"]


_WITNESSES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5 and 7.

    Exact for every n < 3,215,031,751, the least strong pseudoprime to
    all four bases (Pomerance, Selfridge and Wagstaff, Math. Comp.
    1980), so for every field order below 2^31.
    """
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def matrix(rows, p: int | None = None) -> np.ndarray:
    """Build an int64 matrix from nested lists, reduced mod p when given."""
    if isinstance(rows, np.ndarray):
        a = rows.astype(np.int64)
    else:
        rows = [list(r) for r in rows]
        if not rows:
            return np.zeros((0, 0), dtype=np.int64)
        a = np.array(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a rectangular list of rows")
    if p is not None:
        a = a % p
    return a


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _indptr(cols: np.ndarray, n: int) -> np.ndarray:
    """Column starts of entries sorted by column, cols their columns."""
    return np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])


class Columns:
    """A sparse matrix over F_p held by columns.

    Column j holds the rows indices[indptr[j]:indptr[j + 1]], ascending,
    with the nonzero values data[indptr[j]:indptr[j + 1]], all three
    int64 arrays; shape is (rows, cols).
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, shape, indptr, indices, data):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @classmethod
    def from_entries(cls, shape, rows, cols, values) -> "Columns":
        """Entry (rows[n], cols[n]) = values[n]; positions are distinct.

        Values are reduced mod p already; zeros are dropped.
        """
        keep = values != 0
        rows, cols, values = rows[keep], cols[keep], values[keep]
        order = np.lexsort((rows, cols))
        return cls(shape, _indptr(cols, shape[1]), rows[order], values[order])

    @classmethod
    def from_dense(cls, m: np.ndarray) -> "Columns":
        """The nonzero entries of m, a dense int64 matrix reduced mod p."""
        cols, rows = np.nonzero(m.T)
        return cls(m.shape, _indptr(cols, m.shape[1]), rows, m[rows, cols])

    @classmethod
    def units(cls, rows: int, at) -> "Columns":
        """The unit vectors of F^rows at the rows at, as columns in that order."""
        at = np.asarray(at, dtype=np.int64)
        return cls((rows, len(at)), np.arange(len(at) + 1), at, np.ones_like(at))

    def dense(self) -> np.ndarray:
        out = zeros(*self.shape)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        out[self.indices, cols] = self.data
        return out

    def take(self, cols) -> "Columns":
        """The listed columns, in the listed order."""
        cols = np.asarray(cols, dtype=np.int64)
        starts = self.indptr[cols]
        lengths = self.indptr[cols + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Columns(
            (self.shape[0], len(cols)), indptr, self.indices[at], self.data[at]
        )

    def __eq__(self, other):
        """Equal shape and equal stored arrays: the same matrix when both
        hold their rows ascending and no zeros, as every constructor here
        leaves them."""
        return (
            isinstance(other, Columns)
            and self.shape == other.shape
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("indptr", "indices", "data")
            )
        )

    def transposed(self) -> "Columns":
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return Columns.from_entries(self.shape[::-1], cols, self.indices, self.data)

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Columns":
        """The rows x cols block at (r0, c0): columns c0 .. c0 + cols - 1,
        with the entries of rows r0 .. r0 + rows - 1 moved up by r0.
        Rows past the last stay zero, so a block may widen."""
        lo, hi = self.indptr[c0], self.indptr[c0 + cols]
        at = self.indices[lo:hi]
        keep = (at >= r0) & (at < r0 + rows)
        kept = np.concatenate([[0], np.cumsum(keep)])
        return Columns(
            (rows, cols), kept[self.indptr[c0 : c0 + cols + 1] - lo], at[keep] - r0,
            self.data[lo:hi][keep],
        )


def _from_dicts(rows: int, columns: list) -> Columns:
    """Columns from one {row: value} dict per column."""
    counts = np.fromiter(map(len, columns), np.int64, len(columns))
    total = int(counts.sum())
    at = np.fromiter(chain.from_iterable(columns), np.int64, total)
    values = np.fromiter(chain.from_iterable(map(dict.values, columns)), np.int64, total)
    order = np.lexsort((at, np.repeat(np.arange(len(columns)), counts)))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return Columns((rows, len(columns)), indptr, at[order], values[order])


def _mulcols(a: Columns, b: Columns, p: int) -> Columns:
    """a @ b mod p for Columns with entries in [0, p), p < 2^31, exactly.

    Column k of a is gathered once for each nonzero b[k, j], each
    product is reduced mod p, and the terms of one (j, row) are added
    by one segmented sum.  Every term is below 2^31, so a sum of fewer
    than 2^32 of them stays below 2^63.  No dense matrix is formed.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    starts = a.indptr[b.indices]
    lengths = a.indptr[b.indices + 1] - starts
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    at = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
    rows = a.indices[at]
    cols = np.repeat(np.repeat(np.arange(b.shape[1]), np.diff(b.indptr)), lengths)
    terms = a.data[at] * np.repeat(b.data, lengths) % p
    order = np.lexsort((rows, cols))
    rows, cols, terms = rows[order], cols[order], terms[order]
    first = np.flatnonzero((np.diff(rows, prepend=-1) != 0) | (np.diff(cols, prepend=-1) != 0))
    sums = np.add.reduceat(terms, first) % p if len(first) else terms
    keep = sums != 0
    rows, cols = rows[first][keep], cols[first][keep]
    return Columns((a.shape[0], b.shape[1]), _indptr(cols, b.shape[1]), rows, sums[keep])


def _hstack(a: Columns, b: Columns) -> Columns:
    """[a | b]: b's columns after a's, both with a's rows."""
    return Columns(
        (a.shape[0], a.shape[1] + b.shape[1]),
        np.concatenate([a.indptr, a.indptr[-1] + b.indptr[1:]]),
        np.concatenate([a.indices, b.indices]),
        np.concatenate([a.data, b.data]),
    )


class Echelon(NamedTuple):
    """The outcome of one column reduction of a matrix m.

    pivots maps each pivot row to the column that owns it; its columns
    ascend.  zero lists the columns that reduce to zero, except the
    cleared ones.  reduced holds the reduced pivot columns in the order
    of pivots, each with its pivot as lowest entry.  When tracked, ops
    has one column per column of m and m @ ops is the reduced matrix:
    reduced's columns at the pivot columns, zero elsewhere.
    """

    pivots: dict
    zero: list
    reduced: Columns
    ops: Columns | None


def _addmul(col: dict, other: dict, coef: int, p: int):
    """col += coef * other mod p, in place, dropping the entries that vanish."""
    for r, v in other.items():
        x = (col.get(r, 0) + coef * v) % p
        if x:
            col[r] = x
        else:
            del col[r]


class Field:
    """The prime field F_p, 2 <= p < 2**31.

    Carries the elimination routines used everywhere else: rank, kernel
    and image bases and linear solving, all by the one column
    reduction.  No floating point is involved at any stage.
    """

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < 2 ** 31:
            raise ValueError(f"field order must satisfy 2 <= p < 2^31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"

    def normalize(self, m) -> np.ndarray:
        return np.asarray(m, dtype=np.int64) % self.p

    def matmul(self, a, b) -> np.ndarray:
        """a @ b mod p of two dense matrices, exact for every p < 2^31:
        the dense face of the one product, _mulcols."""
        return _mulcols(self.sparse(a), self.sparse(b), self.p).dense()

    def sparse(self, m) -> Columns:
        """A dense matrix as Columns, reduced mod p; Columns pass through."""
        if isinstance(m, Columns):
            return m
        return Columns.from_dense(self.normalize(m))

    def _column_echelon(self, m: Columns, track: bool = False, clear=()) -> Echelon:
        """Lowest-pivot column reduction of m; see Echelon for the result.

        A column's pivot is its lowest nonzero row; a later column whose
        low collides with an owned row gets a multiple of the owning
        column added until it finds a fresh low or empties out.  ops is
        None unless track; it is unipotent when clear is empty.

        clear holds columns to skip: they are zeroed in the result and in
        ops without any work, and own no pivot.  The caller clears only
        columns in the span of the others, so the pivot rows come out as
        they would without clear.  With lowest-row pivots, a pivot row of
        the previous map in a complex reduces to zero (the "twist" of
        Chen and Kerber), so clearing those leaves every other column as
        it was too; with the rows reversed (cohomology._step_bases) the
        owners and zero columns may differ.

        Each column is worked on as a {row: value} dict, so an addition
        costs the entries of the column added, not the height of m.
        """
        p = self.p
        rows, values = m.indices.tolist(), m.data.tolist()
        ptr = m.indptr.tolist()
        owner: dict[int, int] = {}
        done: dict[int, dict] = {}
        inverse: dict[int, int] = {}
        zero = []
        ops: list[dict] = []
        for j in range(m.shape[1]):
            if j in clear:
                if track:
                    ops.append({})
                continue
            col = dict(zip(rows[ptr[j] : ptr[j + 1]], values[ptr[j] : ptr[j + 1]]))
            op = {j: 1} if track else None
            while col:
                low = max(col)
                l = owner.get(low)
                if l is None:
                    owner[low] = j
                    done[low] = col
                    inverse[low] = pow(col[low], -1, p)
                    break
                coef = col[low] * inverse[low] % p
                _addmul(col, done[low], p - coef, p)
                if track:
                    _addmul(op, ops[l], p - coef, p)
            else:
                zero.append(j)
            if track:
                ops.append(op)
        reduced = _from_dicts(m.shape[0], list(done.values()))
        tracked = _from_dicts(m.shape[1], ops) if track else None
        return Echelon(owner, zero, reduced, tracked)

    def rank(self, m) -> int:
        return len(self._column_echelon(self.sparse(m)).pivots)

    def kernel_basis(self, m) -> np.ndarray:
        """Columns spanning ker(m); count is cols - rank, m @ result = 0."""
        e = self._column_echelon(self.sparse(m), track=True)
        return e.ops.take(e.zero).dense()

    def image_basis(self, m) -> np.ndarray:
        """Columns spanning the column space of m, from the echelon form."""
        return self._column_echelon(self.sparse(m)).reduced.dense()

    def solve(self, a, b):
        """One solution x of a @ x = b per column of b, or None.

        Dense form of _solve: a 1-D b gives a 1-D x.
        """
        a = self.normalize(a)
        b = self.normalize(b)
        single = b.ndim == 1
        if single:
            b = b.reshape(-1, 1)
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        x = self._solve(self.sparse(a), self.sparse(b))
        if x is None:
            return None
        x = x.dense()
        return x[:, 0] if single else x

    def _solve(self, a: Columns, b: Columns) -> Columns | None:
        """One solution x of a @ x = b per column of b, or None.

        One tracked reduction of [a | b]: a column of b that owns a
        pivot is outside the column space of a.  Otherwise every column
        of b reduces to zero against the pivot columns of a alone, so
        [a | b] @ ops = 0 gives x = -ops[:n, n:], which is zero outside
        the columns of a independent of those before them; the
        particular solution is deterministic.
        """
        n, m = a.shape[1], b.shape[1]
        e = self._column_echelon(_hstack(a, b), track=True)
        if any(j >= n for j in e.pivots.values()):
            return None
        x = e.ops.take(np.arange(n, n + m)).block(0, 0, n, m)
        x.data = self.p - x.data
        return x

    def express(self, b, span, modulo=None):
        """Write the columns of b as span @ c + modulo @ d.

        Returns (c, d), or None when b is outside the combined span.
        """
        span = self.normalize(span)
        if modulo is None:
            modulo = zeros(span.shape[0], 0)
        else:
            modulo = self.normalize(modulo)
        x = self.solve(np.hstack([span, modulo]), b)
        if x is None:
            return None
        k = span.shape[1]
        return x[:k], x[k:]
