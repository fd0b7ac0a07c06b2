"""Dense references for the sparse column reduction and the solve.

The package reduces sparse columns (linalg.Columns), each held as a
{row: value} dict while it is worked on.  column_echelon is the dense
reduction it replaced: the whole matrix and the tracked ops are int64
arrays, stored transposed so each column is one contiguous row updated
in place.  The arithmetic and the pivot order are the same, so the
differential tests require the same pivots, ops and reduced columns,
entry for entry.

solve is the Gauss-Jordan row reduction that Field.solve replaced with
one tracked column reduction.  Both pivot on the columns independent of
those before them and set every other unknown to 0, so they return the
same solution, entry for entry, and None on the same systems.

_mulmod is the dense product over F_p that the package dropped for its
one sparse product (linalg._mulcols), kept as the reference the test
walkers and generators multiply with, so none of them checks the
product with itself.  While inner * (p-1)^2 < 2^63 a product is one
int64 matmul and one reduction.  Past that bound (every inner size
from 2 up at p = 2^31-1) the right operand is split into 16-bit limbs,
b = hi * 2^16 + lo, and a @ b = ((a @ hi mod p) * 2^16 + a @ lo) mod p,
with the inner dimension cut into chunks short enough that no partial
sum reaches 2^63, after the delayed-reduction products of Dumas,
Giorgi and Pernet ("Dense linear algebra over word-size prime fields:
the FFLAS and FFPACK packages", ACM TOMS 2008).

coords and composite_ranks are the dense class arithmetic that the
sparse QuotientBasis.coords and persistence._composite_ranks replaced:
a back-substitution that updates every vector at once with row
operations, and a rank table of dense composites.  Coordinates in a
fixed basis are unique, so the tests require equal coordinates, entry
for entry, and equal rank tables.  Nothing here calls the package.
"""

import numpy as np


def column_echelon(p, m, track=False, clear=()):
    """Column reduction; returns (reduced, ops, pivot_row_to_column).

    m @ ops = reduced, with ops None unless track.  A column's pivot is
    its lowest nonzero row; a later column whose low collides with an
    owned row gets a multiple of the owning column added until it finds
    a fresh low or empties out.  The columns in clear are zeroed in
    reduced and in ops without any work, and own no pivot.
    """
    rt = np.remainder(np.asarray(m, dtype=np.int64).T, p, order="C")
    n_cols = rt.shape[0]
    vt = np.eye(n_cols, dtype=np.int64) if track else None
    owner = {}
    inverse = {}
    for j in range(n_cols):
        if j in clear:
            rt[j] = 0
            if track:
                vt[j] = 0
            continue
        col = rt[j]
        end = col.size
        while True:
            nz = col[:end].nonzero()[0]
            if nz.size == 0:
                break
            low = int(nz[-1])
            l = owner.get(low)
            if l is None:
                owner[low] = j
                inverse[low] = pow(int(col[low]), p - 2, p)
                break
            # entries stay below p < 2^31, so coef * row < 2^62
            coef = (int(col[low]) * inverse[low]) % p
            col -= coef * rt[l]
            col %= p
            if track:
                vt[j] -= coef * vt[l]
                vt[j] %= p
            end = low
    return rt.T, (vt.T if track else None), owner


def sparse_echelon(field, m, track=False, clear=()):
    """The package's reduction of dense m, in column_echelon's form.

    The reduced matrix holds the reduced pivot columns at their
    columns and zeros elsewhere; ops is dense, or None unless track.
    """
    found = field._column_echelon(field.sparse(m), track=track, clear=clear)
    reduced = np.zeros(m.shape, dtype=np.int64)
    reduced[:, list(found.pivots.values())] = found.reduced.dense()
    ops = found.ops.dense() if track else None
    return reduced, ops, found.pivots


def solve(p, a, b):
    """One solution x of a @ x = b mod p per column of b, or None.

    Gauss-Jordan on [a | b]: pivots are taken top to bottom, left to
    right, rows are swapped into place, and free unknowns are 0.  A 1-D
    b gives a 1-D x.
    """
    a = np.remainder(np.asarray(a, dtype=np.int64), p)
    b = np.remainder(np.asarray(b, dtype=np.int64), p)
    single = b.ndim == 1
    if single:
        b = b.reshape(-1, 1)
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    aug = np.hstack([a, b])
    pivots = []
    prow = 0
    for c in range(cols):
        if prow >= rows:
            break
        nz = aug[prow:, c].nonzero()[0]
        if nz.size == 0:
            continue
        r0 = prow + int(nz[0])
        if r0 != prow:
            aug[[prow, r0]] = aug[[r0, prow]]
        aug[prow] = (aug[prow] * pow(int(aug[prow, c]), p - 2, p)) % p
        # clear column c in every other row at once; the pivot row is
        # zero left of c, so only columns c.. change
        hit = aug[:, c].nonzero()[0]
        hit = hit[hit != prow]
        if hit.size:
            aug[hit, c:] = (aug[hit, c:] - np.outer(aug[hit, c], aug[prow, c:])) % p
        pivots.append((prow, c))
        prow += 1
    if prow < rows and np.any(aug[prow:, cols:]):
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for r, c in pivots:
        x[c] = aug[r, cols:]
    return x[:, 0] if single else x


def is_invertible(p, m):
    """Whether m is square and invertible mod p, by solving m @ x = 1."""
    m = np.asarray(m)
    n = m.shape[0]
    return m.shape[1] == n and solve(p, m, np.eye(n, dtype=np.int64)) is not None


_LIMB = 16


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 operands in [0, p), p < 2^31, exactly.

    Takes what np.matmul takes: two matrices, or two stacks of them.
    Past the direct bound, b is split into limbs hi < 2^15 and
    lo < 2^16, and each chunk of at most 2^16 inner indices keeps both
    partial sums below 2^16 * 2^31 * 2^16 = 2^63.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < 2 ** 63:
        return np.matmul(a, b) % p
    hi, lo = b >> _LIMB, b & ((1 << _LIMB) - 1)
    out = 0
    for start in range(0, inner, 1 << _LIMB):
        cut = slice(start, start + (1 << _LIMB))
        high = np.matmul(a[..., cut], hi[..., cut, :]) % p
        low = np.matmul(a[..., cut], lo[..., cut, :]) % p
        # high << 16 < 2^47, so this sum stays far below 2^63
        out = (out + (high << _LIMB) + low) % p
    return out


def matmul(p, a, b):
    """a @ b mod p, exactly, through Python integers."""
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64).reshape(
        a.shape[0], b.shape[1]
    )


def coords(p, cycles, killed, vectors, killed_first=None):
    """Coordinates of the classes of vectors' columns in the basis cycles,
    modulo killed and killed_first, by dense back-substitution.

    cycles, killed and killed_first (none if not given) are dense.
    Every column leads by its lowest nonzero row, except that a column
    of killed_first leads by its earliest, where no cycle has an entry;
    no two columns share a lead.  The columns of killed_first are taken
    first, earliest lead first, then the rest, lowest lead first; each
    clears its lead row from every vector at once.  Whatever is left is
    outside the span: ValueError.
    """
    if killed_first is None:
        killed_first = np.zeros((cycles.shape[0], 0), dtype=np.int64)
    first, basis = [], []
    for m, at, is_cycle in ((cycles, -1, True), (killed, -1, False), (killed_first, 0, False)):
        for t in range(m.shape[1]):
            rows = np.flatnonzero(m[:, t])
            values = m[rows, t]
            inv = pow(int(values[at]), p - 2, p)
            entry = (int(rows[at]), rows, values[:, None], inv, t if is_cycle else -1)
            (first if at == 0 else basis).append(entry)
    first.sort(key=lambda entry: entry[0])
    basis.sort(key=lambda entry: -entry[0])
    v = np.remainder(np.asarray(vectors, dtype=np.int64), p)
    out = np.zeros((cycles.shape[1], v.shape[1]), dtype=np.int64)
    for lead, rows, values, inv, slot in first + basis:
        row = v[lead]
        if not row.any():
            continue
        # entries stay below p < 2^31, so values * coef < 2^62
        coef = row * inv % p
        v[rows] = (v[rows] - values * coef) % p
        if slot >= 0:
            out[slot] = coef
    if v.any():
        raise ValueError("columns do not represent classes in this basis")
    return out


def composite_ranks(p, dims, maps):
    """r[a][b] = rank of maps[b-1] @ ... @ maps[a] mod p, r[a][a] = dims[a].

    Each composite is a dense product of the whole maps, and each rank
    one dense column reduction of it.
    """
    m = len(dims)
    r = [[0] * m for _ in range(m)]
    for a in range(m):
        r[a][a] = dims[a]
        comp = None
        for b in range(a + 1, m):
            step = np.asarray(maps[b - 1], dtype=np.int64)
            comp = step if comp is None else matmul(p, step, comp)
            r[a][b] = len(column_echelon(p, comp)[2])
    return r
