"""Exact linear algebra over prime fields.

Matrices are dense numpy int64 arrays with entries reduced mod p; a
0 x n or n x 0 array is a legitimate zero map.  Every elimination walks
columns left to right and pivots on the lowest nonzero row (ties broken
by column order), so equal inputs always produce equal bases.  All the
fixture matrices downstream depend on that determinism.

Field._column_echelon is the one column reduction: rank, kernel_basis
and image_basis read it, the based (co)homology of cohomology.py runs
it with clearing, and the graded engine runs it on degree-sorted maps.

_mulmod is the one product: Field.matmul and the stacked diamond check
of sheaves.py call it, so the int64 overflow bound lives there alone.
While inner * (p-1)^2 < 2^63 a product is one int64 matmul and one
reduction.  Past that bound (every inner size from 2 up at p = 2^31-1)
the right operand is split into 16-bit limbs, b = hi * 2^16 + lo, and
a @ b = ((a @ hi mod p) * 2^16 + a @ lo) mod p, with the inner
dimension cut into chunks short enough that no partial sum reaches
2^63, after the delayed-reduction products of Dumas, Giorgi and Pernet
("Dense linear algebra over word-size prime fields: the FFLAS and
FFPACK packages", ACM TOMS 2008).  No product needs Python integers
or floating point.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Field", "matrix", "zeros", "identity"]


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


class Field:
    """The prime field F_p, 2 <= p < 2**31.

    Carries the elimination routines used everywhere else: rank, kernel
    and image bases via column reduction, and linear solving via row
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

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def matmul(self, a, b) -> np.ndarray:
        """a @ b mod p, exact in int64 for every p < 2^31.

        One int64 product while inner * (p-1)^2 < 2^63; past that, the
        16-bit limb split of _mulmod, two int64 products per chunk of
        at most 2^16 inner indices.
        """
        a = self.normalize(a)
        b = self.normalize(b)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
        return _mulmod(a, b, self.p)

    def _column_echelon(self, m, track: bool = False, clear=()):
        """Column reduction; returns (reduced, ops, pivot_row_to_column).

        m @ ops = reduced, with ops None unless track.  A column's pivot
        is its lowest nonzero row; a later column whose low collides
        with an owned row gets a multiple of the owning column added
        until it finds a fresh low or empties out.

        clear holds columns the caller knows reduce to zero, such as the
        pivot rows of the previous map in a complex (the "twist" of
        Chen and Kerber).  They are zeroed in reduced and in ops without
        any work, and own no pivot; every other column, and the pivots,
        come out as they would without clear.  ops is unipotent when
        clear is empty.

        The working matrix and the ops are stored transposed, so each
        column is one contiguous row that is updated in place; reduced
        and ops are returned as transposed views of that storage.
        """
        p = self.p
        rt = np.remainder(np.asarray(m, dtype=np.int64).T, p, order="C")
        n_cols = rt.shape[0]
        vt = identity(n_cols) if track else None
        owner: dict[int, int] = {}
        inverse: dict[int, int] = {}
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
                    inverse[low] = self.inv(col[low])
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

    def rank(self, m) -> int:
        _, _, owner = self._column_echelon(m)
        return len(owner)

    def kernel_basis(self, m) -> np.ndarray:
        """Columns spanning ker(m); count is cols - rank, m @ result = 0."""
        r, v, _ = self._column_echelon(m, track=True)
        return v[:, ~r.any(axis=0)]

    def image_basis(self, m) -> np.ndarray:
        """Columns spanning the column space of m, from the echelon form."""
        r, _, _ = self._column_echelon(m)
        return r[:, r.any(axis=0)]

    def solve(self, a, b):
        """One solution x of a @ x = b per column of b, or None.

        Free variables are set to 0; pivots are taken top to bottom,
        left to right, so the particular solution is deterministic.
        """
        p = self.p
        a = self.normalize(a)
        b = self.normalize(b)
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
            aug[prow] = (aug[prow] * self.inv(aug[prow, c])) % p
            # clear column c in every other row at once; the pivot row
            # is zero left of c, so only columns c.. change
            hit = aug[:, c].nonzero()[0]
            hit = hit[hit != prow]
            if hit.size:
                aug[hit, c:] = (
                    aug[hit, c:] - np.outer(aug[hit, c], aug[prow, c:])
                ) % p
            pivots.append((prow, c))
            prow += 1
        if prow < rows and np.any(aug[prow:, cols:]):
            return None
        x = zeros(cols, b.shape[1])
        for r, c in pivots:
            x[c] = aug[r, cols:]
        return x[:, 0] if single else x

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

    def is_invertible(self, m) -> bool:
        m = self.normalize(m)
        return m.shape[0] == m.shape[1] and self.rank(m) == m.shape[0]
