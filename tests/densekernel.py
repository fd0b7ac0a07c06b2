"""Dense reference for the sparse column reduction.

The package reduces sparse columns (linalg.Columns), each held as a
{row: value} dict while it is worked on.  The function here is the
dense reduction it replaced: the whole matrix and the tracked ops are
int64 arrays, stored transposed so each column is one contiguous row
updated in place.  The arithmetic and the pivot order are the same, so
the differential tests require the same pivots, ops and reduced
columns, entry for entry.
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
