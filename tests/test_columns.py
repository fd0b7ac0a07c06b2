"""The sparse column reduction against the dense one it replaced.

Field._column_echelon reduces sparse columns (linalg.Columns).
tests/densekernel.py keeps the dense reduction it replaced, with the
same arithmetic and pivot order, so the two must agree entry for
entry: pivots, zero columns, reduced columns and tracked ops, with and
without clearing, on random matrices and on the coboundaries of random
sheaves, at the smallest primes and the largest allowed one.  The
sparse product linalg._mulcols must agree with the dense one,
densekernel._mulmod, in the same way.
"""

import random

import numpy as np
import pytest

from persheaf import CochainComplex, Field, constant, zeros
from persheaf.cohomology import _flip
from persheaf.linalg import Columns, _mulcols

import densekernel
from densekernel import _mulmod
from builders import dense_map
from genrandom import random_complex, random_sheaf
from oracles import coboundary, rref_rank

PRIMES = [2, 3, 2**31 - 1]


def random_matrix(rng, p, rows, cols):
    """Sparse-ish columns: zeros, repeats, multiples and sums of earlier ones."""
    m = zeros(rows, cols)
    for j in range(cols):
        kind = rng.integers(5)
        if kind == 0 or j == 0:
            nnz = int(rng.integers(0, rows + 1))
            at = rng.choice(rows, size=nnz, replace=False)
            m[at, j] = rng.integers(1, p, size=nnz)
        elif kind == 1:
            m[:, j] = m[:, rng.integers(j)] * int(rng.integers(1, p)) % p
        elif kind == 2:
            a, b = rng.integers(j, size=2)
            m[:, j] = (m[:, a] + int(rng.integers(p)) * m[:, b]) % p
        elif kind == 3:
            m[:, j] = rng.integers(0, p, size=rows)
    return m


def cases(p, seed):
    """Random matrices, empty shapes and simplicial coboundaries."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        yield random_matrix(rng, p, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
    for n in (0, 1, 4):
        yield zeros(0, n)
        yield zeros(n, 0)
    pyrng = random.Random(seed)
    for _ in range(6):
        x = random_complex(pyrng, Field(p), 30)
        vs = [s.vertices for s in x.simplices]
        for k in range(x.dim):
            yield coboundary(vs, k) % p


def check_against_dense(field, m, clear=()):
    """The sparse reduction of m equals the dense one, and m @ ops = reduced."""
    p = field.p
    want_r, want_ops, want_piv = densekernel.column_echelon(p, m, True, clear)
    found = field._column_echelon(field.sparse(m), track=True, clear=clear)
    assert list(found.pivots.items()) == list(want_piv.items())
    got_r, got_ops, _ = densekernel.sparse_echelon(field, m, True, clear)
    assert np.array_equal(got_r, want_r)
    assert np.array_equal(got_ops, want_ops)
    assert found.ops.shape == (m.shape[1], m.shape[1])
    assert found.zero == [
        j for j in range(m.shape[1]) if j not in clear and not want_r[:, j].any()
    ]
    exact = (m.astype(object) @ got_ops.astype(object)) % p
    assert np.array_equal(exact.astype(np.int64), got_r)
    assert len(found.pivots) == rref_rank(m, p)
    reduced = found.reduced
    assert reduced.shape == (m.shape[0], len(found.pivots))
    for t, low in enumerate(found.pivots):
        rows = reduced.indices[reduced.indptr[t] : reduced.indptr[t + 1]]
        assert rows.tolist() == sorted(rows.tolist()) and rows[-1] == low
    untracked = field._column_echelon(field.sparse(m), clear=clear)
    assert untracked.ops is None
    assert untracked.pivots == found.pivots and untracked.zero == found.zero
    return found


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_reduction_matches_the_dense_kernel(p):
    field = Field(p)
    for m in cases(p, 40 + p % 1000):
        found = check_against_dense(field, m)
        if not m.shape[0]:
            assert found.zero == list(range(m.shape[1]))
            assert np.array_equal(found.ops.dense(), np.eye(m.shape[1], dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
def test_clearing_invariants(p):
    """Clearing the previous map's pivot rows changes nothing but them."""
    field = Field(p)
    rng = random.Random(50 + p % 1000)
    for _ in range(15):
        x = random_complex(rng, field, 30)
        for sheaf in (constant(x, 1), random_sheaf(rng, x)):
            cc = CochainComplex(sheaf)
            for k in range(x.dim):
                m = dense_map(cc, k)
                clear = field._column_echelon(field.sparse(dense_map(cc, k - 1))).pivots
                full = check_against_dense(field, m)
                cleared = check_against_dense(field, m, clear)
                assert cleared.pivots == full.pivots
                assert set(cleared.zero) == set(full.zero) - set(clear)
                ops = cleared.ops
                assert all(ops.indptr[j] == ops.indptr[j + 1] for j in clear)
                kept = [j for j in range(m.shape[1]) if j not in clear]
                assert np.array_equal(
                    ops.take(kept).dense(), full.ops.take(kept).dense()
                )
                assert not set(clear) & set(cleared.pivots.values())


@pytest.mark.parametrize("p", PRIMES)
def test_columns_round_trip_and_slice(p):
    field = Field(p)
    rng = np.random.default_rng(60 + p % 1000)
    for m in cases(p, 60 + p % 1000):
        cols = field.sparse(m)
        assert cols.shape == m.shape and cols.indptr[-1] == np.count_nonzero(m)
        assert np.array_equal(cols.dense(), m)
        r0 = int(rng.integers(0, m.shape[0] + 1))
        c0 = int(rng.integers(0, m.shape[1] + 1))
        # rows may run past the last, which stay zero
        r = int(rng.integers(0, m.shape[0] - r0 + 3))
        c = int(rng.integers(0, m.shape[1] - c0 + 1))
        want = np.zeros((r, c), dtype=np.int64)
        inside = min(r, m.shape[0] - r0)
        want[:inside] = m[r0 : r0 + inside, c0 : c0 + c]
        got = cols.block(r0, c0, r, c)
        assert got.shape == (r, c)
        assert np.array_equal(got.dense(), want)
        assert got == Columns.from_dense(want)
        picked = rng.permutation(m.shape[1])[: int(rng.integers(0, m.shape[1] + 1))]
        assert np.array_equal(cols.take(picked).dense(), m[:, picked])
        # rows reversed, each column's entries still ascending
        assert _flip(cols) == Columns.from_dense(m[::-1])


@pytest.mark.parametrize("p", PRIMES)
def test_step_maps_are_the_dense_leading_blocks(p):
    """A step's coboundary is the leading block of the whole one; cut
    with Columns.block it matches the dense cut and reduces the same."""
    field = Field(p)
    rng = random.Random(70 + p % 1000)
    for _ in range(10):
        x = random_complex(rng, field, 30, min_steps=2)
        cc = CochainComplex(random_sheaf(rng, x))
        for i in range(x.steps):
            for k in range(-1, x.dim + 1):
                rows, cols = cc.dim(k + 1, i), cc.dim(k, i)
                block = dense_map(cc, k)[:rows, :cols]
                assert np.array_equal(cc._map(k).block(0, 0, rows, cols).dense(), block)
                if k in cc._maps:
                    check_against_dense(field, block)


def product_cases(field, rng):
    """Pairs (a, b) with a.shape[1] == b.shape[0]."""
    p = field.p
    for r, k, c in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 4, 0), (2, 0, 0)]:
        yield random_matrix(rng, p, r, k), random_matrix(rng, p, k, c)
    for _ in range(40):
        r, k, c = (int(n) for n in rng.integers(1, 9, size=3))
        a = random_matrix(rng, p, r, k)
        yield a, random_matrix(rng, p, k, c)
        # b's columns share their inner indices, so terms meet in one entry
        yield a, np.repeat(rng.integers(0, p, size=(k, 1)), c, axis=1)
        # all-zero products: a kernel basis, and disjoint inner supports
        yield a, field.kernel_basis(a)
        half = zeros(r, k)
        half[:, : k // 2] = a[:, : k // 2]
        other = random_matrix(rng, p, k, c)
        other[: k // 2] = 0
        yield half, other


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_product_matches_the_dense_one(p):
    field = Field(p)
    rng = np.random.default_rng(80 + p % 1000)
    zero_products = 0
    for a, b in product_cases(field, rng):
        got = _mulcols(field.sparse(a), field.sparse(b), p)
        want = _mulmod(a, b, p)
        assert got.shape == want.shape
        assert np.array_equal(got.dense(), want)
        # canonical: no stored zeros, rows ascending within each column
        canonical = Columns.from_dense(want)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(canonical, name))
        zero_products += want.size > 0 and not want.any()
    assert zero_products >= 40
    with pytest.raises(ValueError, match="cannot multiply"):
        _mulcols(field.sparse(zeros(2, 3)), field.sparse(zeros(2, 3)), p)


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_flip_reverses_the_rows_and_keeps_each_column_ascending(p):
    """_flip reads the entries backward instead of sorting them; on random
    Columns, with empty columns and empty shapes, it is the dense row
    reversal, every column strictly ascending."""
    field = Field(p)
    rng = np.random.default_rng(90 + p % 1000)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [tuple(int(n) for n in rng.integers(1, 15, size=2)) for _ in range(60)]
    empty_columns = 0
    for rows, cols in shapes:
        m = random_matrix(rng, p, rows, cols) if rows and cols else zeros(rows, cols)
        m[:, rng.random(cols) < 0.3] = 0
        empty_columns += int((~m.any(axis=0)).sum())
        flipped = _flip(field.sparse(m))
        assert flipped.shape == m.shape
        assert np.array_equal(flipped.dense(), m[::-1])
        assert flipped.indptr.tolist() == field.sparse(m[::-1]).indptr.tolist()
        for j in range(cols):
            column = flipped.indices[flipped.indptr[j] : flipped.indptr[j + 1]]
            assert (np.diff(column) > 0).all()
        for name in ("indptr", "indices", "data"):
            assert getattr(flipped, name).dtype == np.int64
    assert empty_columns >= 20
