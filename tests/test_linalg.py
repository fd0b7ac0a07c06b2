import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import persheaf
from persheaf import Field, identity, matrix, zeros
from persheaf.linalg import _is_prime

import densekernel
from densekernel import _mulmod
from oracles import rref_rank

PRIMES = [2, 5]


def small_matrix(p):
    return st.integers(0, 4).flatmap(
        lambda rows: st.integers(0, 4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ).map(lambda body: np.array(body, dtype=np.int64).reshape(rows, cols))
        )
    )


def test_matrix_normalizes_mod_p():
    m = matrix([[7, -1], [5, 2]], 5)
    assert m.tolist() == [[2, 4], [0, 2]]
    assert m.dtype == np.int64


def test_field_rejects_composites():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_empty_shapes():
    f = Field(2)
    assert f.rank(zeros(0, 3)) == 0
    assert f.rank(zeros(3, 0)) == 0
    assert f.kernel_basis(zeros(0, 2)).shape == (2, 2)
    assert f.matmul(zeros(2, 0), zeros(0, 3)).shape == (2, 3)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_rank_matches_row_reduction(p, data):
    m = data.draw(small_matrix(p))
    f = Field(p)
    assert f.rank(m) == rref_rank(m, p)
    assert f.rank(m) == f.rank(m.T)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_kernel_and_image(p, data):
    m = data.draw(small_matrix(p))
    f = Field(p)
    ker = f.kernel_basis(m)
    img = f.image_basis(m)
    assert ker.shape[1] == m.shape[1] - f.rank(m)
    assert img.shape[1] == f.rank(m)
    assert not _mulmod(m, ker, p).any()
    assert f.rank(ker) == ker.shape[1]
    # image columns really are combinations of columns of m
    assert f.rank(np.hstack([m, img])) == f.rank(m)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_solve_recovers_consistent_systems(p, data):
    a = data.draw(small_matrix(p))
    f = Field(p)
    x = data.draw(
        st.lists(st.integers(0, p - 1), min_size=a.shape[1], max_size=a.shape[1])
    )
    x = np.array(x, dtype=np.int64)
    b = _mulmod(a, x.reshape(-1, 1), p)
    got = f.solve(a, b)
    assert got is not None
    assert np.array_equal(_mulmod(a, got, p), b)


def test_solve_reports_inconsistency():
    f = Field(2)
    assert f.solve(matrix([[1], [1]], 2), matrix([[1], [0]], 2)) is None


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_invertibility(p, data):
    m = data.draw(small_matrix(p))
    f = Field(p)
    if m.shape[0] == m.shape[1] == f.rank(m):
        inv = f.solve(m, identity(m.shape[0]))
        assert np.array_equal(_mulmod(m, inv, p), identity(m.shape[0]))


def _random_system(rng, p):
    """A seeded a, b: low rank, repeated columns, consistent or not."""
    rows, cols, width = rng.integers(0, 6, size=3)
    rank = rng.integers(0, min(rows, cols) + 1)
    left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
    a = _mulmod(left, right, p)
    if cols > 1 and rng.random() < 0.3:
        a[:, rng.integers(cols)] = a[:, rng.integers(cols)]
    if rng.random() < 0.5:
        x = rng.integers(0, p, size=(cols, width), dtype=np.int64)
        b = _mulmod(a, x, p)
    else:
        b = rng.integers(0, p, size=(rows, width), dtype=np.int64)
    if width and rng.random() < 0.3:
        b = b[:, 0]
    return a, b


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_solve_matches_gauss_jordan(p):
    """Field.solve is one column reduction; the row-swapping reference
    must give the same x, entry for entry, and None on the same systems."""
    f = Field(p)
    rng = np.random.default_rng(p)
    outcomes = set()
    for _ in range(400):
        a, b = _random_system(rng, p)
        want = densekernel.solve(p, a, b)
        got = f.solve(a, b)
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and np.array_equal(got, want)
        outcomes.add((want is None, b.ndim, min(a.shape) == 0))
    assert len(outcomes) == 8  # solvable or not, 1-D b or not, empty a or not


def test_express_splits_off_modulo_part():
    f = Field(5)
    span = matrix([[1, 0], [0, 1], [0, 0]], 5)
    modulo = matrix([[0], [0], [1]], 5)
    b = matrix([[2], [3], [4]], 5)
    c, d = f.express(b, span, modulo)
    assert c.ravel().tolist() == [2, 3]
    assert d.ravel().tolist() == [4]
    assert f.express(b, span) is None


def test_large_prime_matmul():
    p = 10007
    f = Field(p)
    a = matrix([[p - 1, p - 2], [3, 4]], p)
    b = matrix([[p - 1], [p - 3]], p)
    want = np.array([[(p - 1) * (p - 1) + (p - 2) * (p - 3)], [3 * (p - 1) + 4 * (p - 3)]]) % p
    assert np.array_equal(f.matmul(a, b), want)


def test_solve_at_the_largest_prime():
    p = 2 ** 31 - 1
    f = Field(p)
    rng = np.random.default_rng(3)
    for rows, cols in [(4, 6), (6, 4), (5, 5)]:
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        a[:, -1] = (a[:, 0] + 3 * a[:, 1]) % p
        x = rng.integers(0, p, size=(cols, 2), dtype=np.int64)
        b = _mulmod(a, x, p)
        got = f.solve(a, b)
        assert got is not None
        assert np.array_equal(_mulmod(a, got, p), b)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_miller_rabin_matches_trial_division_below_200000():
    got = [n for n in range(200_000) if _is_prime(n)]
    want = [n for n in range(200_000) if trial_division_is_prime(n)]
    assert got == want


def test_miller_rabin_matches_trial_division_below_2_31():
    rng = np.random.default_rng(2027)
    sample = rng.integers(200_000, 2**31, size=150).tolist()
    sample += [2**31 - 1, 2**31 - 3, 65521, 65537, 46337 * 46337, 46337 * 46349]
    assert [_is_prime(n) for n in sample] == [trial_division_is_prime(n) for n in sample]


@pytest.mark.parametrize("n", [2047, 1373653, 25326001])
def test_miller_rabin_refuses_strong_pseudoprimes(n):
    assert not trial_division_is_prime(n)
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="prime"):
        Field(n)


def object_mulmod(a, b, p):
    """a @ b mod p in Python integers: the reference the kernel must match."""
    prod = np.matmul(a.astype(object), b.astype(object)) % p
    return prod.astype(np.int64)


KERNEL_PRIMES = [2, 3, 65521, 2**31 - 1]


def _inner_sizes(p):
    """Inner sizes around the direct bound and around the 2^16 chunk."""
    direct = (2**63 - 1) // (p - 1) ** 2
    sizes = {0, 1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3}
    sizes |= {n for n in (direct, direct + 1) if n <= 2**17 + 3}
    return sorted(sizes)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_mulmod_matches_the_object_reference(p):
    rng = np.random.default_rng(p % 10007)
    for inner in _inner_sizes(p):
        rows, cols = (2, 3) if inner < 2**12 else (1, 2)
        for a, b in [
            (np.full((rows, inner), p - 1), np.full((inner, cols), p - 1)),
            (rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))),
        ]:
            want = object_mulmod(a, b, p)
            assert np.array_equal(_mulmod(a, b, p), want), (p, inner)
            assert np.array_equal(Field(p).matmul(a, b), want), (p, inner)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_mulmod_on_stacks_and_empty_shapes(p):
    rng = np.random.default_rng(7 + p % 101)
    shapes = [
        ((5, 2, 3), (5, 3, 4)),
        ((4, 1, 6), (4, 6, 1)),
        ((3, 3, 3), (3, 3, 3)),
        ((0, 2, 3), (0, 3, 2)),
        ((4, 2, 0), (4, 0, 3)),
        ((4, 0, 3), (4, 3, 2)),
        ((0, 3), (3, 2)),
        ((2, 0), (0, 3)),
        ((2, 3), (3, 0)),
    ]
    for sa, sb in shapes:
        for a, b in [
            (np.full(sa, p - 1), np.full(sb, p - 1)),
            (rng.integers(0, p, sa), rng.integers(0, p, sb)),
        ]:
            got = _mulmod(a, b, p)
            assert got.dtype == np.int64 and got.shape == np.matmul(a, b).shape
            assert np.array_equal(got, object_mulmod(a, b, p)), (p, sa, sb)


def test_src_has_no_object_dtype_products():
    src = pathlib.Path(persheaf.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "astype(object)" not in text, path.name
        assert "dtype=object" not in text, path.name
