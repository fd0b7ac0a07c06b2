import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from persheaf import (
    Barcode,
    CopersistenceModule,
    Field,
    PersistenceModule,
    barcodes_equal,
    decompose_by_ranks,
    decompose_copersistence,
    identity,
    matrix,
    reflect,
    zeros,
)

from persheaf import persistence

import densekernel
from densekernel import _mulmod
from genrandom import random_interval_module


def finite_barcodes(m):
    bar = st.integers(0, m - 1).flatmap(
        lambda a: st.integers(a, m - 1).map(lambda b: (a, b))
    )
    return st.lists(bar, max_size=6).map(Barcode)


def test_bars_are_canonically_sorted():
    bc = Barcode([(2, None), (0, 3), (2, 2), (0, None), (0, 1)])
    assert bc.bars == ((0, 1), (0, 3), (0, None), (2, 2), (2, None))
    assert len(bc) == 5
    assert Barcode(bc.bars) == bc


def test_bad_bars_are_rejected():
    with pytest.raises(ValueError):
        Barcode([(-1, 2)])
    with pytest.raises(ValueError):
        Barcode([(3, 1)])


def test_multiplicity_matters():
    assert barcodes_equal(Barcode([(1, 2), (1, 2)]), Barcode([(1, 2), (1, 2)]))
    assert not barcodes_equal(Barcode([(1, 2), (1, 2)]), Barcode([(1, 2)]))
    assert barcodes_equal(Barcode([(1, None)]), Barcode([(1, None)]))


def test_closed_rewrites_unbounded_ends():
    assert Barcode([(1, None), (0, 2)]).closed(4) == Barcode([(1, 3), (0, 2)])
    with pytest.raises(ValueError):
        Barcode([(5, None)]).closed(4)


def test_reflect_fixed_cases():
    assert reflect(Barcode([(0, 2)]), 3) == Barcode([(0, 2)])
    assert reflect(Barcode([(1, 2)]), 4) == Barcode([(1, 2)])
    assert reflect(Barcode([(0, 0), (0, 1)]), 3) == Barcode([(2, 2), (1, 2)])
    assert reflect(Barcode([(0, None)]), 3) == Barcode([(0, None)])
    assert reflect(Barcode([(2, None)]), 4) == Barcode([(0, 1)])
    with pytest.raises(ValueError):
        reflect(Barcode([(0, 4)]), 4)
    with pytest.raises(ValueError):
        reflect(Barcode([(4, None)]), 4)


@given(data=st.data())
def test_reflect_is_an_involution_on_finite_bars(data):
    m = data.draw(st.integers(1, 7))
    bc = data.draw(finite_barcodes(m))
    assert reflect(reflect(bc, m), m) == bc


def test_module_shape_validation():
    f = Field(2)
    with pytest.raises(ValueError):
        PersistenceModule(f, [], [])
    with pytest.raises(ValueError):
        PersistenceModule(f, [1, -1], [zeros(0, 1)])
    with pytest.raises(ValueError):
        PersistenceModule(f, [1, 2], [zeros(1, 1)])
    with pytest.raises(ValueError):
        CopersistenceModule(f, [1, 2], [zeros(2, 1)])


def test_transposed_runs_forward():
    f = Field(2)
    co = CopersistenceModule(f, [1, 2], [matrix([[1, 0]], 2)])
    fwd = co.transposed()
    assert isinstance(fwd, PersistenceModule)
    assert fwd.maps[0].shape == (2, 1)


def test_decomposition_round_trip():
    """Modules assembled from known bars come back exactly, in any basis."""
    rng = random.Random(55)
    for _ in range(40):
        field = Field(rng.choice([2, 5]))
        module, want = random_interval_module(rng, field, forward=True)
        assert decompose_by_ranks(module) == want


def test_copersistence_round_trip():
    rng = random.Random(56)
    for _ in range(40):
        field = Field(rng.choice([2, 5]))
        module, want = random_interval_module(rng, field, forward=False)
        assert decompose_copersistence(module) == want


def test_bars_conserve_pointwise_dimension():
    rng = random.Random(57)
    for _ in range(30):
        field = Field(rng.choice([2, 5]))
        module, _ = random_interval_module(rng, field, forward=True)
        bc = decompose_by_ranks(module)
        for i, d in enumerate(module.dims):
            alive = sum(
                1 for a, b in bc if a <= i and (b is None or i <= b)
            )
            assert alive == d


def test_single_index_module():
    f = Field(5)
    module = PersistenceModule(f, [3], [])
    assert decompose_by_ranks(module) == Barcode([(0, None)] * 3)


def random_map(rng, p, rows, cols):
    """A dense map rows x cols over F_p: zero, of full or lower rank, or
    random with some rows and columns cleared."""
    kind = rng.integers(4)
    if kind == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    if kind == 1:
        return a
    if kind == 2:
        inner = int(rng.integers(0, max(min(rows, cols), 1)))
        left = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
        right = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
        return _mulmod(left, right, p)
    a[:, rng.random(cols) < 0.4] = 0
    a[rng.random(rows) < 0.3] = 0
    return a


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
def test_sweep_matches_the_rank_formula(p):
    """Both decompositions against the dense inclusion-exclusion over
    composite ranks, on modules with zero spaces and zero, full-rank
    and low-rank maps, the module of length 1 among them."""
    rng = np.random.default_rng(3100 + p % 1009)
    field = Field(p)
    lengths = [1, 1] + [int(m) for m in rng.integers(1, 8, size=60)]
    for n, m in enumerate(lengths):
        dims = [int(d) for d in rng.integers(0, 6, size=m)]
        if n == 0:
            dims = [0]
        maps = [random_map(rng, p, dims[i + 1], dims[i]) for i in range(m - 1)]
        want = Barcode(densekernel.rank_formula_bars(p, dims, maps))
        assert decompose_by_ranks(PersistenceModule(field, dims, maps)) == want
        backward = CopersistenceModule(field, dims, [a.T.copy() for a in maps])
        assert decompose_copersistence(backward) == want


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_sweep_reduces_each_map_once(monkeypatch, m):
    """One reduction per map, one product per map after the first, and
    no identity among their operands."""
    rng = random.Random(40 + m)
    field = Field(3)
    dims = [rng.randint(2, 4) for _ in range(m)]
    maps = [
        matrix([[rng.randrange(3) for _ in range(dims[i])] for _ in range(dims[i + 1])], 3)
        for i in range(m - 1)
    ]
    for step in maps:
        step[0, -1] = 2  # off the diagonal, so no map is an identity
    module = PersistenceModule(field, dims, maps)
    reduced, products = [], []
    echelon, mulcols = Field._column_echelon, persistence._mulcols

    def counted_echelon(self, a, *args, **kwargs):
        reduced.append(a)
        return echelon(self, a, *args, **kwargs)

    def counted_mulcols(a, b, p):
        products.extend((a, b))
        return mulcols(a, b, p)

    monkeypatch.setattr(Field, "_column_echelon", counted_echelon)
    monkeypatch.setattr(persistence, "_mulcols", counted_mulcols)
    bc = decompose_by_ranks(module)
    assert len(reduced) == max(m - 1, 0)
    assert m == 1 or reduced[0] is module.maps[0]
    assert len(products) == 2 * max(m - 2, 0)
    for operand in reduced + products:
        a = operand.dense()
        n = a.shape[0]
        assert not (a.shape == (n, n) and (a == identity(n)).all())
    assert bc == Barcode(densekernel.rank_formula_bars(3, dims, maps))
