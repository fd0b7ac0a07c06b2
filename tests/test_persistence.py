import random

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
from persheaf.persistence import _composite_ranks

from densekernel import _mulmod
from genrandom import random_interval_module
from oracles import rref_rank


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_rank_table_composes_without_identities(monkeypatch, m):
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
    want = decompose_by_ranks(module)
    products = []
    original = persistence._mulcols

    def counted(a, b, p):
        products.append((a, b))
        return original(a, b, p)

    monkeypatch.setattr(persistence, "_mulcols", counted)
    assert decompose_by_ranks(module) == want
    assert len(products) == (m - 1) * (m - 2) // 2
    for a, b in products:
        for operand in (a.dense(), b.dense()):
            n = operand.shape[0]
            assert not (operand.shape == (n, n) and (operand == identity(n)).all())
    # the ranks are those of the composites, checked against the oracle
    table = _composite_ranks(module)
    for a in range(m):
        comp = identity(dims[a])
        for b in range(a + 1, m):
            comp = _mulmod(maps[b - 1], comp, field.p)
            assert table[a][b] == rref_rank(comp, 3)
