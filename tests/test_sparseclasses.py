"""Sparse classes against the dense class arithmetic they replaced.

Cohomology classes, the maps between them and the composites of the
rank table are held as linalg.Columns.  Each is compared here, entry
for entry, with the dense route of tests/densekernel.py: dense
representatives, dense cochain maps and products, the dense
back-substitution and the dense rank table, at small primes and at
the largest one.
"""

import io
import random
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from persheaf import (
    ChainComplex,
    CochainComplex,
    Field,
    PersistenceModule,
    check_commutative,
    cohomology_basis,
    constant,
    dualize,
    grid_by_degree,
    vietoris_rips,
)
from persheaf.cli import main
from persheaf.cohomology import _induced, _step_map
from persheaf.persistence import _composite_ranks

import densekernel as dense
from genrandom import random_complex, random_monomorphic_diagram, random_sheaf

PRIMES = [2, 3, 65521, 2**31 - 1]


def dense_coords(basis, vectors):
    p = basis.space.field.p
    return dense.coords(p, basis.cycles.dense(), basis.killed.dense(), vectors)


def dense_cochain_map(phi, src, tgt, k):
    """The degree-k cochain map of phi, one dense block per simplex."""
    m = np.zeros((tgt.dim(k), src.dim(k)), dtype=np.int64)
    for s in phi.complex.simplices_of_dim(k):
        comp = phi.component(s.id)
        ro, co = tgt.offset(k, s.id), src.offset(k, s.id)
        m[ro : ro + comp.shape[0], co : co + comp.shape[1]] = comp
    return m


def bases_of_every_degree(p, trials=12):
    """(space, basis) for H^k of random sheaves, k from 0 to one past the
    top, so dim-0 bases and zero-row spaces come along."""
    rng = random.Random(4100 + p % 1009)
    field = Field(p)
    for _ in range(trials):
        x = random_complex(rng, field, 24)
        for sheaf in (constant(x, 1), random_sheaf(rng, x)):
            cc = CochainComplex(sheaf)
            for k in range(x.dim + 2):
                yield cc, cohomology_basis(sheaf, k, cc)


@pytest.mark.parametrize("p", PRIMES)
def test_coords_match_the_dense_back_substitution(p):
    field = Field(p)
    rng = np.random.default_rng(p % 1009)
    seen = {"empty": 0, "zero rows": 0, "outside": 0}
    for cc, basis in bases_of_every_degree(p):
        k = basis.degree
        reps, killed = basis.cycles.dense(), basis.killed.dense()
        seen["empty"] += basis.dim == 0
        seen["zero rows"] += reps.shape[0] == 0
        a = rng.integers(0, p, size=(basis.dim, 4), dtype=np.int64)
        b = rng.integers(0, p, size=(killed.shape[1], 4), dtype=np.int64)
        vectors = (dense.matmul(p, reps, a) + dense.matmul(p, killed, b)) % p
        got = basis.coords(field.sparse(vectors))
        assert got.shape == (basis.dim, 4)
        assert np.array_equal(got.dense(), dense_coords(basis, vectors))
        assert np.array_equal(got.dense(), a)
        # a cochain whose coboundary is not zero is no class at all
        outside = np.flatnonzero(cc._map(k).dense().any(axis=0))
        if outside.size:
            seen["outside"] += 1
            stray = vectors.copy()
            stray[outside[0], 1] = (stray[outside[0], 1] + 1) % p
            message = "^columns do not represent classes in this basis$"
            with pytest.raises(ValueError, match=message):
                basis.coords(field.sparse(stray))
            with pytest.raises(ValueError, match=message):
                dense_coords(basis, stray)
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", PRIMES)
def test_coords_refuses_the_wrong_height(p):
    field = Field(p)
    _, basis = next(bases_of_every_degree(p, trials=1))
    rows = basis.cycles.shape[0]
    with pytest.raises(ValueError, match=f"expected {rows} rows"):
        basis.coords(field.sparse(np.zeros((rows + 1, 1), dtype=np.int64)))


@pytest.mark.parametrize("p", PRIMES)
def test_step_maps_match_the_dense_route(p):
    """Cocycles restrict to a smaller step by dropping rows; cycles of a
    cosheaf include into a larger step by padding zero rows."""
    rng = random.Random(4200 + p % 1009)
    field = Field(p)
    for _ in range(10):
        x = random_complex(rng, field, 24, min_steps=2)
        sheaf = random_sheaf(rng, x)
        for space, backward in (
            (CochainComplex(sheaf), True),
            (ChainComplex(dualize(sheaf)), False),
        ):
            views = [space.step(i) for i in range(x.steps)]
            for k in range(x.dim + 2):
                bases = [cohomology_basis(None, k, v) for v in views]
                pairs = zip(bases[1:], bases) if backward else zip(bases, bases[1:])
                for source, target in pairs:
                    reps = source.cycles.dense()
                    rows = target.space.dim(k)
                    moved = np.zeros((rows, reps.shape[1]), dtype=np.int64)
                    moved[: min(rows, reps.shape[0])] = reps[:rows]
                    got = _step_map(source, target)
                    assert got.shape == (target.dim, source.dim)
                    assert np.array_equal(got.dense(), dense_coords(target, moved))


def grids(p, count):
    rng = random.Random(4300 + p % 1009)
    field = Field(p)
    for _ in range(count):
        x = random_complex(rng, field, 16, max_steps=4, min_steps=2)
        d = random_monomorphic_diagram(rng, x, length=rng.randint(2, 4))
        yield rng, d, list(range(x.dim + 2))


@pytest.mark.parametrize("p", PRIMES)
def test_induced_maps_match_the_dense_route(p):
    for _, d, degrees in grids(p, 8):
        full = [CochainComplex(snap) for snap in d.snapshots]
        views = [[cc.step(i) for cc in full] for i in range(d.complex.steps)]
        for k in degrees:
            for j, phi in enumerate(d.steps):
                src, tgt = full[j], full[j + 1]
                m = phi._matrix.block(tgt.start(k), src.start(k), tgt.dim(k), src.dim(k))
                want_m = dense_cochain_map(phi, src, tgt, k)
                assert np.array_equal(m.dense(), want_m)
                for row in views:
                    src = cohomology_basis(row[j].stalks, k, row[j])
                    tgt = cohomology_basis(row[j + 1].stalks, k, row[j + 1])
                    block = want_m[: tgt.space.dim(k), : src.space.dim(k)]
                    image = dense.matmul(p, block, src.cycles.dense())
                    got = _induced(phi, src, tgt)
                    assert got.shape == (tgt.dim, src.dim)
                    assert np.array_equal(got.dense(), dense_coords(tgt, image))


def dense_first_failing_square(g):
    p = g.field.p
    for u in range(g.rows - 1):
        for j in range(g.cols - 1):
            rd = dense.matmul(p, g.vmaps[u][j + 1].dense(), g.hmaps[u][j].dense())
            dr = dense.matmul(p, g.hmaps[u + 1][j].dense(), g.vmaps[u][j].dense())
            if not np.array_equal(rd, dr):
                return (u, j)
    return None


@pytest.mark.parametrize("p", PRIMES)
def test_check_commutative_matches_the_dense_products(p):
    perturbed = 0
    for rng, d, degrees in grids(p, 8):
        for g in grid_by_degree(d, degrees).values():
            assert check_commutative(g) is None
            assert dense_first_failing_square(g) is None
            for store in (g.hmaps, g.vmaps):
                for row in store:
                    for j, original in enumerate(row):
                        m = original.dense()
                        if m.size == 0:
                            continue
                        m[rng.randrange(m.shape[0]), rng.randrange(m.shape[1])] += 1
                        row[j] = g.field.sparse(m)
                        perturbed += 1
                        assert check_commutative(g) == dense_first_failing_square(g)
                        row[j] = original
    assert perturbed


@pytest.mark.parametrize("p", PRIMES)
def test_rank_table_matches_the_dense_composites(p):
    rng = np.random.default_rng(4400 + p % 1009)
    field = Field(p)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        dims = [int(d) for d in rng.integers(0, 6, size=m)]
        maps = []
        for i in range(m - 1):
            a = rng.integers(0, p, size=(dims[i + 1], dims[i]), dtype=np.int64)
            # low-rank and sparse maps, so composites lose rank on the way
            a[:, rng.random(dims[i]) < 0.4] = 0
            a[rng.random(dims[i + 1]) < 0.3] = 0
            maps.append(a)
        module = PersistenceModule(field, dims, maps)
        assert _composite_ranks(module) == dense.composite_ranks(p, dims, maps)


def top_degree_basis():
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(40)]
    x = vietoris_rips(Field(2), points, [0.2, 0.3], max_dim=1)
    return cohomology_basis(constant(x, 1), 1)


def test_top_degree_cocycles_are_unit_columns():
    basis = top_degree_basis()
    cycles = basis.cycles
    assert basis.dim > 0
    assert np.array_equal(cycles.indptr, np.arange(basis.dim + 1))
    assert cycles.indptr[-1] == basis.dim
    assert (cycles.data == 1).all()


def test_unicolored_keeps_its_classes_sparse(tmp_path):
    """The tracemalloc peak of a 50-point unicolored job stays far below
    what dense top-degree representatives and their maps took on this
    cloud: 7.4 MiB with them, about 1 MiB with sparse classes."""
    rng = random.Random(18)
    path = tmp_path / "cloud.csv"
    path.write_text(
        "".join(f"{rng.random()!r},{rng.random()!r},{rng.choice('ab')}\n" for _ in range(50))
    )
    argv = ["unicolored", str(path), "--thresholds", "0.1,0.15,0.2,0.25,0.3"]
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * 2**20
