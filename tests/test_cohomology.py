import random
import tracemalloc

import numpy as np
import pytest

from persheaf import (
    CellularSheaf,
    ChainComplex,
    CochainComplex,
    Field,
    FilteredComplex,
    Simplex,
    SimplicialMap,
    cohomology_basis,
    constant,
    cosheaf_homology_basis,
    dualize,
    identity,
    induced_by_sheaf_morphism,
    induced_by_simplicial_map,
    matrix,
    pullback,
    simplicial_chain_complex,
    SheafMorphism,
    vietoris_rips,
)
from persheaf.cohomology import _quotient

from builders import dense_map, generators
from densekernel import _mulmod, sparse_echelon
from genrandom import random_complex, random_sheaf
from oracles import betti, rref_rank, sections_dim
from perincidence import faces, incidence_sign

F2 = Field(2)


def hollow_triangle():
    return FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 0),
        Simplex("0.1", (0, 1), 0), Simplex("0.2", (0, 2), 0), Simplex("1.2", (1, 2), 0),
    ])


def test_circle_has_one_loop():
    sheaf = constant(hollow_triangle(), 1)
    assert cohomology_basis(sheaf, 0).dim == 1
    assert cohomology_basis(sheaf, 1).dim == 1
    assert cohomology_basis(sheaf, 2).dim == 0


def test_disk_is_trivial():
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 0),
        Simplex("0.1", (0, 1), 0), Simplex("0.2", (0, 2), 0), Simplex("1.2", (1, 2), 0),
        Simplex("0.1.2", (0, 1, 2), 0),
    ])
    sheaf = constant(x, 1)
    assert [cohomology_basis(sheaf, k).dim for k in (0, 1, 2)] == [1, 0, 0]


def test_coboundary_blocks_carry_signs():
    x = FilteredComplex(Field(5), [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 0),
        Simplex("0.1", (0, 1), 0), Simplex("0.2", (0, 2), 0), Simplex("1.2", (1, 2), 0),
    ])
    sheaf = CellularSheaf(x, {s.id: 1 for s in x.simplices}, {
        (f.id, t.id): matrix([[3]], 5)
        for t in x.simplices if t.dim == 1 for f in faces(x, t)
    })
    cc = CochainComplex(sheaf)
    d0 = dense_map(cc, 0)
    for t in x.simplices_of_dim(1):
        for f in faces(x, t):
            r, c = cc.offset(1, t.id), cc.offset(0, f.id)
            assert d0[r, c] == (incidence_sign(f, t) * 3) % 5
    assert generators(cc, 0) == [("0", 0), ("1", 0), ("2", 0)]


def test_invalid_sheaf_is_refused():
    x = hollow_triangle()
    bad = CellularSheaf(x, {s.id: 1 for s in x.simplices}, {})
    with pytest.raises(ValueError, match="invalid sheaf"):
        CochainComplex(bad)


def test_delta_squares_to_zero():
    rng = random.Random(77)
    for _ in range(25):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        cc = CochainComplex(random_sheaf(rng, x))
        for k in range(x.dim + 1):
            prod = _mulmod(dense_map(cc, k + 1), dense_map(cc, k), cc.field.p)
            assert not prod.any()


def test_constant_cohomology_equals_simplicial_betti():
    rng = random.Random(78)
    for _ in range(30):
        p = rng.choice([2, 5])
        x = random_complex(rng, Field(p))
        sheaf = constant(x, 1)
        vs = [s.vertices for s in x.simplices]
        for k in range(x.dim + 2):
            assert cohomology_basis(sheaf, k).dim == betti(vs, k, p)


def test_sections_match_equalizer_oracle():
    rng = random.Random(79)
    for _ in range(30):
        p = rng.choice([2, 5])
        x = random_complex(rng, Field(p))
        sheaf = random_sheaf(rng, x)
        vdims = {s.id: sheaf.stalk(s.id) for s in x.simplices_of_dim(0)}
        rows = []
        for e in x.simplices_of_dim(1):
            u, v = faces(x, e)
            rows.append((
                u.id, v.id, sheaf.stalk(e.id),
                sheaf.restriction(u.id, e.id), sheaf.restriction(v.id, e.id),
            ))
        assert cohomology_basis(sheaf, 0).dim == sections_dim(vdims, rows, p)


def test_duality_preserves_dimensions():
    rng = random.Random(80)
    for _ in range(20):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        sheaf = random_sheaf(rng, x)
        co = dualize(sheaf)
        for k in range(x.dim + 1):
            assert cohomology_basis(sheaf, k).dim == cosheaf_homology_basis(co, k).dim


def test_representatives_are_cocycles():
    rng = random.Random(81)
    x = random_complex(rng, F2)
    cc = CochainComplex(random_sheaf(rng, x))
    for k in range(x.dim + 1):
        basis = cohomology_basis(cc.stalks, k, cc)
        image = _mulmod(dense_map(cc, k), basis.cycles.dense(), 2)
        assert not image.any()
        if basis.dim:
            got = basis.coords(basis.cycles).dense()
            assert np.array_equal(got, identity(basis.dim))


def test_coords_refuses_outsiders():
    sheaf = constant(hollow_triangle(), 1)
    basis = cohomology_basis(sheaf, 0)
    with pytest.raises(ValueError):
        basis.coords(F2.sparse(matrix([[1], [0], [1]], 2)))


def test_identity_morphism_induces_identity():
    sheaf = constant(hollow_triangle(), 2)
    phi = SheafMorphism(sheaf, sheaf, {s.id: identity(2) for s in sheaf.complex.simplices})
    for k in (0, 1):
        got = induced_by_sheaf_morphism(phi, k).dense()
        assert np.array_equal(got, identity(cohomology_basis(sheaf, k).dim))


def test_induced_maps_compose_contravariantly():
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 1),
        Simplex("0.1", (0, 1), 1), Simplex("0.2", (0, 2), 2), Simplex("1.2", (1, 2), 2),
    ])
    sheaf = constant(x, 1)
    f01 = x.step_inclusion(0, 1)
    f12 = x.step_inclusion(1, 2)
    f02 = x.step_inclusion(0, 2)
    for k in (0, 1):
        top = cohomology_basis(pullback(x.step_inclusion(2), sheaf), k)
        mid = cohomology_basis(pullback(x.step_inclusion(1), sheaf), k)
        low = cohomology_basis(pullback(x.step_inclusion(0), sheaf), k)
        a = induced_by_simplicial_map(f01, source_basis=mid, target_basis=low)
        b = induced_by_simplicial_map(f12, source_basis=top, target_basis=mid)
        c = induced_by_simplicial_map(f02, source_basis=top, target_basis=low)
        assert np.array_equal(_mulmod(a.dense(), b.dense(), 2), c.dense())


def test_plain_homology_of_the_circle():
    x = hollow_triangle()
    ch = simplicial_chain_complex(x)
    assert cosheaf_homology_basis(None, 0, ch).dim == 1
    assert cosheaf_homology_basis(None, 1, ch).dim == 1
    assert ch.dim(0) == 3 and ch.dim(1) == 3


QUOTIENT_PRIMES = [2, 3, 5, 2 ** 31 - 1]


def quotient_by_rank_loop(p, cycles, killed):
    """The one-rank-per-column selection _quotient replaces, on the oracle's rank."""
    kept = []
    cur = killed
    rnk = rref_rank(cur, p)
    for j in range(cycles.shape[1]):
        cand = np.hstack([cur, cycles[:, j : j + 1]])
        r2 = rref_rank(cand, p)
        if r2 > rnk:
            kept.append(j)
            cur = cand
            rnk = r2
    return cycles[:, kept]


def random_dependent_columns(rng, p, base, count):
    """Columns drawn from span(base), fresh random vectors, zeros and repeats."""
    rows = base.shape[0]
    cols = []
    for _ in range(count):
        kind = rng.integers(4)
        if kind == 0 and base.shape[1]:
            coef = rng.integers(0, p, size=base.shape[1], dtype=np.int64)
            col = sum(int(c) * base[:, i].astype(object) for i, c in enumerate(coef))
            col = np.array(col % p, dtype=np.int64)
        elif kind == 1 and cols:
            col = cols[rng.integers(len(cols))] * int(rng.integers(1, p)) % p
        elif kind == 2:
            col = np.zeros(rows, dtype=np.int64)
        else:
            col = rng.integers(0, p, size=rows, dtype=np.int64)
        cols.append(col)
    return np.array(cols, dtype=np.int64).reshape(count, rows).T


@pytest.mark.parametrize("p", QUOTIENT_PRIMES)
def test_quotient_matches_per_column_rank_loop(p):
    field = Field(p)
    rng = np.random.default_rng(p % 1009)
    for _ in range(150):
        rows = int(rng.integers(0, 7))
        base = rng.integers(0, p, size=(rows, int(rng.integers(0, 4))), dtype=np.int64)
        killed = random_dependent_columns(rng, p, base, int(rng.integers(0, 4)))
        cycles = random_dependent_columns(rng, p, base, int(rng.integers(0, 7)))
        got = _quotient(field, cycles, killed)
        want = quotient_by_rank_loop(p, cycles, killed)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_tracked_echelon_at_the_largest_prime():
    p = 2 ** 31 - 1
    field = Field(p)
    rng = np.random.default_rng(7)
    for shape in [(5, 9), (9, 5), (8, 8), (1, 6), (6, 1)]:
        base = rng.integers(0, p, size=(shape[0], 3), dtype=np.int64)
        m = random_dependent_columns(rng, p, base, shape[1])
        reduced, ops, owner = sparse_echelon(field, m, track=True)
        exact = (m.astype(object) @ ops.astype(object)) % p
        assert np.array_equal(exact.astype(np.int64), reduced)
        assert len(owner) == rref_rank(m, p)
        for low, j in owner.items():
            assert reduced[low, j] and not reduced[low + 1 :, j].any()


def test_cleared_echelon_matches_the_full_one():
    """Clearing the previous map's pivot rows changes nothing else."""
    for p in QUOTIENT_PRIMES:
        field = Field(p)
        rng = random.Random(p)
        for _ in range(20):
            cc = CochainComplex(random_sheaf(rng, random_complex(rng, field, 30)))
            for k in range(cc.complex.dim):
                m = dense_map(cc, k)
                clear = sparse_echelon(field, dense_map(cc, k - 1))[2]
                full, _, owner = sparse_echelon(field, m, track=True)
                reduced, ops, got = sparse_echelon(field, m, track=True, clear=clear)
                assert got == owner
                kept = [j for j in range(m.shape[1]) if j not in clear]
                assert np.array_equal(reduced[:, kept], full[:, kept])
                assert not reduced[:, list(clear)].any()
                assert not full[:, list(clear)].any()
                exact = (m.astype(object) @ ops.astype(object)) % p
                assert np.array_equal(exact.astype(np.int64), reduced)


def check_subquotient(p, outgoing, incoming, basis):
    """basis spans ker(outgoing)/im(incoming), on the oracle's rank.

    Its size is the rank formula, its representatives are cycles that
    stay independent modulo basis.killed, and basis.killed is a basis
    of the image of incoming.
    """
    reps, killed = basis.cycles.dense(), basis.killed.dense()
    image = rref_rank(incoming, p)
    assert basis.dim == outgoing.shape[1] - rref_rank(outgoing, p) - image
    assert not ((outgoing.astype(object) @ reps.astype(object)) % p).any()
    assert rref_rank(killed, p) == killed.shape[1] == image
    assert rref_rank(np.hstack([incoming, killed]), p) == image
    assert rref_rank(np.hstack([killed, reps]), p) == image + basis.dim


def cleared_subquotients(p):
    """(outgoing, incoming, basis, betti number or None) on random sheaves.

    Each basis is H^k or H_k of a random sheaf or of a constant one
    (whose Betti number the oracle knows), taken in rising, falling or
    shuffled degree order, so the reductions run with and without the
    neighbouring pivots already known.
    """
    rng = random.Random(900 + p % 1009)
    field = Field(p)
    for trial in range(25):
        x = random_complex(rng, field, 30)
        vs = [s.vertices for s in x.simplices]
        degrees = list(range(x.dim + 2))
        order = [degrees, degrees[::-1], rng.sample(degrees, len(degrees))][trial % 3]
        const = constant(x, 1)
        for sheaf in (const, random_sheaf(rng, x)):
            cc = CochainComplex(sheaf)
            ch = ChainComplex(dualize(sheaf))
            for k in order:
                basis = cohomology_basis(sheaf, k, cc)
                known = betti(vs, k, p) if sheaf is const else None
                yield dense_map(cc, k), dense_map(cc, k - 1), basis, known
                hom = cosheaf_homology_basis(None, k, ch)
                assert hom.dim == basis.dim
                yield dense_map(ch, k), dense_map(ch, k + 1), hom, known


@pytest.mark.parametrize("p", QUOTIENT_PRIMES)
def test_cleared_subquotients_match_the_oracles(p):
    for outgoing, incoming, basis, known in cleared_subquotients(p):
        check_subquotient(p, outgoing, incoming, basis)
        if known is not None:
            assert basis.dim == known


@pytest.mark.parametrize("p", QUOTIENT_PRIMES)
def test_back_substituted_coords_match_express(p):
    field = Field(p)
    rng = np.random.default_rng(p % 1009)
    for outgoing, _, basis, _ in cleared_subquotients(p):
        reps, killed = basis.cycles.dense(), basis.killed.dense()
        a = rng.integers(0, p, size=(basis.dim, 3), dtype=np.int64)
        b = rng.integers(0, p, size=(killed.shape[1], 3), dtype=np.int64)
        vectors = (_mulmod(reps, a, p) + _mulmod(killed, b, p)) % p
        got = basis.coords(field.sparse(vectors)).dense()
        want = field.express(vectors, reps, modulo=killed)[0]
        assert np.array_equal(got, want) and np.array_equal(got, a)
        outside = np.flatnonzero(outgoing.any(axis=0))
        if outside.size:
            # a cochain whose coboundary is not zero is no class at all
            stray = vectors.copy()
            stray[outside[0], 0] = (stray[outside[0], 0] + 1) % p
            with pytest.raises(
                ValueError, match="^columns do not represent classes in this basis$"
            ):
                basis.coords(field.sparse(stray))


def test_full_step_h1_stays_sparse():
    """H^1 of a 2-complex with thousands of triangles never forms a dense
    delta^1: assembling and reducing take under a quarter of its bytes."""
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(100)]
    x = vietoris_rips(F2, points, [0.28], max_dim=2)
    edges, triangles = len(x.simplices_of_dim(1)), len(x.simplices_of_dim(2))
    assert triangles >= 1500
    sheaf = constant(x, 1)
    tracemalloc.start()
    try:
        cc = CochainComplex(sheaf)
        basis = cohomology_basis(sheaf, 1, cc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim == betti([s.vertices for s in x.simplices], 1, 2)
    assert peak < edges * triangles * 8 / 4
