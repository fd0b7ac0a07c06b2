"""Every step read off one complex, against one complex per step.

Every pipeline that walks a filtration assembles one complex.  The
backward engine and the grid read H^k of every step off one reduction
of each coboundary (cohomology._step_bases); the label diagram reads
every step of a part off one reduction of the part's columns.  These
tests rebuild each step on its own (tests/perstep.py) on random
filtered sheaves and compare: label diagrams entry for entry, step
bases and the maps between them up to an invertible change of basis.
"""

import random

import numpy as np
import pytest

from persheaf import (
    ChainComplex,
    CochainComplex,
    Field,
    FilteredComplex,
    LabeledFiltration,
    Simplex,
    cohomology_basis,
    dualize,
    grid_by_degree,
    label_diagram,
    pullback,
    type_t_direct_by_degree,
)
from persheaf.cohomology import _step_bases
from persheaf.linalg import _mulcols

import perstep
from densekernel import is_invertible
from genrandom import random_complex, random_monomorphic_diagram, random_sheaf

PRIMES = [2, 3, 2**31 - 1]


def same_array(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def with_empty_step(x, rng):
    """x with one more step, inserted where nothing enters."""
    at = rng.randrange(x.steps + 1)
    return FilteredComplex(x.field, [
        Simplex(s.id, s.vertices, s.entry + (s.entry >= at)) for s in x.simplices
    ], x.steps + 1)


def random_cases(p, count, seed, empty_steps=True):
    """Random filtered complexes, with empty_steps every other one with
    a step where nothing enters."""
    rng = random.Random(seed + p % 1000)
    field = Field(p)
    for n in range(count):
        x = random_complex(rng, field, max_simplices=16, min_steps=2)
        yield rng, with_empty_step(x, rng) if empty_steps and n % 2 else x


class Coverage:
    """What the cases of one test exercised."""

    def __init__(self):
        self.seen = dict.fromkeys(
            ("empty step", "last-step entry", "zero stalk", "unequal stalks"), 0
        )

    def add(self, x, sheaves):
        entries = {s.entry for s in x.simplices}
        self.seen["empty step"] += len(entries) < x.steps
        self.seen["last-step entry"] += x.steps - 1 in entries
        for sheaf in sheaves:
            dims = [sheaf.stalk(s.id) for s in x.simplices]
            self.seen["zero stalk"] += 0 in dims
            self.seen["unequal stalks"] += len(set(dims)) > 1

    def check(self):
        assert all(self.seen.values()), self.seen


def assert_leading_blocks(full, ref):
    """ref, a complex over one step of full's filtration, has full's
    layout up to the step, and its maps are the leading blocks of
    full's."""
    for k in range(-1, full.complex.dim + 2):
        ids = [s.id for s in ref.complex.simplices_of_dim(k)]
        assert ids == [s.id for s in full.complex.simplices_of_dim(k)[: len(ids)]]
        assert all(ref.offset(k, sid) == full.offset(k, sid) for sid in ids)
        rows, cols = ref.dim(k + full._shift), ref.dim(k)
        assert full._map(k).block(0, 0, rows, cols) == ref._map(k)


def change_of_basis(new, ref):
    """T with new coordinates = T @ ref coordinates, checked invertible."""
    t = new.coords(ref.cycles)
    assert t.shape == (new.dim, ref.dim)
    assert is_invertible(new.space.field.p, t.dense())
    return t


def assert_conjugate(p, got, t_source, want, t_target):
    """got @ t_source == t_target @ want: the same map in both bases."""
    assert _mulcols(got, t_source, p) == _mulcols(t_target, want, p)


@pytest.mark.parametrize("p", PRIMES)
def test_cochain_steps_match_pulled_back_complexes(p):
    """At each step, the coboundaries are the leading blocks of the
    whole ones, the step basis has the pulled-back complex's
    dimensions, its cycles are cocycles of the step's leading block,
    its killed vectors span that block's coboundaries, and its classes
    differ from the step complex's own by an invertible matrix."""
    field = Field(p)
    seen = Coverage()
    for rng, x in random_cases(p, 12, 71):
        sheaf = random_sheaf(rng, x)
        seen.add(x, [sheaf])
        full = CochainComplex(sheaf)
        degrees = list(range(x.dim + 2))
        steps = _step_bases(full, degrees)
        for i in range(x.steps):
            ref = CochainComplex(pullback(x.step_inclusion(i), sheaf))
            assert_leading_blocks(full, ref)
            for k in degrees:
                basis = steps[k][i]
                rows, cols = ref.dim(k + 1), ref.dim(k)
                assert basis.space is full and basis.degree == k
                killed = basis.killed_first
                assert basis.killed.shape == (cols, 0)
                assert basis.cycles.shape[0] == killed.shape[0] == cols
                block = full._map(k).block(0, 0, rows, cols)
                assert _mulcols(block, basis.cycles, p).indices.size == 0
                assert _mulcols(block, killed, p).indices.size == 0
                into = ref._map(k - 1).dense()
                rank = field.rank(into)
                assert killed.shape[1] == rank
                assert field.rank(np.hstack([into, killed.dense()])) == rank
                # the cycles and the killed vectors together are a basis
                # of the step's cocycles, and no cycle meets a cleared row
                assert basis.dim + rank == cols - field.rank(block.dense())
                leads = killed.indices[killed.indptr[:-1]]
                assert not np.isin(basis.cycles.indices, leads).any()
                own = cohomology_basis(None, k, ref)
                assert basis.dim == own.dim
                change_of_basis(basis, own)
    seen.check()


@pytest.mark.parametrize("p", PRIMES)
def test_chain_steps_match_pulled_back_complexes(p):
    """labeled._part_bases reads a part's steps as prefixes of the
    columns of the filtration's one chain complex."""
    for rng, x in random_cases(p, 12, 72):
        sheaf = random_sheaf(rng, x)
        full = ChainComplex(dualize(sheaf))
        for i in range(x.steps):
            assert_leading_blocks(full, ChainComplex(dualize(pullback(x.step_inclusion(i), sheaf))))


@pytest.mark.parametrize("p", PRIMES)
def test_backward_maps_match_the_per_step_route(p):
    seen = Coverage()
    for rng, x in random_cases(p, 12, 74):
        sheaf = random_sheaf(rng, x)
        seen.add(x, [sheaf])
        degrees = list(range(x.dim + 1))
        steps = _step_bases(CochainComplex(sheaf), degrees)
        for k, (module, _) in type_t_direct_by_degree(sheaf, degrees).items():
            refs, maps = perstep.type_t_maps(sheaf, k)
            assert list(module.dims) == [b.dim for b in refs]
            t = [change_of_basis(new, ref) for new, ref in zip(steps[k], refs)]
            assert len(module.maps) == len(maps) == x.steps - 1
            for i, (got, want) in enumerate(zip(module.maps, maps)):
                assert_conjugate(p, got, t[i + 1], want, t[i])
    seen.check()


@pytest.mark.parametrize("p", PRIMES)
def test_grid_maps_match_the_per_step_route(p):
    seen = Coverage()
    for rng, x in random_cases(p, 8, 75):
        diagram = random_monomorphic_diagram(rng, x, length=rng.randint(1, 4))
        seen.add(x, diagram.snapshots)
        degrees = list(range(x.dim + 1))
        steps = [_step_bases(CochainComplex(snap), degrees) for snap in diagram.snapshots]
        mt = x.steps
        for k, g in grid_by_degree(diagram, degrees).items():
            refs, hmaps, vmaps = perstep.grid_maps(diagram, k)
            assert g.dims == [[b.dim for b in row] for row in refs]
            t = [
                [change_of_basis(s[k][mt - 1 - u], ref) for s, ref in zip(steps, row)]
                for u, row in enumerate(refs)
            ]
            for u, row in enumerate(hmaps):
                for j, want in enumerate(row):
                    assert_conjugate(p, g.hmaps[u][j], t[u][j], want, t[u][j + 1])
            for u, row in enumerate(vmaps):
                for j, want in enumerate(row):
                    assert_conjugate(p, g.vmaps[u][j], t[u][j], want, t[u + 1][j])
    seen.check()


@pytest.mark.parametrize("p", PRIMES)
def test_degrees_in_any_order_give_the_same_modules(p):
    """Each coboundary is cleared by the one before it whatever order
    the degrees come in, so [0, 2, 1] and [2] give what ascending
    degrees give, entry for entry."""
    for rng, x in random_cases(p, 8, 77):
        sheaf = random_sheaf(rng, x)
        top = max(x.dim + 1, 2)
        ascending = type_t_direct_by_degree(sheaf, range(top + 1))
        for order in ([0, 2, 1], [top, 0], [2]):
            for k, (module, bars) in type_t_direct_by_degree(sheaf, order).items():
                want, want_bars = ascending[k]
                assert list(module.dims) == list(want.dims)
                assert module.maps == want.maps
                assert bars == want_bars
        diagram = random_monomorphic_diagram(rng, x, length=2)
        grids = grid_by_degree(diagram, range(top + 1))
        for k, g in grid_by_degree(diagram, [0, 2, 1]).items():
            assert g.dims == grids[k].dims
            assert g.hmaps == grids[k].hmaps and g.vmaps == grids[k].vmaps


@pytest.mark.parametrize("p", PRIMES)
def test_step_coords_recover_classes_and_refuse_outsiders(p):
    """coords on a step basis, whose killed vectors lead by their
    earliest row (killed_first), returns the coefficients of the cycles
    in a sum with coboundaries, and still raises, rather than projects,
    for a cochain whose coboundary at that step is not zero."""
    field = Field(p)
    gen = np.random.default_rng(p % 1009)
    refused = 0
    for rng, x in random_cases(p, 12, 78):
        full = CochainComplex(random_sheaf(rng, x))
        for k, bases in _step_bases(full, range(x.dim + 1)).items():
            for i, basis in enumerate(bases):
                rows, cols = full.dim(k + 1, i), basis.cycles.shape[0]
                a = gen.integers(0, p, size=(basis.dim, 3), dtype=np.int64)
                killed = basis.killed_first.dense()
                b = gen.integers(0, p, size=(killed.shape[1], 3), dtype=np.int64)
                vectors = (
                    field.matmul(basis.cycles.dense(), a) + field.matmul(killed, b)
                ) % p
                assert same_array(basis.coords(field.sparse(vectors)).dense(), a)
                outside = np.flatnonzero(full._map(k).block(0, 0, rows, cols).dense().any(axis=0))
                if outside.size == 0:
                    continue
                refused += 1
                vectors[rng.choice(outside.tolist()), 1] += 1
                with pytest.raises(ValueError, match="^columns do not represent classes"):
                    basis.coords(field.sparse(vectors % p))
    assert refused


def random_labels(rng, x, names):
    return {v: rng.choice(names) for v in x.vertices}


def late_labels(rng, x, names):
    """x with every simplex on some of its vertices entering at the last
    step, and labels giving those vertices a name of their own, so the
    parts carrying that name are empty at every earlier step."""
    late = set(rng.sample(x.vertices, rng.randint(1, len(x.vertices) - 1)))
    last = x.steps - 1
    y = FilteredComplex(x.field, [
        Simplex(s.id, s.vertices, last if late.intersection(s.vertices) else s.entry)
        for s in x.simplices
    ], x.steps)
    return y, {v: "late" if v in late else rng.choice(names) for v in y.vertices}


@pytest.mark.parametrize("p", PRIMES)
def test_label_diagram_matches_the_per_step_route(p):
    """With 3 labels, with 4 (15 parts when each occurs), and with one
    label that enters at the last step; in every degree up to one past
    the top."""
    parts = set()
    for rng, x in random_cases(p, 8, 76, empty_steps=False):
        lfs = [LabeledFiltration(x, random_labels(rng, x, ["a", "b", "c"]))]
        names = ["a", "b", "c", "d"]
        vertices = rng.sample(x.vertices, len(x.vertices))  # the first get each name
        lfs.append(LabeledFiltration(x, {
            v: names[j] if j < len(names) else rng.choice(names) for j, v in enumerate(vertices)
        }))
        lfs.append(LabeledFiltration(*late_labels(rng, x, ["a", "b"])))
        for lf in lfs:
            parts.add(len(lf.label_complex.simplices))
            ids = [t.id for t in lf.label_complex.simplices]
            for n in range(x.dim + 2):
                got, want = label_diagram(lf, n), perstep.label_diagram(lf, n)
                for a, b in zip(got.snapshots, want.snapshots):
                    assert a.stalk_dim == b.stalk_dim
                    got_maps, want_maps = a._maps.as_dict(), b._maps.as_dict()
                    assert got_maps.keys() == want_maps.keys()
                    for key, m in got_maps.items():
                        assert same_array(m, want_maps[key])
                for a, b in zip(got.steps, want.steps):
                    for sid in ids:
                        assert same_array(a.component(sid), b.component(sid))
    assert 15 in parts
