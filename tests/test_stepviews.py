"""Step views against one complex per step.

Every pipeline that walks a filtration assembles one complex and reads
step i as its leading blocks.  These tests rebuild each step on its own
(tests/perstep.py) and require the same maps, bases and induced maps,
entry for entry, on random filtered sheaves with zero stalks.
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
    dualize,
    grid_by_degree,
    label_diagram,
    preimage_subcomplex,
    pullback,
    simplicial_chain_complex,
    type_t_direct_by_degree,
)

from persheaf.linalg import Columns

import perstep
from builders import dense_map
from genrandom import random_complex, random_monomorphic_diagram, random_sheaf

PRIMES = [2, 3, 2**31 - 1]


def same_array(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def same_columns(a, b):
    return a.shape == b.shape and all(
        same_array(getattr(a, name), getattr(b, name))
        for name in ("indptr", "indices", "data")
    )


def assert_same_space(view, ref, full):
    """view (a step of full) and ref agree in layout, maps and pivots."""
    assert type(view) is type(full)
    assert view.field == full.field
    for k in range(-1, full.complex.dim + 2):
        assert view.dim(k) == ref.dim(k)
        assert [s.id for s in view.simplices(k)] == [
            s.id for s in ref.complex.simplices_of_dim(k)
        ]
        assert view.generators(k) == ref.generators(k)
        for s in ref.complex.simplices_of_dim(k):
            assert view.offset(k, s.id) == ref.offset(k, s.id)
        got, want = dense_map(view, k), dense_map(ref, k)
        assert same_array(got, want), (k, got, want)
        whole = dense_map(full, k)
        if got.size:
            assert same_array(got, whole[: got.shape[0], : got.shape[1]])
        if k in full._maps:
            # the view stores the leading block's entries and no others
            block = Columns.from_dense(whole[: got.shape[0], : got.shape[1]])
            assert same_columns(view._maps[k], block)
    for k in range(full.complex.dim + 1):
        got, want = view._echelon(k), ref._echelon(k)
        assert got.pivots == want.pivots
        assert same_columns(got.reduced, want.reduced)


def random_cases(p, count, seed):
    rng = random.Random(seed + p % 1000)
    field = Field(p)
    for _ in range(count):
        x = random_complex(rng, field, max_simplices=16, min_steps=2)
        yield rng, x


@pytest.mark.parametrize("p", PRIMES)
def test_cochain_steps_match_pulled_back_complexes(p):
    zero_stalks = 0
    for rng, x in random_cases(p, 12, 71):
        sheaf = random_sheaf(rng, x)
        zero_stalks += sum(sheaf.stalk(s.id) == 0 for s in x.simplices)
        full = CochainComplex(sheaf)
        for i in range(x.steps):
            ref = CochainComplex(pullback(x.step_inclusion(i), sheaf))
            assert_same_space(full.step(i), ref, full)
    assert zero_stalks > 0


@pytest.mark.parametrize("p", PRIMES)
def test_chain_steps_match_pulled_back_complexes(p):
    for rng, x in random_cases(p, 12, 72):
        sheaf = random_sheaf(rng, x)
        full = ChainComplex(dualize(sheaf))
        for i in range(x.steps):
            ref = ChainComplex(dualize(pullback(x.step_inclusion(i), sheaf)))
            assert_same_space(full.step(i), ref, full)


def random_labels(rng, x, names):
    return {v: rng.choice(names) for v in x.vertices}


@pytest.mark.parametrize("p", PRIMES)
def test_label_part_steps_match_subcomplexes(p):
    for rng, x in random_cases(p, 8, 73):
        lf = LabeledFiltration(x, random_labels(rng, x, ["a", "b", "c"]))
        for t in lf.label_complex.simplices:
            part = preimage_subcomplex(lf.map, t.id)
            full = simplicial_chain_complex(part)
            for i in range(x.steps):
                ref = simplicial_chain_complex(part.subcomplex(i))
                assert_same_space(full.step(i), ref, full)


@pytest.mark.parametrize("p", PRIMES)
def test_backward_maps_match_the_per_step_route(p):
    for rng, x in random_cases(p, 12, 74):
        sheaf = random_sheaf(rng, x)
        degrees = list(range(x.dim + 1))
        for k, (module, _) in type_t_direct_by_degree(sheaf, degrees).items():
            dims, maps = perstep.type_t_maps(sheaf, k)
            assert list(module.dims) == dims
            assert len(module.maps) == len(maps)
            for got, want in zip(module.maps, maps):
                assert same_columns(got, want)


@pytest.mark.parametrize("p", PRIMES)
def test_grid_maps_match_the_per_step_route(p):
    for rng, x in random_cases(p, 8, 75):
        diagram = random_monomorphic_diagram(rng, x, length=rng.randint(1, 4))
        degrees = list(range(x.dim + 1))
        for k, g in grid_by_degree(diagram, degrees).items():
            dims, hmaps, vmaps = perstep.grid_maps(diagram, k)
            assert g.dims == dims
            for got_row, want_row in zip(g.hmaps + g.vmaps, hmaps + vmaps):
                assert len(got_row) == len(want_row)
                for got, want in zip(got_row, want_row):
                    assert same_columns(got, want)


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
    for rng, x in random_cases(p, 8, 76):
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
