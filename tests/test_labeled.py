"""Tests for the label-complex pipelines.

The frozen dimension tables and barcodes for the two-region filtration
were derived by hand from the component/cycle structure of the blue
square, the red region and the bridges between them; the single-step
feature profiles follow from counting monochrome cycles against cycles
of the whole complex.
"""

import random

import numpy as np
import pytest

from builders import four_point_matching, two_region_filtration
from oracles import component_count
from persheaf import (
    Field,
    FilteredComplex,
    LabeledFiltration,
    Simplex,
    cohomology_basis,
    full_label_complex,
    label_diagram,
    mixed_feature_barcodes,
    persistent_cohomology,
    preimage_subcomplex,
    pullback,
    two_label_sheaf,
    type_t_direct,
    unicolored_pipeline,
    validate_diagram,
    validate_sheaf,
)
from genrandom import random_complex

F2 = Field(2)


def one_step(edges, triangles, labels):
    verts = sorted({v for e in edges for v in e} | {v for t in triangles for v in t})
    simplices = [Simplex(str(v), (v,), 0) for v in verts]
    simplices += [
        Simplex(".".join(map(str, sorted(e))), tuple(sorted(e)), 0) for e in edges
    ]
    simplices += [
        Simplex(".".join(map(str, sorted(t))), tuple(sorted(t)), 0) for t in triangles
    ]
    x = FilteredComplex(F2, simplices, steps=1)
    return LabeledFiltration(x, {v: labels[v] for v in verts})


def test_full_label_complex_structure():
    l = full_label_complex(F2, ["red", "blue", "green", "blue"])
    ids = [s.id for s in l.simplices]
    assert ids == [
        "blue",
        "green",
        "red",
        "blue.green",
        "blue.red",
        "green.red",
        "blue.green.red",
    ]
    assert l.steps == 1
    assert all(s.entry == 0 for s in l.simplices)
    assert l.validate() == []


def test_label_name_with_dot_rejected():
    with pytest.raises(ValueError, match="contains a dot"):
        full_label_complex(F2, ["blue", "light.blue"])


def test_unlabeled_vertices_rejected():
    x = FilteredComplex(
        F2, [Simplex("0", (0,), 0), Simplex("1", (1,), 0)], steps=1
    )
    with pytest.raises(ValueError, match="unlabeled vertices"):
        LabeledFiltration(x, {0: "blue"})


def test_induced_map_and_preimages():
    lf = four_point_matching()
    assert lf.names == ("blue", "red")
    blue = preimage_subcomplex(lf.map, "blue")
    assert {s.id for s in blue.simplices} == {"0", "1", "0.1"}
    red = preimage_subcomplex(lf.map, "red")
    assert {s.id for s in red.simplices} == {"2", "3", "2.3"}
    whole = preimage_subcomplex(lf.map, "blue.red")
    assert len(whole.simplices) == len(lf.filtration.simplices)


def test_component_sheaf_stalk_dims_over_filtration():
    lf = two_region_filtration()
    d = label_diagram(lf, 0)
    dims = [
        tuple(s.stalk(t) for t in ("blue", "blue.red", "red"))
        for s in d.snapshots
    ]
    assert dims == [
        (4, 8, 4),
        (3, 6, 3),
        (1, 2, 1),
        (1, 1, 1),
        (1, 1, 1),
        (1, 1, 1),
        (1, 1, 1),
    ]


def test_cycle_sheaf_stalk_dims_over_filtration():
    lf = two_region_filtration()
    d = label_diagram(lf, 1)
    dims = [
        tuple(s.stalk(t) for t in ("blue", "blue.red", "red"))
        for s in d.snapshots
    ]
    assert dims == [
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
        (1, 3, 1),
        (0, 1, 0),
        (0, 3, 1),
        (0, 0, 0),
    ]


def test_monochrome_stalks_match_component_counts():
    lf = two_region_filtration()
    d = label_diagram(lf, 0)
    for name in lf.names:
        part = preimage_subcomplex(lf.map, name)
        for i, snapshot in enumerate(d.snapshots):
            sub = part.subcomplex(i)
            vertices = [s.vertices[0] for s in sub.simplices_of_dim(0)]
            edges = [s.vertices for s in sub.simplices_of_dim(1)]
            assert snapshot.stalk(name) == component_count(vertices, edges)


def test_dying_component_persistence():
    lf = two_region_filtration()
    mod, _ = persistent_cohomology(label_diagram(lf, 0), 0)
    assert tuple(mod.dims) == (0, 0, 0, 1, 1, 1, 1)
    bars = mixed_feature_barcodes(lf, 0, 0)
    assert sorted(bars.bars) == [(3, None)]
    assert sorted(bars.closed(7).bars) == [(3, 6)]


def test_mixed_cycle_persistence():
    lf = two_region_filtration()
    mod, bars = persistent_cohomology(label_diagram(lf, 1), 1)
    assert tuple(mod.dims) == (0, 0, 0, 1, 1, 2, 0)
    assert sorted(bars.bars) == [(3, 5), (5, 5)]
    assert sorted(mixed_feature_barcodes(lf, 1, 1).bars) == [(3, 5), (5, 5)]


# Four codings of the same question: which cycles live inside a single
# color class, which need both?  H^0 counts monochrome cycles dying in
# the whole complex, H^1 counts cycles only the mixture can close.
PROFILES = [
    # alternating colors around a hollow square: no monochrome cycles,
    # one mixed one
    (
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [],
        {0: "b", 1: "r", 2: "b", 3: "r"},
        (0, 1, 0),
        (0, 1),
    ),
    # two disjoint monochrome cycles, both surviving
    (
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        [],
        {0: "b", 1: "b", 2: "b", 3: "r", 4: "r", 5: "r"},
        (1, 2, 1),
        (0, 0),
    ),
    # a blue and a red cycle joined by a tube of mixed triangles, so
    # the two cycles merge into one
    (
        [
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (0, 3),
            (1, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (0, 5),
        ],
        [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)],
        {0: "b", 1: "b", 2: "b", 3: "r", 4: "r", 5: "r"},
        (1, 1, 1),
        (1, 0),
    ),
    # a blue cycle coned off by a red apex, plus a disjoint mixed
    # square: the monochrome cycle dies and a mixed one appears
    (
        [
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 6),
            (1, 6),
            (2, 6),
            (7, 8),
            (8, 9),
            (9, 10),
            (7, 10),
        ],
        [(0, 1, 6), (0, 2, 6), (1, 2, 6)],
        {0: "b", 1: "b", 2: "b", 6: "r", 7: "b", 8: "r", 9: "b", 10: "r"},
        (1, 1, 0),
        (1, 1),
    ),
]


@pytest.mark.parametrize("edges,triangles,labels,stalks,profile", PROFILES)
def test_single_step_feature_profiles(edges, triangles, labels, stalks, profile):
    lf = one_step(edges, triangles, labels)
    sheaf = label_diagram(lf, 1).snapshots[0]
    assert validate_sheaf(sheaf) == []
    assert tuple(sheaf.stalk(t) for t in ("b", "b.r", "r")) == stalks
    assert tuple(cohomology_basis(sheaf, k).dim for k in (0, 1)) == profile


def test_two_label_sheaf_shape():
    l = full_label_complex(Field(5), ["blue", "red"])
    sheaf = two_label_sheaf(l)
    assert sheaf.stalk("blue") == 1
    assert sheaf.stalk("red") == 1
    assert sheaf.stalk("blue.red") == 2
    assert sheaf.restriction("blue", "blue.red").tolist() == [[1], [0]]
    assert sheaf.restriction("red", "blue.red").tolist() == [[0], [1]]
    assert validate_sheaf(sheaf) == []


def test_two_label_sheaf_needs_two_labels():
    with pytest.raises(ValueError, match="exactly 2 labels"):
        two_label_sheaf(full_label_complex(F2, ["a", "b", "c"]))


def test_unicolored_matching_example():
    lf = four_point_matching()
    sheaf = pullback(lf.map, two_label_sheaf(lf.label_complex))
    mod, bars = type_t_direct(sheaf, 0)
    assert tuple(mod.dims) == (4, 2, 0)
    assert sorted(bars.bars) == [(0, 0), (0, 0), (0, 1), (0, 1)]
    assert sorted(unicolored_pipeline(lf, 0).bars) == sorted(bars.bars)


def test_unicolored_takes_one_degree_or_a_sequence():
    lf = four_point_matching()
    by_degree = unicolored_pipeline(lf, (0, 1))
    assert list(by_degree) == [0, 1]
    for k, bars in by_degree.items():
        assert unicolored_pipeline(lf, k) == bars
        assert unicolored_pipeline(lf, np.int64(k)) == bars


def test_unicolored_needs_two_labels():
    x = FilteredComplex(F2, [Simplex("0", (0,), 0)], steps=1)
    lf = LabeledFiltration(x, {0: "blue"})
    with pytest.raises(ValueError, match="exactly 2 labels"):
        unicolored_pipeline(lf, 0)


@pytest.mark.parametrize("seed", range(12))
def test_label_sheaves_on_random_complexes(seed):
    rng = random.Random(7100 + seed)
    x = random_complex(rng, F2, max_simplices=14, max_steps=4)
    labels = {v: rng.choice(["blue", "red"]) for v in x.vertices}
    lf = LabeledFiltration(x, labels)
    for n in (0, 1):
        d = label_diagram(lf, n)
        assert validate_diagram(d) == []
        bars = mixed_feature_barcodes(lf, n, 0)
        mod, _ = persistent_cohomology(d, 0)
        for i in range(x.steps):
            assert mod.dims[i] == sum(
                1 for a, b in bars.bars if a <= i and (b is None or i <= b)
            )


@pytest.mark.parametrize("steps", [1, 3, 6])
def test_label_diagram_reduces_each_part_once_for_every_step(monkeypatch, steps):
    """Each label part's two boundaries are reduced once, whatever the
    step count; every step reads its bases off those reductions."""
    rng = random.Random(7200 + steps)
    x = random_complex(rng, F2, max_simplices=20, max_steps=steps, min_steps=steps)
    lf = LabeledFiltration(x, {v: rng.choice(["blue", "green", "red"]) for v in x.vertices})
    reduced = []
    original = Field._column_echelon

    def counted(self, m, *args, **kwargs):
        reduced.append(m)  # kept alive, so ids stay distinct
        return original(self, m, *args, **kwargs)

    monkeypatch.setattr(Field, "_column_echelon", counted)
    for n in range(x.dim + 2):
        reduced.clear()
        label_diagram(lf, n)
        assert len(reduced) == 2 * len(lf.label_complex.simplices)
        assert len({id(m) for m in reduced}) == len(reduced)
