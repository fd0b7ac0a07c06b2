import pytest

from perincidence import faces, incidence_sign
from persheaf import (
    Field,
    FilteredComplex,
    Simplex,
    SimplicialMap,
    preimage_subcomplex,
    vietoris_rips,
)

F2 = Field(2)


def hollow_triangle():
    return FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 0),
        Simplex("0.1", (0, 1), 0), Simplex("0.2", (0, 2), 0), Simplex("1.2", (1, 2), 0),
    ])


def test_simplex_rejects_bad_vertex_lists():
    with pytest.raises(ValueError):
        Simplex("x", ())
    with pytest.raises(ValueError):
        Simplex("x", (1, 0))
    with pytest.raises(ValueError):
        Simplex("x", (0, 0))
    with pytest.raises(ValueError):
        Simplex("x", (0,), -1)


def test_global_order_is_dim_then_entry_then_vertices():
    x = FilteredComplex(F2, [
        Simplex("b", (1,), 1), Simplex("a", (0,), 0), Simplex("c", (2,), 0),
        Simplex("e", (0, 1), 1), Simplex("d", (0, 2), 0),
    ], steps=2)
    assert [s.id for s in x.simplices] == ["a", "c", "b", "d", "e"]
    assert x.dim == 1
    assert x.vertices == (0, 1, 2)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        FilteredComplex(F2, [Simplex("v", (0,), 0), Simplex("v", (1,), 0)])


def test_validate_flags_structural_problems():
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 1), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 0),
    ], steps=2)
    msgs = x.validate()
    assert any("entry of face" in m for m in msgs)

    y = FilteredComplex(F2, [Simplex("0", (0,), 0), Simplex("0.1", (0, 1), 0)])
    assert any("missing" in m for m in y.validate())

    z = FilteredComplex(F2, [Simplex("a", (0,), 0), Simplex("b", (0,), 0)])
    assert any("share the vertex set" in m for m in z.validate())

    w = FilteredComplex(F2, [Simplex("0", (0,), 3)], steps=2)
    assert any("outside" in m for m in w.validate())


def test_faces_follow_vertex_omission_order():
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 0),
        Simplex("0.1", (0, 1), 0), Simplex("0.2", (0, 2), 0), Simplex("1.2", (1, 2), 0),
        Simplex("0.1.2", (0, 1, 2), 0),
    ])
    t = x.by_id["0.1.2"]
    assert [f.id for f in faces(x, t)] == ["1.2", "0.2", "0.1"]
    assert [incidence_sign(f, t) for f in faces(x, t)] == [1, -1, 1]
    assert incidence_sign(x.by_id["0"], t) == 0
    assert incidence_sign(t, x.by_id["0.1"]) == 0


def test_subcomplex_and_step_inclusion():
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 1),
    ])
    sub = x.subcomplex(0)
    assert [s.id for s in sub.simplices] == ["0", "1"]
    assert sub.steps == x.steps
    inc = x.step_inclusion(0)
    assert inc.is_inclusion()
    assert inc.image("0").id == "0"
    mid = x.step_inclusion(0, 1)
    assert [s.id for s in mid.target.simplices] == ["0", "1", "0.1"]


def test_simplicial_map_requires_closed_images():
    tri = hollow_triangle()
    seg = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 0),
    ])
    f = SimplicialMap(tri, seg, {0: 0, 1: 1, 2: 1})
    assert f.image("1.2").id == "1"
    assert f.image("0.2").id == "0.1"
    assert not f.is_inclusion()
    with pytest.raises(ValueError):
        SimplicialMap(tri, seg, {0: 0, 1: 1})
    # collapsing to a missing simplex is also an error
    two_pts = FilteredComplex(F2, [Simplex("0", (0,), 0), Simplex("1", (1,), 0)])
    with pytest.raises(ValueError):
        SimplicialMap(seg, two_pts, {0: 0, 1: 1})


def test_preimage_subcomplex_pulls_back_closures():
    tri = hollow_triangle()
    seg = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 0),
    ])
    f = SimplicialMap(tri, seg, {0: 0, 1: 1, 2: 1})
    pre = preimage_subcomplex(f, "1")
    assert [s.id for s in pre.simplices] == ["1", "2", "1.2"]
    everything = preimage_subcomplex(f, "0.1")
    assert len(everything.simplices) == 6


def test_vietoris_rips_on_a_line():
    pts = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (4.0, 0.0)]
    x = vietoris_rips(F2, pts, [0.5, 1.0, 2.0], 2)
    assert x.steps == 3
    got = {s.id: s.entry for s in x.simplices}
    assert got == {"0": 0, "1": 0, "2": 0, "3": 0, "0.1": 1, "2.3": 1, "1.2": 2}
    assert x.validate() == []


def test_vietoris_rips_builds_cliques():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    x = vietoris_rips(F2, pts, [1.0, 1.5], 2)
    assert {s.id for s in x.simplices_of_dim(2)} == {"0.1.2"}
    assert x.by_id["0.1.2"].entry == 1
    assert x.by_id["0.1"].entry == 0
    assert x.by_id["1.2"].entry == 1
    with pytest.raises(ValueError):
        vietoris_rips(F2, pts, [], 2)
    with pytest.raises(ValueError):
        vietoris_rips(F2, pts, [2.0, 1.0], 2)


def test_same_data_ignores_object_identity():
    a, b = hollow_triangle(), hollow_triangle()
    assert a is not b and a.same_data(b)
    c = FilteredComplex(F2, [Simplex("0", (0,), 0)])
    assert not a.same_data(c)
