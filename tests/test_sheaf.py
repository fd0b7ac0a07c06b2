import random
from itertools import combinations

import numpy as np
import pytest

from persheaf import (
    CellularCosheaf,
    CellularSheaf,
    Field,
    FilteredComplex,
    GradedCosheaf,
    GradedSheaf,
    SheafDiagram,
    SheafMorphism,
    Simplex,
    SimplicialMap,
    constant,
    dualize,
    extend_by_zero,
    identity,
    matrix,
    pullback,
    validate_cosheaf,
    validate_diagram,
    validate_graded_cosheaf,
    validate_graded_sheaf,
    validate_morphism,
    validate_sheaf,
)

from densekernel import _mulmod
from perincidence import diamonds

from genrandom import random_complex, random_sheaf

F2 = Field(2)


def segment():
    return FilteredComplex(F2, [
        Simplex("u", (0,), 0), Simplex("v", (1,), 0), Simplex("e", (0, 1), 0),
    ])


def filled_triangle():
    return FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("2", (2,), 0),
        Simplex("0.1", (0, 1), 0), Simplex("0.2", (0, 2), 0), Simplex("1.2", (1, 2), 0),
        Simplex("0.1.2", (0, 1, 2), 0),
    ])


def rank_two_pair():
    """Two sheaves on the segment joined by a natural morphism."""
    seg = segment()
    m = lambda rows: matrix(rows, 2)
    small = CellularSheaf(seg, {"u": 2, "v": 1, "e": 3}, {
        ("u", "e"): m([[1, 0], [1, 0], [0, 1]]),
        ("v", "e"): m([[0], [0], [1]]),
    })
    big = CellularSheaf(seg, {"u": 3, "v": 2, "e": 3}, {
        ("u", "e"): m([[1, 0, 0], [1, 0, 1], [0, 1, 0]]),
        ("v", "e"): m([[0, 0], [0, 1], [1, 0]]),
    })
    phi = SheafMorphism(small, big, {
        "u": m([[1, 0], [0, 1], [0, 0]]),
        "e": identity(3),
        "v": m([[1], [0]]),
    })
    return small, big, phi


def twisted_two_simplex():
    """A sheaf on the full 2-simplex with one swapped vertex restriction."""
    x = filled_triangle()
    m = lambda rows: matrix(rows, 2)
    swap = m([[0, 1], [1, 0]])
    dims = {"0": 2, "1": 2, "2": 2, "0.1": 2, "0.2": 2, "1.2": 2, "0.1.2": 1}
    restr = {
        ("0", "0.1"): identity(2), ("1", "0.1"): identity(2),
        ("0", "0.2"): swap, ("2", "0.2"): identity(2),
        ("1", "1.2"): swap, ("2", "1.2"): identity(2),
        ("0.1", "0.1.2"): m([[0, 1]]), ("0.2", "0.1.2"): m([[1, 0]]),
        ("1.2", "0.1.2"): m([[1, 0]]),
    }
    return x, dims, restr


def test_constant_sheaf_is_valid():
    assert validate_sheaf(constant(filled_triangle(), 2)) == []


def test_restriction_shape_mismatch_is_reported():
    seg = segment()
    bad = CellularSheaf(seg, {"u": 2, "v": 1, "e": 1}, {
        ("u", "e"): matrix([[1]], 2),
        ("v", "e"): matrix([[1]], 2),
    })
    msgs = validate_sheaf(bad)
    assert any("'u' -> 'e' has shape (1, 1), expected (1, 2)" in m for m in msgs)


def test_missing_restriction_is_reported():
    seg = segment()
    bad = CellularSheaf(seg, {"u": 1, "v": 1, "e": 1}, {("u", "e"): matrix([[1]], 2)})
    assert any("missing restriction for 'v' -> 'e'" in m for m in validate_sheaf(bad))


def test_non_incidence_key_is_reported():
    seg = segment()
    restr = {
        ("u", "e"): matrix([[1]], 2),
        ("v", "e"): matrix([[1]], 2),
        ("u", "v"): matrix([[1]], 2),
    }
    ext = {(t, f): m.T for (f, t), m in restr.items()}
    stalks = {"u": 1, "v": 1, "e": 1}
    degrees = {sid: (0,) for sid in stalks}
    up = ["'u' -> 'v' is not a codimension-1 incidence"]
    down = ["'v' -> 'u' is not a codimension-1 incidence"]
    assert validate_sheaf(CellularSheaf(seg, stalks, restr)) == up
    assert validate_cosheaf(CellularCosheaf(seg, stalks, ext)) == down
    assert validate_graded_sheaf(GradedSheaf(seg, degrees, restr)) == up
    assert validate_graded_cosheaf(GradedCosheaf(seg, degrees, ext)) == down


def test_stray_degree_ids_are_reported():
    seg = segment()
    restr = {("u", "e"): matrix([[1]], 2), ("v", "e"): matrix([[1]], 2)}
    ext = {(t, f): m.T for (f, t), m in restr.items()}
    degrees = {"u": (0,), "v": (0,), "e": (0,), "nope": (0,)}
    want = ["stalk stored under 'nope', which names no simplex"]
    assert validate_graded_sheaf(GradedSheaf(seg, degrees, restr)) == want
    assert validate_graded_cosheaf(GradedCosheaf(seg, degrees, ext)) == want


def test_twisted_sheaf_commutes():
    x, dims, restr = twisted_two_simplex()
    assert validate_sheaf(CellularSheaf(x, dims, restr)) == []


def test_broken_diamond_is_named():
    x, dims, restr = twisted_two_simplex()
    restr[("0", "0.2")] = identity(2)
    msgs = validate_sheaf(CellularSheaf(x, dims, restr))
    assert msgs == ["diamond '0' -> '0.1.2' does not commute (via '0.2' vs '0.1')"]


def full_simplex(field, n, top):
    """Every face of dimension <= top of the simplex on n vertices."""
    return FilteredComplex(field, [
        Simplex(".".join(map(str, vs)), vs, 0)
        for d in range(top + 1)
        for vs in combinations(range(n), d + 1)
    ])


def diamond_messages_one_by_one(field, complex_, composite, arrow):
    """The per-diamond check: one dense product pair and one comparison each."""
    out = []
    for s, ra, rb, t in diamonds(complex_):
        if not np.array_equal(composite(s, ra, t), composite(s, rb, t)):
            a, b = arrow(s, t)
            out.append(
                f"diamond {a.id!r} -> {b.id!r} does not commute"
                f" (via {ra.id!r} vs {rb.id!r})"
            )
    return out


def test_batched_diamond_check_matches_per_diamond_loop():
    p = 2 ** 31 - 1
    field = Field(p)
    rng = random.Random(2)
    x = full_simplex(field, 5, 3)
    checked = 0
    while checked < 6:
        # a valid sheaf with stalks of 0 to 12 and large entries: at
        # this p a 1 x 1 product stays in int64 and a longer one needs
        # object dtype; then a few restrictions replaced at random
        sheaf = random_sheaf(rng, x, max_total=checked % 2 * 9 + 3)
        restr = sheaf._maps.as_dict()
        if len(restr) < 20:
            continue
        checked += 1
        for key in rng.sample(sorted(restr), 6):
            restr[key] = np.array(
                [[rng.randrange(p) for _ in row] for row in restr[key]], dtype=np.int64
            ).reshape(restr[key].shape)
        sheaf = CellularSheaf(x, sheaf.stalk_dim, restr)
        want = diamond_messages_one_by_one(
            field, x,
            lambda s, r, t: _mulmod(
                sheaf.restriction(r.id, t.id), sheaf.restriction(s.id, r.id), p
            ),
            lambda s, t: (s, t),
        )
        assert 0 < len(want) < len(list(diamonds(x)))
        assert validate_sheaf(sheaf) == want
        co = dualize(sheaf)
        want = diamond_messages_one_by_one(
            field, x,
            lambda s, r, t: _mulmod(co.extension(r.id, s.id), co.extension(t.id, r.id), p),
            lambda s, t: (t, s),
        )
        assert validate_cosheaf(co) == want
        # the graded validators, with every generator in degree 0, give
        # the cellular messages
        degrees = {sid: (0,) * d for sid, d in sheaf.stalk_dim.items()}
        assert validate_graded_sheaf(GradedSheaf(x, degrees, restr)) == validate_sheaf(sheaf)
        ext = {(t, f): m.T for (f, t), m in restr.items()}
        graded = GradedCosheaf(x, degrees, ext)
        assert validate_graded_cosheaf(graded) == validate_cosheaf(co)


def test_morphism_naturality():
    small, big, phi = rank_two_pair()
    assert validate_sheaf(small) == []
    assert validate_sheaf(big) == []
    assert validate_morphism(phi) == []


def test_morphism_with_wrong_component():
    small, big, _ = rank_two_pair()
    phi = SheafMorphism(small, big, {
        "u": matrix([[1, 0], [0, 1], [0, 0]], 2),
        "e": identity(3),
        "v": matrix([[0], [1]], 2),
    })
    assert validate_morphism(phi) == ["naturality fails across 'v' -> 'e'"]
    shape_bad = SheafMorphism(small, big, {"u": matrix([[1, 0]], 2)})
    assert any("component at 'u' has shape" in m for m in validate_morphism(shape_bad))


def test_morphism_requires_shared_complex():
    small, _, _ = rank_two_pair()
    other = constant(segment(), 2)
    with pytest.raises(ValueError):
        SheafMorphism(small, other, {})


def test_missing_components_default_to_zero():
    small, big, _ = rank_two_pair()
    phi = SheafMorphism(small, big, {})
    assert phi.component("u").shape == (3, 2)
    assert not phi.component("u").any()


def test_pullback_identity_on_collapsed_incidences():
    seg = segment()
    tri = filled_triangle()
    f = SimplicialMap(tri, seg, {0: 0, 1: 1, 2: 1})
    sheaf = rank_two_pair()[0]
    pb = pullback(f, sheaf)
    assert validate_sheaf(pb) == []
    # the edge 1.2 collapses onto the vertex v, so its restrictions are identities
    assert np.array_equal(pb.restriction("1", "1.2"), identity(1))
    assert pb.stalk("0.1.2") == sheaf.stalk("e")
    assert np.array_equal(pb.restriction("0", "0.1"), sheaf.restriction("u", "e"))


def test_extend_by_zero_outside_image():
    x = filled_triangle()
    inc = x.step_inclusion(0)  # whole complex; build a real subcomplex instead
    sub = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 0),
    ])
    f = SimplicialMap(sub, x, {0: 0, 1: 1})
    ext = extend_by_zero(f, constant(sub, 2))
    assert validate_sheaf(ext) == []
    assert ext.stalk("0.1") == 2 and ext.stalk("0.2") == 0 and ext.stalk("0.1.2") == 0
    assert ext.restriction("2", "0.2").shape == (0, 0)
    collapse = SimplicialMap(x, x, {0: 0, 1: 0, 2: 2})
    with pytest.raises(ValueError):
        extend_by_zero(collapse, constant(x, 1))
    assert inc.is_inclusion()


def test_dualize_transposes_restrictions():
    small = rank_two_pair()[0]
    co = dualize(small)
    assert validate_cosheaf(co) == []
    assert np.array_equal(co.extension("e", "u"), small.restriction("u", "e").T)


def test_diagram_wiring_is_checked():
    small, big, phi = rank_two_pair()
    d = SheafDiagram([small, big], [phi])
    assert d.length == 2
    assert validate_diagram(d) == []
    with pytest.raises(ValueError):
        SheafDiagram([small, big], [])
    with pytest.raises(ValueError):
        SheafDiagram([big, small], [phi])


def test_random_sheaves_validate():
    rng = random.Random(401)
    for _ in range(20):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        sheaf = random_sheaf(rng, x)
        assert validate_sheaf(sheaf) == []
        assert validate_cosheaf(dualize(sheaf)) == []
