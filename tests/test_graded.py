import random
import tracemalloc

import numpy as np
import pytest

from persheaf import (
    Barcode,
    CellularSheaf,
    CochainComplex,
    Field,
    FilteredComplex,
    GradedCosheaf,
    GradedSheaf,
    HomogeneousMatrix,
    NotFreeError,
    SheafDiagram,
    SheafMorphism,
    Simplex,
    barcodes_equal,
    cohomology_basis,
    constant,
    diagram_graded_barcode,
    diagram_to_graded_sheaf,
    evaluate_at,
    evaluate_sheaf_at,
    graded_cochain_complex,
    identity,
    matrix,
    persistent_cohomology,
    type_t_direct,
    validate_graded_sheaf,
    validate_sheaf,
    vietoris_rips,
    zeros,
)
from persheaf.graded import _graded_kernel, _graded_quotient_bars, _graded_snf_bars
from persheaf.linalg import Columns
from persheaf.typet import type_t_graded_by_degree

import pergenerator
from builders import closure, dense_map, edge_diagram, nested_coordinate_diagram
from densekernel import _mulmod
from perincidence import codim1_pairs
from oracles import rref_rank
from genrandom import random_complex, random_monomorphic_diagram

F2 = Field(2)
F5 = Field(5)


def test_homogeneous_matrix_rejects_negative_powers():
    HomogeneousMatrix(F2, [[1]], (0,), (2,))
    with pytest.raises(ValueError, match="negative t-power"):
        HomogeneousMatrix(F2, [[1]], (2,), (0,))
    with pytest.raises(ValueError, match="shape"):
        HomogeneousMatrix(F2, [[1, 0]], (0,), (0,))
    # (0, 1) comes first row by row, (1, 0) first column by column
    first = r"^entry \(0, 1\) would need a negative t-power$"
    for scalar in ([[0, 1], [1, 0]], F2.sparse([[0, 1], [1, 0]])):
        with pytest.raises(ValueError, match=first):
            HomogeneousMatrix(F2, scalar, (1, 1), (0, 0))


def test_homogeneous_matrix_accepts_every_matrix_form():
    assert HomogeneousMatrix(F2, [], (), ()).scalar == F2.sparse(zeros(0, 0))
    want = F5.sparse([[1, 0], [0, 3]])
    for scalar in ([[6, 0], [0, 3]], matrix([[6, 0], [0, 3]]), want):
        hom = HomogeneousMatrix(F5, scalar, (0, 1), (1, 1))
        assert isinstance(hom.scalar, Columns)
        assert hom.scalar == want
    with pytest.raises(ValueError):
        HomogeneousMatrix(F2, [[1, 0], [1]], (0, 0), (0, 0))


def test_presentation_reduction_drops_redundant_relations():
    # three generators, two killed outright, the third untouched
    rel = matrix([[4, 0, 0, 0, 1], [0, 4, 1, 0, 0], [0, 0, 0, 0, 0]], 5)
    bars = _graded_snf_bars(F5, rel, (0, 0, 3), (0, 1, 0, 2, 4))
    assert bars == [(3, None)]


def test_presentation_reduction_torsion_length():
    bars = _graded_snf_bars(F5, matrix([[2]], 5), (1,), (4,))
    assert bars == [(1, 3)]


def test_presentation_reduction_keeps_minimal_power():
    bars = _graded_snf_bars(F5, matrix([[1, 1]], 5), (0,), (2, 3))
    assert bars == [(0, 1)]


def presentation_bars_by_ranks(rel, row_degrees, col_degrees, p):
    """Bars of coker(rel) from ranks of its levels, by inclusion-exclusion.

    Level n is F^(generators of degree <= n) modulo the relations of
    degree <= n; r(a, b) is the rank of level a's image in level b.
    """
    rel = np.asarray(rel, dtype=np.int64)
    top = max(list(row_degrees) + list(col_degrees) + [0]) + 1

    def level(n):
        gens = [i for i, d in enumerate(row_degrees) if d <= n]
        rels = [j for j, d in enumerate(col_degrees) if d <= n]
        return gens, rel[np.ix_(gens, rels)]

    def r(a, b):
        if a < 0:
            return 0
        gens_b, rel_b = level(b)
        gens_a = [i for i, d in enumerate(row_degrees) if d <= a]
        incl = np.zeros((len(gens_b), len(gens_a)), dtype=np.int64)
        for col, g in enumerate(gens_a):
            incl[gens_b.index(g), col] = 1
        return rref_rank(np.hstack([rel_b, incl]), p) - rref_rank(rel_b, p)

    bars = []
    for a in range(top + 1):
        for b in range(a, top):
            mult = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            bars += [(a, b)] * mult
        bars += [(a, None)] * (r(a, top) - r(a - 1, top))
    return Barcode(bars)


def random_presentation(rng, p):
    """A homogeneous relation matrix, with zero and dependent columns."""
    nr, nc = rng.randint(0, 5), rng.randint(0, 6)
    rows = [rng.randint(0, 4) for _ in range(nr)]
    cols = [rng.randint(0, 5) for _ in range(nc)]
    rel = zeros(nr, nc)
    for j in range(nc):
        earlier = [c for c in range(j) if cols[c] <= cols[j]]
        if earlier and rng.random() < 0.3:
            rel[:, j] = (rng.randrange(1, p) * rel[:, rng.choice(earlier)]) % p
            continue
        for i in range(nr):
            if rows[i] <= cols[j] and rng.random() < 0.5:
                rel[i, j] = rng.randrange(p)
    return rel, rows, cols


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_presentation_bars_match_rank_formula(p):
    rng = random.Random(p % 1009)
    for _ in range(60):
        rel, rows, cols = random_presentation(rng, p)
        got = Barcode(_graded_snf_bars(Field(p), rel, rows, cols))
        assert got == presentation_bars_by_ranks(rel, rows, cols, p)


def test_reduction_refuses_a_negative_power():
    hom = HomogeneousMatrix(F2, [[1, 0], [0, 0]], (0, 2), (1, 1))
    hom.scalar = F2.sparse([[1, 0], [0, 1]])
    with pytest.raises(AssertionError, match="negative t-power"):
        hom.pivots


def test_quotient_refuses_maps_that_do_not_compose_to_zero():
    out_map = HomogeneousMatrix(F2, [[1]], (0,), (0,))
    in_map = HomogeneousMatrix(F2, [[1]], (0,), (1,))
    with pytest.raises(AssertionError, match="not a cycle"):
        _graded_quotient_bars(out_map, in_map)


def composable_pair(kind, p, column, row, lead):
    """A graded sheaf or cosheaf of kind on the full simplex on lead + 3
    vertices, every generator of degree 0, whose maps lead and lead + 1
    compose to row @ column, after lead zero maps.

    Only simplices 0.1...lead (low), 0.1...lead+1 (mid) and
    0.1...lead+2 (top) have nonzero stalks, of ranks 1, len(column) and
    1; low -> mid is column and mid -> top is row, or, in a cosheaf,
    top -> mid is column and mid -> low is row.
    """
    x = FilteredComplex(Field(p), closure(lead + 2))
    low, mid, top = (".".join(map(str, range(n))) for n in range(lead + 1, lead + 4))
    ranks = {low: 1, mid: len(column), top: 1}
    degrees = {s.id: (0,) * ranks.get(s.id, 0) for s in x.simplices}
    column, row = [[c] for c in column], [row]
    if kind is GradedSheaf:
        return kind(x, degrees, {(low, mid): column, (mid, top): row})
    return kind(x, degrees, {(top, mid): column, (mid, low): row})


# keyed by the complex each one assembles: a graded sheaf's coboundaries
# or a graded cosheaf's boundaries
GRADED_KINDS = {"GradedComplex": GradedSheaf, "GradedChainComplex": GradedCosheaf}


@pytest.mark.parametrize("kind", GRADED_KINDS)
@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_graded_maps_must_compose_to_zero_mod_p(kind, p):
    q = p - 1
    stalks = GRADED_KINDS[kind]
    for lead in (0, 1):
        # 7 (p-1)^2 = 7 mod p, which no p here divides; at 2^31 - 1 the
        # unreduced sum overflows int64
        refused = rf"^maps {lead} and {lead + 1} do not compose to zero$"
        with pytest.raises(ValueError, match=refused):
            graded_cochain_complex(composable_pair(stalks, p, [q] * 7, [q] * 7, lead))
        # 3 (p-1) p: nonzero as an integer, zero mod p
        graded_cochain_complex(composable_pair(stalks, p, [q, 1] * 3, [q] * 6, lead))


def test_graded_reduction_keeps_the_boundaries_sparse():
    """The tracemalloc peak of the graded engine on a 60-point VR
    constant sheaf (60/416/1,325 simplices) stays far below what dense
    boundaries took: 13.8 MiB with them, about 2 MiB as Columns."""
    rng = random.Random(0)
    points = [(rng.random(), rng.random()) for _ in range(60)]
    x = vietoris_rips(F2, points, [0.1, 0.2, 0.3], 2)
    assert [len(x.simplices_of_dim(k)) for k in range(3)] == [60, 416, 1325]
    sheaf = constant(x, 1)
    tracemalloc.start()
    try:
        bars = type_t_graded_by_degree(sheaf, range(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert barcodes_equal(bars[1], type_t_direct(sheaf, 1)[1])


def test_graded_kernel_tracks_degrees():
    basis, degs = _graded_kernel(F2, matrix([[1, 1]], 2), (0, 2))
    assert degs == (2,)
    assert basis.ravel().tolist() == [1, 1]
    empty, edegs = _graded_kernel(F2, matrix([[1, 0], [0, 1]], 2), (0, 1))
    assert edegs == () and empty.shape == (2, 0)


def test_diagram_module_generator_degrees():
    gs = diagram_to_graded_sheaf(edge_diagram())
    assert gs.degrees["0"] == (0, 1)
    assert gs.degrees["0.1"] == (0, 0, 3)
    assert gs.degrees["1"] == (0, 2, 4)
    assert validate_graded_sheaf(gs) == []
    r1 = gs.restriction("0", "0.1")
    assert r1.scalar.dense().tolist() == [[1, 0], [0, 1], [0, 0]]
    assert r1.row_degrees == (0, 0, 3) and r1.col_degrees == (0, 1)
    r2 = gs.restriction("1", "0.1")
    assert r2.scalar.dense().tolist() == [[0, 0, 1], [1, 0, 0], [0, 0, 0]]
    assert r2.col_degrees == (0, 2, 4)


def test_non_injective_diagram_is_not_free():
    x = FilteredComplex(F2, [Simplex("0", (0,), 0), Simplex("1", (1,), 0)])
    a, b = constant(x, 1), constant(x, 1)
    dead = SheafMorphism(a, b, {"0": zeros(1, 1), "1": zeros(1, 1)})
    with pytest.raises(NotFreeError):
        diagram_to_graded_sheaf(SheafDiagram([a, b], [dead]))


def test_diagram_barcode_matches_pointwise():
    d = edge_diagram()
    from persheaf import Barcode
    assert diagram_graded_barcode(d, 0) == Barcode([(1, None), (2, None), (4, None)])
    for k in (0, 1):
        _, want = persistent_cohomology(d, k)
        assert barcodes_equal(diagram_graded_barcode(d, k), want)


def test_graded_coboundary_squares_to_zero():
    gs = diagram_to_graded_sheaf(edge_diagram())
    gc = graded_cochain_complex(gs)
    square = _mulmod(dense_map(gc, 1), dense_map(gc, 0), gc.field.p)
    assert not square.any()


def test_slices_recover_snapshots():
    d = edge_diagram()
    gc = graded_cochain_complex(diagram_to_graded_sheaf(d))
    for n, sheaf in enumerate(d.snapshots):
        cc = CochainComplex(sheaf)
        sl = evaluate_at(gc, n)
        for k in (0, 1):
            assert sl.dim(k) == cc.dim(k)
            betti_slice = (
                sl.dim(k)
                - F2.rank(sl.delta(k))
                - F2.rank(sl.delta(k - 1) if k else zeros(sl.dim(0), 0))
            )
            assert betti_slice == cohomology_basis(sheaf, k, cc).dim


def test_slice_step_maps_commute_with_delta():
    gc = graded_cochain_complex(diagram_to_graded_sheaf(edge_diagram()))
    for n in range(4):
        cur, nxt = evaluate_at(gc, n), evaluate_at(gc, n + 1)
        left = _mulmod(nxt.delta(0), cur.t_action(0), 2)
        right = _mulmod(cur.t_action(1), cur.delta(0), 2)
        assert np.array_equal(left, right)


def test_evaluated_sheaves_validate():
    d = edge_diagram()
    gs = diagram_to_graded_sheaf(d)
    for n, snap in enumerate(d.snapshots):
        ev = evaluate_sheaf_at(gs, n)
        assert validate_sheaf(ev) == []
        assert ev.stalk_dim == snap.stalk_dim


def test_random_diagrams_compress_without_loss():
    rng = random.Random(301)
    for _ in range(15):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        d = random_monomorphic_diagram(rng, x)
        gs = diagram_to_graded_sheaf(d)
        assert validate_graded_sheaf(gs) == []
        for n, snap in enumerate(d.snapshots):
            assert evaluate_sheaf_at(gs, n).stalk_dim == snap.stalk_dim
        for k in range(x.dim + 1):
            _, want = persistent_cohomology(d, k)
            assert barcodes_equal(diagram_graded_barcode(d, k), want)


def _not_injective(rng, diagram):
    """The diagram with one nonzero step component made rank-deficient."""
    spots = [
        (i, s.id)
        for i, phi in enumerate(diagram.steps)
        for s in diagram.complex.simplices
        if phi.component(s.id).shape[1]
    ]
    i, sid = rng.choice(spots)
    steps = []
    for n, phi in enumerate(diagram.steps):
        comp = {s.id: phi.component(s.id).copy() for s in diagram.complex.simplices}
        if n == i:
            comp[sid][:, -1] = comp[sid][:, 0] if comp[sid].shape[1] > 1 else 0
        steps.append(SheafMorphism(phi.source, phi.target, comp))
    return SheafDiagram(diagram.snapshots, steps)


def count_reductions(monkeypatch):
    """A list that grows by one at each call of Field._column_echelon."""
    calls = []
    reduce = Field._column_echelon

    def counted(self, *args, **kwargs):
        calls.append(1)
        return reduce(self, *args, **kwargs)

    monkeypatch.setattr(Field, "_column_echelon", counted)
    return calls


def assert_same_graded_sheaf(got, want):
    """Degrees and every restriction equal, entry for entry."""
    assert got.degrees == want.degrees
    for f, t in codim1_pairs(got.complex):
        a, b = got.restriction(f.id, t.id), want.restriction(f.id, t.id)
        assert a.scalar.data.dtype == b.scalar.data.dtype == np.int64
        assert a.scalar == b.scalar
        assert (a.row_degrees, a.col_degrees) == (b.row_degrees, b.col_degrees)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_conversion_matches_the_per_generator_reference(p, monkeypatch):
    rng = random.Random(1009 + p % 1000)
    for _ in range(12):
        x = random_complex(rng, Field(p), max_simplices=14)
        d = random_monomorphic_diagram(rng, x, max_total=4)
        want = pergenerator.diagram_to_graded_sheaf(d)
        calls = count_reductions(monkeypatch)
        got = diagram_to_graded_sheaf(d)
        monkeypatch.undo()
        # one reduction per level and one for every restriction at once
        assert len(calls) <= d.length + 1
        assert_same_graded_sheaf(got, want)
        if d.steps and any(phi.component(s.id).size for phi in d.steps for s in x.simplices):
            broken = _not_injective(rng, d)
            with pytest.raises(NotFreeError) as old:
                pergenerator.diagram_to_graded_sheaf(broken)
            with pytest.raises(NotFreeError) as new:
                diagram_to_graded_sheaf(broken)
            assert str(new.value) == str(old.value)


def test_conversion_reductions_do_not_grow_with_the_complex(monkeypatch):
    counts = []
    for n in (6, 14):
        rng = random.Random(n)
        points = [(rng.random(), rng.random()) for _ in range(n)]
        x = vietoris_rips(Field(2**31 - 1), points, [0.3, 0.5, 0.7], 2)
        d = nested_coordinate_diagram(x, 3, 4)
        want = pergenerator.diagram_to_graded_sheaf(d)
        calls = count_reductions(monkeypatch)
        got = diagram_to_graded_sheaf(d)
        monkeypatch.undo()
        assert_same_graded_sheaf(got, want)
        counts.append((len(x.simplices), len(calls)))
    (small, first), (large, second) = counts
    assert large > 3 * small
    assert first == second <= 4 + 1


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_conversion_of_empty_pieces(p):
    f = Field(p)
    vertices = FilteredComplex(f, [Simplex(str(v), (v,), v % 2) for v in range(4)])
    for d in (
        nested_coordinate_diagram(vertices, 2, 3),
        nested_coordinate_diagram(vertices, 0, 2),
        nested_coordinate_diagram(FilteredComplex(f, []), 2, 2),
    ):
        assert_same_graded_sheaf(
            diagram_to_graded_sheaf(d), pergenerator.diagram_to_graded_sheaf(d)
        )
    # a first snapshot whose stalks are all zero, and a last one too
    x = FilteredComplex(f, closure(2))
    d = nested_coordinate_diagram(x, 3, 4)
    none = CellularSheaf(x, {}, {})
    into = SheafMorphism(none, d.snapshots[0], {})
    out = SheafMorphism(d.snapshots[-1], none, {})
    for zero_ended in (
        SheafDiagram([none, *d.snapshots], [into, *d.steps]),
        SheafDiagram([none, none], [SheafMorphism(none, none, {})]),
    ):
        assert_same_graded_sheaf(
            diagram_to_graded_sheaf(zero_ended),
            pergenerator.diagram_to_graded_sheaf(zero_ended),
        )
    with pytest.raises(NotFreeError) as old:
        pergenerator.diagram_to_graded_sheaf(SheafDiagram([*d.snapshots, none], [*d.steps, out]))
    with pytest.raises(NotFreeError) as new:
        diagram_to_graded_sheaf(SheafDiagram([*d.snapshots, none], [*d.steps, out]))
    assert str(new.value) == str(old.value)


def test_conversion_refuses_maps_of_the_wrong_shape():
    d = edge_diagram()
    comps = {s.id: d.steps[1].component(s.id) for s in d.complex.simplices}
    comps["1"] = zeros(2, 2)
    steps = list(d.steps)
    steps[1] = SheafMorphism(d.snapshots[1], d.snapshots[2], comps)
    shape = r"^component at '1' has shape \(2, 2\), expected \(2, 1\)$"
    with pytest.raises(ValueError, match=shape):
        diagram_to_graded_sheaf(SheafDiagram(d.snapshots, steps))
    bare = CellularSheaf(d.complex, d.snapshots[-1].stalk_dim, {})
    out = SheafMorphism(d.snapshots[-2], bare, d.steps[-1]._component)
    with pytest.raises(ValueError, match="missing restriction for '0' -> '0.1'"):
        diagram_to_graded_sheaf(SheafDiagram([*d.snapshots[:-1], bare], [*d.steps[:-1], out]))


def test_not_free_names_the_first_simplex_not_the_first_step():
    # '0' fails only at step 2, '1' already at step 0; the reference
    # walks simplex by simplex, so '0' at step 2 is reported
    x = FilteredComplex(F5, [Simplex("0", (0,), 0), Simplex("1", (1,), 0)])
    snaps = [CellularSheaf(x, {"0": 2, "1": 2}, {}) for _ in range(4)]
    keep, fold = identity(2), matrix([[1, 1], [2, 2]], 5)
    comps = [{"0": keep, "1": fold}, {"0": keep, "1": keep}, {"0": fold, "1": fold}]
    d = SheafDiagram(snaps, [SheafMorphism(a, b, c) for a, b, c in zip(snaps, snaps[1:], comps)])
    with pytest.raises(NotFreeError) as old:
        pergenerator.diagram_to_graded_sheaf(d)
    assert str(old.value) == "diagram not free at 0, step 2"
    with pytest.raises(NotFreeError, match=r"^diagram not free at 0, step 2$"):
        diagram_to_graded_sheaf(d)


def test_not_free_message_names_the_first_failing_step():
    x = FilteredComplex(F2, [Simplex("0", (0,), 0), Simplex("1", (1,), 0)])
    a, b, c = constant(x, 1), constant(x, 1), constant(x, 1)
    keep = SheafMorphism(a, b, {"0": identity(1), "1": identity(1)})
    dead = SheafMorphism(b, c, {"0": identity(1), "1": zeros(1, 1)})
    with pytest.raises(NotFreeError, match=r"^diagram not free at 1, step 1$"):
        diagram_to_graded_sheaf(SheafDiagram([a, b, c], [keep, dead]))
