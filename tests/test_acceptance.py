"""Whole-library acceptance checks.

Fixed worked examples with hand-checked answers, randomized
cross-validation of independent engines on every pipeline, and
byte-level determinism of the command line.  Each randomized block
names the oracle it compares against.
"""

import json
import os
import random

import numpy as np
import pytest

from builders import (
    dense_map,
    edge_diagram,
    four_point_matching,
    square_filtration,
    two_region_filtration,
)
from genrandom import random_complex, random_monomorphic_diagram, random_sheaf
from oracles import betti, persistence_bars
from perincidence import faces
from persheaf import (
    Barcode,
    CochainComplex,
    Field,
    FilteredComplex,
    SheafDiagram,
    SheafMorphism,
    Simplex,
    barcodes_equal,
    check_commutative,
    cohomology_basis,
    constant,
    diagram_graded_barcode,
    diagram_graded_barcode_by_degree,
    diagram_to_graded_sheaf,
    filtration_cosheaf,
    grid,
    label_diagram,
    mirrored_g_diagram,
    persistent_cohomology,
    persistent_cohomology_by_degree,
    reflect,
    type_t_direct,
    type_t_direct_by_degree,
    type_t_graded,
    type_t_graded_by_degree,
    unicolored_pipeline,
    validate_sheaf,
)
from persheaf.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------- fixed cases


def test_triangle_constant_sheaf():
    x = FilteredComplex(
        Field(2),
        [
            Simplex("0", (0,), 0),
            Simplex("1", (1,), 0),
            Simplex("2", (2,), 0),
            Simplex("0.1", (0, 1), 0),
            Simplex("0.2", (0, 2), 0),
            Simplex("1.2", (1, 2), 0),
        ],
        steps=1,
    )
    sheaf = constant(x, 1)
    assert cohomology_basis(sheaf, 0).dim == 1
    assert cohomology_basis(sheaf, 1).dim == 1


def test_growing_edge_diagram_module_and_barcode():
    d = edge_diagram()
    gs = diagram_to_graded_sheaf(d)
    assert gs.degrees == {"0": (0, 1), "0.1": (0, 0, 3), "1": (0, 2, 4)}
    r1 = gs.restriction("0", "0.1")
    assert r1.scalar.dense().tolist() == [[1, 0], [0, 1], [0, 0]]
    r2 = gs.restriction("1", "0.1")
    assert r2.scalar.dense().tolist() == [[0, 0, 1], [1, 0, 0], [0, 0, 0]]
    graded = diagram_graded_barcode(d, 0)
    assert graded == Barcode([(1, None), (2, None), (4, None)])
    _, pointwise = persistent_cohomology(d, 0)
    assert barcodes_equal(graded, pointwise)


def test_two_region_labeled_barcodes():
    lf = two_region_filtration()
    mod0, bars0 = persistent_cohomology(label_diagram(lf, 0), 0)
    assert tuple(mod0.dims) == (0, 0, 0, 1, 1, 1, 1)
    assert bars0 == Barcode([(3, None)])
    assert bars0.closed(7) == Barcode([(3, 6)])
    mod1, bars1 = persistent_cohomology(label_diagram(lf, 1), 1)
    assert tuple(mod1.dims) == (0, 0, 0, 1, 1, 2, 0)
    assert bars1 == Barcode([(3, 5), (5, 5)])


def test_four_point_matching_unicolored():
    lf = four_point_matching()
    from persheaf import pullback, two_label_sheaf

    mod, bars = type_t_direct(pullback(lf.map, two_label_sheaf(lf.label_complex)), 0)
    assert tuple(mod.dims) == (4, 2, 0)
    assert bars == Barcode([(0, 0), (0, 0), (0, 1), (0, 1)])
    assert unicolored_pipeline(lf, 0) == bars


def test_square_constant_backward_persistence():
    x = square_filtration()
    sheaf = constant(x, 1)
    gco = filtration_cosheaf(sheaf)
    for s in x.simplices:
        assert gco.degrees[s.id] == (s.entry,)
    powers = {}
    for e in x.simplices_of_dim(1):
        for v in faces(x, e):
            ext = gco.extension(e.id, v.id)
            powers[(e.id, v.id)] = ext.col_degrees[0] - ext.row_degrees[0]
    assert powers == {
        ("0.1", "0"): 1, ("0.1", "1"): 1,
        ("2.3", "2"): 2, ("2.3", "3"): 2,
        ("0.2", "0"): 3, ("0.2", "2"): 3,
        ("1.3", "1"): 3, ("1.3", "3"): 3,
    }
    # component/cycle count by hand: four corners join into one square
    _, bars0 = type_t_direct(sheaf, 0)
    assert bars0 == Barcode([(0, 0), (0, 1), (0, 2), (0, None)])
    _, bars1 = type_t_direct(sheaf, 1)
    assert bars1 == Barcode([(3, None)])
    assert type_t_graded(sheaf, 0) == bars0
    assert type_t_graded(sheaf, 1) == bars1


# ------------------------------------------------------------ property suites


@pytest.mark.parametrize("seed", range(10))
def test_graded_engine_matches_pointwise_oracle(seed):
    """Free-module reduction against the rank-formula engine, 20 runs each."""
    rng = random.Random(8100 + seed)
    for _ in range(20):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        d = random_monomorphic_diagram(rng, x)
        for k in range(x.dim + 1):
            _, oracle = persistent_cohomology(d, k)
            assert barcodes_equal(diagram_graded_barcode(d, k), oracle)


def backward_pairs(seed):
    """The shared complex/sheaf pairs for the two backward-engine suites."""
    rng = random.Random(8200 + seed)
    pairs = []
    for _ in range(10):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        pairs.append((x, random_sheaf(rng, x)))
    return pairs


@pytest.mark.parametrize("seed", range(10))
def test_backward_engines_agree(seed):
    for x, sheaf in backward_pairs(seed):
        for k in range(x.dim + 1):
            _, direct = type_t_direct(sheaf, k)
            assert barcodes_equal(type_t_graded(sheaf, k), direct)


@pytest.mark.parametrize("seed", range(10))
def test_mirrored_chain_reflection(seed):
    """Extension-by-zero chain run forward equals the reflected backward bars.

    Compared with both unbounded ends written as closed ends: a backward
    bar reaching index 0 and a forward bar reaching the last step are
    the same phenomenon read from opposite directions.
    """
    for x, sheaf in backward_pairs(seed):
        m = x.steps
        mirror = mirrored_g_diagram(sheaf)
        for k in range(x.dim + 1):
            _, a_bc = persistent_cohomology(mirror, k)
            _, t_bc = type_t_direct(sheaf, k)
            assert a_bc.closed(m) == reflect(t_bc, m).closed(m)


def failing_squares(g):
    """Recompute every square with plain numpy, return the failing set."""
    p = g.field.p
    out = set()
    for u in range(g.rows - 1):
        for j in range(g.cols - 1):
            rd = (g.vmaps[u][j + 1].dense() @ g.hmaps[u][j].dense()) % p
            dr = (g.hmaps[u + 1][j].dense() @ g.vmaps[u][j].dense()) % p
            if not np.array_equal(rd, dr):
                out.add((u, j))
    return out


@pytest.mark.parametrize("seed", range(10))
def test_grid_commutes_and_perturbation_is_detected(seed):
    """Every grid commutes; a map edit that breaks a square is reported.

    Each run perturbs one map and requires detection; grids too
    degenerate for any perturbation to matter are regenerated.
    """
    rng = random.Random(8400 + seed)
    for _ in range(10):
        while True:
            x = random_complex(
                rng,
                Field(rng.choice([2, 5])),
                max_simplices=16,
                max_steps=5,
                min_steps=2,
            )
            d = random_monomorphic_diagram(
                rng, x, length=rng.randint(2, 4), force_global=True
            )
            g = grid(d, 0)
            assert check_commutative(g) is None
            p = g.field.p
            maps = [
                (g.hmaps, u, j)
                for u in range(g.rows)
                for j in range(g.cols - 1)
            ]
            maps += [
                (g.vmaps, u, j)
                for u in range(g.rows - 1)
                for j in range(g.cols)
            ]
            detected = False
            for store, u, j in maps:
                original = store[u][j]
                dense = original.dense()
                if dense.size == 0:
                    continue
                store[u][j] = g.field.sparse((dense + 1) % p)
                bad = failing_squares(g)
                if bad:
                    assert check_commutative(g) == min(bad)
                    store[u][j] = original
                    detected = True
                    break
                store[u][j] = original
            if detected:
                break


@pytest.mark.parametrize("seed", range(10))
def test_structural_invariants(seed):
    """Coboundaries square to zero, generated sheaves validate, constant
    cohomology matches simplicial Betti numbers, and the graded engines
    never trip their internal degree bookkeeping."""
    rng = random.Random(8500 + seed)
    for _ in range(10):
        field = Field(rng.choice([2, 5]))
        x = random_complex(rng, field)
        one = constant(x, 1)
        sheaf = random_sheaf(rng, x)
        assert validate_sheaf(sheaf) == []
        for current in (one, sheaf):
            cc = CochainComplex(current)
            for k in range(x.dim):
                assert not cc.field.matmul(dense_map(cc, k + 1), dense_map(cc, k)).any()
        vertex_sets = [s.vertices for s in x.simplices]
        for k in range(x.dim + 1):
            assert cohomology_basis(one, k).dim == betti(vertex_sets, k, field.p)
        try:
            for k in range(x.dim + 1):
                type_t_graded(sheaf, k)
        except AssertionError:
            pytest.fail("graded reduction tripped a degree bookkeeping check")


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_backward_engines_agree_at_more_primes(p):
    """Direct and graded type_t over all degrees at once, beyond {2, 5};
    a constant rank-1 sheaf must also give the oracle's filtration bars."""
    rng = random.Random(8600 + p % 1009)
    for _ in range(20):
        x = random_complex(rng, Field(p))
        degrees = list(range(x.dim + 1))
        for sheaf in (random_sheaf(rng, x), constant(x, 1)):
            direct = type_t_direct_by_degree(sheaf, degrees)
            graded = type_t_graded_by_degree(sheaf, degrees)
            assert list(graded) == degrees
            for k in degrees:
                assert barcodes_equal(graded[k], direct[k][1])
        want = persistence_bars([(s.vertices, s.entry) for s in x.simplices], p)
        for k in degrees:
            assert graded[k] == Barcode(want.get(k, []))


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_forward_engines_agree_at_more_primes(p):
    """Pointwise and graded persist-a over all degrees at once, beyond
    {2, 5}; a diagram of identities on the constant sheaf must give one
    unbounded bar per oracle Betti number."""
    rng = random.Random(8700 + p % 1009)
    for _ in range(20):
        x = random_complex(rng, Field(p))
        degrees = list(range(x.dim + 1))
        one = constant(x, 1)
        steady = SheafDiagram(
            [one, one], [SheafMorphism(one, one, {s.id: [[1]] for s in x.simplices})]
        )
        vertex_sets = [s.vertices for s in x.simplices]
        for d in (random_monomorphic_diagram(rng, x), steady):
            pointwise = persistent_cohomology_by_degree(d, degrees)
            graded = diagram_graded_barcode_by_degree(d, degrees)
            assert list(graded) == degrees
            for k in degrees:
                assert barcodes_equal(graded[k], pointwise[k][1])
        for k in degrees:
            assert graded[k] == Barcode([(0, None)] * betti(vertex_sets, k, p))


# ---------------------------------------------------------------- determinism


DETERMINISM_RUNS = [
    ["validate", fx("triangle_sheaf.json")],
    ["validate", fx("two_simplex_sheaf.json"), "--format", "json"],
    ["cohomology", fx("triangle.json"), fx("triangle_sheaf.json")],
    ["cohomology", fx("triangle.json"), fx("triangle_sheaf.json"),
     "--format", "json"],
    ["persist-a", fx("edge_diagram.json")],
    ["persist-a", fx("edge_diagram.json"), "--format", "json"],
    ["persist-a", fx("edge_diagram.json"), "--k", "0", "--format", "svg"],
    ["persist-t", fx("square.json"), fx("square_sheaf.json")],
    ["persist-t", fx("square.json"), fx("square_sheaf.json"), "--closed-end"],
    ["persist-t", fx("square.json"), fx("square_sheaf.json"),
     "--format", "svg"],
    ["labeled", fx("points.csv"), "--thresholds", "0.5,1.5,2.5",
     "--max-dim", "2", "--hom-n", "0"],
    ["unicolored", fx("points.csv"), "--thresholds", "0.5,1.5,2.5"],
]


@pytest.mark.parametrize("argv", DETERMINISM_RUNS, ids=lambda a: " ".join(
    os.path.basename(part) for part in a))
def test_cli_runs_are_byte_identical(capsys, argv):
    def run():
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    first = run()
    assert first[0] == 0
    assert first == run()


def test_bipersist_runs_are_byte_identical(capsys, tmp_path):
    with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
        embedded = json.load(fh)["complex"]
    cpath = tmp_path / "complex.json"
    cpath.write_text(json.dumps(embedded))
    argv = ["bipersist", str(cpath), fx("edge_diagram.json")]

    def run(extra):
        code = main(argv + extra)
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    for extra in ([], ["--format", "json"]):
        first = run(extra)
        assert first[0] == 0
        assert first == run(extra)
