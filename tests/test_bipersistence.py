import random

import numpy as np
import pytest

from persheaf import (
    BiGrid,
    Field,
    FilteredComplex,
    Simplex,
    SheafDiagram,
    check_commutative,
    constant,
    grid,
    matrix,
    persistent_cohomology,
    type_t_direct,
    zeros,
)

from builders import edge_diagram
from genrandom import random_complex, random_monomorphic_diagram

F2 = Field(2)


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


def test_grid_of_the_growing_edge():
    g = grid(edge_diagram(), 0)
    assert g.rows == 2 and g.cols == 5
    assert g.dims == [[0, 1, 2, 2, 3], [2, 3, 4, 4, 5]]
    assert check_commutative(g) is None


def test_top_row_is_the_diagram_itself():
    d = edge_diagram()
    g = grid(d, 0)
    module, _ = persistent_cohomology(d, 0)
    assert tuple(g.dims[0]) == module.dims


def test_columns_are_reversed_snapshot_filtrations():
    d = edge_diagram()
    g = grid(d, 0)
    for j, snap in enumerate(d.snapshots):
        module, _ = type_t_direct(snap, 0)
        assert [g.dims[u][j] for u in range(g.rows)] == list(reversed(module.dims))


def test_detects_a_perturbed_map():
    g = grid(edge_diagram(), 0)
    g.hmaps[0][1] = F2.sparse((g.hmaps[0][1].dense() + 1) % 2)
    assert failing_squares(g)
    assert check_commutative(g) == min(failing_squares(g))
    assert check_commutative(g) == (0, 1)


def test_single_cell_grid():
    x = FilteredComplex(F2, [Simplex("0", (0,), 0)])
    d = SheafDiagram([constant(x, 1)], [])
    g = grid(d, 0)
    assert g.dims == [[1]]
    assert check_commutative(g) is None


def test_grid_shape_validation():
    with pytest.raises(ValueError, match="at least one row"):
        BiGrid(F2, [], [], [])
    with pytest.raises(ValueError, match=r"map right at \(0, 0\)"):
        BiGrid(F2, [[1, 1]], [[zeros(2, 1)]], [])
    with pytest.raises(ValueError, match=r"map down at \(0, 0\)"):
        BiGrid(
            F2,
            [[1], [1]],
            [[], []],
            [[matrix([[1, 0]], 2)]],
        )


def test_invalid_diagram_is_refused():
    d = edge_diagram()
    broken = SheafDiagram(d.snapshots, d.steps)
    broken.steps[0]._component["0"] = matrix([[1], [1]], 2)
    with pytest.raises(ValueError, match="invalid diagram"):
        grid(broken, 0)


def test_one_step_filtration_grid_is_a_row():
    rng = random.Random(701)
    x = random_complex(rng, F2, min_steps=1, max_steps=1)
    d = random_monomorphic_diagram(rng, x, length=4)
    g = grid(d, 0)
    module, _ = persistent_cohomology(d, 0)
    assert g.rows == 1
    assert tuple(g.dims[0]) == module.dims
    assert check_commutative(g) is None


def test_one_snapshot_grid_is_a_column():
    rng = random.Random(702)
    x = random_complex(rng, F2, min_steps=3)
    d = random_monomorphic_diagram(rng, x, length=1)
    g = grid(d, 0)
    module, _ = type_t_direct(d.snapshots[0], 0)
    assert g.cols == 1
    assert [g.dims[u][0] for u in range(g.rows)] == list(reversed(module.dims))
    assert check_commutative(g) is None


def test_random_grids_commute():
    rng = random.Random(703)
    for _ in range(10):
        x = random_complex(rng, Field(rng.choice([2, 5])), min_steps=2)
        d = random_monomorphic_diagram(rng, x, force_global=True)
        for k in range(x.dim + 1):
            assert check_commutative(grid(d, k)) is None
