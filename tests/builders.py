"""Hand-built fixtures shared across test modules."""

import importlib.util
import os
from itertools import combinations

import numpy as np

from persheaf import (
    CellularSheaf,
    Field,
    FilteredComplex,
    LabeledFiltration,
    SheafDiagram,
    SheafMorphism,
    Simplex,
    identity,
    matrix,
)

from perincidence import codim1_pairs

F2 = Field(2)

# sizes of the first instance of two bench workloads, copied from perfbench/run.py
_BENCH = {
    "backward-rips": (
        "backward", 40, [0.1, 0.2, 0.3],
        {"1,0": 22, "1,1": 60, "1,2": 84, "2,0": 4, "2,1": 65, "2,2": 231}, (),
    ),
    "forward-diagram": (
        "forward", 14, [0.25, 0.35, 0.45],
        {"1,0": 14, "1,1": 11, "1,2": 12, "2,0": 4, "2,1": 12, "2,2": 24},
        (5, 4, [126, 438, 535]),
    ),
}


def bench_input(workload, workdir, seed=7):
    """Write the first instance of a bench workload's inputs to workdir.

    backward-rips writes complex.json and sheaf.json, forward-diagram
    complex.json and diagram.json.  perfbench/gen.py imports nothing of
    the package, so it is loaded by path.
    """
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    kind, points, thresholds, target, extra = _BENCH[workload]
    getattr(gen, kind)(str(workdir), seed * 1000, points, thresholds, target, 0.01, *extra)


def square_filtration():
    """Four vertices, two opposite edges, then the closing pair."""
    return FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0),
        Simplex("2", (2,), 0), Simplex("3", (3,), 0),
        Simplex("0.1", (0, 1), 1), Simplex("2.3", (2, 3), 2),
        Simplex("0.2", (0, 2), 3), Simplex("1.3", (1, 3), 3),
    ])


def edge_diagram():
    """Five snapshots over a single edge arriving at step 1.

    Stalks grow one dimension at a time; the final vertex restriction
    mixes the coordinates so the module needs a change of basis.
    """
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 1),
    ])
    m = lambda rows: matrix(rows, 2)
    stalks = [
        {"0": 1, "0.1": 2, "1": 1},
        {"0": 2, "0.1": 2, "1": 1},
        {"0": 2, "0.1": 2, "1": 2},
        {"0": 2, "0.1": 3, "1": 2},
        {"0": 2, "0.1": 3, "1": 3},
    ]
    r1 = [m([[1], [0]]), identity(2), identity(2),
          m([[1, 0], [0, 1], [0, 0]]), m([[1, 0], [0, 1], [0, 0]])]
    r2 = [m([[0], [1]]), m([[0], [1]]), m([[0, 0], [1, 0]]),
          m([[0, 0], [1, 0], [0, 0]]), m([[0, 0, 1], [1, 0, 0], [0, 0, 0]])]
    snaps = [
        CellularSheaf(x, stalks[i], {("0", "0.1"): r1[i], ("1", "0.1"): r2[i]})
        for i in range(5)
    ]
    comp_0 = [m([[1], [0]]), identity(2), identity(2), identity(2)]
    comp_e = [identity(2), identity(2), m([[1, 0], [0, 1], [0, 0]]), identity(3)]
    comp_1 = [m([[1]]), m([[1], [0]]), identity(2), m([[1, 0], [0, 1], [0, 0]])]
    steps = [
        SheafMorphism(snaps[i], snaps[i + 1],
                      {"0": comp_0[i], "0.1": comp_e[i], "1": comp_1[i]})
        for i in range(4)
    ]
    return SheafDiagram(snaps, steps)


def two_region_filtration():
    """Two squares filling to disks, joined late, with a late cycle.

    Vertices 0-3 are labeled blue, 4-9 red; each region sweeps out a
    square that fills, the regions get bridged, and a red triangle plus
    a mixed square appear near the end.
    """
    def v(i, e=0):
        return Simplex(str(i), (i,), e)

    def edge(a, b, e):
        return Simplex(f"{a}.{b}", (a, b), e)

    def tri(a, b, c, e):
        return Simplex(f"{a}.{b}.{c}", (a, b, c), e)

    simplices = (
        [v(i) for i in range(8)] + [v(8, 5), v(9, 5)]
        + [edge(0, 1, 1), edge(1, 2, 2), edge(2, 3, 2), edge(0, 3, 3), edge(0, 2, 4)]
        + [tri(0, 1, 2, 4), tri(0, 2, 3, 4)]
        + [edge(4, 5, 1), edge(5, 6, 2), edge(6, 7, 2), edge(4, 7, 3), edge(4, 6, 4),
           edge(7, 8, 5), edge(8, 9, 5), edge(7, 9, 5)]
        + [tri(4, 5, 6, 4), tri(4, 6, 7, 4), tri(7, 8, 9, 6)]
        + [edge(0, 4, 3), edge(3, 4, 3), edge(2, 4, 5)]
        + [tri(0, 3, 4, 6), tri(0, 2, 4, 6)]
    )
    x = FilteredComplex(F2, simplices)
    labels = {i: ("blue" if i < 4 else "red") for i in range(10)}
    return LabeledFiltration(x, labels)


def four_point_matching():
    """Two blue and two red vertices, pairing off before they connect."""
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 0), Simplex("1", (1,), 0),
        Simplex("2", (2,), 0), Simplex("3", (3,), 0),
        Simplex("0.1", (0, 1), 1), Simplex("2.3", (2, 3), 1),
        Simplex("1.2", (1, 2), 2),
    ])
    return LabeledFiltration(x, {0: "blue", 1: "blue", 2: "red", 3: "red"})


def closure(top, labels=None):
    """The Simplex objects of every face of the simplex on top + 1 vertices.

    Vertex v carries labels[v], v by default; ids join the vertex numbers.
    """
    labels = labels or list(range(top + 1))
    return [
        Simplex(".".join(map(str, vs)), tuple(labels[v] for v in vs), 0)
        for d in range(top + 1)
        for vs in combinations(range(top + 1), d + 1)
    ]


def dense_map(space, k):
    """The map out of degree k of a CochainComplex (its coboundary) or a
    ChainComplex (its boundary), dense; zero-shaped where none is stored."""
    return space._map(k).dense()


def generators(space, k):
    """(simplex id, index in its stalk) for each basis vector of degree k
    of a CochainComplex or ChainComplex, in the stacked order."""
    return [
        (s.id, i)
        for s in space.complex.simplices_of_dim(k)
        for i in range(space.block_dim(s.id))
    ]


def nested_coordinate_diagram(complex_, top_rank, snapshots):
    """Nested coordinate subsheaves of the constant sheaf of rank top_rank.

    The stalk of the n-th simplex at snapshot i is the span of the
    leading r coordinates, r = (0, 0, 1, 1, 2)[n % 5] + i // 2 raised to
    its rank at snapshot i - 1 and to its faces' ranks, and capped at
    top_rank.  Every restriction and every step component is the
    inclusion of leading coordinates, so every diamond and every
    naturality square commutes and every step is injective.
    """
    pairs = [(f.id, t.id) for f, t in codim1_pairs(complex_)]
    ranks, prev = [], None
    for i in range(snapshots):
        r = {
            s.id: max((0, 0, 1, 1, 2)[n % 5] + i // 2, prev[s.id] if prev else 0)
            for n, s in enumerate(complex_.simplices)
        }
        for f, t in pairs:  # a face's rank is final before its cofaces'
            r[t] = max(r[t], r[f])
        prev = {sid: min(top_rank, d) for sid, d in r.items()}
        ranks.append(prev)

    def inclusion(rows, cols):
        return np.eye(rows, cols, dtype=np.int64)

    snaps = [
        CellularSheaf(complex_, r, {
            (f, t): inclusion(r[t], r[f]) for f, t in pairs if r[f] and r[t]
        })
        for r in ranks
    ]
    steps = [
        SheafMorphism(a, b, {
            sid: inclusion(rb[sid], ra[sid]) for sid in ra if ra[sid] and rb[sid]
        })
        for a, b, ra, rb in zip(snaps, snaps[1:], ranks, ranks[1:])
    ]
    return SheafDiagram(snaps, steps)
