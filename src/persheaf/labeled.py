"""Homology-valued sheaves on a label simplex.

A labeling of the vertices of a filtered complex induces a simplicial
map to the full simplex on the label set.  Each label subset cuts out
the part of the complex carried by those labels; taking degree-n
homology of these parts gives a sheaf on the label simplex whose
cohomology separates features living inside single classes from
features needing several.  The two-label pipeline instead pulls a
fixed rank-one-into-rank-two sheaf back onto the complex and tracks
its sections over the filtration.

Every part is a subcomplex of the one filtration, and each of its
steps is a prefix of every dimension.  So a part is a set of columns of
the filtration's one chain complex, reduced once, left to right, for
every step (Edelsbrunner, Letscher and Zomorodian 2002); a step drops
only the cycles its own boundaries clear (Chen and Kerber's twist).
The cycles keep the whole complex's rows, so restrictions and step
maps are coordinates in the larger part's or the next step's basis.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .cohomology import QuotientBasis, persistent_cohomology, simplicial_chain_complex
from .complexes import FilteredComplex, SimplicialMap, _SimplexLists
from .linalg import Columns, matrix
from .persistence import Barcode
from .sheaves import CellularSheaf, SheafDiagram, SheafMorphism, _codim1_pairs, pullback
from .typet import _check_input, type_t_direct_by_degree

__all__ = [
    "full_label_complex",
    "LabeledFiltration",
    "label_diagram",
    "mixed_feature_barcodes",
    "two_label_sheaf",
    "unicolored_pipeline",
]


def full_label_complex(field, names) -> FilteredComplex:
    """The full simplex on a set of label names, all entries zero.

    Vertex i is the i-th name in sorted order; a subset's id joins its
    sorted names with dots, so the names themselves must not contain
    dots.
    """
    names = sorted(set(names))
    for name in names:
        if "." in name:
            raise ValueError(f"label name {name!r} contains a dot")
    combos = [c for r in range(len(names)) for c in combinations(range(len(names)), r + 1)]
    ids = [".".join(names[i] for i in combo) for combo in combos]
    return FilteredComplex(field, _SimplexLists(ids, combos, [0] * len(combos)), steps=1)


class LabeledFiltration:
    """A filtered complex with one label per vertex.

    Carries the induced simplicial map onto the full simplex over the
    occurring labels.  The labeled part of a label subset tau, the
    simplices all of whose vertices carry labels in tau, is a
    subcomplex of the filtration (preimage_subcomplex of map).
    """

    def __init__(self, filtration: FilteredComplex, labels: dict):
        self.filtration = filtration
        self.labels = dict(labels)
        missing = [v for v in filtration.vertices if v not in self.labels]
        if missing:
            raise ValueError(f"unlabeled vertices: {missing}")
        self.names = tuple(
            sorted({self.labels[v] for v in filtration.vertices})
        )
        self.label_complex = full_label_complex(filtration.field, self.names)
        index = {name: i for i, name in enumerate(self.names)}
        self.map = SimplicialMap(
            filtration,
            self.label_complex,
            {v: index[self.labels[v]] for v in filtration.vertices},
        )


def _part_bases(chains, columns, n: int) -> list:
    """H_n of one labeled part at every step, as bases in chains.

    columns[k] holds the filtration positions of the part's k-simplices.
    A step's columns are a prefix, so one tracked, uncleared reduction
    of the part's ∂_n and one of its ∂_{n+1} hold every step's: an
    emptied ∂_n column is a class at step i unless a ∂_{n+1} column of
    step i owns it as a pivot.  The ops rows, part columns, move to the
    columns' positions, which ascend with them.
    """
    x, field = chains.complex, chains.field
    out = field._column_echelon(chains._map(n).take(columns[n]), track=True)
    into = field._column_echelon(chains._map(n + 1).take(columns[n + 1]))
    ops = out.ops
    ops = Columns((chains.dim(n), ops.shape[1]), ops.indptr, columns[n][ops.indices], ops.data)
    zero = np.array(out.zero, dtype=np.int64)
    at = columns[n][zero].tolist()
    owner = np.fromiter((into.pivots.get(r, len(columns[n + 1])) for r in at), np.int64, len(at))
    owners = np.fromiter(into.pivots.values(), np.int64, len(into.pivots))  # ascending
    bases = []
    for i in range(x.steps):
        cols, ups = (np.searchsorted(columns[k], x.prefix_length(k, i)) for k in (n, n + 1))
        cycles = ops.take(zero[(zero < cols) & (owner >= ups)])
        killed = into.reduced.take(np.arange(np.searchsorted(owners, ups)))
        bases.append(QuotientBasis(chains, n, cycles, killed))
    return bases


def label_diagram(lf: LabeledFiltration, n: int) -> SheafDiagram:
    """One label sheaf per filtration step, joined by inclusion-induced maps.

    A part is the filtration's columns whose vertices carry its labels."""
    x, l = lf.filtration, lf.label_complex
    chains = simplicial_chain_complex(x)
    label = np.array([lf.map.vertex_map[v] for v in x.vertices], dtype=np.int64)
    none = np.zeros((0, 1), dtype=np.int64)
    bases = {}
    for t in l.simplices:
        inside = np.zeros(len(lf.names), dtype=bool)
        inside[list(t.vertices)] = True
        columns = {
            k: np.flatnonzero(inside[label[x._rows.get(k, none)]].all(axis=1))
            for k in (n, n + 1)
        }
        bases[t.id] = _part_bases(chains, columns, n)
    snapshots = []
    for i in range(x.steps):
        stalks = {tid: b[i].dim for tid, b in bases.items()}
        restrictions = {
            (f.id, t.id): bases[t.id][i].coords(bases[f.id][i].cycles).dense()
            for f, t in _codim1_pairs(l)
            if stalks[f.id] and stalks[t.id]
        }
        snapshots.append(CellularSheaf(l, stalks, restrictions))
    steps = []
    for i in range(x.steps - 1):
        comp = {
            tid: b[i + 1].coords(b[i].cycles).dense()
            for tid, b in bases.items()
            if b[i].dim and b[i + 1].dim
        }
        steps.append(SheafMorphism(snapshots[i], snapshots[i + 1], comp))
    return SheafDiagram(snapshots, steps)


def mixed_feature_barcodes(lf: LabeledFiltration, n: int, k: int) -> Barcode:
    """Persistence of H^k of the degree-n label sheaves along the filtration.

    Always computed pointwise: the inclusion-induced morphisms kill
    homology classes, so they are rarely stalk-wise injective.
    """
    _, barcode = persistent_cohomology(label_diagram(lf, n), k)
    return barcode


def two_label_sheaf(label_complex: FilteredComplex) -> CellularSheaf:
    """The fixed sheaf on a two-label simplex with no nonzero global sections.

    Both vertex stalks are one-dimensional and inject into the
    two-dimensional edge stalk on complementary coordinates, so a
    global section must vanish at both endpoints of any mixed edge.
    """
    vertices = label_complex.simplices_of_dim(0)
    edges = label_complex.simplices_of_dim(1)
    if len(vertices) != 2 or len(edges) != 1:
        raise ValueError("expected the full simplex on exactly 2 labels")
    left, right = vertices
    edge = edges[0]
    p = label_complex.field.p
    stalks = {left.id: 1, right.id: 1, edge.id: 2}
    restrictions = {
        (left.id, edge.id): matrix([[1], [0]], p),
        (right.id, edge.id): matrix([[0], [1]], p),
    }
    return CellularSheaf(label_complex, stalks, restrictions)


def unicolored_pipeline(lf: LabeledFiltration, k):
    """Backward persistence of single-color information over the filtration.

    Pulls the two-label sheaf back onto the complex (one dimension on
    single-label simplices, two on mixed ones) and runs the backward
    cohomology construction; at k=0 the bars are the lifetimes of
    unicolored components.  k is a sequence of degrees, giving a dict
    of barcodes by degree from one pullback, validation and assembly
    (the form the CLI uses), or one degree, giving its Barcode.
    """
    try:
        degrees = list(k)
    except TypeError:
        return unicolored_pipeline(lf, [k])[k]
    if len(lf.names) != 2:
        raise ValueError("the unicolored pipeline needs exactly 2 labels")
    sheaf = pullback(lf.map, two_label_sheaf(lf.label_complex))
    _check_input(sheaf)
    found = type_t_direct_by_degree(sheaf, degrees)
    return {d: barcode for d, (_, barcode) in found.items()}
