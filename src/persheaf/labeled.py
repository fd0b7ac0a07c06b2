"""Homology-valued sheaves on a label simplex.

A labeling of the vertices of a filtered complex induces a simplicial
map to the full simplex on the label set.  Each label subset cuts out
the part of the complex carried by those labels; taking degree-n
homology of these parts gives a sheaf on the label simplex whose
cohomology separates features living inside single classes from
features needing several.  The two-label pipeline instead pulls a
fixed rank-one-into-rank-two sheaf back onto the complex and tracks
its sections over the filtration.
"""

from __future__ import annotations

from itertools import combinations

from .cohomology import (
    _include,
    _step_map,
    cosheaf_homology_basis,
    persistent_cohomology,
    simplicial_chain_complex,
)
from .complexes import FilteredComplex, SimplicialMap, _SimplexLists, preimage_subcomplex
from .linalg import matrix
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
    occurring labels, and caches the labeled parts: for a label subset
    tau, preimage(tau) is the subcomplex of simplices all of whose
    vertices carry labels in tau, filtered like the ambient complex.
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
        self._preimages: dict[str, FilteredComplex] = {}

    def preimage(self, tau) -> FilteredComplex:
        tid = tau if isinstance(tau, str) else tau.id
        got = self._preimages.get(tid)
        if got is None:
            got = preimage_subcomplex(self.map, tid)
            self._preimages[tid] = got
        return got


def _homology_bases(chains: dict, n: int) -> dict:
    """H_n bases of the chain complexes, keyed like them by label simplex."""
    return {
        tid: cosheaf_homology_basis(None, n, ch) for tid, ch in chains.items()
    }


def _sheaf_from_layer(label_complex, chains, bases, n) -> CellularSheaf:
    """The label sheaf of one step: stalks H_n of the parts, restrictions
    the inclusions of each part's cycles into the larger parts."""
    stalks = {tid: b.dim for tid, b in bases.items()}
    restrictions = {}
    for f, t in _codim1_pairs(label_complex):
        if stalks[f.id] == 0 or stalks[t.id] == 0:
            continue
        cycles = _include(chains[f.id], chains[t.id], n, bases[f.id].cycles)
        restrictions[(f.id, t.id)] = bases[t.id].coords(cycles).dense()
    return CellularSheaf(label_complex, stalks, restrictions)


def label_diagram(lf: LabeledFiltration, n: int) -> SheafDiagram:
    """One label sheaf per filtration step, joined by inclusion-induced maps.

    Each labeled part's chain complex is assembled once and viewed at
    every step (ChainComplex.step); a cycle of step i is a cycle of
    step i+1 padded with zero rows.
    """
    l = lf.label_complex
    m = lf.filtration.steps
    full = {t.id: simplicial_chain_complex(lf.preimage(t.id)) for t in l.simplices}
    bases, snapshots = [], []
    for i in range(m):
        chains = {tid: ch.step(i) for tid, ch in full.items()}
        bases.append(_homology_bases(chains, n))
        snapshots.append(_sheaf_from_layer(l, chains, bases[i], n))
    steps = []
    for i in range(m - 1):
        comp = {}
        for tid in full:
            a, b = bases[i][tid], bases[i + 1][tid]
            if a.dim == 0 or b.dim == 0:
                continue
            comp[tid] = _step_map(a, b).dense()
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
