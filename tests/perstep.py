"""Per-step reference constructions for the filtration pipelines.

The package assembles one complex per filtration and reads every
step off one reduction of each of its maps.  The builders here take
the literal route instead: every step gets its own subcomplex,
pulled-back sheaf and complex, and the maps between steps are induced
by the step inclusions (explicit 0/1 inclusion matrices for homology).
The differential tests compare the two: label diagrams entry for
entry, and the backward modules and grids up to the change of basis
between the two routes' representatives.
"""

from densekernel import _mulmod
from persheaf import (
    CellularSheaf,
    CochainComplex,
    SheafDiagram,
    SheafMorphism,
    cohomology_basis,
    cosheaf_homology_basis,
    induced_by_sheaf_morphism,
    induced_by_simplicial_map,
    preimage_subcomplex,
    pullback,
    simplicial_chain_complex,
    zeros,
)
from persheaf.sheaves import _codim1_pairs


def pullback_chain(sheaf):
    """The sheaf restricted to every filtration step, in index order."""
    x = sheaf.complex
    return [pullback(x.step_inclusion(i), sheaf) for i in range(x.steps)]


def type_t_maps(sheaf, k):
    """(bases, maps) of the backward H^k module, one complex per step."""
    x = sheaf.complex
    bases = [
        cohomology_basis(pb, k, CochainComplex(pb)) for pb in pullback_chain(sheaf)
    ]
    maps = [
        induced_by_simplicial_map(
            x.step_inclusion(i, i + 1), source_basis=bases[i + 1], target_basis=bases[i]
        )
        for i in range(x.steps - 1)
    ]
    return bases, maps


def diagram_at_step(diagram, i):
    """The diagram pulled back to the step-i subcomplex: every snapshot
    and every morphism restricted to it."""
    incl = diagram.complex.step_inclusion(i)
    restricted = [pullback(incl, snap) for snap in diagram.snapshots]
    ids = [s.id for s in incl.source.simplices]
    steps = [
        SheafMorphism(
            restricted[j], restricted[j + 1], {sid: phi.component(sid) for sid in ids}
        )
        for j, phi in enumerate(diagram.steps)
    ]
    return SheafDiagram(restricted, steps)


def grid_maps(diagram, k):
    """(bases, hmaps, vmaps) of the H^k grid, one complex per grid position;
    row u is step steps - 1 - u."""
    x = diagram.complex
    mt = x.steps
    bases, hmaps = [], []
    for u in range(mt):
        pulled = diagram_at_step(diagram, mt - 1 - u)
        row = [cohomology_basis(pb, k, CochainComplex(pb)) for pb in pulled.snapshots]
        hmaps.append([
            induced_by_sheaf_morphism(phi, source_basis=row[j], target_basis=row[j + 1])
            for j, phi in enumerate(pulled.steps)
        ])
        bases.append(row)
    vmaps = [
        [
            induced_by_simplicial_map(
                x.step_inclusion(mt - 2 - u, mt - 1 - u),
                source_basis=bases[u][j],
                target_basis=bases[u + 1][j],
            )
            for j in range(len(diagram.snapshots))
        ]
        for u in range(mt - 1)
    ]
    return bases, hmaps, vmaps


def _inclusion(sub, sup, k):
    """0/1 matrix of sub's degree-k chains inside sup's (unit stalks)."""
    m = zeros(sup.dim(k), sub.dim(k))
    for s in sub.complex.simplices_of_dim(k):
        m[sup.offset(k, s.id), sub.offset(k, s.id)] = 1
    return m


def _included(field, sub, sup, k, basis):
    return field.sparse(_mulmod(_inclusion(sub, sup, k), basis.cycles.dense(), field.p))


def label_diagram(lf, n):
    """label_diagram with one chain complex per labeled part and step."""
    l = lf.label_complex
    field = l.field
    m = lf.filtration.steps
    chains, bases, snapshots = [], [], []
    for i in range(m):
        ch = {
            t.id: simplicial_chain_complex(preimage_subcomplex(lf.map, t.id).subcomplex(i))
            for t in l.simplices
        }
        bs = {tid: cosheaf_homology_basis(None, n, c) for tid, c in ch.items()}
        chains.append(ch)
        bases.append(bs)
        stalks = {tid: b.dim for tid, b in bs.items()}
        restrictions = {
            (f.id, t.id): bs[t.id].coords(
                _included(field, ch[f.id], ch[t.id], n, bs[f.id])
            ).dense()
            for f, t in _codim1_pairs(l)
            if stalks[f.id] and stalks[t.id]
        }
        snapshots.append(CellularSheaf(l, stalks, restrictions))
    steps = []
    for i in range(m - 1):
        comp = {}
        for tid in chains[i]:
            a, b = bases[i][tid], bases[i + 1][tid]
            if a.dim == 0 or b.dim == 0:
                continue
            sub, sup = chains[i][tid], chains[i + 1][tid]
            comp[tid] = b.coords(_included(field, sub, sup, n, a)).dense()
        steps.append(SheafMorphism(snapshots[i], snapshots[i + 1], comp))
    return SheafDiagram(snapshots, steps)
