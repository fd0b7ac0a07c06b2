"""Per-generator reference for the diagram-to-graded-sheaf conversion.

The package converts every simplex at once: one column reduction per
level of a block-diagonal basis, and every restriction read from one
product with the inverse of the top basis.  The function here
takes the literal route instead: a rank test per candidate unit
vector, and one solve per generator per incidence, in the level basis
of the generator's birth level, by the Gauss-Jordan reference of
densekernel.py.  The differential tests compare the two, degree for
degree and entry for entry.
"""

import numpy as np

from persheaf import GradedSheaf, NotFreeError, zeros

import densekernel
from densekernel import _mulmod
from perincidence import codim1_pairs


def _unit_column(n, i):
    col = zeros(n, 1)
    col[i, 0] = 1
    return col


def diagram_to_graded_sheaf(diagram):
    field = diagram.complex.field
    m = diagram.length
    degrees = {}
    level_bases = {}
    for s in diagram.complex.simplices:
        sid = s.id
        gens = []
        bases = []
        imgs = zeros(diagram.snapshots[0].stalk(sid), 0)
        for i in range(m):
            if i > 0:
                comp = diagram.steps[i - 1].component(sid)
                if field.rank(comp) < comp.shape[1]:
                    raise NotFreeError(f"diagram not free at {sid}, step {i - 1}")
                imgs = _mulmod(comp, imgs, field.p)
            d = diagram.snapshots[i].stalk(sid)
            if field.rank(imgs) != imgs.shape[1]:
                raise AssertionError(f"pushed generators collapsed at {sid}")
            basis = imgs
            for e in range(d):
                if basis.shape[1] == d:
                    break
                cand = np.hstack([basis, _unit_column(d, e)])
                if field.rank(cand) > basis.shape[1]:
                    basis = cand
                    gens.append(i)
            if basis.shape[1] != d:
                raise AssertionError(f"could not complete a basis at {sid}")
            bases.append(basis)
            imgs = basis
        degrees[sid] = tuple(gens)
        level_bases[sid] = bases
    restriction = {}
    for f, t in codim1_pairs(diagram.complex):
        fdeg, tdeg = degrees[f.id], degrees[t.id]
        scalar = zeros(len(tdeg), len(fdeg))
        for g, a in enumerate(fdeg):
            r_a = diagram.snapshots[a].restriction(f.id, t.id)
            vec = _mulmod(r_a, level_bases[f.id][a][:, g : g + 1], field.p)
            sol = densekernel.solve(field.p, level_bases[t.id][a], vec)
            if sol is None:
                raise AssertionError(f"level basis at {t.id!r} is not a basis")
            scalar[: sol.shape[0], g : g + 1] = sol
        restriction[(f.id, t.id)] = scalar
    return GradedSheaf(diagram.complex, degrees, restriction)
