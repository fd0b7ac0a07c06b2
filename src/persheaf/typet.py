"""Copersistence of one sheaf over a growing complex.

The direct route reads H^k of every filtration step off one reduction
of each coboundary of the sheaf's one cochain complex
(cohomology._step_bases); a class of step i+1 restricts to step i by
dropping the rows past step i.  The fast route packs the whole
filtration into a single cosheaf of free graded modules, generator
degrees equal to entry indices, and reduces its chain complex.  A
third construction pulls the sheaf back to each step and extends it by
zero onto the full complex, turning the same data into a diagram of
sheaf morphisms over one fixed complex.
"""

from __future__ import annotations

from .cohomology import CochainComplex, _restrict, _step_bases
from .graded import GradedCosheaf, graded_chain_complex, graded_homology_barcode
from .linalg import identity
from .persistence import Barcode, CopersistenceModule, decompose_copersistence
from .sheaves import (
    CellularSheaf,
    SheafDiagram,
    SheafMorphism,
    extend_by_zero,
    pullback,
    validate_sheaf,
)

__all__ = [
    "type_t_direct",
    "type_t_direct_by_degree",
    "filtration_cosheaf",
    "type_t_graded",
    "type_t_graded_by_degree",
    "g_chain",
    "mirrored_g_diagram",
]


def _check_input(sheaf: CellularSheaf):
    problems = sheaf.complex.validate() + validate_sheaf(sheaf)
    if problems:
        raise ValueError("invalid input: " + "; ".join(problems))


def type_t_direct_by_degree(sheaf: CellularSheaf, degrees) -> dict:
    """type_t_direct of a valid sheaf for every k in degrees.

    One cochain complex is assembled, and each coboundary is reduced
    once for every step; only the restriction maps and the
    decomposition are redone per degree.
    """
    x = sheaf.complex
    degrees = list(degrees)
    steps = _step_bases(CochainComplex(sheaf, validate=False), degrees)
    out = {}
    for k in degrees:
        bases = steps[k]
        maps = [_restrict(bases[i + 1], bases[i]) for i in range(x.steps - 1)]
        module = CopersistenceModule(x.field, [b.dim for b in bases], maps)
        out[k] = module, decompose_copersistence(module)
    return out


def type_t_direct(sheaf: CellularSheaf, k: int):
    """Backward module of H^k over the filtration, with its barcode.

    dims[i] is H^k of the sheaf over the step-i subcomplex; maps[i]
    pulls classes back from step i+1 to step i along the inclusion.
    """
    _check_input(sheaf)
    return type_t_direct_by_degree(sheaf, [k])[k]


def filtration_cosheaf(sheaf: CellularSheaf) -> GradedCosheaf:
    """The filtration packed into one graded cosheaf.

    Each simplex contributes stalk_dim generators of degree equal to
    its entry index; the extension from a coface to a face is the
    transposed restriction, its t-power the entry difference.
    """
    x = sheaf.complex
    degrees = {s.id: (s.entry,) * sheaf.stalk(s.id) for s in x.simplices}
    return GradedCosheaf(x, degrees, sheaf._maps.transposed())


def type_t_graded_by_degree(sheaf: CellularSheaf, degrees) -> dict:
    """Fast-path barcodes of a valid sheaf's filtration, by degree.

    The graded chain complex is built once, and each boundary is
    reduced once, whichever degrees read it.
    """
    gch = graded_chain_complex(filtration_cosheaf(sheaf))
    return {k: graded_homology_barcode(gch, k) for k in degrees}


def type_t_graded(sheaf: CellularSheaf, k: int) -> Barcode:
    """Fast-path barcode of the filtration at cohomological degree k."""
    _check_input(sheaf)
    return type_t_graded_by_degree(sheaf, [k])[k]


def g_chain(sheaf: CellularSheaf):
    """Extend each restricted sheaf by zero onto the full complex.

    Returns (sheaves G_0..G_{m-1}, morphisms psi_i: G_{i+1} -> G_i);
    every morphism is the identity over the step-i subcomplex and zero
    where the source stalk dies.
    """
    _check_input(sheaf)
    x = sheaf.complex
    m = x.steps
    extended = []
    for i in range(m):
        incl = x.step_inclusion(i)
        extended.append(extend_by_zero(incl, pullback(incl, sheaf)))
    morphisms = []
    for i in range(m - 1):
        keep = {s.id for s in x.subcomplex(i).simplices}
        comp = {sid: identity(extended[i].stalk(sid)) for sid in keep}
        morphisms.append(SheafMorphism(extended[i + 1], extended[i], comp))
    return extended, morphisms


def mirrored_g_diagram(sheaf: CellularSheaf) -> SheafDiagram:
    """The G-chain read right to left, as a forward diagram of length m."""
    extended, morphisms = g_chain(sheaf)
    m = len(extended)
    snapshots = [extended[m - 1 - j] for j in range(m)]
    steps = [morphisms[m - 2 - j] for j in range(m - 1)]
    return SheafDiagram(snapshots, steps)
