"""Cochain and chain complexes of sheaf data, with based (co)homology.

C^k stacks the stalks of all k-simplices in the global order; the
coboundary block from a face to a coface is the restriction matrix
times the orientation sign.  Chain complexes do the same with cosheaf
extensions, transposed in direction.  Bases of the resulting
subquotients keep their representative columns so induced maps can be
expressed in coordinates.

H^k = ker(delta^k)/im(delta^(k-1)) costs one column reduction of
delta^k.  It clears (skips) the columns that are pivot rows of
delta^(k-1), whose pivots each complex keeps once found, so the degrees
taken in rising order reduce every coboundary once.  Homology runs the
same way down from the top boundary.  Only the pivot maps are kept,
never a reduced matrix.
"""

from __future__ import annotations

import numpy as np

from .complexes import FilteredComplex, SimplicialMap, incidence_sign
from .linalg import identity, zeros
from .persistence import PersistenceModule, decompose_by_ranks
from .sheaves import (
    CellularCosheaf,
    CellularSheaf,
    SheafDiagram,
    SheafMorphism,
    constant,
    dualize,
    pullback,
    _check_diagram,
    validate_cosheaf,
    validate_sheaf,
)

__all__ = [
    "CochainComplex",
    "ChainComplex",
    "QuotientBasis",
    "cochain_complex",
    "chain_complex",
    "cohomology_basis",
    "cosheaf_homology_basis",
    "simplicial_homology_basis",
    "induced_by_sheaf_morphism",
    "induced_by_simplicial_map",
    "chain_inclusion_matrix",
    "persistent_cohomology",
    "persistent_cohomology_by_degree",
]


class _Blocks:
    """Per-dimension layout: one contiguous block per simplex, global order."""

    def __init__(self, complex_: FilteredComplex, stalk_of):
        self.dims: dict[int, int] = {}
        self.offsets: dict[int, dict[str, int]] = {}
        for k in range(complex_.dim + 1):
            off = {}
            total = 0
            for s in complex_.simplices_of_dim(k):
                off[s.id] = total
                total += stalk_of(s.id)
            self.offsets[k] = off
            self.dims[k] = total


class CochainComplex:
    """Stacked stalks with signed restriction coboundaries."""

    def __init__(self, sheaf: CellularSheaf, validate: bool = True):
        if validate:
            problems = validate_sheaf(sheaf)
            if problems:
                raise ValueError("invalid sheaf: " + "; ".join(problems))
        self.sheaf = sheaf
        self.complex = sheaf.complex
        self.field = sheaf.complex.field
        self._blocks = _Blocks(self.complex, sheaf.stalk)
        self._delta: dict[int, np.ndarray] = {}
        self._pivots: dict[int, dict[int, int]] = {}
        p = self.field.p
        for k in range(self.complex.dim):
            d = zeros(self.dim(k + 1), self.dim(k))
            for t in self.complex.simplices_of_dim(k + 1):
                rows = sheaf.stalk(t.id)
                if rows == 0:
                    continue
                ro = self.offset(k + 1, t.id)
                for f in self.complex.faces(t):
                    cols = sheaf.stalk(f.id)
                    if cols == 0:
                        continue
                    co = self.offset(k, f.id)
                    sign = incidence_sign(f, t)
                    block = sign * sheaf.restriction(f.id, t.id)
                    d[ro : ro + rows, co : co + cols] = block % p
            self._delta[k] = d

    def dim(self, k: int) -> int:
        return self._blocks.dims.get(k, 0)

    def offset(self, k: int, sid: str) -> int:
        return self._blocks.offsets[k][sid]

    def block_dim(self, sid: str) -> int:
        return self.sheaf.stalk(sid)

    def generators(self, k: int) -> list:
        out = []
        for s in self.complex.simplices_of_dim(k):
            out.extend((s.id, i) for i in range(self.block_dim(s.id)))
        return out

    def delta(self, k: int) -> np.ndarray:
        """The coboundary C^k -> C^{k+1}; zero-shaped outside 0..dim-1."""
        got = self._delta.get(k)
        if got is not None:
            return got
        return zeros(self.dim(k + 1), self.dim(k))

    def pivots(self, k: int) -> dict:
        """Pivot row -> column of delta^k's column reduction.

        Reduced once, clearing delta^(k-1)'s pivot rows when those are
        known; the pivots are the same either way.
        """
        return _pivots(self, self._delta, k, k - 1)


class ChainComplex:
    """Stacked cosheaf stalks with signed extension boundaries."""

    def __init__(self, cosheaf: CellularCosheaf, validate: bool = True):
        if validate:
            problems = validate_cosheaf(cosheaf)
            if problems:
                raise ValueError("invalid cosheaf: " + "; ".join(problems))
        self.cosheaf = cosheaf
        self.complex = cosheaf.complex
        self.field = cosheaf.complex.field
        self._blocks = _Blocks(self.complex, cosheaf.stalk)
        self._boundary: dict[int, np.ndarray] = {}
        self._pivots: dict[int, dict[int, int]] = {}
        p = self.field.p
        for k in range(1, self.complex.dim + 1):
            d = zeros(self.dim(k - 1), self.dim(k))
            for t in self.complex.simplices_of_dim(k):
                cols = cosheaf.stalk(t.id)
                if cols == 0:
                    continue
                co = self.offset(k, t.id)
                for f in self.complex.faces(t):
                    rows = cosheaf.stalk(f.id)
                    if rows == 0:
                        continue
                    ro = self.offset(k - 1, f.id)
                    sign = incidence_sign(f, t)
                    block = sign * cosheaf.extension(t.id, f.id)
                    d[ro : ro + rows, co : co + cols] = block % p
            self._boundary[k] = d

    def dim(self, k: int) -> int:
        return self._blocks.dims.get(k, 0)

    def offset(self, k: int, sid: str) -> int:
        return self._blocks.offsets[k][sid]

    def block_dim(self, sid: str) -> int:
        return self.cosheaf.stalk(sid)

    def generators(self, k: int) -> list:
        out = []
        for s in self.complex.simplices_of_dim(k):
            out.extend((s.id, i) for i in range(self.block_dim(s.id)))
        return out

    def boundary(self, k: int) -> np.ndarray:
        """The boundary C_k -> C_{k-1}; zero-shaped outside 1..dim."""
        got = self._boundary.get(k)
        if got is not None:
            return got
        return zeros(self.dim(k - 1), self.dim(k))

    def pivots(self, k: int) -> dict:
        """Pivot row -> column of boundary_k's column reduction.

        Reduced once, clearing boundary_(k+1)'s pivot rows when those
        are known; the pivots are the same either way.
        """
        return _pivots(self, self._boundary, k, k + 1)


def cochain_complex(sheaf: CellularSheaf) -> CochainComplex:
    return CochainComplex(sheaf)


def chain_complex(cosheaf: CellularCosheaf) -> ChainComplex:
    return ChainComplex(cosheaf)


def _pivots(space, maps: dict, k: int, previous: int) -> dict:
    """space's cached pivot map of maps[k]; none for a map not stored.

    previous is the degree of the map whose pivot rows are columns of
    maps[k].
    """
    got = space._pivots.get(k)
    if got is None:
        if k not in maps:
            return {}
        clear = space._pivots.get(previous, {})
        got = space.field._column_echelon(maps[k], clear=clear)[2]
        space._pivots[k] = got
    return got


def _subquotient(space, k: int, outgoing, incoming, cleared: dict) -> QuotientBasis:
    """ker(outgoing)/im(incoming) in degree k of space, from one reduction.

    cleared is incoming's pivot map.  A column of outgoing that is a
    pivot row of incoming reduces to zero, so one tracked reduction of
    outgoing skips it.  The ops columns of the other zero columns are
    cycles independent modulo im(incoming): together with incoming's
    reduced columns they are a basis of ker(outgoing) in which no two
    vectors share a lowest nonzero row.  incoming's own pivot columns
    span its image.  outgoing's pivots are kept for the next degree.
    """
    reduced, ops, space._pivots[k] = space.field._column_echelon(
        outgoing, track=True, clear=cleared
    )
    cycles = ~reduced.any(axis=0)
    cycles[list(cleared)] = False
    killed = incoming[:, sorted(cleared.values())]
    return QuotientBasis(space, k, ops[:, cycles], killed)


def _quotient(field, cycles: np.ndarray, killed: np.ndarray) -> np.ndarray:
    """Columns of cycles that extend span(killed) to a basis of span(cycles).

    One column reduction of [killed | cycles]: a cycle column keeps a
    pivot exactly when it is independent of killed and of the cycle
    columns before it.
    """
    nk = killed.shape[1]
    _, _, owner = field._column_echelon(np.hstack([killed, cycles]))
    kept = sorted(j - nk for j in owner.values() if j >= nk)
    return cycles[:, kept]


class QuotientBasis:
    """Representatives of a subquotient span(cycles)/span(killed) of C^k.

    coords() rewrites ambient columns as classes in this basis; asking
    for the coordinates of something outside the subspace is an error,
    not a projection.
    """

    def __init__(self, space, degree: int, representatives, killed):
        self.space = space
        self.degree = degree
        self.representatives = representatives
        self.killed = killed

    @property
    def dim(self) -> int:
        return self.representatives.shape[1]

    def coords(self, vectors) -> np.ndarray:
        field = self.space.field
        v = field.normalize(vectors)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        res = field.express(v, self.representatives, modulo=self.killed)
        if res is None:
            raise ValueError("columns do not represent classes in this basis")
        return res[0]


def cohomology_basis(
    sheaf: CellularSheaf, k: int, cochains: CochainComplex | None = None
) -> QuotientBasis:
    """H^k as ker(delta^k)/im(delta^{k-1}), with cocycle representatives."""
    cc = cochains if cochains is not None else CochainComplex(sheaf)
    return _subquotient(cc, k, cc.delta(k), cc.delta(k - 1), cc.pivots(k - 1))


def cosheaf_homology_basis(
    cosheaf: CellularCosheaf, k: int, chains: ChainComplex | None = None
) -> QuotientBasis:
    """H_k as ker(boundary_k)/im(boundary_{k+1}), with cycle representatives."""
    ch = chains if chains is not None else ChainComplex(cosheaf)
    return _subquotient(ch, k, ch.boundary(k), ch.boundary(k + 1), ch.pivots(k + 1))


def simplicial_chain_complex(complex_: FilteredComplex) -> ChainComplex:
    """The ordinary F_p simplicial chain complex, as a constant cosheaf."""
    return ChainComplex(dualize(constant(complex_, 1)), validate=False)


def simplicial_homology_basis(complex_: FilteredComplex, n: int) -> QuotientBasis:
    return cosheaf_homology_basis(None, n, chains=simplicial_chain_complex(complex_))


def induced_by_sheaf_morphism(
    phi: SheafMorphism,
    k: int | None = None,
    source_basis: QuotientBasis | None = None,
    target_basis: QuotientBasis | None = None,
) -> np.ndarray:
    """Matrix of H^k(phi) in the chosen bases.

    The cochain map is block diagonal with the morphism components;
    its value on each source representative is expressed in the target
    basis modulo coboundaries.
    """
    if source_basis is None:
        source_basis = cohomology_basis(phi.source, k)
    if target_basis is None:
        target_basis = cohomology_basis(phi.target, k)
    if source_basis.degree != target_basis.degree:
        raise ValueError("bases live in different degrees")
    k = source_basis.degree
    src, tgt = source_basis.space, target_basis.space
    field = src.field
    m = zeros(tgt.dim(k), src.dim(k))
    for s in phi.complex.simplices_of_dim(k):
        comp = phi.component(s.id)
        if comp.size == 0:
            continue
        ro = tgt.offset(k, s.id)
        co = src.offset(k, s.id)
        m[ro : ro + comp.shape[0], co : co + comp.shape[1]] = comp
    return target_basis.coords(field.matmul(m, source_basis.representatives))


def induced_by_simplicial_map(
    f: SimplicialMap,
    sheaf: CellularSheaf | None = None,
    k: int | None = None,
    source_basis: QuotientBasis | None = None,
    target_basis: QuotientBasis | None = None,
) -> np.ndarray:
    """Matrix of the pullback map H^k(target side) -> H^k(source side).

    A k-simplex whose image stays k-dimensional copies the image block;
    collapsed simplices contribute nothing in degree k.  source_basis
    lives over f's target complex, target_basis over f's source with
    the pulled-back stalks.
    """
    if source_basis is None:
        source_basis = cohomology_basis(sheaf, k)
    if target_basis is None:
        target_basis = cohomology_basis(pullback(f, sheaf), k)
    if source_basis.degree != target_basis.degree:
        raise ValueError("bases live in different degrees")
    k = source_basis.degree
    src, tgt = source_basis.space, target_basis.space
    field = src.field
    m = zeros(tgt.dim(k), src.dim(k))
    for s in f.source.simplices_of_dim(k):
        t = f.image(s)
        if t.dim != k:
            continue
        d = tgt.block_dim(s.id)
        if src.block_dim(t.id) != d:
            raise ValueError(f"stalk mismatch over {s.id!r} and {t.id!r}")
        if d == 0:
            continue
        ro = tgt.offset(k, s.id)
        co = src.offset(k, t.id)
        m[ro : ro + d, co : co + d] = identity(d)
    return target_basis.coords(field.matmul(m, source_basis.representatives))


def chain_inclusion_matrix(sub, sup, k: int) -> np.ndarray:
    """Identity blocks placing sub's degree-k space inside sup's by simplex id."""
    m = zeros(sup.dim(k), sub.dim(k))
    for s in sub.complex.simplices_of_dim(k):
        d = sub.block_dim(s.id)
        if sup.block_dim(s.id) != d:
            raise ValueError(f"block size differs at {s.id!r}")
        if d == 0:
            continue
        ro = sup.offset(k, s.id)
        co = sub.offset(k, s.id)
        m[ro : ro + d, co : co + d] = identity(d)
    return m


def persistent_cohomology_by_degree(diagram: SheafDiagram, degrees) -> dict:
    """persistent_cohomology of a valid diagram for every k in degrees.

    Each snapshot's cochain complex is assembled once; only the bases,
    induced maps and decomposition are redone per degree.
    """
    field = diagram.complex.field
    cochains = [CochainComplex(sheaf, validate=False) for sheaf in diagram.snapshots]
    out = {}
    for k in degrees:
        bases = [cohomology_basis(cc.sheaf, k, cc) for cc in cochains]
        maps = [
            induced_by_sheaf_morphism(
                phi, source_basis=bases[i], target_basis=bases[i + 1]
            )
            for i, phi in enumerate(diagram.steps)
        ]
        module = PersistenceModule(field, [b.dim for b in bases], maps)
        out[k] = module, decompose_by_ranks(module)
    return out


def persistent_cohomology(diagram: SheafDiagram, k: int):
    """Pointwise persistence of H^k along a diagram of sheaf morphisms.

    Returns the persistence module of induced maps together with its
    rank-formula barcode.
    """
    _check_diagram(diagram)
    return persistent_cohomology_by_degree(diagram, [k])[k]
