"""Cochain and chain complexes of sheaf data, with based (co)homology.

C^k stacks the stalks of all k-simplices in the global order; the
coboundary block from a face to a coface is the restriction matrix
times the orientation sign.  Chain complexes do the same with cosheaf
extensions, transposed in direction.  Both are filled from the
sheaf's maps gathered along the face tables, one signed scatter per
shape group (sheaves._signed_maps).  The maps are stored as sparse
columns (linalg.Columns).  Bases of the resulting subquotients keep
their representative cycles as Columns too (unit columns at a top
degree), so no dense C^k x H^k matrix is formed: an induced map is
the sparse product (linalg._mulcols) of the cochain map, itself
Columns, with the representatives, rewritten in coordinates, and it
is Columns as well.  Only the label sheaves of labeled.py store a
class map densely, as a restriction or a morphism component.

H^k = ker(delta^k)/im(delta^(k-1)) costs one column reduction of
delta^k.  It clears (skips) the columns that are pivot rows of
delta^(k-1), whose pivots and reduced pivot columns each complex keeps
once found, so the degrees taken in rising order reduce every
coboundary once.  Homology runs the same way down from the top
boundary.  The tracked ops of a reduction are kept only as the
representatives.

Coordinates need no solve.  In the basis of ker(delta^k) made of the
representatives and the reduced pivot columns of delta^(k-1), no two
vectors share a lowest nonzero row, so QuotientBasis.coords is a
back-substitution by lowest row, one column at a time, each as a
{row: value} dict.

A filtration is assembled once.  Its step-i subcomplex is a prefix of
every dimension in the global order, so step(i) is a view whose maps
are leading blocks of the full ones, and the maps between steps keep
or drop trailing rows instead of multiplying by inclusion matrices.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .complexes import FilteredComplex, SimplicialMap
from .linalg import Columns, Echelon, _addmul, _from_dicts, _mulcols, zeros
from .persistence import PersistenceModule, decompose_by_ranks
from .sheaves import (
    CellularSheaf,
    SheafDiagram,
    SheafMorphism,
    constant,
    dualize,
    pullback,
    _check_diagram,
    validate_sheaf,
)

__all__ = [
    "CochainComplex",
    "ChainComplex",
    "QuotientBasis",
    "cohomology_basis",
    "cosheaf_homology_basis",
    "simplicial_homology_basis",
    "induced_by_sheaf_morphism",
    "induced_by_simplicial_map",
    "chain_inclusion_matrix",
    "persistent_cohomology",
    "persistent_cohomology_by_degree",
]


class _Stacked:
    """Stalks stacked in the global order, with one map out of each degree.

    _maps[k] runs from degree k to degree k + _shift, as Columns.  Each
    simplex owns one contiguous block; _ends[k][n] is the total size of
    the blocks of the first n k-simplices, and _starts[k] that of the
    blocks of all simplices below dimension k.  _counts[k] is the number of
    k-simplices the spaces cover: all of them, or the leading ones in a
    step view.  _echelons[k] is the reduction of _maps[k], once known,
    without its ops.
    """

    _shift = 0

    def __init__(self, stalks, validate: bool = True):
        """Lay out the stalks and fill every map.

        stalks is a sheaf, or a cosheaf (stalks._down) whose stored maps
        run from degree k to degree k + _shift.  validate runs the full
        validation; without it only missing or mis-shaped maps are a
        ValueError, and so is a missing face.  The maps are the
        stalks' signed (co)boundaries, assembled once per (co)sheaf.
        """
        gathered = stalks._gathered
        if validate:
            problems = validate_sheaf(stalks)
        else:
            problems = gathered.shape_problems(stalks._kind)
        if problems:
            what = "cosheaf" if stalks._down else "sheaf"
            raise ValueError(f"invalid {what}: " + "; ".join(problems))
        complex_ = stalks.complex
        self.stalks = stalks
        self.complex = complex_
        self.field = complex_.field
        self._offsets: dict[int, dict[str, int]] = {}
        self._ends: dict[int, list] = {}
        b = complex_._bounds
        self._starts = np.concatenate([[0], np.cumsum(stalks._sizes)])[b].tolist()
        for k in range(complex_.dim + 1):
            ends = self._ends[k] = [0, *np.cumsum(stalks._sizes[b[k] : b[k + 1]]).tolist()]
            self._offsets[k] = dict(zip(complex_._ids[b[k] : b[k + 1]], ends))
        self._counts = {k: len(ends) - 1 for k, ends in self._ends.items()}
        self._echelons: dict[int, Echelon] = {}
        gathered.incidences.check_closed()
        up = self._shift > 0
        self._maps: dict[int, Columns] = {
            q - 1 if up else q: d for q, d in enumerate(stalks._differentials, start=1)
        }

    def dim(self, k: int) -> int:
        n = self._counts.get(k)
        return 0 if n is None else self._ends[k][n]

    def start(self, k: int) -> int:
        """Where degree k starts in the stalks of every dimension stacked
        in the global order, the order of SheafMorphism._matrix."""
        return self._starts[min(max(k, 0), len(self._starts) - 1)]

    def offset(self, k: int, sid: str) -> int:
        return self._offsets[k][sid]

    def block_dim(self, sid: str) -> int:
        return self.stalks.stalk(sid)

    def simplices(self, k: int) -> tuple:
        """The k-simplices whose stalks this space stacks, in order."""
        return self.complex.simplices_of_dim(k)[: self._counts.get(k, 0)]

    def generators(self, k: int) -> list:
        out = []
        for s in self.simplices(k):
            out.extend((s.id, i) for i in range(self.block_dim(s.id)))
        return out

    def _map(self, k: int) -> Columns:
        got = self._maps.get(k)
        if got is not None:
            return got
        return Columns.from_dense(zeros(self.dim(k + self._shift), self.dim(k)))

    def _echelon(self, k: int) -> Echelon:
        """The column reduction of the map out of degree k.

        Reduced once, clearing the pivot rows of the map into degree k
        when those are known; the pivots and reduced columns are the
        same either way.  A map that is not stored has none.
        """
        got = self._echelons.get(k)
        if got is None:
            if k not in self._maps:
                return Echelon({}, [], self._map(k).take([]), None)
            into = self._echelons.get(k - self._shift)
            clear = {} if into is None else into.pivots
            got = self.field._column_echelon(self._maps[k], clear=clear)
            self._echelons[k] = got
        return got

    def step(self, i: int):
        """This complex over the step-i subcomplex, as a view.

        Each dimension is ordered by entry, so the step-i simplices lead
        it and keep their offsets, and every map of the step is the
        leading block of this complex's map: its leading columns,
        without the rows past the step.  The view has this complex's
        class, field, stalks and complex object, and reduces with its
        own cache.
        """
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)
        view._counts = {
            k: min(n, self.complex.prefix_length(k, i))
            for k, n in self._counts.items()
        }
        view._maps = {
            k: d.block(0, 0, view.dim(k + self._shift), view.dim(k))
            for k, d in self._maps.items()
        }
        view._echelons = {}
        return view


class CochainComplex(_Stacked):
    """Stacked sheaf stalks with signed restriction coboundaries."""

    _shift = 1


class ChainComplex(_Stacked):
    """Stacked cosheaf stalks with signed extension boundaries."""

    _shift = -1


def _subquotient(space, k: int) -> QuotientBasis:
    """ker(outgoing)/im(incoming) in degree k of space, from one reduction.

    outgoing and incoming are space's maps out of and into degree k.  A
    column of outgoing that is a pivot row of incoming reduces to zero,
    so one tracked reduction of outgoing clears it.  The ops columns of
    the other zero columns are cycles independent modulo im(incoming).
    outgoing's reduction is kept for the next degree, without its ops.
    """
    incoming = space._echelon(k - space._shift)
    found = space.field._column_echelon(
        space._map(k), track=True, clear=incoming.pivots
    )
    space._echelons[k] = found._replace(ops=None)
    return QuotientBasis(space, k, found.ops.take(found.zero), incoming.reduced)


def _quotient(field, cycles: np.ndarray, killed: np.ndarray) -> np.ndarray:
    """Columns of cycles that extend span(killed) to a basis of span(cycles).

    One column reduction of [killed | cycles]: a cycle column keeps a
    pivot exactly when it is independent of killed and of the cycle
    columns before it.
    """
    nk = killed.shape[1]
    owner = field._column_echelon(field.sparse(np.hstack([killed, cycles]))).pivots
    kept = sorted(j - nk for j in owner.values() if j >= nk)
    return cycles[:, kept]


class QuotientBasis:
    """Representatives of a subquotient span(cycles)/span(killed) of C^k.

    cycles and killed are Columns, together a basis of the cycles in
    which no two columns share a lowest nonzero row: each cycle's is
    its own column of the tracked reduction, each killed vector's a
    pivot row of the map into degree k.  The cycles are the
    representatives; at a top degree they are unit columns.  coords()
    rewrites ambient columns as classes in this basis; asking for the
    coordinates of something outside the subspace is an error, not a
    projection.
    """

    def __init__(self, space, degree: int, cycles: Columns, killed: Columns):
        self.space = space
        self.degree = degree
        self.cycles = cycles
        self.killed = killed

    @property
    def dim(self) -> int:
        return self.cycles.shape[1]

    @cached_property
    def _by_low(self) -> dict:
        """low -> (column as {row: value}, inverse of its value at low,
        slot) for each basis column, keyed by its lowest nonzero row;
        slot is the column's coordinate, or -1 for a killed vector."""
        p = self.space.field.p
        out = {}
        for basis, is_cycle in ((self.cycles, True), (self.killed, False)):
            rows, values = basis.indices.tolist(), basis.data.tolist()
            ptr = basis.indptr.tolist()
            for t in range(basis.shape[1]):
                a, b = ptr[t], ptr[t + 1]
                col = dict(zip(rows[a:b], values[a:b]))
                out[rows[b - 1]] = (col, pow(values[b - 1], -1, p), t if is_cycle else -1)
        return out

    def coords(self, vectors: Columns) -> Columns:
        """Coordinates of the classes of vectors' columns, by back-substitution.

        The lowest nonzero row of what is left of a column names the one
        basis column that can clear it; a low that no basis column owns
        lies outside the cycles.  Each column is worked on as a
        {row: value} dict, so the cost is its own fill-in.
        """
        p = self.space.field.p
        if vectors.shape[0] != self.cycles.shape[0]:
            raise ValueError(
                f"expected {self.cycles.shape[0]} rows in degree {self.degree}, "
                f"got {vectors.shape[0]}"
            )
        by_low = self._by_low
        rows, values = vectors.indices.tolist(), vectors.data.tolist()
        ptr = vectors.indptr.tolist()
        out = []
        for j in range(vectors.shape[1]):
            col = dict(zip(rows[ptr[j] : ptr[j + 1]], values[ptr[j] : ptr[j + 1]]))
            found = {}
            while col:
                low = max(col)
                owner = by_low.get(low)
                if owner is None:
                    raise ValueError("columns do not represent classes in this basis")
                basis, inverse, slot = owner
                coef = col[low] * inverse % p
                _addmul(col, basis, p - coef, p)
                if slot >= 0:
                    found[slot] = coef
            out.append(found)
        return _from_dicts(self.dim, out)


def cohomology_basis(
    sheaf: CellularSheaf, k: int, cochains: CochainComplex | None = None
) -> QuotientBasis:
    """H^k as ker(delta^k)/im(delta^{k-1}), with cocycle representatives.

    Also the homology of a cosheaf (cosheaf_homology_basis): H_k as
    ker(boundary_k)/im(boundary_{k+1}) of its ChainComplex, with cycle
    representatives.
    """
    if cochains is None:
        cochains = (ChainComplex if sheaf._down else CochainComplex)(sheaf)
    return _subquotient(cochains, k)


cosheaf_homology_basis = cohomology_basis


def simplicial_chain_complex(complex_: FilteredComplex) -> ChainComplex:
    """The ordinary F_p simplicial chain complex, as a constant cosheaf."""
    return ChainComplex(dualize(constant(complex_, 1)), validate=False)


def simplicial_homology_basis(complex_: FilteredComplex, n: int) -> QuotientBasis:
    return cosheaf_homology_basis(None, n, simplicial_chain_complex(complex_))


def _induced(phi: SheafMorphism, source_basis: QuotientBasis, target_basis: QuotientBasis) -> Columns:
    """Matrix of H^k(phi) between two bases of degree k.

    The degree-k cochain map is the block of phi's one matrix
    (SheafMorphism._matrix) where both spaces' degree k starts; on step
    views of the complexes it is the leading part of that block.
    """
    k = source_basis.degree
    src, tgt = source_basis.space, target_basis.space
    block = phi._matrix.block(tgt.start(k), src.start(k), tgt.dim(k), src.dim(k))
    return target_basis.coords(_mulcols(block, source_basis.cycles, src.field.p))


def induced_by_sheaf_morphism(
    phi: SheafMorphism,
    k: int | None = None,
    source_basis: QuotientBasis | None = None,
    target_basis: QuotientBasis | None = None,
) -> Columns:
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
    return _induced(phi, source_basis, target_basis)


def _step_map(source_basis: QuotientBasis, target_basis: QuotientBasis) -> Columns:
    """Matrix of the map between two step views of one complex.

    The spaces of a smaller step are the leading rows of a larger
    one's, so a cocycle of a larger step restricts by dropping its
    trailing rows and a cycle of a smaller step is included by widening
    its row count (Columns.block); no inclusion matrix is formed.
    """
    reps = source_basis.cycles
    rows = target_basis.space.dim(source_basis.degree)
    return target_basis.coords(reps.block(0, 0, rows, reps.shape[1]))


def induced_by_simplicial_map(
    f: SimplicialMap,
    sheaf: CellularSheaf | None = None,
    k: int | None = None,
    source_basis: QuotientBasis | None = None,
    target_basis: QuotientBasis | None = None,
) -> Columns:
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
    rows, cols = [], []
    for s in f.source.simplices_of_dim(k):
        t = f.image(s)
        if t.dim != k:
            continue
        d = tgt.block_dim(s.id)
        if src.block_dim(t.id) != d:
            raise ValueError(f"stalk mismatch over {s.id!r} and {t.id!r}")
        ro = tgt.offset(k, s.id)
        co = src.offset(k, t.id)
        rows.extend(range(ro, ro + d))
        cols.extend(range(co, co + d))
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    m = Columns.from_entries((tgt.dim(k), src.dim(k)), rows, cols, np.ones_like(rows))
    p = src.field.p
    return target_basis.coords(_mulcols(m, source_basis.cycles, p))


def chain_inclusion_matrix(sub, sup, k: int) -> np.ndarray:
    """Identity blocks placing sub's degree-k space inside sup's by simplex id."""
    m = zeros(sup.dim(k), sub.dim(k))
    for s in sub.simplices(k):
        d = sub.block_dim(s.id)
        if sup.block_dim(s.id) != d:
            raise ValueError(f"block size differs at {s.id!r}")
        at = np.arange(d)
        m[sup.offset(k, s.id) + at, sub.offset(k, s.id) + at] = 1
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
        bases = [cohomology_basis(cc.stalks, k, cc) for cc in cochains]
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
