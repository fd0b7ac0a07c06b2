"""Cochain and chain complexes of sheaf data, with based (co)homology.

C^k stacks the stalks of all k-simplices in the global order; the
coboundary block from a face to a coface is the restriction matrix
times the orientation sign.  Chain complexes do the same with cosheaf
extensions, transposed in direction.  Both are filled from the
sheaf's maps gathered along the face tables, one signed scatter per
shape group (sheaves._signed_maps).  The maps are stored as sparse
columns (linalg.Columns).  Bases of the resulting subquotients keep
their representative columns so induced maps can be expressed in
coordinates.

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
back-substitution by lowest row.

A filtration is assembled once.  Its step-i subcomplex is a prefix of
every dimension in the global order, so step(i) is a view whose maps
are leading blocks of the full ones, and the maps between steps keep
or drop trailing rows instead of multiplying by inclusion matrices.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .complexes import FilteredComplex, SimplicialMap
from .linalg import Columns, Echelon, identity, zeros
from .persistence import PersistenceModule, decompose_by_ranks
from .sheaves import (
    CellularSheaf,
    SheafDiagram,
    SheafMorphism,
    constant,
    dualize,
    pullback,
    _check_diagram,
    _signed_maps,
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
    the blocks of the first n k-simplices.  _counts[k] is the number of
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
        ValueError.  Each map is filled with one signed scatter per
        shape group of the gathered maps.
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
        for k in range(complex_.dim + 1):
            ends = self._ends[k] = [0, *np.cumsum(stalks._sizes[b[k] : b[k + 1]]).tolist()]
            self._offsets[k] = dict(zip(complex_._ids[b[k] : b[k + 1]], ends))
        self._counts = {k: len(ends) - 1 for k, ends in self._ends.items()}
        self._echelons: dict[int, Echelon] = {}
        up = self._shift > 0
        maps = _signed_maps(gathered, stalks._sizes, not up)
        self._maps: dict[int, Columns] = {
            q - 1 if up else q: d for q, d in enumerate(maps, start=1)
        }

    def dim(self, k: int) -> int:
        n = self._counts.get(k)
        return 0 if n is None else self._ends[k][n]

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
            k: d.leading(view.dim(k + self._shift), view.dim(k))
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
    pivot row of the map into degree k.  representatives is cycles as a
    dense matrix.  coords() rewrites ambient columns as classes in this
    basis; asking for the coordinates of something outside the subspace
    is an error, not a projection.
    """

    def __init__(self, space, degree: int, cycles: Columns, killed: Columns):
        self.space = space
        self.degree = degree
        self.cycles = cycles
        self.representatives = cycles.dense()
        self.killed = killed

    @property
    def dim(self) -> int:
        return self.representatives.shape[1]

    @cached_property
    def _by_low(self) -> list:
        """(low, rows, values, inverse of the low value, slot) for each
        basis column, lowest rows first; slot is the column's coordinate,
        or -1 for a killed vector."""
        p = self.space.field.p
        out = []
        for basis, is_cycle in ((self.cycles, True), (self.killed, False)):
            ptr = basis.indptr.tolist()
            for t in range(basis.shape[1]):
                rows = basis.indices[ptr[t] : ptr[t + 1]]
                values = basis.data[ptr[t] : ptr[t + 1]]
                inv = pow(int(values[-1]), -1, p)
                slot = t if is_cycle else -1
                out.append((int(rows[-1]), rows, values[:, None], inv, slot))
        out.sort(key=lambda entry: -entry[0])
        return out

    def coords(self, vectors) -> np.ndarray:
        """Coordinates of the classes of vectors' columns, by back-substitution.

        The lowest nonzero row of what is left of the columns names the
        one basis column that can clear it; whatever no basis column
        clears lies outside the cycles.
        """
        field = self.space.field
        p = field.p
        v = field.normalize(vectors)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.shape[0] != self.cycles.shape[0]:
            raise ValueError(
                f"expected {self.cycles.shape[0]} rows in degree {self.degree}, "
                f"got {v.shape[0]}"
            )
        out = zeros(self.dim, v.shape[1])
        for low, rows, values, inv, slot in self._by_low:
            row = v[low]
            if not row.any():
                continue
            coef = row * inv % p
            v[rows] = (v[rows] - values * coef) % p
            if slot >= 0:
                out[slot] = coef
        if v.any():
            raise ValueError("columns do not represent classes in this basis")
        return out


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


def _cochain_map(phi: SheafMorphism, src, tgt, k: int) -> np.ndarray:
    """The degree-k cochain map of phi from src's C^k to tgt's C^k.

    Block diagonal with the morphism components.  On step views of
    complexes over phi's own complex, the step's map is the leading
    block of the full one.
    """
    m = zeros(tgt.dim(k), src.dim(k))
    for s in phi.complex.simplices_of_dim(k):
        comp = phi.component(s.id)
        if comp.size == 0:
            continue
        ro = tgt.offset(k, s.id)
        co = src.offset(k, s.id)
        m[ro : ro + comp.shape[0], co : co + comp.shape[1]] = comp
    return m


def _induced(
    m: np.ndarray, source_basis: QuotientBasis, target_basis: QuotientBasis
) -> np.ndarray:
    """Matrix of a cochain map's leading block between two bases."""
    k = source_basis.degree
    block = m[: target_basis.space.dim(k), : source_basis.space.dim(k)]
    return target_basis.coords(
        source_basis.space.field.matmul(block, source_basis.representatives)
    )


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
    m = _cochain_map(phi, source_basis.space, target_basis.space, k)
    return _induced(m, source_basis, target_basis)


def _step_map(source_basis: QuotientBasis, target_basis: QuotientBasis) -> np.ndarray:
    """Matrix of the map between two step views of one complex.

    The spaces of a smaller step are the leading rows of a larger
    one's, so a cocycle of a larger step restricts by dropping its
    trailing rows and a cycle of a smaller step is included by padding
    zero rows; no inclusion matrix is formed.
    """
    k = source_basis.degree
    reps = source_basis.representatives
    rows = target_basis.space.dim(k)
    if rows > reps.shape[0]:
        reps = np.vstack([reps, zeros(rows - reps.shape[0], reps.shape[1])])
    return target_basis.coords(reps[:rows])


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


def _include(sub, sup, k: int, vectors: np.ndarray) -> np.ndarray:
    """Degree-k vectors of sub rewritten in sup, matching blocks by simplex id.

    sub's simplices must all lie in sup with equal stalks; the result
    is one row scatter, zero on the rows of the other simplices.
    """
    rows = []
    for s in sub.simplices(k):
        d = sub.block_dim(s.id)
        if sup.block_dim(s.id) != d:
            raise ValueError(f"block size differs at {s.id!r}")
        ro = sup.offset(k, s.id)
        rows.extend(range(ro, ro + d))
    out = zeros(sup.dim(k), vectors.shape[1])
    out[rows] = vectors
    return out


def chain_inclusion_matrix(sub, sup, k: int) -> np.ndarray:
    """Identity blocks placing sub's degree-k space inside sup's by simplex id."""
    return _include(sub, sup, k, identity(sub.dim(k)))


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
