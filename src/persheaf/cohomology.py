"""Cochain and chain complexes of sheaf data, with based (co)homology.

C^k stacks the stalks of all k-simplices in the global order; the
coboundary block from a face to a coface is the restriction matrix
times the orientation sign, and chain complexes do the same with
cosheaf extensions.  Both are filled by one signed scatter of all
their entries (sheaves._signed_maps) and stored as sparse columns
(linalg.Columns).  Representatives and induced maps are Columns too,
so no dense C^k x H^k matrix is formed: an induced map is the sparse
product (linalg._mulcols) of the cochain map with the
representatives, rewritten in coordinates.

H^k = ker(delta^k)/im(delta^(k-1)) costs one column reduction of
delta^k, which clears (skips) the pivot rows of delta^(k-1).  Each
complex keeps its reductions, so rising degrees reduce every
coboundary once; homology runs the same way down from the top.

Coordinates need no solve.  In the basis of ker(delta^k) made of the
representatives and the reduced pivot columns of delta^(k-1), no two
vectors share a lead, so QuotientBasis.coords is a back-substitution
by lead, one column at a time, each as a {row: value} dict.

A filtration is assembled once.  Its step-i subcomplex is a prefix of
every dimension, so step i's coboundaries are leading blocks of the
full ones.  _step_bases reads every step's H^k off one reduction of
each, and a class restricts to a smaller step by dropping rows
(_restrict), with no inclusion matrix.
"""

from __future__ import annotations

from bisect import insort
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
    "induced_by_sheaf_morphism",
    "induced_by_simplicial_map",
    "chain_inclusion_matrix",
    "persistent_cohomology",
    "persistent_cohomology_by_degree",
]


class _Stacked:
    """Stalks stacked in the global order, with one map out of each degree.

    _maps[k] runs from degree k to degree k + _shift, as Columns.  Each
    simplex owns one contiguous block; _ends[n] is the total size of the
    blocks of the first n simplices in the global order, and _starts[k]
    that of the blocks of all simplices below dimension k.  _echelons[k]
    is the reduction of _maps[k], once known, without its ops.
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
        self._ends = [0, *np.cumsum(stalks._sizes).tolist()]
        self._starts = [self._ends[at] for at in complex_._bounds]
        self._echelons: dict[int, Echelon] = {}
        gathered.incidences.check_closed()
        up = self._shift > 0
        self._maps: dict[int, Columns] = {
            q - 1 if up else q: d for q, d in enumerate(stalks._differentials, start=1)
        }

    def dim(self, k: int, step: int | None = None) -> int:
        """The size of degree k, or of its leading part over a filtration step."""
        if not 0 <= k <= self.complex.dim:
            return 0
        if step is None:
            return self._starts[k + 1] - self._starts[k]
        at = self.complex._bounds[k] + self.complex.prefix_length(k, step)
        return self._ends[at] - self._starts[k]

    def start(self, k: int) -> int:
        """Where degree k starts in the stalks of every dimension stacked
        in the global order, the order of SheafMorphism._matrix."""
        return self._starts[min(max(k, 0), len(self._starts) - 1)]

    def offset(self, k: int, sid: str) -> int:
        """Where the block of the k-simplex sid starts in degree k."""
        at = self.complex._position[sid]
        if self.complex._dim_at(at) != k:
            raise KeyError(f"{sid!r} is not a {k}-simplex")
        return self._ends[at] - self._starts[k]

    def block_dim(self, sid: str) -> int:
        at = self.complex._position[sid]
        return self._ends[at + 1] - self._ends[at]

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
    It pivots on lowest rows: earliest-row pivots (_step_bases) fill in
    more, and read off them the persist-a pointwise bases took longer.
    """
    incoming = space._echelon(k - space._shift)
    found = space.field._column_echelon(
        space._map(k), track=True, clear=incoming.pivots
    )
    space._echelons[k] = found._replace(ops=None)
    return QuotientBasis(space, k, found.ops.take(found.zero), incoming.reduced)


def _flip(m: Columns) -> Columns:
    """m with its rows in reverse order, each column's still ascending.

    Read backward, m's entries are its columns in reverse order, each
    column's rows descending, so flipped ascending: taking the columns
    back in order needs no sort.
    """
    rows = m.shape[0] - 1 - m.indices[::-1]
    back = Columns(m.shape, m.indptr[-1] - m.indptr[::-1], rows, m.data[::-1])
    return back.take(np.arange(m.shape[1] - 1, -1, -1))


def _step_bases(cochains: CochainComplex, degrees) -> dict:
    """H^k of cochains at every filtration step, as {k: [QuotientBasis]}.

    Step i's delta^k is the leading block of the whole one, so a
    left-to-right reduction pivoting on earliest rows (the rows
    reversed around Field._column_echelon) cuts to every step's: the
    reduced columns of step i that keep a step-i row are independent
    there, and the others are cocycles at step i.  Reduction only moves
    a column's earliest row later, and a coface never enters before its
    face, so a pivot never enters before its owner: delta^(k-1)'s
    reduced columns with a step-i pivot, cut to step i, are
    coboundaries there and span them.  Those are step i's killed
    vectors; its cycles are the ops columns of its uncleared columns
    whose reduced column has no step-i row.

    The reduction of delta^k skips (clears) delta^(k-1)'s pivot rows.
    Unlike with lowest-row pivots (Chen and Kerber 2011), a cleared
    column need not reduce to zero here, and the owners differ.  What
    holds instead: the killed vectors are triangular on the cleared
    rows, so the cocycles that vanish there complement the
    coboundaries at every step, and the reduction of the other columns
    finds them.  No cycle has an entry at a cleared row.

    Each delta^j from degree 0 up to the greatest wanted degree is
    reduced once, cleared by the one before, whatever the order of
    degrees.  Below degree 0 and past the top every space is zero:
    those degrees reduce nothing.  The dual route, H_k of the dual
    cosheaf as in labeled, reduces the uncleared boundary: slower.
    """
    steps, field, wanted = range(cochains.complex.steps), cochains.field, set(degrees)
    top = max([k for k in wanted if k <= cochains.complex.dim], default=-1)
    out = {}
    killed, leads = Columns.units(0, []), np.zeros(0, dtype=np.int64)
    for k in range(top + 1):
        m = cochains._map(k)
        found = field._column_echelon(_flip(m), track=k in wanted, clear=set(leads.tolist()))
        owners = np.fromiter(found.pivots.values(), np.int64, len(found.pivots))
        pivots = m.shape[0] - 1 - np.fromiter(found.pivots, np.int64, len(found.pivots))
        if k in wanted:
            # each uncleared column's earliest reduced row, past every row if none
            first = np.full(m.shape[1], -1, dtype=np.int64)
            first[found.zero], first[owners] = m.shape[0], pivots
            kept = np.flatnonzero(first >= 0)
            out[k] = []
            for c, r in ((cochains.dim(k, i), cochains.dim(k + 1, i)) for i in steps):
                cycles = found.ops.take(kept[(kept < c) & (first[kept] >= r)])
                out[k].append(QuotientBasis(
                    cochains, k, cycles.block(0, 0, c, cycles.shape[1]),
                    killed_first=killed.block(0, 0, c, int(np.searchsorted(leads, c))),
                ))
        # pivots are distinct; the default kind's first call costs peak RSS
        order = np.argsort(pivots, kind="stable")
        killed, leads = _flip(found.reduced).take(order), pivots[order]
    for k in wanted - out.keys():
        out[k] = [QuotientBasis(cochains, k, Columns.units(0, [])) for _ in steps]
    return out


def _restrict(basis: QuotientBasis, onto: QuotientBasis) -> Columns:
    """Matrix of the restriction from basis's step to onto's, an earlier
    step of the same complex: a class drops the rows past onto's step."""
    return onto.coords(basis.cycles.block(0, 0, onto.cycles.shape[0], basis.dim))


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

    cycles, killed and killed_first are Columns, together a basis of
    the cycles; the cycles are the representatives, and killed and
    killed_first (each none if not given) span what is killed.  Each vector leads by
    its lowest nonzero row, except that a vector of killed_first leads
    by its earliest, where no cycle has an entry; no two share a lead.
    coords() rewrites ambient columns as classes in this basis; asking
    for the coordinates of something outside it is an error.
    """

    def __init__(self, space, degree, cycles: Columns, killed=None, killed_first=None):
        none = Columns.units(cycles.shape[0], [])
        self.space = space
        self.degree = degree
        self.cycles = cycles
        self.killed = none if killed is None else killed
        self.killed_first = none if killed_first is None else killed_first

    @property
    def dim(self) -> int:
        return self.cycles.shape[1]

    @cached_property
    def _leads(self) -> tuple:
        """(by_low, by_first): lead -> (column as {row: value}, inverse of
        its value there, coordinate or -1 if killed); by_first holds
        killed_first, by earliest row."""
        p = self.space.field.p
        by_low, by_first = {}, {}
        for basis, leads, is_cycle in (
            (self.cycles, by_low, True),
            (self.killed, by_low, False),
            (self.killed_first, by_first, False),
        ):
            rows, values = basis.indices.tolist(), basis.data.tolist()
            ptr = basis.indptr.tolist()
            for t in range(basis.shape[1]):
                a, b = ptr[t], ptr[t + 1]
                at = a if leads is by_first else b - 1
                leads[rows[at]] = (
                    dict(zip(rows[a:b], values[a:b])),
                    pow(values[at], -1, p),
                    t if is_cycle else -1,
                )
        return by_low, by_first

    def coords(self, vectors: Columns) -> Columns:
        """Coordinates of the classes of vectors' columns, by back-substitution.

        The vectors of killed_first clear their leads first, in rising
        order.  Then the lowest nonzero row of what is left names
        the one basis column that can clear it; a low that none owns
        lies outside the cycles.  Each column is a {row: value} dict, so
        the cost is its own fill-in.
        """
        p = self.space.field.p
        if vectors.shape[0] != self.cycles.shape[0]:
            raise ValueError(
                f"expected {self.cycles.shape[0]} rows in degree {self.degree}, "
                f"got {vectors.shape[0]}"
            )
        by_low, by_first = self._leads
        rows, values = vectors.indices.tolist(), vectors.data.tolist()
        ptr = vectors.indptr.tolist()
        out = []
        for j in range(vectors.shape[1]):
            col = dict(zip(rows[ptr[j] : ptr[j + 1]], values[ptr[j] : ptr[j + 1]]))
            todo = sorted(-r for r in col if r in by_first)  # the earliest lead last
            while todo:
                r = -todo.pop()
                if r in col:
                    basis, inverse, _ = by_first[r]
                    _addmul(col, basis, p - col[r] * inverse % p, p)
                    for q in basis:
                        if q in col and q in by_first:
                            insort(todo, -q)
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


def _induced(phi: SheafMorphism, source_basis: QuotientBasis, target_basis: QuotientBasis) -> Columns:
    """Matrix of H^k(phi) between two bases of degree k.

    The degree-k cochain map is the block of phi's one matrix
    (SheafMorphism._matrix) where both spaces' degree k starts, as high
    and wide as the representatives: at a step, its leading part.
    """
    k = source_basis.degree
    src, tgt = source_basis.space, target_basis.space
    rows, cols = target_basis.cycles.shape[0], source_basis.cycles.shape[0]
    block = phi._matrix.block(tgt.start(k), src.start(k), rows, cols)
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
    for s in sub.complex.simplices_of_dim(k):
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
