"""Graded (co)sheaves over F[t] and the degree-ordered reduction to barcodes.

A graded sheaf or cosheaf is a cellular one whose stalk generators
carry degrees, and its (co)chain complex is the cellular
CochainComplex or ChainComplex over the same signed (co)boundaries.
The graded (co)sheaf wraps each of them once as a HomogeneousMatrix:
scalar entries as linalg.Columns, the t-power of entry (i, j) implied
by the generator degrees, column minus row.  The assembly checks only
the store; a negative t-power is refused by HomogeneousMatrix, and a
diamond that does not commute by the sparse check that consecutive
maps compose to zero.  A stalk-wise injective diagram becomes one
graded sheaf in one pass (diagram_to_graded_sheaf).

Each wrapped map is column-reduced once, lowest pivot first, with rows
and columns in (degree, position) order: the standard persistence
reduction (Zomorodian and Carlsson, "Computing persistent homology",
2005), which serves every degree that reads the map.  Adding an earlier
column into a later one multiplies it by a nonnegative power of t; a
pivot that would need a negative one is a broken invariant and raises
AssertionError.  A pivot (i, j) of the map into a degree gives the bar
(deg i, deg j - 1) when the degrees differ; a generator whose column
the map out of the degree empties, and that no pivot kills, gives an
open bar.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .cohomology import ChainComplex, CochainComplex
from .complexes import FilteredComplex
from .linalg import Columns, Field, _hstack, _mulcols, matrix, zeros
from .persistence import Barcode
from .sheaves import (
    CellularCosheaf,
    CellularSheaf,
    SheafDiagram,
    _check_diagram,
    _codim1_pairs,
    _diamond_problems,
    _incidence_maps,
    _restriction_operator,
    _starts,
    _store_problems,
)

__all__ = [
    "NotFreeError",
    "HomogeneousMatrix",
    "GradedSheaf",
    "GradedCosheaf",
    "validate_graded_sheaf",
    "validate_graded_cosheaf",
    "graded_cochain_complex",
    "graded_chain_complex",
    "graded_barcode",
    "graded_homology_barcode",
    "diagram_to_graded_sheaf",
    "diagram_graded_barcode",
    "diagram_graded_barcode_by_degree",
    "evaluate_at",
    "evaluate_sheaf_at",
    "SlicedComplex",
]


class NotFreeError(ValueError):
    """Raised when a diagram step has a kernel, so graded stalks are not free."""


def _degree_order(degrees) -> list:
    """Positions sorted by (degree, position)."""
    return sorted(range(len(degrees)), key=lambda i: (degrees[i], i))


class HomogeneousMatrix:
    """Scalar part of a degree-0 map between free graded modules.

    scalar is Columns, converted once from any matrix form.  Entry
    (i, j) stands for scalar * t**(col_deg[j] - row_deg[i]); a nonzero
    scalar below a higher-degree row would need a negative power and is
    rejected, the first such entry row by row named.
    """

    def __init__(self, field: Field, scalar, row_degrees, col_degrees):
        self.field = field
        self.scalar = field.sparse(scalar if isinstance(scalar, Columns) else matrix(scalar))
        rows, cols = (np.asarray(d, dtype=np.int64) for d in (row_degrees, col_degrees))
        self.row_degrees, self.col_degrees = tuple(rows.tolist()), tuple(cols.tolist())
        want = (len(rows), len(cols))
        if self.scalar.shape != want:
            raise ValueError(f"scalar shape {self.scalar.shape}, degrees want {want}")
        rz = self.scalar.indices
        cz = np.repeat(np.arange(want[1]), np.diff(self.scalar.indptr))
        bad = cols[cz] < rows[rz]
        if bad.any():
            i, j = min(zip(rz[bad].tolist(), cz[bad].tolist()))
            raise ValueError(f"entry ({i}, {j}) would need a negative t-power")

    @property
    def shape(self):
        return self.scalar.shape

    @cached_property
    def pivots(self) -> dict:
        """Pivot row -> column of the degree-ordered lowest-pivot reduction.

        Rows and columns are taken in (degree, position) order, so adding
        an earlier column into a later one multiplies it by a nonnegative
        power of t; a pivot that needs a negative one is a broken
        invariant.  Positions are the stored ones; the reduction runs
        once per matrix.
        """
        rows = _degree_order(self.row_degrees)
        cols = _degree_order(self.col_degrees)
        m = self.scalar.take(cols)
        # rows relabelled by the inverse permutation; the reduction reads
        # each column as a dict, so they need not ascend
        m.indices = np.argsort(rows)[m.indices]
        owner = self.field._column_echelon(m).pivots
        pivots = {rows[i]: cols[j] for i, j in owner.items()}
        for i, j in pivots.items():
            if self.col_degrees[j] < self.row_degrees[i]:
                raise AssertionError(f"pivot ({i}, {j}) would need a negative t-power")
        return pivots


def _graded_kernel(field: Field, scalar, col_degrees):
    """Homogeneous kernel basis of a graded map, with generator degrees.

    Columns are reduced in (degree, position) order, so only columns of
    lower or equal degree are ever added into later ones; the tracked
    combination that empties a column is a kernel vector of that
    column's degree.  Barcodes do not need it: they only ask which
    columns the reduction empties.
    """
    cols = _degree_order(col_degrees)
    found = field._column_echelon(field.sparse(scalar).take(cols), track=True)
    emptied = found.zero
    basis = zeros(len(cols), len(emptied))
    basis[cols] = found.ops.take(emptied).dense()
    return basis, tuple(col_degrees[cols[a]] for a in emptied)


def _graded_quotient_bars(out_map: HomogeneousMatrix, in_map: HomogeneousMatrix):
    """Bars of ker(out_map) / im(in_map), read from the two maps' pivots.

    A pivot (i, j) of in_map kills generator i at the degree of column
    j: a bar (deg i, deg j - 1), or none when the two degrees agree.  A
    generator whose column out_map empties and that no pivot kills
    lives forever.  A killed generator whose column out_map does not
    empty means the maps do not compose to zero.
    """
    degrees = in_map.row_degrees
    killers = in_map.col_degrees
    killed = in_map.pivots
    kept = set(out_map.pivots.values())
    if not kept.isdisjoint(killed):
        raise AssertionError("a killed generator is not a cycle")
    bars = [
        (degrees[i], killers[j] - 1)
        for i, j in killed.items()
        if killers[j] > degrees[i]
    ]
    bars.extend(
        (degrees[i], None)
        for i in range(len(degrees))
        if i not in kept and i not in killed
    )
    return bars


def _graded_snf_bars(field: Field, rel, row_degrees, col_degrees):
    """Bars of the module presented by rel over generators of row_degrees.

    That module is the kernel of the zero map on the generators modulo
    the image of rel.
    """
    zero = HomogeneousMatrix(field, zeros(0, len(row_degrees)), (), row_degrees)
    return _graded_quotient_bars(zero, HomogeneousMatrix(field, rel, row_degrees, col_degrees))


def _graded_map(cochains: CochainComplex, k: int) -> HomogeneousMatrix:
    """The map out of degree k of a graded (co)chain complex: its
    stalks' wrapped one when stored (_Graded._homogeneous), else the
    zero map _map(k) between the generator degrees of k and k + _shift."""
    if k in cochains._maps:
        return cochains.stalks._homogeneous[min(k, k + cochains._shift)]
    rows, cols = (_degrees_of(cochains, j) for j in (k + cochains._shift, k))
    return HomogeneousMatrix(cochains.field, cochains._map(k), rows, cols)


def _degrees_of(cochains: CochainComplex, k: int) -> np.ndarray:
    """The generator degrees of degree k of a graded (co)chain complex."""
    return cochains.stalks._degree_array[cochains.start(k) : cochains.start(k + 1)]


def graded_barcode(cochains: CochainComplex, k: int) -> Barcode:
    """Interval multiset of the degree-k cohomology of a graded sheaf's
    cochain complex (graded_cochain_complex).

    Also the degree-k homology of a graded cosheaf's ChainComplex
    (graded_homology_barcode).  The maps out of and into degree k are
    read as their stalks' HomogeneousMatrix, so each stored map is
    reduced once, whichever degrees read it.
    """
    out_map, in_map = (_graded_map(cochains, j) for j in (k, k - cochains._shift))
    return Barcode(_graded_quotient_bars(out_map, in_map))


graded_homology_barcode = graded_barcode


class _Graded:
    """Generator degrees on a cellular sheaf or cosheaf.

    The stalk of a simplex is free of rank len(degrees[sid]), and each
    map is the scalar part of a HomogeneousMatrix between the stalks'
    degrees.  Ids that name no simplex are kept as stray stalks.
    """

    def __init__(self, complex_: FilteredComplex, degrees, maps):
        degrees = {sid: tuple(map(int, ds)) for sid, ds in degrees.items()}
        super().__init__(complex_, {sid: len(ds) for sid, ds in degrees.items()}, maps)
        self.degrees = {sid: degrees.get(sid, ()) for sid in self.stalk_dim}
        if any(d < 0 for ds in self.degrees.values() for d in ds):
            raise ValueError("generator degrees must be nonnegative")

    def _map(self, source_id: str, target_id: str) -> HomogeneousMatrix:
        rows, cols = self.degrees[target_id], self.degrees[source_id]
        scalar = super()._map(source_id, target_id)
        return HomogeneousMatrix(self.complex.field, scalar, rows, cols)

    @cached_property
    def _degree_array(self) -> np.ndarray:
        """Every generator degree, stalk by stalk in the global order."""
        return np.fromiter(
            (d for ds in self.degrees.values() for d in ds), np.int64, int(self._sizes.sum())
        )

    @cached_property
    def _homogeneous(self) -> list:
        """Each signed (co)boundary (_differentials) as a HomogeneousMatrix
        between the generator degrees of its two dimensions, wrapped in
        order, so the first that needs a negative t-power is refused."""
        ends = np.concatenate([[0], np.cumsum(self._sizes)])[self.complex._bounds]
        dims = [self._degree_array[a:b] for a, b in zip(ends, ends[1:])]
        homs = []
        for q, scalar in enumerate(self._differentials, start=1):
            rows, cols = (dims[q - 1], dims[q]) if self._down else (dims[q], dims[q - 1])
            homs.append(HomogeneousMatrix(self.complex.field, scalar, rows, cols))
        return homs


class GradedSheaf(_Graded, CellularSheaf):
    """Graded modules with homogeneous restrictions, face to coface."""


class GradedCosheaf(_Graded, CellularCosheaf):
    """Graded modules with homogeneous extensions, coface to face."""


def _power_problems(stalks: _Graded) -> list:
    """Well-shaped stored maps with an entry that would need a negative
    t-power, in incidence order, each with the first such entry row by
    row.  Every stored entry is checked at once (_Batch.entries)."""
    gathered = stalks._gathered
    inc = gathered.incidences
    ids = stalks.complex._ids
    source, target = (inc.coface, inc.face) if stalks._down else (inc.face, inc.coface)
    # entry (i, j) of a map stands for t^(col degree j - row degree i)
    degree, first = stalks._degree_array, _starts(stalks._sizes)
    n, i, j, value = gathered.batch.entries()
    negative = (value != 0) & (degree[first[source[n]] + j] < degree[first[target[n]] + i])
    bad, at = np.unique(n[negative], return_index=True)
    i, j = i[negative][at], j[negative][at]
    return [
        f"{ids[source[m]]!r} -> {ids[target[m]]!r}: entry ({a}, {b})"
        " would need a negative t-power"
        for m, a, b in zip(bad.tolist(), i.tolist(), j.tolist())
    ]


def validate_graded_sheaf(stalks: _Graded) -> list:
    """Problems of a graded sheaf or cosheaf, as strings.

    The store problems of validate_sheaf, then the maps that would need
    a negative t-power; only without those, the diamonds whose two
    composites differ.
    """
    return _store_problems(stalks) + _power_problems(stalks) or _diamond_problems(stalks)


validate_graded_cosheaf = validate_graded_sheaf


def graded_cochain_complex(stalks: _Graded) -> CochainComplex:
    """The cochain complex of a graded sheaf: its signed coboundaries
    k -> k+1 (_differentials), each wrapped once as a HomogeneousMatrix
    (_Graded._homogeneous) for graded_barcode.

    Also the ChainComplex of a graded cosheaf, with its boundaries
    k+1 -> k (graded_chain_complex).  Only the store is checked first;
    then the wrapping refuses a negative t-power, and consecutive maps
    must compose to zero: the two routes of a diamond carry opposite
    signs, so this refuses one that does not commute.
    """
    problems = _store_problems(stalks)
    if problems:
        what = "cosheaf" if stalks._down else "sheaf"
        raise ValueError(f"invalid graded {what}: " + "; ".join(problems))
    cochains = (ChainComplex if stalks._down else CochainComplex)(stalks, validate=False)
    maps = [hom.scalar for hom in stalks._homogeneous]
    for i, pair in enumerate(zip(maps, maps[1:])):
        first, then = pair[::-1] if stalks._down else pair
        if _mulcols(then, first, cochains.field.p).data.size:
            raise ValueError(f"maps {i} and {i + 1} do not compose to zero")
    return cochains


graded_chain_complex = graded_cochain_complex


def diagram_to_graded_sheaf(diagram: SheafDiagram) -> GradedSheaf:
    """Collapse a valid stalk-wise injective diagram into one graded sheaf.

    All simplices share one sparse basis, pushed at each level through
    the step's block-diagonal components and reduced once for its
    pivots; blocks never mix.  A pushed column that owns none is a step
    that is not injective (NotFreeError, at the first simplex's first).
    The units at the rows left unowned are the generators born there:
    those a reduction of [pushed | I] keeps.  Sorted by simplex, the top
    basis B is block-diagonal and square; with A the top restrictions
    as one operator, block (t, f) of B^-1 A B is restriction (f, t).
    """
    x = diagram.complex
    field, p = x.field, x.field.p
    owner = level = np.zeros(0, dtype=np.int64)  # each generator's simplex, birth
    failed = {}  # simplex -> its first step that is not injective
    basis = field.sparse(zeros(int(diagram.snapshots[0]._sizes.sum()), 0))
    for i, sheaf in enumerate(diagram.snapshots):
        if i:
            basis = _mulcols(diagram.steps[i - 1]._matrix, basis, p)
        found = field._column_echelon(basis)
        for j in found.zero:
            failed.setdefault(int(owner[j]), i - 1)
        free = np.ones(basis.shape[0], dtype=bool)
        free[list(found.pivots)] = False
        born = np.flatnonzero(free)  # ascending
        basis = _hstack(basis, Columns.units(len(free), born))
        owner = np.concatenate([owner, np.repeat(np.arange(len(x._ids)), sheaf._sizes)[born]])
        level = np.concatenate([level, np.full(len(born), i)])
    if failed:
        s = min(failed)
        raise NotFreeError(f"diagram not free at {x._ids[s]}, step {failed[s]}")
    # a stable sort groups the generators by simplex, each in birth order
    order = np.argsort(owner, kind="stable")
    basis, level, top = basis.take(order), level[order], diagram.snapshots[-1]
    inverse = field._solve(basis, Columns.units(len(level), np.arange(len(level))))
    solved = _mulcols(inverse, _mulcols(_restriction_operator(top), basis, p), p)
    gens = np.split(level, np.cumsum(top._sizes)[:-1])
    degrees = dict(zip(x._ids, (tuple(g.tolist()) for g in gens)))
    return GradedSheaf(x, degrees, _incidence_maps(solved, top))


def diagram_graded_barcode_by_degree(diagram: SheafDiagram, degrees) -> dict:
    """Fast-path barcodes of a valid stalk-wise injective diagram, by degree.

    The graded sheaf and its cochain complex are built once, and each
    coboundary is reduced once, whichever degrees read it.
    """
    cochains = graded_cochain_complex(diagram_to_graded_sheaf(diagram))
    return {k: graded_barcode(cochains, k) for k in degrees}


def diagram_graded_barcode(diagram: SheafDiagram, k: int) -> Barcode:
    """Fast-path barcode of a stalk-wise injective diagram at degree k."""
    _check_diagram(diagram)
    return diagram_graded_barcode_by_degree(diagram, [k])[k]


class SlicedComplex:
    """One level of a graded complex, with the step maps to the next level."""

    def __init__(self, level: int, dims, deltas, t_actions):
        self.level = level
        self._dims = dims
        self._deltas = deltas
        self._t_actions = t_actions

    def dim(self, k: int) -> int:
        return self._dims.get(k, 0)

    def delta(self, k: int) -> np.ndarray:
        got = self._deltas.get(k)
        if got is not None:
            return got
        return zeros(self.dim(k + 1), self.dim(k))

    def t_action(self, k: int) -> np.ndarray:
        """Matrix of multiplication by t from this level into the next."""
        got = self._t_actions.get(k)
        if got is not None:
            return got
        return zeros(0, self.dim(k))


def evaluate_at(cochains: CochainComplex, n: int) -> SlicedComplex:
    """The level-n scalar complex of a graded sheaf's cochain complex.

    A generator of degree a contributes a dimension iff a <= n; matrix
    slices keep the rows and columns of surviving generators.  The
    t-action to level n+1 is an identity block on generators alive at
    level n, widened by zeros for the level-(n+1) arrivals.
    """
    dims, deltas, t_actions, masks = {}, {}, {}, {}
    for k in range(cochains.complex.dim + 1):
        degs = _degrees_of(cochains, k)
        mask, later = np.flatnonzero(degs <= n), np.flatnonzero(degs <= n + 1)
        masks[k], dims[k] = mask, len(mask)
        t_actions[k] = zeros(len(later), len(mask))
        t_actions[k][np.searchsorted(later, mask), np.arange(len(mask))] = 1
        if k:
            deltas[k - 1] = cochains._map(k - 1).dense()[np.ix_(mask, masks[k - 1])]
    return SlicedComplex(n, dims, deltas, t_actions)


def evaluate_sheaf_at(gs: GradedSheaf, n: int) -> CellularSheaf:
    """The level-n cellular sheaf of a graded sheaf, in generator bases."""
    stalks = {}
    masks = {}
    for sid, degs in gs.degrees.items():
        mask = [i for i, a in enumerate(degs) if a <= n]
        masks[sid] = mask
        stalks[sid] = len(mask)
    restr = {}
    for f, t in _codim1_pairs(gs.complex):
        scalar = gs.restriction(f.id, t.id).scalar.dense()
        restr[(f.id, t.id)] = scalar[np.ix_(masks[t.id], masks[f.id])]
    return CellularSheaf(gs.complex, stalks, restr)
