"""Free graded modules over F[t] and the degree-ordered reduction to barcodes.

A graded matrix stores scalar entries only, as linalg.Columns like
every other operator; the t-power of entry (i, j) is implied by the
generator degrees, column minus row.  Each map of a graded complex is
column-reduced once, lowest pivot first, with rows and columns put in
(degree, position) order on the sparse form: the standard persistence
reduction (Zomorodian and Carlsson, "Computing persistent homology",
2005), which serves every degree that reads the map.  Adding an earlier
column into a later one multiplies it by a nonnegative power of t, so
the reduction stays homogeneous; a pivot that would need a negative
power is a broken invariant and raises AssertionError.  A pivot (i, j)
of the map into a position gives the bar (deg i, deg j - 1) when the
degrees differ; a generator whose column the map out of the position
empties, and that no pivot kills, gives an open bar.

A graded sheaf or cosheaf is a cellular one whose stalk generators
carry degrees: it keeps the cellular stalk store, incidence walker and
checks, and adds the negative-power maps, found per shape group.  Each
graded (co)boundary is one signed scatter per shape group, kept
sparse.  The assembly checks only the store; a negative t-power is
refused by HomogeneousMatrix, and a diamond that does not commute by
the sparse check that consecutive maps compose to zero, which on a
closed complex holds exactly when every diamond commutes.  A
stalk-wise injective diagram becomes one graded sheaf in one pass
(diagram_to_graded_sheaf).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

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
    _groups,
    _incidence_maps,
    _restriction_operator,
    _starts,
    _store_problems,
)

__all__ = [
    "NotFreeError",
    "GradedFreeModule",
    "HomogeneousMatrix",
    "GradedComplex",
    "GradedChainComplex",
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


class GradedFreeModule:
    """A free F[t]-module described by its generator degrees."""

    def __init__(self, degrees=()):
        self.degrees = tuple(int(d) for d in degrees)
        if any(d < 0 for d in self.degrees):
            raise ValueError("generator degrees must be nonnegative")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def __eq__(self, other):
        return isinstance(other, GradedFreeModule) and other.degrees == self.degrees

    def __hash__(self):
        return hash(self.degrees)

    def __repr__(self):
        return f"GradedFreeModule({list(self.degrees)})"


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
        self.row_degrees = tuple(int(d) for d in row_degrees)
        self.col_degrees = tuple(int(d) for d in col_degrees)
        want = (len(self.row_degrees), len(self.col_degrees))
        if self.scalar.shape != want:
            raise ValueError(f"scalar shape {self.scalar.shape}, degrees want {want}")
        rz = self.scalar.indices
        cz = np.repeat(np.arange(want[1]), np.diff(self.scalar.indptr))
        bad = (
            np.array(self.col_degrees, dtype=np.int64)[cz]
            < np.array(self.row_degrees, dtype=np.int64)[rz]
        )
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


def _zero_hom(field, target: GradedFreeModule, source: GradedFreeModule):
    zero = field.sparse(zeros(target.rank, source.rank))
    return HomogeneousMatrix(field, zero, target.degrees, source.degrees)


class GradedComplex:
    """Graded spaces in ascending positions with maps d_k: k -> k+1.

    maps[i] joins positions i and i + 1, running up (_shift = 1) or,
    in a GradedChainComplex, down (_shift = -1).
    """

    _shift = 1

    def __init__(self, field: Field, spaces, maps):
        self.field = field
        self.spaces = tuple(spaces)
        self.maps = tuple(maps)
        if len(self.maps) != max(len(self.spaces) - 1, 0):
            raise ValueError("need one map per consecutive pair of spaces")
        down = self._shift < 0
        for i, m in enumerate(self.maps):
            source, target = (i + 1, i) if down else (i, i + 1)
            if m.col_degrees != self.spaces[source].degrees:
                raise ValueError(f"map {i} source degrees disagree")
            if m.row_degrees != self.spaces[target].degrees:
                raise ValueError(f"map {i} target degrees disagree")
        for i in range(len(self.maps) - 1):
            first, then = self.maps[i : i + 2]
            if down:
                first, then = then, first
            if _mulcols(then.scalar, first.scalar, field.p).data.size:
                raise ValueError(f"maps {i} and {i + 1} do not compose to zero")

    def space(self, k: int) -> GradedFreeModule:
        if 0 <= k < len(self.spaces):
            return self.spaces[k]
        return GradedFreeModule(())

    def map_out(self, k: int) -> HomogeneousMatrix:
        """The map out of position k as stored, or zero with the right degrees."""
        i = min(k, k + self._shift)
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return _zero_hom(self.field, self.space(k + self._shift), self.space(k))


class GradedChainComplex(GradedComplex):
    """Graded spaces with boundaries running down: maps[i]: i+1 -> i."""

    _shift = -1


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
    gens = GradedFreeModule(row_degrees)
    return _graded_quotient_bars(
        _zero_hom(field, GradedFreeModule(()), gens),
        HomogeneousMatrix(field, rel, row_degrees, col_degrees),
    )


def graded_barcode(gc: GradedComplex, k: int) -> Barcode:
    """Interval multiset of the degree-k cohomology of a graded complex.

    Also the degree-k homology of a GradedChainComplex
    (graded_homology_barcode).
    """
    return Barcode(_graded_quotient_bars(gc.map_out(k), gc.map_out(k - gc._shift)))


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


class GradedSheaf(_Graded, CellularSheaf):
    """Graded modules with homogeneous restrictions, face to coface."""


class GradedCosheaf(_Graded, CellularCosheaf):
    """Graded modules with homogeneous extensions, coface to face."""


def _power_problems(stalks: _Graded) -> list:
    """Well-shaped stored maps with an entry that would need a negative
    t-power, in incidence order, each with the first such entry row by
    row.  The t-powers are checked per shape group."""
    gathered = stalks._gathered
    inc = gathered.incidences
    sims = stalks.complex.simplices
    source, target = (inc.coface, inc.face) if stalks._down else (inc.face, inc.coface)
    # entry (i, j) of a map stands for t^(col degree j - row degree i)
    flat = np.array([d for ds in stalks.degrees.values() for d in ds], dtype=np.int64)
    first = _starts(stalks._sizes)
    batch = gathered.batch
    found = {}
    for g, members in _groups(batch.group):
        stack = batch.stacks[g]
        r, c = stack.shape[1:]
        if r == 0 or c == 0:
            continue
        rows = flat[first[target[members]][:, None] + np.arange(r)]
        cols = flat[first[source[members]][:, None] + np.arange(c)]
        negative = (stack[batch.slot[members]] != 0) & (
            cols[:, None, :] < rows[:, :, None]
        )
        negative = negative.reshape(len(members), -1)
        hit = negative.any(axis=1)
        for n, at in zip(members[hit].tolist(), negative[hit].argmax(axis=1).tolist()):
            i, j = divmod(at, c)
            arrow = f"{sims[source[n]].id!r} -> {sims[target[n]].id!r}"
            found[n] = f"{arrow}: entry ({i}, {j}) would need a negative t-power"
    return [found[n] for n in sorted(found)]


def validate_graded_sheaf(stalks: _Graded) -> list:
    """Problems of a graded sheaf or cosheaf, as strings.

    The store problems of validate_sheaf, then the maps that would need
    a negative t-power; only without those, the diamonds whose two
    composites differ.
    """
    return _store_problems(stalks) + _power_problems(stalks) or _diamond_problems(stalks)


validate_graded_cosheaf = validate_graded_sheaf


def graded_cochain_complex(stalks: _Graded) -> GradedComplex:
    """Assemble the signed coboundaries k -> k+1 of a graded sheaf.

    Also assembles the boundaries k+1 -> k of a graded cosheaf into a
    GradedChainComplex (graded_chain_complex).  Each map is one signed
    scatter per shape group of the gathered stored maps.  Only the
    store is checked first: the two routes of a diamond carry opposite
    signs, so the complex refuses one that does not commute.
    """
    problems = _store_problems(stalks)
    if problems:
        what = "cosheaf" if stalks._down else "sheaf"
        raise ValueError(f"invalid graded {what}: " + "; ".join(problems))
    x = stalks.complex
    field = x.field
    spaces = [
        GradedFreeModule(
            [d for s in x.simplices_of_dim(k) for d in stalks.degrees[s.id]]
        )
        for k in range(x.dim + 1)
    ]
    stalks._gathered.incidences.check_closed()
    homs = []
    for k, scalar in enumerate(stalks._differentials):
        lo, hi = spaces[k], spaces[k + 1]
        rows, cols = (lo, hi) if stalks._down else (hi, lo)
        homs.append(HomogeneousMatrix(field, scalar, rows.degrees, cols.degrees))
    kind = GradedChainComplex if stalks._down else GradedComplex
    return kind(field, spaces, homs)


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
    gc = graded_cochain_complex(diagram_to_graded_sheaf(diagram))
    return {k: graded_barcode(gc, k) for k in degrees}


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


def evaluate_at(gc: GradedComplex, n: int) -> SlicedComplex:
    """The level-n scalar complex of a graded complex.

    A generator of degree a contributes a dimension iff a <= n; matrix
    slices keep the rows and columns of surviving generators.  The
    t-action to level n+1 is an identity block on generators alive at
    level n, widened by zeros for the level-(n+1) arrivals.
    """
    dims, deltas, t_actions, masks = {}, {}, {}, {}
    for k in range(len(gc.spaces)):
        degs = gc.space(k).degrees
        mask = [i for i, a in enumerate(degs) if a <= n]
        masks[k] = mask
        dims[k] = len(mask)
        next_mask = [i for i, a in enumerate(degs) if a <= n + 1]
        t = zeros(len(next_mask), len(mask))
        lookup = {gen: row for row, gen in enumerate(next_mask)}
        for col, gen in enumerate(mask):
            t[lookup[gen], col] = 1
        t_actions[k] = t
    for k in range(len(gc.maps)):
        deltas[k] = gc.maps[k].scalar.dense()[np.ix_(masks[k + 1], masks[k])]
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
