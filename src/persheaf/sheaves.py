"""Cellular sheaves and cosheaves of F_p vector spaces on a complex.

A sheaf stores one stalk dimension per simplex and one restriction
matrix per codimension-1 incidence, face to coface.  A cosheaf stores
extensions running the other way.  Maps touching a zero-dimensional
stalk never need to be stored; the accessors fill in the unique zero
matrix of the right shape.

Stored maps are held in one flat entry array (_Batch), each with the
global positions of its two simplices (_Maps), so every id is looked
up once.  One walker reads them for every check and every assembly:
_Gathered matches the position pairs with the complex's numbered
incidences (FilteredComplex.incidences), so the presence and shape
checks are array comparisons, and each (co)boundary is gathered into
sparse columns with one signed scatter of all its entries
(_signed_maps), once per (co)sheaf.  The cochain complexes of
cohomology.py read those, and so do the graded sheaves of graded.py,
cellular ones whose stalk generators carry degrees.  The same scatter
lays out the components of a morphism block-diagonally
(_block_diagonal) and every restriction of a sheaf as one operator
(_restriction_operator), whose blocks _incidence_maps reads back as
stored maps; the diagram conversion of graded.py works on those.  The diamond and naturality checks are
sparse products (linalg._mulcols) of these operators: a diamond
commutes exactly when its block of the product of two consecutive
(co)boundaries is zero, and a naturality square when its block of
Phi R - R Phi is.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat

import numpy as np

from .complexes import FilteredComplex, SimplicialMap, _first_match
from .linalg import Columns, _hstack, _mulcols, identity, matrix, zeros

__all__ = [
    "CellularSheaf",
    "CellularCosheaf",
    "SheafMorphism",
    "SheafDiagram",
    "validate_sheaf",
    "validate_cosheaf",
    "validate_morphism",
    "validate_diagram",
    "constant",
    "pullback",
    "extend_by_zero",
    "dualize",
]


def _codim1_pairs(complex_: FilteredComplex):
    """(face, coface) incidences in the global order of the coface.

    Read from the face tables; a missing face is a ValueError.
    """
    inc = complex_.incidences()
    inc.check_closed()
    sims = complex_.simplices
    for f, t in zip(inc.face.tolist(), inc.coface.tolist()):
        yield sims[f], sims[t]


class _Batch:
    """A sequence of int64 matrices in one flat entry array.

    Matrix n is rows[n] x cols[n], stored row by row from flat[start[n]];
    start[n] = -1 marks an empty slot, which entries() skips.
    """

    def __init__(self, flat, start, rows, cols):
        self.flat, self.start, self.rows, self.cols = flat, start, rows, cols

    @classmethod
    def of(cls, matrices) -> "_Batch":
        """The given matrices, in order."""
        shapes = np.array([m.shape for m in matrices], dtype=np.int64).reshape(-1, 2)
        flat = np.concatenate([np.zeros(0, dtype=np.int64), *(m.ravel() for m in matrices)])
        rows, cols = shapes.T
        return cls(flat, _starts(rows * cols), rows, cols)

    def __getitem__(self, n: int) -> np.ndarray:
        r, c = int(self.rows[n]), int(self.cols[n])
        return self.flat[self.start[n] : self.start[n] + r * c].reshape(r, c)

    def take(self, idx) -> "_Batch":
        return _Batch(self.flat, self.start[idx], self.rows[idx], self.cols[idx])

    def entries(self):
        """(n, i, j, value) for every entry of every filled matrix: n
        ascending, and each matrix row by row."""
        filled = np.flatnonzero(self.start >= 0)
        size = (self.rows * self.cols)[filled]
        n = np.repeat(filled, size)
        k = np.arange(len(n)) - np.repeat(_starts(size), size)  # the place in its matrix
        i, j = np.divmod(k, self.cols[n])
        return n, i, j, self.flat[self.start[n] + k]


class _Maps:
    """Stored maps by simplex position: batch[n] runs from the simplex at
    global position source[n] to the one at target[n].

    An id that names no simplex has position -1, and only for those n
    is the stored id pair kept, in strays.  keys, the (source id, target
    id) view, is built on first use: a later n replaces an earlier one
    of the same key, which keeps its first place.  The matrices are held
    in one flat entry array and reduced mod p (_Batch); a dict's are
    copied once.
    """

    def __init__(self, ids, source, target, batch: _Batch, strays=None):
        self.ids, self.source, self.target, self.batch = ids, source, target, batch
        self.strays = strays or {}

    @classmethod
    def named(cls, complex_, sources, targets, batch: _Batch, at=None) -> "_Maps":
        """batch[n] stored from the id sources[n] to the id targets[n]; at,
        if given, is complex_.positions(sources + targets)."""
        at = complex_.positions(sources + targets) if at is None else at
        source, target = at[: len(sources)], at[len(sources) :]
        stray = np.flatnonzero((source < 0) | (target < 0)).tolist()
        strays = {n: (sources[n], targets[n]) for n in stray}
        return cls(complex_._ids, source, target, batch, strays)

    @classmethod
    def of(cls, maps: dict, complex_: FilteredComplex) -> "_Maps":
        batch = _Batch.of([matrix(m, complex_.field.p) for m in maps.values()])
        return cls.named(complex_, [a for a, _ in maps], [b for _, b in maps], batch)

    def key_list(self, ns: np.ndarray) -> list:
        """The (source id, target id) of each stored map n in ns."""
        ids, strays = self.ids, self.strays
        pairs = zip(ns.tolist(), self.source[ns].tolist(), self.target[ns].tolist())
        return [strays[n] if n in strays else (ids[a], ids[b]) for n, a, b in pairs]

    @cached_property
    def keys(self) -> dict:
        return {key: n for n, key in enumerate(self.key_list(np.arange(len(self.source))))}

    def as_dict(self) -> dict:
        return {key: self.batch[n] for key, n in self.keys.items()}

    def transposed(self) -> "_Maps":
        """Every map reversed and every matrix transposed."""
        b = self.batch
        n, i, j, value = b.entries()
        flat = np.zeros_like(b.flat)
        flat[b.start[n] + j * b.rows[n] + i] = value
        strays = {n: (y, x) for n, (x, y) in self.strays.items()}
        batch = _Batch(flat, b.start, b.cols, b.rows)
        return _Maps(self.ids, self.target, self.source, batch, strays)


class _Gathered:
    """A store's maps lined up with the complex's numbered incidences.

    batch[n] is the map stored for incidence n, the later of two, when
    it has the shape the stalks ask for; any other incidence has start
    -1, which _Batch.entries, and so _scatter, skips.  want and have
    hold each incidence's wanted and stored (rows, cols), have -1 when
    nothing is stored; the batch reads its shapes off have.  missing
    marks incidences between two nonzero stalks with no stored map,
    wrong those whose stored map has another shape, and unmatched lists
    the stored keys that name no incidence, each once, in key order.
    down says the maps run from coface to face.  The holes of a complex
    that is not closed are neither missing nor wrong.
    """

    def __init__(self, complex_: FilteredComplex, maps: _Maps, sizes, down: bool):
        inc = self.incidences = complex_.incidences()
        self.down = down
        found = inc.locate(*((maps.target, maps.source) if down else (maps.source, maps.target)))
        hit = found >= 0
        self.unmatched = list(dict.fromkeys(maps.key_list(np.flatnonzero(~hit))))
        where = np.full(inc.count, -1, dtype=np.int64)
        np.maximum.at(where, found[hit], np.flatnonzero(hit))  # the later map wins
        holes = inc.face < 0
        f_size = np.where(holes, 0, sizes[inc.face])
        t_size = sizes[inc.coface]
        self.want = np.stack([f_size, t_size] if down else [t_size, f_size], axis=1)
        present = where >= 0
        stored = maps.batch.take(where[present])
        self.have = np.full((inc.count, 2), -1, dtype=np.int64)
        self.have[present] = np.stack([stored.rows, stored.cols], axis=1)
        nonzero = (self.want > 0).all(axis=1)
        self.missing = ~present & ~holes & nonzero
        self.wrong = present & (self.have != self.want).any(axis=1)
        start = np.full(inc.count, -1, dtype=np.int64)
        ok = present & ~self.wrong
        start[ok] = stored.start[ok[present]]
        self.batch = _Batch(maps.batch.flat, start, self.have[:, 0], self.have[:, 1])

    @property
    def faulty(self) -> np.ndarray:
        return self.missing | self.wrong

    def shape_problems(self, label: str) -> list:
        """Missing and mis-shaped maps, in incidence order."""
        inc = self.incidences
        ids = inc.complex._ids
        out = []
        for n in np.flatnonzero(self.faulty).tolist():
            f, t = ids[inc.face[n]], ids[inc.coface[n]]
            if self.missing[n]:
                out.append(f"missing {label} for {f!r} -> {t!r}")
            else:
                have = tuple(self.have[n].tolist())
                want = tuple(self.want[n].tolist())
                out.append(f"{label} {f!r} -> {t!r} has shape {have}, expected {want}")
        return out

    def stray_problems(self) -> list:
        """Stored keys that name no codimension-1 incidence, in key order."""
        if not self.unmatched:
            return []
        x = self.incidences.complex
        pairs = [(t, s) if self.down else (s, t) for s, t in self.unmatched]
        at = x.positions([f for f, _ in pairs] + [t for _, t in pairs]).reshape(2, -1)
        out = []
        for (source, target), f, t in zip(self.unmatched, *at.tolist()):
            if min(f, t) < 0 or not (
                x._dim_at(f) + 1 == x._dim_at(t)
                and set(x._vertices_at(f)) <= set(x._vertices_at(t))
            ):
                out.append(f"{source!r} -> {target!r} is not a codimension-1 incidence")
        return out


class _CellularStalks:
    """Stalk dimensions per simplex and one stored matrix per incidence.

    Subclasses name their maps in _kind, and set _down when the maps
    run from coface to face.
    """

    _down = False

    def __init__(self, complex_: FilteredComplex, stalk_dim, maps):
        self.complex = complex_
        ids = complex_._ids
        self.stalk_dim = dict(zip(ids, map(int, map(stalk_dim.get, ids, repeat(0)))))
        if min(self.stalk_dim.values(), default=0) < 0:
            raise ValueError("stalk dimensions must be nonnegative")
        # ids that name no simplex, reported by validate_sheaf
        self._stray = [sid for sid in stalk_dim if sid not in self.stalk_dim]
        self._maps = maps if isinstance(maps, _Maps) else _Maps.of(maps, complex_)

    @cached_property
    def _sizes(self) -> np.ndarray:
        """Stalk dimensions in the global simplex order."""
        return np.fromiter(self.stalk_dim.values(), dtype=np.int64, count=len(self.stalk_dim))

    @cached_property
    def _gathered(self) -> _Gathered:
        return _Gathered(self.complex, self._maps, self._sizes, self._down)

    @cached_property
    def _differentials(self) -> list:
        """The signed (co)boundaries of the gathered maps (_signed_maps),
        assembled once for every check and every engine."""
        return _signed_maps(self)

    def stalk(self, sid: str) -> int:
        return self.stalk_dim[sid]

    def _map(self, source_id: str, target_id: str) -> np.ndarray:
        """The stored map source -> target, or the zero map it may omit."""
        n = self._maps.keys.get((source_id, target_id))
        if n is not None:
            return self._maps.batch[n]
        if self.stalk(source_id) == 0 or self.stalk(target_id) == 0:
            return zeros(self.stalk(target_id), self.stalk(source_id))
        raise KeyError(f"no {self._kind} stored for {source_id!r} -> {target_id!r}")


class CellularSheaf(_CellularStalks):
    _kind = "restriction"

    # spelled out to keep the public keyword name of the stored maps
    def __init__(self, complex_: FilteredComplex, stalk_dim, restriction):
        super().__init__(complex_, stalk_dim, restriction)

    def restriction(self, face_id: str, coface_id: str) -> np.ndarray:
        return self._map(face_id, coface_id)

    @cached_property
    def _operator(self) -> Columns:
        """The well-shaped restrictions in one square matrix, unsigned:
        rows and columns both stack the stalks in the global order, and
        block (coface, face) is the restriction from face to coface."""
        inc, start, size = self._gathered.incidences, _starts(self._sizes), int(self._sizes.sum())
        return _scatter((size, size), self._gathered.batch, start[inc.coface], start[inc.face])


class CellularCosheaf(_CellularStalks):
    _kind = "extension"
    _down = True

    def __init__(self, complex_: FilteredComplex, stalk_dim, extension):
        super().__init__(complex_, stalk_dim, extension)

    def extension(self, coface_id: str, face_id: str) -> np.ndarray:
        return self._map(coface_id, face_id)


def _starts(sizes) -> np.ndarray:
    """Where each block of the given sizes starts when they are stacked."""
    return np.cumsum(sizes) - sizes


def _scatter(shape, batch: _Batch, row_off, col_off, negate=None, p=0) -> Columns:
    """batch[n] with its first entry at (row_off[n], col_off[n]), for each
    filled n, as Columns of shape; negated mod p where negate[n].

    The blocks must not overlap.  Every entry is laid out with one
    scatter (_Batch.entries), and no dense matrix is formed.
    """
    n, i, j, value = batch.entries()
    if negate is not None:
        value = np.where(negate[n], (p - value) % p, value)
    return Columns.from_entries(shape, row_off[n] + i, col_off[n] + j, value)


def _signed_maps(stalks: _CellularStalks) -> list:
    """The signed (co)boundaries of the gathered maps of stalks.

    maps[q - 1] runs from dimension q - 1 to q, or from q to q - 1 when
    the maps run down, as Columns.  The block of an incidence sits at
    its stalks' offsets, in the global order, and is its map times
    (-1)^i, i the omitted vertex (_scatter).  Maps are already reduced
    mod p.  A hole of a complex that is not closed has a face of size
    0, so its block is empty.
    """
    gathered, sizes, down = stalks._gathered, stalks._sizes, stalks._down
    inc = gathered.incidences
    x = inc.complex
    p = x.field.p
    b = x._bounds
    segs = [sizes[b[k] : b[k + 1]] for k in range(x.dim + 1)]
    offset = np.concatenate([_starts(seg) for seg in segs] or [sizes])
    totals = [int(seg.sum()) for seg in segs]
    maps = []
    for q in range(1, x.dim + 1):
        n = np.arange(inc.start[q], inc.start[q + 1])
        f_off, t_off = offset[inc.face[n]], offset[inc.coface[n]]
        rows, cols = (f_off, t_off) if down else (t_off, f_off)
        shape = (totals[q - 1], totals[q]) if down else (totals[q], totals[q - 1])
        odd = inc.omitted[n] % 2 == 1
        maps.append(_scatter(shape, gathered.batch.take(n), rows, cols, odd, p))
    return maps


def _entry_blocks(m: Columns, row_sizes, col_sizes):
    """(row block, column block) of each stored entry of m, whose rows
    and columns stack blocks of the given sizes."""
    cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
    row_block = np.repeat(np.arange(len(row_sizes)), row_sizes)
    col_block = np.repeat(np.arange(len(col_sizes)), col_sizes)
    return row_block[m.indices], col_block[cols]


def _restriction_operator(sheaf: CellularSheaf) -> Columns:
    """Every restriction of a sheaf in one square matrix (its _operator);
    a missing face, restriction or shape is a ValueError."""
    sheaf._gathered.incidences.check_closed()
    problems = sheaf._gathered.shape_problems(sheaf._kind)
    if problems:
        raise ValueError("invalid sheaf: " + "; ".join(problems))
    return sheaf._operator


def _incidence_maps(op: Columns, sheaf: CellularSheaf) -> _Maps:
    """The blocks of op, a square operator laid out as
    _restriction_operator(sheaf), as stored maps, one per incidence
    whose restriction sheaf stores, laid out as sheaf's restrictions are.

    Every entry of op must lie in the block of such an incidence.  No
    dense matrix over all simplices is formed.
    """
    inc, batch, sizes = sheaf._gathered.incidences, sheaf._gathered.batch, sheaf._sizes
    cols = np.repeat(np.arange(op.shape[1]), np.diff(op.indptr))
    at = inc.locate(*_entry_blocks(op, sizes, sizes)[::-1])
    if (at < 0).any() or (batch.start[at] < 0).any():
        raise AssertionError("an entry lies outside every incidence block")
    start = _starts(sizes)
    i, j = op.indices - start[inc.coface[at]], cols - start[inc.face[at]]
    flat = np.zeros_like(batch.flat)
    flat[batch.start[at] + i * batch.cols[at] + j] = op.data
    n = np.flatnonzero(batch.start >= 0)
    maps = _Batch(flat, batch.start[n], batch.rows[n], batch.cols[n])
    return _Maps(inc.complex._ids, inc.face[n], inc.coface[n], maps)


def _store_problems(stalks: _CellularStalks) -> list:
    """Stalks stored under an id that names no simplex, missing and
    mis-shaped maps in incidence order, then stored maps that name no
    incidence."""
    problems = [f"stalk stored under {sid!r}, which names no simplex" for sid in stalks._stray]
    gathered = stalks._gathered
    return problems + gathered.shape_problems(stalks._kind) + gathered.stray_problems()


def _diamond_problems(stalks: _CellularStalks) -> list:
    """The diamonds whose two composites differ, named with the two
    simplices between their ends; the stored maps must be well shaped.

    A diamond is a k-simplex t, k >= 2, with two of its vertices i < j:
    rho_a = F_k[t, i] omits i, rho_b = F_k[t, j] omits j, and s =
    F_{k-1}[rho_a, j-1] = F_{k-1}[rho_b, i] omits both, F_k being
    face_table(k).  Its two routes carry opposite incidence signs, and
    no other route joins s and t, so it commutes exactly when block
    (t, s) of the product of the signed maps between them is zero.
    Diamonds come in the order of t, then of (i, j); one with a missing
    simplex is skipped.
    """
    x, down = stalks.complex, stalks._down
    p, b, sizes = x.field.p, x._bounds, stalks._sizes
    problems = []
    for k in range(2, x.dim + 1):
        lower, upper = stalks._differentials[k - 2 : k]
        square = _mulcols(lower, upper, p) if down else _mulcols(upper, lower, p)
        if not square.data.size:
            continue
        top_sizes, low_sizes = sizes[b[k] : b[k + 1]], sizes[b[k - 2] : b[k - 1]]
        if down:
            s_at, t_at = _entry_blocks(square, low_sizes, top_sizes)
        else:
            t_at, s_at = _entry_blocks(square, top_sizes, low_sizes)
        top, below = x.face_table(k), x.face_table(k - 1)
        i, j = np.triu_indices(k + 1, 1)
        ra, rb = top[:, i], top[:, j]
        # a nonzero square has (k-1)-simplices, so below has a row -1 reads
        s = np.where(ra >= 0, below[ra, j - 1], -1)
        rows = np.flatnonzero(((ra >= 0) & (rb >= 0) & (s >= 0)).ravel())
        t_of, q_of = np.divmod(rows, len(i))
        n = len(low_sizes)
        bad = _first_match(t_at * n + s_at, t_of * n + s.ravel()[rows]) >= 0
        cof, mid, low = (x._ids[b[q] : b[q + 1]] for q in (k, k - 1, k - 2))
        for t, q in zip(t_of[bad].tolist(), q_of[bad].tolist()):
            a, z = (cof[t], low[s[t, q]]) if down else (low[s[t, q]], cof[t])
            problems.append(
                f"diamond {a!r} -> {z!r} does not commute"
                f" (via {mid[ra[t, q]]!r} vs {mid[rb[t, q]]!r})"
            )
    return problems


def validate_sheaf(sheaf: CellularSheaf) -> list:
    """The store problems of a sheaf (_store_problems), or, only without
    them, its non-commuting diamonds, as a list of strings.

    Also validates a cosheaf (validate_cosheaf), whose arrows run from
    coface to face.
    """
    return _store_problems(sheaf) or _diamond_problems(sheaf)


validate_cosheaf = validate_sheaf


class SheafMorphism:
    """Stalkwise components from one sheaf to another on the same complex.

    Missing components default to the zero map; naturality is checked by
    validate_morphism, not at construction time.
    """

    def __init__(self, source: CellularSheaf, target: CellularSheaf, component):
        if source.complex is not target.complex:
            raise ValueError("morphism endpoints must live on one complex object")
        self.source = source
        self.target = target
        p = source.complex.field.p
        self._component = {sid: matrix(m, p) for sid, m in component.items()}

    @property
    def complex(self):
        return self.source.complex

    def component(self, sid: str) -> np.ndarray:
        stored = self._component.get(sid)
        if stored is not None:
            return stored
        return zeros(self.target.stalk(sid), self.source.stalk(sid))

    @cached_property
    def _matrix(self) -> Columns:
        """The whole morphism as one block-diagonal matrix (_block_diagonal)."""
        return _block_diagonal(self)

    @cached_property
    def _components(self) -> tuple:
        """The components in the global order as one _Batch, the target's
        and the source's stalk sizes, and a message per mis-shaped
        component: built once for validate_morphism and _block_diagonal."""
        ids = self.complex._ids
        rows, cols = self.target._sizes, self.source._sizes
        comps = _Batch.of([self.component(sid) for sid in ids])
        bad = np.flatnonzero((comps.rows != rows) | (comps.cols != cols))
        problems = [
            f"component at {ids[n]!r} has shape {comps[n].shape},"
            f" expected {(int(rows[n]), int(cols[n]))}"
            for n in bad.tolist()
        ]
        return comps, rows, cols, problems


def _block_diagonal(phi: SheafMorphism) -> Columns:
    """phi as one matrix from the source's stalks, stacked in the global
    order, to the target's: its components on the diagonal.  Degree k's
    cochain map is the block where both stacks reach the k-simplices.
    A component of the wrong shape is a ValueError."""
    comps, rows, cols, problems = phi._components
    if problems:
        raise ValueError(problems[0])
    shape = (int(rows.sum()), int(cols.sum()))
    return _scatter(shape, comps, _starts(rows), _starts(cols))


def _minus(a: Columns, b: Columns, p: int) -> Columns:
    """a - b mod p: [a | b] times the identity stacked on its negative."""
    n = a.shape[1]
    rows = np.arange(n)[:, None] + np.array([0, n])
    signs = Columns((2 * n, n), 2 * np.arange(n + 1), rows.ravel(), np.tile([1, p - 1], n))
    return _mulcols(_hstack(a, b), signs, p)


def validate_morphism(phi: SheafMorphism) -> list:
    """Component shape errors, components stored under an id that names
    no simplex, and naturality failures across incidences.

    With Phi the block-diagonal phi and R each sheaf's restriction
    operator, block (t, f) of Phi R_source - R_target Phi is the
    naturality square of incidence (f, t).  An incidence whose
    restriction is missing or mis-shaped in either sheaf is left to
    that sheaf's validation.
    """
    x = phi.complex
    at = x.positions(list(phi._component)).tolist()
    problems = phi._components[3] + [
        f"component stored under {sid!r}, which names no simplex"
        for sid, n in zip(phi._component, at)
        if n < 0
    ]
    if problems:
        return problems
    p, m = x.field.p, phi._matrix
    source, target = phi.source, phi.target
    square = _minus(_mulcols(m, source._operator, p), _mulcols(target._operator, m, p), p)
    t, f = _entry_blocks(square, target._sizes, source._sizes)
    inc = source._gathered.incidences
    fails = np.zeros(inc.count, dtype=bool)
    fails[inc.locate(f, t)] = True
    fails &= ~source._gathered.faulty & ~target._gathered.faulty
    ids = x._ids
    return [
        f"naturality fails across {ids[inc.face[n]]!r} -> {ids[inc.coface[n]]!r}"
        for n in np.flatnonzero(fails).tolist()
    ]


class SheafDiagram:
    """Sheaves F_0 .. F_{m-1} on one complex, joined by forward morphisms."""

    def __init__(self, snapshots, steps):
        snapshots = list(snapshots)
        steps = list(steps)
        if not snapshots:
            raise ValueError("a diagram needs at least one snapshot")
        if len(steps) != len(snapshots) - 1:
            raise ValueError("need exactly one step map between consecutive snapshots")
        base = snapshots[0].complex
        if any(s.complex is not base for s in snapshots):
            raise ValueError("snapshots must share one complex object")
        for i, phi in enumerate(steps):
            if phi.source is not snapshots[i] or phi.target is not snapshots[i + 1]:
                raise ValueError(f"step {i} does not join snapshots {i} and {i + 1}")
        self.snapshots = tuple(snapshots)
        self.steps = tuple(steps)

    @property
    def complex(self):
        return self.snapshots[0].complex

    @property
    def length(self) -> int:
        return len(self.snapshots)


def validate_diagram(diagram: SheafDiagram) -> list:
    problems = []
    for i, sheaf in enumerate(diagram.snapshots):
        problems += [f"snapshot {i}: {msg}" for msg in validate_sheaf(sheaf)]
    for i, phi in enumerate(diagram.steps):
        problems += [f"step {i}: {msg}" for msg in validate_morphism(phi)]
    return problems


def _check_diagram(diagram: SheafDiagram):
    """Raise ValueError("invalid diagram: ...") unless the diagram validates."""
    problems = validate_diagram(diagram)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))


def constant(complex_: FilteredComplex, d: int) -> CellularSheaf:
    """The constant sheaf: every stalk F^d, every restriction the identity."""
    stalks = {s.id: d for s in complex_.simplices}
    inc = complex_.incidences()
    inc.check_closed()
    flat = np.tile(identity(d).ravel(), inc.count)
    dims = np.full(inc.count, d, dtype=np.int64)
    batch = _Batch(flat, np.arange(inc.count) * d * d, dims, dims)
    maps = _Maps(complex_._ids, inc.face, inc.coface, batch)
    return CellularSheaf(complex_, stalks, maps)


def pullback(f: SimplicialMap, sheaf: CellularSheaf) -> CellularSheaf:
    """Stalks copied along images; collapsed incidences get the identity."""
    if sheaf.complex is not f.target and not sheaf.complex.same_data(f.target):
        raise ValueError("sheaf must live on the target of the map")
    stalks = {s.id: sheaf.stalk(f.image(s).id) for s in f.source.simplices}
    restr = {}
    for s, t in _codim1_pairs(f.source):
        fs, ft = f.image(s), f.image(t)
        if fs.id == ft.id:
            restr[(s.id, t.id)] = identity(sheaf.stalk(fs.id))
        else:
            restr[(s.id, t.id)] = sheaf.restriction(fs.id, ft.id)
    return CellularSheaf(f.source, stalks, restr)


def extend_by_zero(f: SimplicialMap, sheaf: CellularSheaf) -> CellularSheaf:
    """Push a sheaf forward along an inclusion, zero outside the image."""
    if not f.is_inclusion():
        raise ValueError("extension by zero requires an inclusion")
    if sheaf.complex is not f.source and not sheaf.complex.same_data(f.source):
        raise ValueError("sheaf must live on the source of the inclusion")
    preimage = {f.image(s).id: s.id for s in f.source.simplices}
    stalks = {
        t.id: sheaf.stalk(preimage[t.id]) if t.id in preimage else 0
        for t in f.target.simplices
    }
    restr = {}
    for s, t in _codim1_pairs(f.target):
        if s.id in preimage and t.id in preimage:
            restr[(s.id, t.id)] = sheaf.restriction(preimage[s.id], preimage[t.id])
    return CellularSheaf(f.target, stalks, restr)


def dualize(sheaf: CellularSheaf) -> CellularCosheaf:
    """Transpose every restriction into an extension on the same stalks."""
    return CellularCosheaf(
        sheaf.complex, dict(sheaf.stalk_dim), sheaf._maps.transposed()
    )
