"""Finite filtered simplicial complexes and simplicial maps.

A complex is held as arrays: vertex labels (Python ints of any size or
sign) and entries are replaced by their ranks, and the k-simplices form
one (n_k, k+1) int64 array of vertex ranks.  One stable argsort of
packed (dimension, entry, vertex list) rows gives the global order, in
which every cochain or chain basis downstream is laid out.  Entry
indices record the filtration step at which a simplex appears; a plain
complex is the special case steps = 1, all entries 0.  Simplex objects
not given are made from the arrays when first asked for (simplices,
by_id); validation and the layout of every map never ask.

Row t of face_table(k), matched on packed vertex rows, holds the
positions of the faces of the t-th k-simplex, by omitted vertex.
incidences() numbers the incidences in that order, so validate() and
the sheaf code check and assemble by index arithmetic on the tables.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .linalg import Field

__all__ = [
    "Simplex",
    "FilteredComplex",
    "SimplicialMap",
    "preimage_subcomplex",
    "vietoris_rips",
]


@dataclass(frozen=True)
class Simplex:
    id: str
    vertices: tuple
    entry: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "entry", int(self.entry))
        if not self.vertices:
            raise ValueError("a simplex needs at least one vertex")
        if any(b <= a for a, b in zip(self.vertices, self.vertices[1:])):
            raise ValueError(f"vertices of {self.id!r} must be strictly increasing")
        if self.entry < 0:
            raise ValueError(f"entry of {self.id!r} must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


class _SimplexLists(NamedTuple):
    """Simplices as parallel lists, each checked as Simplex checks it."""

    ids: list
    vertices: list
    entries: list


def _ranked(lists):
    """(the distinct ints ascending, the int64 rank of each), over the lists chained."""
    count = sum(map(len, lists))
    try:
        a = np.fromiter(chain.from_iterable(lists), np.int64, count)
        # return_index too: the sort every np.unique here uses, so no other is loaded
        distinct, _, ranks = np.unique(a, return_index=True, return_inverse=True)
        return distinct.tolist(), ranks
    except OverflowError:  # past int64: rank in Python
        distinct = sorted(set(chain.from_iterable(lists)))
        rank = dict(zip(distinct, range(len(distinct))))
        return distinct, np.fromiter(map(rank.get, chain.from_iterable(lists)), np.int64, count)


_PACKED = 2**62


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of small nonnegative ints, ordered as the rows.

    A row packs into base max + 1 digits, which sorts much faster than
    numpy's row-wise unique; past _PACKED its key is its rank instead.
    """
    base = int(rows.max(initial=0)) + 1
    if base ** rows.shape[1] >= _PACKED:
        return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    packed = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        packed = packed * base + column
    return packed


def _first_match(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The first position of each wanted key in keys, or -1."""
    both = np.concatenate([keys, wanted])
    _, first, inverse = np.unique(both, return_index=True, return_inverse=True)
    at = first[inverse[len(keys) :]]  # the first equal key, in keys if any is
    return np.where(at < len(keys), at, -1)


class FilteredComplex:
    """Simplices keyed by id, ordered by (dimension, entry, vertex list).

    simplices are Simplex objects, kept as given, or _SimplexLists.
    Either way the complex is held as arrays in the global order: _ids,
    _rows[k] the k-simplices' vertex ranks, _keys every entry rank, with
    _labels and _entry_values the values of the ranks, and _bounds[k]
    the position of the first k-simplex.  Simplex objects not given are
    made from the arrays on first use (simplices, by_id,
    simplices_of_dim), without rerunning their checks; validate() and
    the layout downstream read the arrays only.
    """

    def __init__(self, field: Field, simplices, steps: int | None = None):
        self.field = field
        given = None if isinstance(simplices, _SimplexLists) else list(simplices)
        ids, vertices, entries = simplices if given is None else (
            [s.id for s in given], [s.vertices for s in given], [s.entry for s in given]
        )
        n = len(ids)
        lens = np.fromiter(map(len, vertices), dtype=np.int64, count=n)
        self._labels, ranks = _ranked(vertices)
        self._entry_values, keys = _ranked([entries])
        rows = np.zeros((n, int(lens.max(initial=0))), dtype=np.int64)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        rows[np.repeat(np.arange(n), lens), np.arange(len(ranks)) - starts] = ranks
        order = np.argsort(_row_keys(np.column_stack([lens, keys, rows])), kind="stable")
        counts = np.bincount(lens, minlength=rows.shape[1] + 1)  # simplices by vertex count
        b = self._bounds = [0, *np.cumsum(counts[1:]).tolist()]
        self._rows = {k: rows[order[b[k] : b[k + 1]], : k + 1] for k in range(len(b) - 1)}
        self._keys = keys[order]
        pick = order.tolist()
        self._ids = list(map(ids.__getitem__, pick))
        if len(set(self._ids)) < n:
            seen = set()  # add returns None, so next finds the first repeat
            again = next(sid for sid in self._ids if sid in seen or seen.add(sid))
            raise ValueError(f"duplicate simplex id {again!r}")
        if given is not None:
            self._order = tuple(map(given.__getitem__, pick))
        self.steps = int(1 + max(entries, default=0) if steps is None else steps)
        self._sub_cache: dict[int, FilteredComplex] = {}
        self._face_tables: dict[int, np.ndarray] = {}

    @cached_property
    def _order(self) -> tuple:
        """The Simplex objects in the global order, made from the arrays;
        set as Simplex.__init__ does, so instances share keys."""
        labels, new, set_ = self._labels, object.__new__, object.__setattr__
        rows = chain.from_iterable(r.tolist() for r in self._rows.values())
        entries = map(self._entry_values.__getitem__, self._keys.tolist())
        order = []
        for sid, row, e in zip(self._ids, rows, entries):
            s = new(Simplex)
            set_(s, "id", sid)
            set_(s, "vertices", tuple(map(labels.__getitem__, row)))
            set_(s, "entry", e)
            order.append(s)
        return tuple(order)

    @cached_property
    def by_id(self) -> dict:
        return dict(zip(self._ids, self._order))

    @cached_property
    def _by_dim(self) -> dict:
        b = self._bounds
        return {k: self._order[b[k] : b[k + 1]] for k in self._rows}

    def _dim_at(self, n: int) -> int:
        """The dimension of the simplex at global position n."""
        return bisect_right(self._bounds, n) - 1

    def _vertices_at(self, n: int) -> tuple:
        """The vertex labels of the simplex at global position n."""
        k = self._dim_at(n)
        return tuple(map(self._labels.__getitem__, self._rows[k][n - self._bounds[k]].tolist()))

    @property
    def simplices(self) -> tuple:
        return self._order

    @property
    def dim(self) -> int:
        return len(self._rows) - 1

    @property
    def vertices(self) -> tuple:
        return tuple(self._labels)

    @cached_property
    def by_vertices(self) -> dict:
        sims = self._order[::-1]  # so the first of a repeated vertex set wins
        return dict(zip((s.vertices for s in sims), sims))

    def simplices_of_dim(self, k: int) -> tuple:
        return self._by_dim.get(k, ())

    def prefix_length(self, k: int, step: int) -> int:
        """How many k-simplices have entry <= step.

        They lead simplices_of_dim(k), which is sorted by entry, so
        subcomplex(step) is that prefix of every dimension.
        """
        lo, hi = self._bounds[k : k + 2] if k in self._rows else (0, 0)
        return int((self._keys[lo:hi] < bisect_right(self._entry_values, step)).sum())

    def face_table(self, k: int) -> np.ndarray:
        """Faces of the k-simplices, k >= 1, as an (n_k, k+1) int array.

        Entry (t, i) is the position within simplices_of_dim(k-1) of the
        face that omits vertex i of the t-th k-simplex, or -1 when the
        complex lacks that face.  Built once per dimension by matching
        packed vertex rows; never raises.
        """
        if k < 1:
            raise ValueError(f"face tables start at dimension 1, got {k}")
        table = self._face_tables.get(k)
        if table is None:
            top = self._rows.get(k, np.zeros((0, k + 1), dtype=np.int64))
            below = self._rows.get(k - 1, np.zeros((0, k), dtype=np.int64))
            keep = [[j for j in range(k + 1) if j != i] for i in range(k + 1)]
            keys = _row_keys(np.concatenate([below, top[:, keep].reshape(-1, k)]))
            table = _first_match(keys[: len(below)], keys[len(below) :])
            table = self._face_tables[k] = table.reshape(len(top), k + 1)
        return table

    @cached_property
    def _position(self) -> dict:
        """The global position of each simplex, by id."""
        return dict(zip(self._ids, range(len(self._ids))))

    def positions(self, ids) -> np.ndarray:
        """The global position of the simplex each id names, or -1."""
        # a map of its own, freed on return: called while a parse's
        # decoded JSON is alive, a cached one would stay through the
        # reductions and raise the peak RSS of a large input
        at = dict(zip(self._ids, range(len(self._ids))))
        return np.fromiter(map(at.get, ids, repeat(-1)), np.int64, len(ids))

    @cached_property
    def _incidences(self) -> "Incidences":
        return Incidences(self)

    def incidences(self) -> "Incidences":
        """The codimension-1 incidences read from the face tables, cached."""
        return self._incidences

    def validate(self) -> list:
        """Step count, duplicate vertex sets, entry range, closure, entry
        monotonicity.

        Masks over the arrays find the simplices with a problem; those
        are then reported one by one, in the global order, after a step
        count below 1.  Only the arrays are read.
        """
        b, keys, ids, inc = self._bounds, self._keys, self._ids, self.incidences()
        first = np.arange(len(ids))  # the first simplex of each vertex set
        for k, rows in self._rows.items():
            row_keys = _row_keys(rows)
            first[b[k] : b[k + 1]] = b[k] + _first_match(row_keys, row_keys)
        lo, hi = (bisect_left(self._entry_values, e) for e in (0, self.steps))
        bad = (first != np.arange(len(ids))) | (keys < lo) | (keys >= hi)
        bad[inc.coface[(inc.face < 0) | (keys[inc.face] > keys[inc.coface])]] = True
        problems = [f"steps must be at least 1, got {self.steps}"] if self.steps < 1 else []
        for n in np.flatnonzero(bad).tolist():
            sid, k, vertices = ids[n], self._dim_at(n), self._vertices_at(n)
            if first[n] != n:
                problems.append(
                    f"simplices {ids[first[n]]!r} and {sid!r} share the vertex set {list(vertices)}"
                )
            entry = self._entry_values[keys[n]]
            if not 0 <= entry < self.steps:
                problems.append(f"entry {entry} of {sid!r} is outside 0..{self.steps - 1}")
            at = inc.start.get(k, 0) + (k + 1) * (n - b[k])  # its first incidence
            for i, f in enumerate(inc.face[at : at + k + 1].tolist() if k else ()):
                if f < 0:
                    fv = vertices[:i] + vertices[i + 1 :]
                    problems.append(f"missing face {list(fv)} of {sid!r}")
                elif keys[f] > keys[n]:
                    problems.append(f"entry of face {ids[f]!r} exceeds entry of coface {sid!r}")
        return problems

    def subcomplex(self, step: int) -> "FilteredComplex":
        """Simplices with entry <= step; keeps ids, field and step count."""
        if step in self._sub_cache:
            return self._sub_cache[step]
        sub = FilteredComplex(
            self.field,
            [s for s in self._order if s.entry <= step],
            steps=self.steps,
        )
        self._sub_cache[step] = sub
        return sub

    def step_inclusion(self, i: int, j: int | None = None) -> "SimplicialMap":
        """Inclusion of the step-i subcomplex into step j (the whole complex if None)."""
        src = self.subcomplex(i)
        tgt = self if j is None else self.subcomplex(j)
        return SimplicialMap(src, tgt, {v: v for v in src.vertices})

    def same_data(self, other: "FilteredComplex") -> bool:
        return (self.field, self.steps, self._order) == (other.field, other.steps, other._order)


class Incidences:
    """Every codimension-1 incidence of a complex, numbered once.

    Incidence n joins face[n] to coface[n], positions in the global
    order.  The k-simplices' incidences are numbered from start[k] on,
    coface by coface, then by omitted vertex: n = start[k] + (k+1) t + i
    for entry (t, i) of face_table(k), the order of
    sheaves._codim1_pairs.  A missing face leaves a hole, face[n] = -1,
    which locate skips.  The incidence sign is (-1)^omitted[n].
    """

    def __init__(self, complex_: FilteredComplex):
        self.complex = complex_
        self.start = {1: 0}
        faces, cofaces, omitted = ([np.zeros(0, np.int64)] for _ in range(3))
        for k in range(1, complex_.dim + 1):
            table = complex_.face_table(k)
            faces.append(np.where(table < 0, -1, table + complex_._bounds[k - 1]).ravel())
            cofaces.append(np.repeat(np.arange(len(table)) + complex_._bounds[k], k + 1))
            omitted.append(np.tile(np.arange(k + 1), len(table)))
            self.start[k + 1] = self.start[k] + table.size
        self.face, self.coface, self.omitted = map(np.concatenate, (faces, cofaces, omitted))

    @property
    def count(self) -> int:
        return len(self.face)

    def locate(self, faces, cofaces) -> np.ndarray:
        """The incidence number of each (face, coface) pair of global
        positions, or -1; position -1 names no simplex."""
        n = len(self.complex._ids)
        found = _first_match(self.face * n + self.coface, faces * n + cofaces)
        found[(faces < 0) | (cofaces < 0)] = -1
        return found

    def check_closed(self):
        """Raise ValueError naming the first missing face, if any."""
        holes = np.flatnonzero(self.face < 0).tolist()
        if holes:
            x, t, i = self.complex, int(self.coface[holes[0]]), int(self.omitted[holes[0]])
            tv = x._vertices_at(t)
            raise ValueError(f"missing face {list(tv[:i] + tv[i + 1 :])} of {x._ids[t]!r}")


class SimplicialMap:
    """A vertex map whose induced simplex images all land in the target.

    The image of a simplex is the sorted set of mapped vertices, so a
    map may collapse a simplex onto one of lower dimension.
    """

    def __init__(self, source: FilteredComplex, target: FilteredComplex, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = {int(a): int(b) for a, b in vertex_map.items()}
        for v in source.vertices:
            if v not in self.vertex_map:
                raise ValueError(f"vertex {v} has no image")
        self._image: dict[str, Simplex] = {}
        for s in source.simplices:
            iv = tuple(sorted({self.vertex_map[v] for v in s.vertices}))
            t = target.by_vertices.get(iv)
            if t is None:
                raise ValueError(
                    f"image {list(iv)} of simplex {s.id!r} is not in the target"
                )
            self._image[s.id] = t

    def image(self, s) -> Simplex:
        sid = s if isinstance(s, str) else s.id
        return self._image[sid]

    def is_inclusion(self) -> bool:
        src = self.source.vertices
        return len({self.vertex_map[v] for v in src}) == len(src)


def preimage_subcomplex(f: SimplicialMap, t) -> FilteredComplex:
    """Subcomplex of the source whose simplices map into the closure of t."""
    if isinstance(t, str):
        t = f.target.by_id[t]
    tv = set(t.vertices)
    keep = [s for s in f.source.simplices if set(f.image(s).vertices) <= tv]
    return FilteredComplex(f.source.field, keep, steps=f.source.steps)


def vietoris_rips(field: Field, points, thresholds, max_dim: int) -> FilteredComplex:
    """Flag filtration: a simplex enters at the first threshold covering its diameter.

    Simplices whose diameter exceeds the last threshold are omitted.  An
    empty point list yields the empty complex.  Each dimension's cliques
    extend the last one's by a larger vertex, all at once: a simplex's
    entry is the largest entry of its edges.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds or any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be a nonempty strictly increasing list")
    pts = [tuple(float(c) for c in q) for q in points]
    if any(len(q) != len(pts[0]) for q in pts):
        raise ValueError("points must share one dimension")
    n, m = len(pts), len(thresholds)
    dist = np.array([math.dist(a, b) for a in pts for b in pts]).reshape(n, n)
    edge = np.searchsorted(thresholds, dist)  # m where no threshold covers it
    rows = np.flatnonzero(np.diagonal(edge) < m)[:, None]
    entries = np.diagonal(edge)[rows[:, 0]]
    found = [(rows, entries)]
    while len(rows) and len(found) <= max_dim:  # no cliques grow from none
        grown = np.maximum(entries[:, None], edge[rows].max(axis=1))
        t, w = np.nonzero((grown < m) & (np.arange(n) > rows[:, -1:]))
        rows, entries = np.hstack([rows[t], w[:, None]]), grown[t, w]
        found.append((rows, entries))
    vertices = [tuple(r) for rows, _ in found for r in rows.tolist()]
    entries = [e for _, column in found for e in column.tolist()]
    ids = [".".join(map(str, v)) for v in vertices]
    return FilteredComplex(field, _SimplexLists(ids, vertices, entries), steps=m)
