"""Finite filtered simplicial complexes and simplicial maps.

A complex carries one global simplex order, (dimension, entry, vertex
list), and every cochain or chain basis downstream is laid out in that
order.  Entry indices record the filtration step at which a simplex
appears; a plain complex is the special case steps = 1, all entries 0.

Every codimension-1 incidence is read from one face table per
dimension, built once from the vertex lists: row t of face_table(k)
holds the positions of the faces of the t-th k-simplex, by omitted
vertex.  incidences() numbers the incidences in that order, so the
sheaf code validates, checks diamonds and assembles coboundaries by
index arithmetic on the tables instead of walking simplices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .linalg import Field

__all__ = [
    "Simplex",
    "FilteredComplex",
    "SimplicialMap",
    "incidence_sign",
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


class FilteredComplex:
    """Simplices keyed by id, ordered by (dimension, entry, vertex list)."""

    def __init__(self, field: Field, simplices, steps: int | None = None):
        self.field = field
        order = sorted(simplices, key=lambda s: (s.dim, s.entry, s.vertices))
        self._order = tuple(order)
        self.by_id: dict[str, Simplex] = {}
        for s in self._order:
            if s.id in self.by_id:
                raise ValueError(f"duplicate simplex id {s.id!r}")
            self.by_id[s.id] = s
        self.by_vertices: dict[tuple, Simplex] = {}
        for s in self._order:
            self.by_vertices.setdefault(s.vertices, s)
        if steps is None:
            steps = 1 + max((s.entry for s in self._order), default=0)
        self.steps = int(steps)
        self._by_dim: dict[int, tuple] = {}
        for s in self._order:
            self._by_dim.setdefault(s.dim, [])
        for s in self._order:
            self._by_dim[s.dim].append(s)
        self._by_dim = {k: tuple(v) for k, v in self._by_dim.items()}
        self._sub_cache: dict[int, FilteredComplex] = {}
        self._entries: dict[int, list] = {}
        self._face_tables: dict[int, np.ndarray] = {}
        self._incidences: Incidences | None = None

    @property
    def simplices(self) -> tuple:
        return self._order

    @property
    def dim(self) -> int:
        return max(self._by_dim, default=-1)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for s in self._order for v in s.vertices}))

    def simplices_of_dim(self, k: int) -> tuple:
        return self._by_dim.get(k, ())

    def prefix_length(self, k: int, step: int) -> int:
        """How many k-simplices have entry <= step.

        They lead simplices_of_dim(k), which is sorted by entry, so
        subcomplex(step) is that prefix of every dimension.
        """
        entries = self._entries.get(k)
        if entries is None:
            entries = self._entries[k] = [s.entry for s in self.simplices_of_dim(k)]
        return bisect_right(entries, step)

    def faces(self, s: Simplex) -> list:
        """Codimension-1 faces, in the order their vertex is omitted."""
        out = []
        for i in range(len(s.vertices)):
            fv = s.vertices[:i] + s.vertices[i + 1:]
            if not fv:
                continue
            f = self.by_vertices.get(fv)
            if f is None:
                raise KeyError(f"face {fv} of {s.id!r} is missing")
            out.append(f)
        return out

    def face_table(self, k: int) -> np.ndarray:
        """Faces of the k-simplices, k >= 1, as an (n_k, k+1) int array.

        Entry (t, i) is the position within simplices_of_dim(k-1) of the
        face that omits vertex i of the t-th k-simplex, or -1 when the
        complex lacks that face.  Built once per dimension; never raises.
        """
        if k < 1:
            raise ValueError(f"face tables start at dimension 1, got {k}")
        table = self._face_tables.get(k)
        if table is None:
            at: dict[tuple, int] = {}
            for n, s in enumerate(self.simplices_of_dim(k - 1)):
                at.setdefault(s.vertices, n)
            rows = [
                [at.get(v[:i] + v[i + 1:], -1) for i in range(k + 1)]
                for v in (s.vertices for s in self.simplices_of_dim(k))
            ]
            table = np.array(rows, dtype=np.int64).reshape(-1, k + 1)
            self._face_tables[k] = table
        return table

    def incidences(self) -> "Incidences":
        """The codimension-1 incidences read from the face tables, cached."""
        if self._incidences is None:
            self._incidences = Incidences(self)
        return self._incidences

    def validate(self) -> list:
        """Closure, entry monotonicity, entry range, duplicate vertex sets."""
        problems = []
        seen: dict[tuple, str] = {}
        for s in self._order:
            prev = seen.get(s.vertices)
            if prev is not None:
                problems.append(
                    f"simplices {prev!r} and {s.id!r} share the vertex set {list(s.vertices)}"
                )
            else:
                seen[s.vertices] = s.id
            if not 0 <= s.entry < self.steps:
                problems.append(
                    f"entry {s.entry} of {s.id!r} is outside 0..{self.steps - 1}"
                )
            if s.dim > 0:
                for i in range(len(s.vertices)):
                    fv = s.vertices[:i] + s.vertices[i + 1:]
                    f = self.by_vertices.get(fv)
                    if f is None:
                        problems.append(f"missing face {list(fv)} of {s.id!r}")
                    elif f.entry > s.entry:
                        problems.append(
                            f"entry of face {f.id!r} exceeds entry of coface {s.id!r}"
                        )
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
        return (
            self.field == other.field
            and self.steps == other.steps
            and self._order == other._order
        )


class Incidences:
    """Every codimension-1 incidence of a complex, numbered once.

    Incidence n joins a face to a coface; both are positions in the
    global order (complex.simplices).  The incidences of the k-simplices
    are numbered from start[k] on, coface by coface in the global
    order, then by omitted vertex: n = start[k] + (k+1) t + i for the
    entry (t, i) of face_table(k).  This is the order of
    sheaves._codim1_pairs.  A face the complex lacks leaves a hole,
    face[n] = -1, which index skips.

    index maps (face id, coface id) to n.  omitted[n] is i, so the
    incidence sign is (-1)^omitted[n].  first[k] is the global position
    of the first k-simplex.
    """

    def __init__(self, complex_: FilteredComplex):
        self.complex = complex_
        self.first = first = {}
        n = 0
        for k in range(complex_.dim + 1):
            first[k] = n
            n += len(complex_.simplices_of_dim(k))
        self.start = {1: 0}
        faces, cofaces, omitted = [], [], []
        for k in range(1, complex_.dim + 1):
            table = complex_.face_table(k)
            count = len(table)
            faces.append(np.where(table < 0, -1, table + first[k - 1]).ravel())
            cofaces.append(np.repeat(np.arange(count) + first[k], k + 1))
            omitted.append(np.tile(np.arange(k + 1), count))
            self.start[k + 1] = self.start[k] + table.size
        self.face = np.concatenate(faces) if faces else np.zeros(0, np.int64)
        self.coface = np.concatenate(cofaces) if cofaces else np.zeros(0, np.int64)
        self.omitted = np.concatenate(omitted) if omitted else np.zeros(0, np.int64)
        ids = [s.id for s in complex_.simplices]
        self.index = {
            (ids[f], ids[t]): n
            for n, (f, t) in enumerate(zip(self.face.tolist(), self.coface.tolist()))
            if f >= 0
        }

    @property
    def count(self) -> int:
        return len(self.face)

    def check_closed(self):
        """Raise ValueError naming the first missing face, if any."""
        holes = np.flatnonzero(self.face < 0)
        if holes.size:
            n = int(holes[0])
            t = self.complex.simplices[int(self.coface[n])]
            i = int(self.omitted[n])
            raise ValueError(
                f"missing face {list(t.vertices[:i] + t.vertices[i + 1:])} of {t.id!r}"
            )


def incidence_sign(face: Simplex, coface: Simplex) -> int:
    """(-1)^j when face omits the j-th vertex of coface, else 0."""
    if face.dim + 1 != coface.dim:
        return 0
    fv, cv = face.vertices, coface.vertices
    omitted = None
    fi = 0
    for ci, v in enumerate(cv):
        if fi < len(fv) and fv[fi] == v:
            fi += 1
        elif omitted is None:
            omitted = ci
        else:
            return 0
    if fi != len(fv) or omitted is None:
        return 0
    return -1 if omitted % 2 else 1


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
    empty point list yields the empty complex.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds or any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be a nonempty strictly increasing list")
    pts = [tuple(float(c) for c in q) for q in points]
    if any(len(q) != len(pts[0]) for q in pts):
        raise ValueError("points must share one dimension")

    def entry_for(d):
        for idx, t in enumerate(thresholds):
            if d <= t:
                return idx
        return None

    sims = []
    prev: dict[tuple, float] = {}
    for v in range(len(pts)):
        e = entry_for(0.0)
        if e is None:
            continue
        prev[(v,)] = 0.0
        sims.append(Simplex(id=str(v), vertices=(v,), entry=e))
    for _ in range(max_dim):
        cur: dict[tuple, float] = {}
        for verts in sorted(prev):
            diam = prev[verts]
            for w in range(verts[-1] + 1, len(pts)):
                d = max(diam, max(math.dist(pts[v], pts[w]) for v in verts))
                if entry_for(d) is not None:
                    cur[verts + (w,)] = d
        for verts in sorted(cur):
            sims.append(
                Simplex(
                    id=".".join(str(v) for v in verts),
                    vertices=verts,
                    entry=entry_for(cur[verts]),
                )
            )
        prev = cur
    return FilteredComplex(field, sims, steps=len(thresholds))
