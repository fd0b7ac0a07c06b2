"""Cellular sheaves and cosheaves of F_p vector spaces on a complex.

A sheaf stores one stalk dimension per simplex and one restriction
matrix per codimension-1 incidence, face to coface.  A cosheaf stores
extensions running the other way.  Maps touching a zero-dimensional
stalk never need to be stored; the accessors fill in the unique zero
matrix of the right shape.
"""

from __future__ import annotations

import numpy as np

from .complexes import FilteredComplex, SimplicialMap
from .linalg import identity, matrix, zeros

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
    "pullback_morphism",
    "extend_by_zero",
    "dualize",
    "unit_map",
]


def _codim1_pairs(complex_: FilteredComplex):
    """(face, coface) incidences in the global order of the coface."""
    for t in complex_.simplices:
        if t.dim == 0:
            continue
        for f in complex_.faces(t):
            yield f, t


class CellularSheaf:
    def __init__(self, complex_: FilteredComplex, stalk_dim, restriction):
        self.complex = complex_
        self.stalk_dim = {
            s.id: int(stalk_dim.get(s.id, 0)) for s in complex_.simplices
        }
        if any(d < 0 for d in self.stalk_dim.values()):
            raise ValueError("stalk dimensions must be nonnegative")
        p = complex_.field.p
        self._restriction = {
            (fid, cid): matrix(m, p) for (fid, cid), m in restriction.items()
        }

    def stalk(self, sid: str) -> int:
        return self.stalk_dim[sid]

    def restriction(self, face_id: str, coface_id: str) -> np.ndarray:
        key = (face_id, coface_id)
        stored = self._restriction.get(key)
        if stored is not None:
            return stored
        if self.stalk(face_id) == 0 or self.stalk(coface_id) == 0:
            return zeros(self.stalk(coface_id), self.stalk(face_id))
        raise KeyError(f"no restriction stored for {face_id!r} -> {coface_id!r}")


class CellularCosheaf:
    def __init__(self, complex_: FilteredComplex, stalk_dim, extension):
        self.complex = complex_
        self.stalk_dim = {
            s.id: int(stalk_dim.get(s.id, 0)) for s in complex_.simplices
        }
        if any(d < 0 for d in self.stalk_dim.values()):
            raise ValueError("stalk dimensions must be nonnegative")
        p = complex_.field.p
        self._extension = {
            (cid, fid): matrix(m, p) for (cid, fid), m in extension.items()
        }

    def stalk(self, sid: str) -> int:
        return self.stalk_dim[sid]

    def extension(self, coface_id: str, face_id: str) -> np.ndarray:
        key = (coface_id, face_id)
        stored = self._extension.get(key)
        if stored is not None:
            return stored
        if self.stalk(face_id) == 0 or self.stalk(coface_id) == 0:
            return zeros(self.stalk(face_id), self.stalk(coface_id))
        raise KeyError(f"no extension stored for {coface_id!r} -> {face_id!r}")


def _check_assignment(sheaf, get_map, shape_of, label) -> list:
    """Shared shape and presence checks for sheaves and cosheaves."""
    problems = []
    for f, t in _codim1_pairs(sheaf.complex):
        want = shape_of(f, t)
        try:
            m = get_map(f, t)
        except KeyError:
            problems.append(f"missing {label} for {f.id!r} -> {t.id!r}")
            continue
        if m.shape != want:
            problems.append(
                f"{label} {f.id!r} -> {t.id!r} has shape {m.shape}, expected {want}"
            )
    return problems


def _diamonds(complex_: FilteredComplex):
    """Codimension-2 pairs with their two intermediate simplices."""
    for t in complex_.simplices:
        if t.dim < 2:
            continue
        verts = t.vertices
        n = len(verts)
        for i in range(n):
            for j in range(i + 1, n):
                sv = tuple(v for k, v in enumerate(verts) if k not in (i, j))
                s = complex_.by_vertices.get(sv)
                rho_a = complex_.by_vertices.get(
                    tuple(v for k, v in enumerate(verts) if k != i)
                )
                rho_b = complex_.by_vertices.get(
                    tuple(v for k, v in enumerate(verts) if k != j)
                )
                if s is None or rho_a is None or rho_b is None:
                    continue
                yield s, rho_a, rho_b, t


def _commuting(field, squares) -> list:
    """For each (a, b, c, d) in squares, whether a @ b == c @ d mod p.

    Both composites of a square must have one shape.  The squares are
    grouped by the shapes of their four matrices, and each group is
    stacked and multiplied with one matmul per side, in object dtype
    when int64 could overflow (the bound Field.matmul uses).
    """
    p = field.p
    groups: dict[tuple, list] = {}
    for i, square in enumerate(squares):
        groups.setdefault(tuple(m.shape for m in square), []).append(i)
    ok = [True] * len(squares)
    for shapes, members in groups.items():
        stacks = [
            np.array([squares[i][n] for i in members], dtype=np.int64) % p
            for n in range(4)
        ]
        if max(shapes[0][1], shapes[2][1]) * (p - 1) ** 2 >= 2**63:
            stacks = [x.astype(object) for x in stacks]
        a, b, c, d = stacks
        differ = ((np.matmul(a, b) - np.matmul(c, d)) % p != 0).any(axis=(1, 2))
        for i, bad in zip(members, differ):
            if bad:
                ok[i] = False
    return ok


def validate_sheaf(sheaf: CellularSheaf) -> list:
    """Shape violations and non-commuting diamonds, as a list of strings."""
    field = sheaf.complex.field
    problems = _check_assignment(
        sheaf,
        lambda f, t: sheaf.restriction(f.id, t.id),
        lambda f, t: (sheaf.stalk(t.id), sheaf.stalk(f.id)),
        "restriction",
    )
    for key in sheaf._restriction:
        fid, cid = key
        f = sheaf.complex.by_id.get(fid)
        t = sheaf.complex.by_id.get(cid)
        if f is None or t is None or not (
            f.dim + 1 == t.dim and set(f.vertices) <= set(t.vertices)
        ):
            problems.append(f"{fid!r} -> {cid!r} is not a codimension-1 incidence")
    if problems:
        return problems
    diamonds = list(_diamonds(sheaf.complex))
    r = sheaf.restriction
    ok = _commuting(field, [
        (r(ra.id, t.id), r(s.id, ra.id), r(rb.id, t.id), r(s.id, rb.id))
        for s, ra, rb, t in diamonds
    ])
    return [
        f"diamond {s.id!r} -> {t.id!r} does not commute"
        f" (via {ra.id!r} vs {rb.id!r})"
        for (s, ra, rb, t), good in zip(diamonds, ok)
        if not good
    ]


def validate_cosheaf(cosheaf: CellularCosheaf) -> list:
    field = cosheaf.complex.field
    problems = _check_assignment(
        cosheaf,
        lambda f, t: cosheaf.extension(t.id, f.id),
        lambda f, t: (cosheaf.stalk(f.id), cosheaf.stalk(t.id)),
        "extension",
    )
    if problems:
        return problems
    diamonds = list(_diamonds(cosheaf.complex))
    e = cosheaf.extension
    ok = _commuting(field, [
        (e(ra.id, s.id), e(t.id, ra.id), e(rb.id, s.id), e(t.id, rb.id))
        for s, ra, rb, t in diamonds
    ])
    return [
        f"diamond {t.id!r} -> {s.id!r} does not commute"
        f" (via {ra.id!r} vs {rb.id!r})"
        for (s, ra, rb, t), good in zip(diamonds, ok)
        if not good
    ]


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


def validate_morphism(phi: SheafMorphism) -> list:
    """Component shape errors and naturality failures across incidences."""
    field = phi.complex.field
    problems = []
    for s in phi.complex.simplices:
        want = (phi.target.stalk(s.id), phi.source.stalk(s.id))
        if phi.component(s.id).shape != want:
            problems.append(
                f"component at {s.id!r} has shape {phi.component(s.id).shape},"
                f" expected {want}"
            )
    if problems:
        return problems
    for f, t in _codim1_pairs(phi.complex):
        left = field.matmul(phi.component(t.id), phi.source.restriction(f.id, t.id))
        right = field.matmul(phi.target.restriction(f.id, t.id), phi.component(f.id))
        if not np.array_equal(left, right):
            problems.append(f"naturality fails across {f.id!r} -> {t.id!r}")
    return problems


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
    restr = {
        (f.id, t.id): identity(d) for f, t in _codim1_pairs(complex_)
    }
    return CellularSheaf(complex_, stalks, restr)


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


def pullback_morphism(f: SimplicialMap, phi: SheafMorphism) -> SheafMorphism:
    comp = {s.id: phi.component(f.image(s).id) for s in f.source.simplices}
    return SheafMorphism(pullback(f, phi.source), pullback(f, phi.target), comp)


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
    ext = {
        (cid, fid): m.T.copy() for (fid, cid), m in sheaf._restriction.items()
    }
    return CellularCosheaf(sheaf.complex, dict(sheaf.stalk_dim), ext)


def unit_map(f: SimplicialMap, sheaf: CellularSheaf) -> SheafMorphism:
    """The comparison F -> extend_by_zero(pullback F) along an inclusion.

    Identity components over simplices in the image, zero elsewhere.
    """
    if not f.is_inclusion():
        raise ValueError("the unit map is defined along inclusions")
    if sheaf.complex is not f.target:
        raise ValueError("the unit map starts from a sheaf on the ambient complex")
    extended = extend_by_zero(f, pullback(f, sheaf))
    in_image = {f.image(s).id for s in f.source.simplices}
    comp = {
        t.id: identity(sheaf.stalk(t.id))
        for t in f.target.simplices
        if t.id in in_image
    }
    return SheafMorphism(sheaf, extended, comp)
