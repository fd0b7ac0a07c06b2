"""Per-incidence reference walkers for the face-table code.

The package reads every codimension-1 incidence from the face tables
and works per shape group.  The functions here take the literal route
instead, one Python step per incidence or diamond, through faces(),
vertex-tuple lookups and the public accessors: the checks, the
diamond walk and the block-by-block assembly of the (co)boundaries.
The differential tests compare the two, entry for entry and message
for message.  The complex itself has references too: its global order,
its face tables and its validation, walked one simplex at a time over
a plain list of simplices, with vertex-tuple dicts.
"""

import numpy as np

from densekernel import _mulmod
from persheaf import zeros
from persheaf.sheaves import _CellularStalks


def global_order(simplices):
    """The simplices sorted by (dimension, entry, vertex list), stably."""
    return sorted(simplices, key=lambda s: (s.dim, s.entry, s.vertices))


def duplicate_id(simplices):
    """The ValueError message of the first repeated id in the global order."""
    seen = set()
    for s in global_order(simplices):
        if s.id in seen:
            return f"duplicate simplex id {s.id!r}"
        seen.add(s.id)
    return None


def face_table(simplices, k):
    """FilteredComplex.face_table(k), one vertex-tuple lookup per face."""
    order = global_order(simplices)
    at = {}
    for n, s in enumerate(s for s in order if s.dim == k - 1):
        at.setdefault(s.vertices, n)
    rows = [
        [at.get(s.vertices[:i] + s.vertices[i + 1:], -1) for i in range(k + 1)]
        for s in order if s.dim == k
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, k + 1)


def validate_complex(simplices, steps):
    """FilteredComplex.validate, walking the simplices one at a time."""
    order = global_order(simplices)
    by_vertices = {}
    for s in order:
        by_vertices.setdefault(s.vertices, s)
    problems = [f"steps must be at least 1, got {steps}"] if steps < 1 else []
    seen = {}
    for s in order:
        prev = seen.get(s.vertices)
        if prev is not None:
            problems.append(
                f"simplices {prev!r} and {s.id!r} share the vertex set {list(s.vertices)}"
            )
        else:
            seen[s.vertices] = s.id
        if not 0 <= s.entry < steps:
            problems.append(f"entry {s.entry} of {s.id!r} is outside 0..{steps - 1}")
        if s.dim > 0:
            for i in range(len(s.vertices)):
                fv = s.vertices[:i] + s.vertices[i + 1:]
                f = by_vertices.get(fv)
                if f is None:
                    problems.append(f"missing face {list(fv)} of {s.id!r}")
                elif f.entry > s.entry:
                    problems.append(
                        f"entry of face {f.id!r} exceeds entry of coface {s.id!r}"
                    )
    return problems


def faces(complex_, s):
    """Codimension-1 faces of s, in the order their vertex is omitted."""
    out = []
    for i in range(len(s.vertices)):
        fv = s.vertices[:i] + s.vertices[i + 1:]
        if not fv:
            continue
        f = complex_.by_vertices.get(fv)
        if f is None:
            raise KeyError(f"face {fv} of {s.id!r} is missing")
        out.append(f)
    return out


def incidence_sign(face, coface) -> int:
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


def codim1_pairs(complex_):
    """(face, coface) incidences in the global order of the coface."""
    for t in complex_.simplices:
        if t.dim == 0:
            continue
        for f in faces(complex_, t):
            yield f, t


def present_pairs(complex_):
    """codim1_pairs without the incidences whose face is missing, as in
    a complex that is not closed."""
    for t in complex_.simplices:
        if t.dim == 0:
            continue
        for i in range(len(t.vertices)):
            f = complex_.by_vertices.get(t.vertices[:i] + t.vertices[i + 1:])
            if f is not None:
                yield f, t


def diamonds(complex_):
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


def _check_assignment(complex_, get_map, shape_of, label):
    """Missing and mis-shaped maps, and the well-shaped ones keyed
    (face id, coface id)."""
    problems, found = [], {}
    for f, t in codim1_pairs(complex_):
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
        else:
            found[(f.id, t.id)] = m
    return problems, found


def stray_keys(stalks):
    """Stored keys that name no codimension-1 incidence, in key order.

    A key is (source id, target id): (face, coface), or (coface, face)
    when the maps run down.
    """
    out = []
    for a, b in stalks._maps.keys:
        fid, cid = (b, a) if stalks._down else (a, b)
        f = stalks.complex.by_id.get(fid)
        t = stalks.complex.by_id.get(cid)
        if f is None or t is None or not (
            f.dim + 1 == t.dim and set(f.vertices) <= set(t.vertices)
        ):
            out.append(f"{a!r} -> {b!r} is not a codimension-1 incidence")
    return out


def stray_ids(stored, complex_, what):
    """Stored ids that name no simplex, in stored order."""
    return [
        f"{what} stored under {sid!r}, which names no simplex"
        for sid in stored
        if sid not in complex_.by_id
    ]


def store_problems(stalks, get_map):
    """Stalks stored under an id that names no simplex, missing and
    mis-shaped maps, then stored keys that name no incidence; and the
    well-shaped maps keyed (face id, coface id).

    get_map(face, coface) is the map of the incidence as stored, or a
    KeyError.
    """
    if stalks._down:
        shape = lambda f, t: (stalks.stalk(f.id), stalks.stalk(t.id))
    else:
        shape = lambda f, t: (stalks.stalk(t.id), stalks.stalk(f.id))
    problems = stray_ids(stalks._stray, stalks.complex, "stalk")
    wrong, found = _check_assignment(stalks.complex, get_map, shape, stalks._kind)
    return problems + wrong + stray_keys(stalks), found


def diamond_problems(stalks, get_map):
    """Diamonds whose two composites differ, one dense product pair each.

    get_map is read as in store_problems: face to coface, or coface to
    face when the maps run down.
    """
    p = stalks.complex.field.p
    down = stalks._down
    out = []
    for s, ra, rb, t in diamonds(stalks.complex):
        composites = [
            _mulmod(get_map(s, r), get_map(r, t), p)
            if down
            else _mulmod(get_map(r, t), get_map(s, r), p)
            for r in (ra, rb)
        ]
        if not np.array_equal(*composites):
            a, b = (t, s) if down else (s, t)
            out.append(
                f"diamond {a.id!r} -> {b.id!r} does not commute"
                f" (via {ra.id!r} vs {rb.id!r})"
            )
    return out


def validate_sheaf(sheaf):
    get_map = lambda f, t: sheaf.restriction(f.id, t.id)
    return store_problems(sheaf, get_map)[0] or diamond_problems(sheaf, get_map)


def validate_cosheaf(cosheaf):
    get_map = lambda f, t: cosheaf.extension(t.id, f.id)
    return store_problems(cosheaf, get_map)[0] or diamond_problems(cosheaf, get_map)


def validate_morphism(phi):
    """Component shapes and stray ids, then two dense products per
    incidence whose face is present: a hole is skipped."""
    p = phi.complex.field.p
    problems = []
    for s in phi.complex.simplices:
        want = (phi.target.stalk(s.id), phi.source.stalk(s.id))
        if phi.component(s.id).shape != want:
            problems.append(
                f"component at {s.id!r} has shape {phi.component(s.id).shape},"
                f" expected {want}"
            )
    problems += stray_ids(phi._component, phi.complex, "component")
    if problems:
        return problems
    for f, t in present_pairs(phi.complex):
        left = _mulmod(phi.component(t.id), phi.source.restriction(f.id, t.id), p)
        right = _mulmod(phi.target.restriction(f.id, t.id), phi.component(f.id), p)
        if not np.array_equal(left, right):
            problems.append(f"naturality fails across {f.id!r} -> {t.id!r}")
    return problems


def checked_graded_maps(stalks):
    """Each incidence's HomogeneousMatrix keyed (face id, coface id), and
    the problems: the store checks of validate_sheaf (validate_cosheaf
    when the maps run down) on the scalar parts, then the well-shaped
    maps with an entry that would need a negative t-power, in incidence
    order; only without those, non-commuting diamonds."""
    down = stalks._down

    def scalar(f, t):
        # the stored scalar part, or the zero map the store may omit
        a, b = (t, f) if down else (f, t)
        return _CellularStalks._map(stalks, a.id, b.id)

    problems, found = store_problems(stalks, scalar)
    maps = {}
    for f, t in codim1_pairs(stalks.complex):
        if (f.id, t.id) not in found:
            continue
        source, target = (t, f) if down else (f, t)
        m = found[(f.id, t.id)]
        rows, cols = stalks.degrees[target.id], stalks.degrees[source.id]
        bad = [
            (i, j)
            for i in range(m.shape[0])
            for j in range(m.shape[1])
            if m[i, j] and cols[j] < rows[i]
        ]
        if bad:
            problems.append(
                f"{source.id!r} -> {target.id!r}: entry {bad[0]} would need a negative t-power"
            )
        else:
            maps[(f.id, t.id)] = stalks._map(source.id, target.id)
    return maps, problems or diamond_problems(stalks, scalar)


def _offsets(complex_, size, k):
    off, n = {}, 0
    for s in complex_.simplices_of_dim(k):
        off[s.id] = n
        n += size(s.id)
    return off, n


def assemble_blocks(complex_, size, block, down):
    """The signed maps between adjacent dimensions, block by block.

    block(f, t) is the map of the incidence, oriented from dimension
    k to k+1 (from k+1 to k when down); maps[k] is that map.
    """
    p = complex_.field.p
    maps = []
    for k in range(complex_.dim):
        lo, nlo = _offsets(complex_, size, k)
        hi, nhi = _offsets(complex_, size, k + 1)
        d = zeros(nlo, nhi) if down else zeros(nhi, nlo)
        for t in complex_.simplices_of_dim(k + 1):
            for f in faces(complex_, t):
                b = block(f, t)
                if b.size == 0:
                    continue
                b = incidence_sign(f, t) * b % p
                fo, to = lo[f.id], hi[t.id]
                if down:
                    d[fo:fo + b.shape[0], to:to + b.shape[1]] = b
                else:
                    d[to:to + b.shape[0], fo:fo + b.shape[1]] = b
        maps.append(d)
    return maps


def coboundaries(sheaf):
    return assemble_blocks(
        sheaf.complex, sheaf.stalk, lambda f, t: sheaf.restriction(f.id, t.id), False
    )


def boundaries(cosheaf):
    return assemble_blocks(
        cosheaf.complex, cosheaf.stalk, lambda f, t: cosheaf.extension(t.id, f.id), True
    )


def graded_scalars(stalks):
    """The scalar parts of the graded (co)boundaries, block by block."""
    maps, problems = checked_graded_maps(stalks)
    assert not problems, problems
    return assemble_blocks(
        stalks.complex,
        lambda sid: len(stalks.degrees[sid]),
        lambda f, t: maps[(f.id, t.id)].scalar.dense(),
        stalks._down,
    )
