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

from persheaf import zeros


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
    problems = []
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
    return problems


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


def validate_sheaf(sheaf):
    field = sheaf.complex.field
    problems = stray_ids(sheaf._stray, sheaf.complex, "stalk")
    problems += _check_assignment(
        sheaf.complex,
        lambda f, t: sheaf.restriction(f.id, t.id),
        lambda f, t: (sheaf.stalk(t.id), sheaf.stalk(f.id)),
        "restriction",
    )
    problems += stray_keys(sheaf)
    if problems:
        return problems
    r = sheaf.restriction
    out = []
    for s, ra, rb, t in diamonds(sheaf.complex):
        left = field.matmul(r(ra.id, t.id), r(s.id, ra.id))
        right = field.matmul(r(rb.id, t.id), r(s.id, rb.id))
        if not np.array_equal(left, right):
            out.append(
                f"diamond {s.id!r} -> {t.id!r} does not commute"
                f" (via {ra.id!r} vs {rb.id!r})"
            )
    return out


def validate_cosheaf(cosheaf):
    field = cosheaf.complex.field
    problems = stray_ids(cosheaf._stray, cosheaf.complex, "stalk")
    problems += _check_assignment(
        cosheaf.complex,
        lambda f, t: cosheaf.extension(t.id, f.id),
        lambda f, t: (cosheaf.stalk(f.id), cosheaf.stalk(t.id)),
        "extension",
    )
    problems += stray_keys(cosheaf)
    if problems:
        return problems
    e = cosheaf.extension
    out = []
    for s, ra, rb, t in diamonds(cosheaf.complex):
        left = field.matmul(e(ra.id, s.id), e(t.id, ra.id))
        right = field.matmul(e(rb.id, s.id), e(t.id, rb.id))
        if not np.array_equal(left, right):
            out.append(
                f"diamond {t.id!r} -> {s.id!r} does not commute"
                f" (via {ra.id!r} vs {rb.id!r})"
            )
    return out


def validate_morphism(phi):
    """Component shapes and stray ids, then two Field.matmul calls per
    incidence."""
    field = phi.complex.field
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
    for f, t in codim1_pairs(phi.complex):
        left = field.matmul(phi.component(t.id), phi.source.restriction(f.id, t.id))
        right = field.matmul(phi.target.restriction(f.id, t.id), phi.component(f.id))
        if not np.array_equal(left, right):
            problems.append(f"naturality fails across {f.id!r} -> {t.id!r}")
    return problems


def checked_graded_maps(stalks):
    """Each incidence's HomogeneousMatrix keyed (face id, coface id), and
    the problems: maps missing or needing a negative t-power, then
    stored keys that name no incidence, then non-commuting diamonds."""
    field = stalks.complex.field
    down = stalks._down
    problems = []
    maps = {}

    def arrow(face, coface):
        a, b = (coface, face) if down else (face, coface)
        return a.id, b.id

    for f, t in codim1_pairs(stalks.complex):
        source, target = arrow(f, t)
        try:
            maps[(f.id, t.id)] = stalks._map(source, target)
        except (KeyError, ValueError) as err:
            problems.append(f"{source!r} -> {target!r}: {err}")
    problems += stray_keys(stalks)
    if problems:
        return maps, problems
    for s, ra, rb, t in diamonds(stalks.complex):
        composites = []
        for r in (ra, rb):
            near = maps[(s.id, r.id)].scalar.dense()
            far = maps[(r.id, t.id)].scalar.dense()
            composites.append(field.matmul(near, far) if down else field.matmul(far, near))
        if not np.array_equal(*composites):
            source, target = arrow(s, t)
            problems.append(f"diamond {source!r} -> {target!r} does not commute")
    return maps, problems


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
