"""Seeded generators for the random property suites.

Sheaves are built as direct sums of rank-d constant pieces supported on
closed subcomplexes, then conjugated stalkwise by random invertible
matrices, so validity is guaranteed while the matrices look arbitrary.
Diagram steps keep an identity block per surviving piece plus constant
blocks into earlier pieces with smaller support, which keeps every
component injective.
"""

import numpy as np

import densekernel
from densekernel import _mulmod
from perincidence import faces
from persheaf import (
    Barcode,
    CellularSheaf,
    CopersistenceModule,
    FilteredComplex,
    PersistenceModule,
    SheafDiagram,
    SheafMorphism,
    Simplex,
    identity,
    zeros,
)


def random_complex(rng, field, max_simplices=20, max_steps=6, min_steps=1):
    steps = rng.randint(min_steps, max_steps)
    nv = rng.randint(2, 5)
    simplices = [Simplex(str(v), (v,), rng.randrange(steps)) for v in range(nv)]
    entry = {s.vertices: s.entry for s in simplices}
    for u in range(nv):
        for v in range(u + 1, nv):
            if len(simplices) >= max_simplices or rng.random() >= 0.6:
                continue
            e = rng.randint(max(entry[(u,)], entry[(v,)]), steps - 1)
            simplices.append(Simplex(f"{u}.{v}", (u, v), e))
            entry[(u, v)] = e
    for u in range(nv):
        for v in range(u + 1, nv):
            for w in range(v + 1, nv):
                tri = ((u, v), (u, w), (v, w))
                if len(simplices) >= max_simplices or rng.random() >= 0.35:
                    continue
                if not all(t in entry for t in tri):
                    continue
                e = rng.randint(max(entry[t] for t in tri), steps - 1)
                simplices.append(Simplex(f"{u}.{v}.{w}", (u, v, w), e))
    return FilteredComplex(field, simplices, steps)


def closed_support(complex_, seed_ids):
    """Downward closure of the given simplex ids."""
    support = set()
    stack = [complex_.by_id[sid] for sid in seed_ids]
    while stack:
        s = stack.pop()
        if s.id in support:
            continue
        support.add(s.id)
        if s.dim > 0:
            stack.extend(faces(complex_, s))
    return support


def random_support(rng, complex_, within=None):
    pool = sorted(within) if within is not None else [s.id for s in complex_.simplices]
    count = rng.randint(1, len(pool))
    return closed_support(complex_, rng.sample(pool, count))


def random_invertible(rng, field, n):
    if n == 0:
        return zeros(0, 0)
    while True:
        m = np.array(
            [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)],
            dtype=np.int64,
        )
        if densekernel.is_invertible(field.p, m):
            return m


def _inverse(field, g):
    return densekernel.solve(field.p, g, identity(g.shape[0]))


def _summand_sheaf(complex_, summands):
    """Direct sum of constant pieces; summands are (dim, support) pairs."""
    stalks = {}
    for s in complex_.simplices:
        stalks[s.id] = sum(d for d, supp in summands if s.id in supp)
    restriction = {}
    for t in complex_.simplices:
        if t.dim == 0:
            continue
        for f in faces(complex_, t):
            if stalks[f.id] == 0 or stalks[t.id] == 0:
                continue
            m = zeros(stalks[t.id], stalks[f.id])
            ro = co = 0
            for d, supp in summands:
                at_f, at_t = f.id in supp, t.id in supp
                if at_f and at_t:
                    m[ro:ro + d, co:co + d] = identity(d)
                ro += d if at_t else 0
                co += d if at_f else 0
            restriction[(f.id, t.id)] = m
    return CellularSheaf(complex_, stalks, restriction)


def _conjugate(sheaf, g):
    field = sheaf.complex.field
    p = field.p
    ginv = {sid: _inverse(field, m) for sid, m in g.items()}
    restriction = {}
    for t in sheaf.complex.simplices:
        if t.dim == 0:
            continue
        for f in faces(sheaf.complex, t):
            if sheaf.stalk(f.id) == 0 or sheaf.stalk(t.id) == 0:
                continue
            r = sheaf.restriction(f.id, t.id)
            restriction[(f.id, t.id)] = _mulmod(g[t.id], _mulmod(r, ginv[f.id], p), p)
    return CellularSheaf(sheaf.complex, dict(sheaf.stalk_dim), restriction)


def random_sheaf(rng, complex_, max_total=3):
    field = complex_.field
    summands = []
    budget = max_total
    while budget and (not summands or rng.random() < 0.6):
        d = rng.randint(1, budget)
        summands.append((d, random_support(rng, complex_)))
        budget -= d
    sheaf = _summand_sheaf(complex_, summands)
    g = {
        s.id: random_invertible(rng, field, sheaf.stalk(s.id))
        for s in complex_.simplices
    }
    return _conjugate(sheaf, g)


def random_monomorphic_diagram(
    rng, complex_, length=None, max_total=3, force_global=False
):
    field = complex_.field
    m = length if length is not None else rng.randint(1, 6)
    all_ids = {s.id for s in complex_.simplices}
    summands = []
    if force_global:
        summands.append((1, all_ids, 0))
    budget = max_total - len(summands)
    while budget and (not summands or rng.random() < 0.7):
        d = rng.randint(1, budget)
        if summands and rng.random() < 0.5:
            # grow an earlier support so a cross map into it stays natural
            base = summands[rng.randrange(len(summands))][1]
            supp = closed_support(complex_, base | random_support(rng, complex_))
        else:
            supp = random_support(rng, complex_)
        summands.append((d, supp, rng.randrange(m)))
        budget -= d
    summands.sort(key=lambda t: t[2])

    def alive(i):
        return [l for l, (d, supp, b) in enumerate(summands) if b <= i]

    plain = [
        _summand_sheaf(complex_, [(summands[l][0], summands[l][1]) for l in alive(i)])
        for i in range(m)
    ]
    cross = {}
    for l, (dl, sl, bl) in enumerate(summands):
        for j in range(l):
            dj, sj, bj = summands[j]
            if sj <= sl and rng.random() < 0.4:
                cross[(j, l)] = np.array(
                    [[rng.randrange(field.p) for _ in range(dl)] for _ in range(dj)],
                    dtype=np.int64,
                )

    def component(i, s):
        rows_l = [l for l in alive(i + 1) if s.id in summands[l][1]]
        cols_l = [l for l in alive(i) if s.id in summands[l][1]]
        mtx = zeros(
            sum(summands[l][0] for l in rows_l), sum(summands[l][0] for l in cols_l)
        )
        ro = 0
        for j in rows_l:
            co = 0
            for l in cols_l:
                block = None
                if j == l:
                    block = identity(summands[l][0])
                elif (j, l) in cross:
                    block = cross[(j, l)]
                if block is not None:
                    mtx[ro:ro + summands[j][0], co:co + summands[l][0]] = block
                co += summands[l][0]
            ro += summands[j][0]
        return mtx

    g = [
        {
            s.id: random_invertible(rng, field, plain[i].stalk(s.id))
            for s in complex_.simplices
        }
        for i in range(m)
    ]
    snapshots = [_conjugate(plain[i], g[i]) for i in range(m)]
    steps = []
    for i in range(m - 1):
        comp = {}
        for s in complex_.simplices:
            if plain[i].stalk(s.id) == 0 or plain[i + 1].stalk(s.id) == 0:
                continue
            comp[s.id] = _mulmod(
                g[i + 1][s.id],
                _mulmod(component(i, s), _inverse(field, g[i][s.id]), field.p),
                field.p,
            )
        steps.append(SheafMorphism(snapshots[i], snapshots[i + 1], comp))
    return SheafDiagram(snapshots, steps)


def random_interval_module(rng, field, m=None, forward=True):
    """A module assembled from known bars, returned with its barcode."""
    m = m if m is not None else rng.randint(1, 6)
    bars = []
    for _ in range(rng.randint(0, 5)):
        a = rng.randrange(m)
        b = None if rng.random() < 0.3 else rng.randint(a, m - 1)
        # survival to the last index is reported as an unbounded bar
        bars.append((a, None if b == m - 1 else b))

    def alive(i):
        return [
            n for n, (a, b) in enumerate(bars) if a <= i and (b is None or i <= b)
        ]

    dims = [len(alive(i)) for i in range(m)]
    maps = []
    for i in range(m - 1):
        src, dst = alive(i), alive(i + 1)
        step = zeros(dims[i + 1], dims[i])
        for r, n in enumerate(dst):
            if n in src:
                step[r, src.index(n)] = 1
        maps.append(step if forward else step.T)
    g = [random_invertible(rng, field, d) for d in dims]
    if forward:
        conj = [
            _mulmod(g[i + 1], _mulmod(maps[i], _inverse(field, g[i]), field.p), field.p)
            for i in range(m - 1)
        ]
        module = PersistenceModule(field, dims, conj)
    else:
        conj = [
            _mulmod(g[i], _mulmod(maps[i], _inverse(field, g[i + 1]), field.p), field.p)
            for i in range(m - 1)
        ]
        module = CopersistenceModule(field, dims, conj)
    return module, Barcode(bars)
