"""Seeded input generators for the benchmark workloads.

Everything here is plain Python on vertex tuples and writes the JSON and
CSV formats the persheaf CLI reads; nothing imports the package under
test, so a change to the package cannot change the inputs it is given.

Run-to-run spread across seeds comes mostly from how large each
Vietoris-Rips complex turns out, so every cloud is moved, one seeded
point at a time, until its simplex counts per filtration step are
pinned to the workload's targets (see sized_cloud).
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

P_LARGEST = 2**31 - 1
MAX_DRAWS = 1000
# Rank draws are independent, so a window as narrow as the cloud's would
# take thousands of draws for some seeds.
RANK_TOLERANCE = 0.02
MAX_MOVES = 5000
RESTARTS = 20


def _entry(d, thresholds):
    """Index of the first threshold >= d, or None past the last."""
    for idx, t in enumerate(thresholds):
        if d <= t:
            return idx
    return None


def vietoris_rips(points, thresholds, max_dim):
    """[(vertices, entry)] in (dim, vertices) order; a simplex enters at the
    first threshold covering its diameter.  max_dim is 1 or 2."""
    n = len(points)
    edge = {}
    for u, v in combinations(range(n), 2):
        e = _entry(math.dist(points[u], points[v]), thresholds)
        if e is not None:
            edge[(u, v)] = e
    simplices = [((v,), 0) for v in range(n)]
    simplices += sorted(edge.items())
    if max_dim >= 2:
        nbrs = {v: set() for v in range(n)}
        for u, v in edge:
            nbrs[u].add(v)
        tris = []
        for (u, v), e_uv in sorted(edge.items()):
            for w in sorted(nbrs[u] & nbrs[v]):
                if w > v:
                    tris.append(((u, v, w), max(e_uv, edge[(u, w)], edge[(v, w)])))
        simplices += tris
    return simplices


def counts_by_dim(simplices):
    out = {}
    for vs, _ in simplices:
        out[len(vs) - 1] = out.get(len(vs) - 1, 0) + 1
    return [out[k] for k in sorted(out)]


def _sid(vs):
    return ".".join(str(v) for v in vs)


def _cloud(rng, n):
    return [(rng.random(), rng.random()) for _ in range(n)]


class _Cloud:
    """Points in the unit square with simplex counts per (dim, entry), kept
    up to date as single points move."""

    def __init__(self, points, thresholds, max_dim):
        self.points = list(points)
        self.thresholds = thresholds
        self.max_dim = max_dim
        self.counts = {}
        n = len(self.points)
        self.edge = [[None] * n for _ in range(n)]
        for u, v in combinations(range(n), 2):
            e = _entry(math.dist(self.points[u], self.points[v]), thresholds)
            self.edge[u][v] = self.edge[v][u] = e
        self.counts[(0, 0)] = n
        for u in range(n):
            self._tally(u, +1, only_higher=True)

    def _tally(self, u, sign, only_higher=False):
        """Add (sign=+1) or remove the edges and triangles at vertex u."""
        row = self.edge[u]
        nbrs = [v for v, e in enumerate(row) if e is not None and (v > u or not only_higher)]
        for v in nbrs:
            key = (1, row[v])
            self.counts[key] = self.counts.get(key, 0) + sign
        if self.max_dim < 2:
            return
        for i, v in enumerate(nbrs):
            ev = self.edge[v]
            for w in nbrs[i + 1:]:
                if ev[w] is not None:
                    key = (2, max(row[v], row[w], ev[w]))
                    self.counts[key] = self.counts.get(key, 0) + sign

    def move(self, u, point):
        self._tally(u, -1)
        self.points[u] = point
        for v in range(len(self.points)):
            if v != u:
                e = _entry(math.dist(point, self.points[v]), self.thresholds)
                self.edge[u][v] = self.edge[v][u] = e
        self._tally(u, +1)


def _miss(counts, target):
    return sum(abs(counts.get(k, 0) - t) / t for k, t in target.items())


def sized_cloud(rng, n, thresholds, max_dim, target, tolerance):
    """A seeded cloud whose simplex count per (dim, entry) is near target.

    Starts from n uniform points and moves one point at a time to a new
    uniform position, keeping a move unless it takes the counts further
    from target, until every count is within tolerance (a share, at least
    one simplex) of its target.  The seed still decides the geometry, and
    hence the homology and every bar; pinning the counts per filtration
    step keeps the work per job nearly the same from seed to seed.
    """
    target = {tuple(map(int, k.split(","))): t for k, t in target.items()}
    for _ in range(RESTARTS):
        cloud = _Cloud(_cloud(rng, n), thresholds, max_dim)
        miss = _miss(cloud.counts, target)
        for _ in range(MAX_MOVES):
            if all(abs(cloud.counts.get(k, 0) - t) <= max(1, tolerance * t)
                   for k, t in target.items()):
                return cloud.points, vietoris_rips(cloud.points, thresholds, max_dim)
            u = rng.randrange(n)
            old = cloud.points[u]
            if rng.random() < 0.5:
                new = (rng.random(), rng.random())
            else:
                new = tuple(min(1.0, max(0.0, c + rng.gauss(0, 0.02))) for c in old)
            cloud.move(u, new)
            new_miss = _miss(cloud.counts, target)
            if new_miss <= miss:
                miss = new_miss
            else:
                cloud.move(u, old)
    raise RuntimeError(f"no cloud of {n} points reached the simplex counts {target}")


def complex_data(simplices, steps, p):
    return {
        "field": p,
        "steps": steps,
        "simplices": [
            {"id": _sid(vs), "vertices": list(vs), "entry": e} for vs, e in simplices
        ],
    }


def _codim1_pairs(simplices):
    present = {vs for vs, _ in simplices}
    for vs, _ in simplices:
        if len(vs) > 1:
            for i in range(len(vs)):
                face = vs[:i] + vs[i + 1:]
                if face in present:
                    yield face, vs


def constant_sheaf_data(simplices):
    """Rank-1 constant sheaf: every stalk F, every restriction the identity."""
    return {
        "stalks": {_sid(vs): 1 for vs, _ in simplices},
        "restrictions": [
            {"face": _sid(f), "coface": _sid(t), "matrix": [[1]]}
            for f, t in _codim1_pairs(simplices)
        ],
    }


def _inclusion(rows, cols):
    """The first cols coordinates of F^rows, as a rows x cols 0/1 matrix."""
    return [[1 if r == c else 0 for c in range(cols)] for r in range(rows)]


def nested_ranks(rng, simplices, snapshots, top):
    """Stalk ranks r[i][simplex] rising along cofaces and across snapshots.

    A coface's rank is at least each face's, and snapshot i+1 is at
    least snapshot i, so the first-r coordinate subspaces of F^top form
    a stalkwise-injective diagram of subsheaves of the constant sheaf.
    """
    ranks = []
    prev = None
    for i in range(snapshots):
        r = {}
        for vs, _ in simplices:
            own = rng.choice((0, 0, 1, 1, 2)) + i // 2
            floor = prev[vs] if prev else 0
            if len(vs) > 1:
                floor = max([floor] + [r[vs[:j] + vs[j + 1:]] for j in range(len(vs))])
            r[vs] = min(top, max(floor, own))
        ranks.append(r)
        prev = r
    return ranks


def diagram_data(simplices, steps, ranks, p):
    """Subsheaves of a constant sheaf joined by coordinate inclusions."""
    snapshots = []
    for r in ranks:
        snapshots.append(
            {
                "stalks": {_sid(vs): r[vs] for vs, _ in simplices},
                "restrictions": [
                    {
                        "face": _sid(f),
                        "coface": _sid(t),
                        "matrix": _inclusion(r[t], r[f]),
                    }
                    for f, t in _codim1_pairs(simplices)
                    if r[f] and r[t]
                ],
            }
        )
    step_maps = []
    for a, b in zip(ranks, ranks[1:]):
        step_maps.append(
            {_sid(vs): _inclusion(b[vs], a[vs]) for vs, _ in simplices if a[vs] and b[vs]}
        )
    return {
        "complex": complex_data(simplices, steps, p),
        "snapshots": snapshots,
        "steps": step_maps,
    }


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))


def write_points_csv(path, points, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for (x, y), label in zip(points, labels):
            fh.write(f"{x!r},{y!r},{label}\n")


def backward(workdir, seed, n, thresholds, target, tolerance):
    """Complex and constant rank-1 sheaf over F_2 on a sized VR cloud."""
    rng = random.Random(seed)
    _, simplices = sized_cloud(rng, n, thresholds, 2, target, tolerance)
    write_json(f"{workdir}/complex.json", complex_data(simplices, len(thresholds), 2))
    write_json(f"{workdir}/sheaf.json", constant_sheaf_data(simplices))
    return {
        "points": n,
        "thresholds": thresholds,
        "simplices_by_dim": counts_by_dim(simplices),
        "total_stalk_dim": len(simplices),
    }


def stalk_totals(ranks):
    """Total stalk dimension per simplex dimension, summed over snapshots."""
    out = {}
    for r in ranks:
        for vs, d in r.items():
            out[len(vs) - 1] = out.get(len(vs) - 1, 0) + d
    return [out[k] for k in sorted(out)]


def sized_ranks(rng, simplices, snapshots, top, target):
    """Nested ranks whose totals per dimension are near target, or None
    when MAX_DRAWS draws on this complex miss (some complexes cannot)."""
    for _ in range(MAX_DRAWS):
        ranks = nested_ranks(rng, simplices, snapshots, top)
        if all(abs(c - t) <= RANK_TOLERANCE * t for c, t in zip(stalk_totals(ranks), target)):
            return ranks
    return None


def forward(workdir, seed, n, thresholds, target, tolerance, snapshots, top, stalk_target):
    """Complex and nested-subsheaf diagram over the largest prime."""
    rng = random.Random(seed)
    for _ in range(RESTARTS):
        _, simplices = sized_cloud(rng, n, thresholds, 2, target, tolerance)
        ranks = sized_ranks(rng, simplices, snapshots, top, stalk_target)
        if ranks is not None:
            break
    else:
        raise RuntimeError(f"no diagram reached total stalk dimension {stalk_target}")
    steps = len(thresholds)
    write_json(f"{workdir}/complex.json", complex_data(simplices, steps, P_LARGEST))
    write_json(f"{workdir}/diagram.json", diagram_data(simplices, steps, ranks, P_LARGEST))
    return {
        "points": n,
        "thresholds": thresholds,
        "field": P_LARGEST,
        "snapshots": snapshots,
        "simplices_by_dim": counts_by_dim(simplices),
        "total_stalk_dim": [sum(r.values()) for r in ranks],
    }


def labeled(workdir, seed, n, thresholds, targets, tolerance):
    """One CSV cloud per label count; labels are drawn uniformly per point.

    targets maps a label count to its pinned simplex counts; the cloud's
    complex goes up to the highest dimension its target names.
    """
    rng = random.Random(seed)
    sizes = {"points": n, "thresholds": thresholds}
    for count, target in sorted(targets.items()):
        max_dim = max(int(k.split(",")[0]) for k in target)
        points, simplices = sized_cloud(rng, n, thresholds, max_dim, target, tolerance)
        names = [chr(ord("a") + rng.randrange(count)) for _ in points]
        names[:count] = [chr(ord("a") + i) for i in range(count)]
        write_points_csv(f"{workdir}/points{count}.csv", points, names)
        sizes[f"labels{count}_simplices_by_dim"] = counts_by_dim(simplices)
    return sizes
