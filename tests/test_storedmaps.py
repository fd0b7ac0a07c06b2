"""Round trips of a sheaf's stored maps.

Random sheaves mix stalk sizes and zero stalks, 0 x k and k x 0 maps,
an incidence stored twice (the later map wins, the earlier may have any
shape) and keys that name no simplex or no incidence.  Every well-shaped
stored map must come back from the restriction operator's blocks, and
transposing twice must give back every stored map, shapes included.
"""

import random

import numpy as np
import pytest

from genrandom import random_complex
from persheaf import CellularSheaf, Field, dualize
from persheaf.sheaves import (
    _Batch,
    _codim1_pairs,
    _incidence_maps,
    _Maps,
    _restriction_operator,
)

PRIMES = [2, 3, 2**31 - 1]


def _random_matrix(rng, p, rows, cols):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    ).reshape(rows, cols)


def _random_store(rng, p):
    """A sheaf whose every incidence between nonzero stalks has a
    well-shaped map, stored last, among strays, repeats and zero maps."""
    x = random_complex(rng, Field(p), 14, max_steps=3)
    stalks = {s.id: rng.choice([0, 0, 1, 2, 3]) for s in x.simplices}
    ids = [s.id for s in x.simplices]
    incidences = [(f.id, t.id) for f, t in _codim1_pairs(x)]
    entries = []
    for f, t in incidences:
        shape = (stalks[t], stalks[f])
        if 0 in shape and rng.random() < 0.5:
            continue  # a map touching a zero stalk may be left out
        if rng.random() < 0.25:  # stored twice: this one is replaced
            other = (rng.randint(0, 3), rng.randint(0, 3))
            entries.append((f, t, _random_matrix(rng, p, *other)))
        entries.append((f, t, _random_matrix(rng, p, *shape)))
    for _ in range(rng.randint(0, 3)):
        key = (rng.choice(ids + ["nowhere", "9.9"]), rng.choice(ids + ["0.1.2.3"]))
        if key not in incidences:  # a stray key, stored anywhere in the list
            m = _random_matrix(rng, p, rng.randint(0, 2), rng.randint(0, 2))
            entries.insert(rng.randint(0, len(entries)), (*key, m))
    faces, cofaces, matrices = (list(part) for part in zip(*entries)) if entries else ([], [], [])
    maps = _Maps.named(x, faces, cofaces, _Batch.of(matrices))
    return CellularSheaf(x, stalks, maps)


def _exact(maps: dict) -> list:
    return [(key, m.shape, m.dtype, m.tolist()) for key, m in maps.items()]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(25))
def test_the_operator_blocks_give_back_every_well_shaped_map(p, seed):
    sheaf = _random_store(random.Random(seed), p)
    incidences = {(f.id, t.id) for f, t in _codim1_pairs(sheaf.complex)}
    want = {
        (f, t): m
        for (f, t), m in sheaf._maps.as_dict().items()
        if (f, t) in incidences and m.shape == (sheaf.stalk(t), sheaf.stalk(f))
    }
    got = _incidence_maps(_restriction_operator(sheaf), sheaf).as_dict()
    assert sorted(_exact(got)) == sorted(_exact(want))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(25))
def test_transposing_twice_gives_back_every_stored_map(p, seed):
    sheaf = _random_store(random.Random(seed), p)
    assert _exact(dualize(dualize(sheaf))._maps.as_dict()) == _exact(sheaf._maps.as_dict())
