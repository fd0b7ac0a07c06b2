"""Differential fuzz test of the restriction parser.

The restriction lists of small random sheaves are mutated (fields
dropped or retyped, cells of every JSON type, ragged and resized
matrices, zero stalks, repeated incidences, ids that name no simplex,
simplex pairs that are no incidence) and read both by
formats.sheaf_from_data and by the one-entry-at-a-time reference of
perentry.py.  The two must raise the same ValueError message, or store
the same maps under the same keys in the same order and report the
same validate_sheaf problems.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import perentry
from genrandom import random_complex, random_sheaf
from persheaf import Field, validate_sheaf
from persheaf.formats import sheaf_from_data, sheaf_to_data

PRIMES = [2, 3, 2**31 - 1]

# JSON values of every type, for fields and for matrix cells
JUNK = [
    True, False, None, 1.5, 2.0, "1", "", 0, -1, 7,
    2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, 2**70,
    [], [1], [[1]], {}, {"a": 1},
]
STRAYS = ["nowhere", "0.9", "9", "0.1.2.3"]


def _entry(data, entries):
    """Some restriction entry, or None when there is none."""
    if not entries:
        return None
    return entries[data.draw(st.integers(0, len(entries) - 1))]


def _rows(entry):
    """The matrix of an entry when it is a list of lists, else None."""
    if not isinstance(entry, dict):
        return None
    m = entry.get("matrix")
    if isinstance(m, list) and all(isinstance(row, list) for row in m):
        return m
    return None


def _mutate(data, x, sheaf_data):
    entries = sheaf_data["restrictions"]
    ids = [s.id for s in x.simplices]
    kind = data.draw(st.sampled_from([
        "drop", "retype", "entry", "cell", "ragged", "resize", "empty",
        "zero-stalk", "repeat", "stray", "pair", "swap",
    ]))
    entry = _entry(data, entries)
    if kind == "zero-stalk":
        sheaf_data["stalks"][data.draw(st.sampled_from(ids))] = 0
    elif kind == "repeat" and entry is not None:
        twin = copy.deepcopy(entry)
        m = _rows(twin)
        if m is not None and data.draw(st.booleans()):
            # the same incidence with another shape
            if m and data.draw(st.booleans()):
                m.pop()
            else:
                m.append([1] * (len(m[0]) if m else 1))
        entries.insert(data.draw(st.integers(0, len(entries))), twin)
    elif kind == "entry" and entries:
        at = data.draw(st.integers(0, len(entries) - 1))
        entries[at] = data.draw(st.sampled_from([None, 1, "face", [], [1], True]))
    elif not isinstance(entry, dict):
        return
    elif kind == "drop":
        entry.pop(data.draw(st.sampled_from(["face", "coface", "matrix"])), None)
    elif kind == "retype":
        key = data.draw(st.sampled_from(["face", "coface", "matrix"]))
        entry[key] = data.draw(st.sampled_from(JUNK))
    elif kind in ("stray", "pair"):
        key = data.draw(st.sampled_from(["face", "coface"]))
        pool = STRAYS if kind == "stray" else ids
        entry[key] = data.draw(st.sampled_from(pool))
    elif kind == "swap":
        entry["face"], entry["coface"] = entry.get("coface"), entry.get("face")
    elif kind == "empty":
        rows = data.draw(st.integers(0, 3))
        entry["matrix"] = [[] for _ in range(rows)]
    else:
        m = _rows(entry)
        if not m:
            return
        row = m[data.draw(st.integers(0, len(m) - 1))]
        if kind == "cell" and row:
            at = data.draw(st.integers(0, len(row) - 1))
            row[at] = data.draw(st.sampled_from(JUNK))
        elif kind == "ragged":
            if row and data.draw(st.booleans()):
                row.pop()
            else:
                row.append(0)
        elif kind == "resize":
            how = data.draw(st.sampled_from(["add row", "drop row", "add col", "drop col"]))
            if how == "add row":
                m.append(list(m[0]))
            elif how == "drop row":
                m.pop()
            else:
                for r in m:
                    if how == "add col":
                        r.append(0)
                    elif r:
                        r.pop()


def _outcome(read, sheaf_data, x):
    """The ValueError message, or the stored maps and problem list."""
    try:
        sheaf = read(copy.deepcopy(sheaf_data), x)
    except ValueError as err:
        return str(err)
    maps = [(key, m.shape, m.dtype, m.tolist()) for key, m in sheaf._maps.as_dict().items()]
    return maps, validate_sheaf(sheaf)


@pytest.mark.parametrize("p", PRIMES)
@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_bulk_parser_matches_the_per_entry_reader(p, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    x = random_complex(rng, Field(p), 12, max_steps=3)
    sheaf_data = sheaf_to_data(random_sheaf(rng, x), embed_complex=False)
    for _ in range(data.draw(st.integers(0, 4))):
        _mutate(data, x, sheaf_data)
    got = _outcome(sheaf_from_data, sheaf_data, x)
    assert got == _outcome(perentry.sheaf_from_data, sheaf_data, x)
