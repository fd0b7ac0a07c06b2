"""The array-backed complex against the per-simplex references.

FilteredComplex orders, checks and looks up its simplices with numpy
arrays.  tests/perincidence.py walks a plain list of simplices one at a
time instead.  Random complexes, each broken by one mutation, are
built from Simplex objects and through the JSON parser, and the global
order, the face tables and the problem lists are compared with the
references, message for message, at p in {2, 3, 2^31 - 1}.  Built
from parallel lists, a complex makes its Simplex objects on first use:
they match those built from Simplex objects, and no check of the
complex or of a sheaf on it makes one.
"""

import json
import random
from itertools import combinations

import numpy as np
import pytest

import perincidence as ref
from builders import closure
from genrandom import random_complex, random_sheaf
from persheaf import (
    CellularCosheaf,
    CellularSheaf,
    Field,
    FilteredComplex,
    Simplex,
    complexes,
    validate_cosheaf,
    validate_sheaf,
)
from persheaf.formats import complex_from_data

PRIMES = [2, 3, 2**31 - 1]


def _dropped_face(rng, sims, steps):
    faces = [s for s in sims if any(s.dim + 1 == t.dim for t in sims)]
    gone = rng.choice(faces or sims)
    return [s for s in sims if s is not gone], steps


def _repeated_vertex_set(rng, sims, steps):
    # some twins tie with their original on (dimension, entry, vertices),
    # so only a stable sort keeps them in input order
    twins = [
        Simplex(s.id + "'", s.vertices, rng.choice([s.entry, rng.randrange(steps)]))
        for s in rng.sample(sims, rng.randint(1, len(sims)))
    ]
    return sims + twins, steps


def _repeated_id(rng, sims, steps):
    # fresh vertices under old ids; only the first repeat in the global
    # order is named
    top = max(v for t in sims for v in t.vertices)
    olds = rng.sample(sims, rng.randint(1, min(3, len(sims))))
    return sims + [Simplex(s.id, (top + 1 + n,), 0) for n, s in enumerate(olds)], steps


def _entry_past_steps(rng, sims, steps):
    n = rng.randrange(len(sims))
    s = sims[n]
    entry = rng.choice([steps, steps + rng.randrange(5), 2**70])
    return sims[:n] + [Simplex(s.id, s.vertices, entry)] + sims[n + 1:], steps


def _steps_below_one(rng, sims, steps):
    return sims, rng.choice([0, -1, -(2**70)])


def _face_after_coface(rng, sims, steps):
    faces = [n for n, s in enumerate(sims) if any(s.dim + 1 == t.dim for t in sims)]
    n = rng.choice(faces or range(len(sims)))
    s = sims[n]
    return sims[:n] + [Simplex(s.id, s.vertices, steps - 1)] + sims[n + 1:], steps


def _shuffled(rng, sims, steps):
    sims = list(sims)
    rng.shuffle(sims)
    return sims, steps


def _relabeled(rng, sims, steps):
    shift = rng.choice([-5, 2**70, -(2**70)])
    scale = rng.choice([1, 7, 2**40])
    return [
        Simplex(s.id, tuple(scale * v + shift for v in s.vertices), s.entry)
        for s in sims
    ], steps


MUTATIONS = {
    "dropped-face": _dropped_face,
    "repeated-vertex-set": _repeated_vertex_set,
    "repeated-id": _repeated_id,
    "entry-past-steps": _entry_past_steps,
    "steps-below-one": _steps_below_one,
    "face-after-coface": _face_after_coface,
    "shuffled": _shuffled,
    "relabeled": _relabeled,
}


def _data(field, sims, steps):
    return {
        "field": field.p,
        "steps": steps,
        "simplices": [
            {"id": s.id, "vertices": list(s.vertices), "entry": s.entry} for s in sims
        ],
    }


def _assert_matches_reference(x, sims, steps):
    assert [(s.id, s.vertices, s.entry) for s in x.simplices] == [
        (s.id, s.vertices, s.entry) for s in ref.global_order(sims)
    ]
    assert x.validate() == ref.validate_complex(sims, steps)
    for k in range(1, x.dim + 2):
        assert x.face_table(k).tolist() == ref.face_table(sims, k).tolist()
    assert x.vertices == tuple(sorted({v for s in sims for v in s.vertices}))


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("p", PRIMES)
def test_arrays_match_the_per_simplex_walk(p, mutation):
    rng = random.Random(f"{p}-{mutation}")
    field = Field(p)
    for _ in range(12):
        base = random_complex(rng, field, max_simplices=rng.randint(1, 40))
        sims, steps = MUTATIONS[mutation](rng, list(base.simplices), base.steps)
        duplicate = ref.duplicate_id(sims)
        for build in (
            lambda: FilteredComplex(field, sims, steps),
            lambda: complex_from_data(_data(field, sims, steps)),
        ):
            if duplicate is not None:
                with pytest.raises(ValueError) as err:
                    build()
                assert str(err.value) == duplicate
                continue
            _assert_matches_reference(build(), sims, steps)


@pytest.mark.parametrize("packed_limit", [complexes._PACKED, 2])
def test_closure_of_a_7_simplex_matches_the_reference(monkeypatch, packed_limit):
    # with the limit at 2, every row key is taken by numpy's row-wise
    # unique instead of packing: the overflow path
    monkeypatch.setattr(complexes, "_PACKED", packed_limit)
    sims = closure(7, [-(2**70), -5, 0, 3, 2**40, 2**62, 2**63, 2**70])
    assert len(sims) == 255
    for x in (
        FilteredComplex(Field(2), sims),
        complex_from_data(_data(Field(2), sims, 1)),
    ):
        _assert_matches_reference(x, sims, 1)
        assert x.validate() == []


def test_row_keys_order_rows_on_both_paths(monkeypatch):
    rng = random.Random(5)
    rows = np.array([[rng.randrange(4) for _ in range(3)] for _ in range(50)])
    packed = complexes._row_keys(rows)
    monkeypatch.setattr(complexes, "_PACKED", 2)
    ranked = complexes._row_keys(rows)
    as_tuples = [tuple(r) for r in rows.tolist()]
    for keys in (packed, ranked):
        for a, b in combinations(range(len(rows)), 2):
            assert (keys[a] < keys[b]) == (as_tuples[a] < as_tuples[b])
            assert (keys[a] == keys[b]) == (as_tuples[a] == as_tuples[b])


def test_prefix_lengths_count_entries_up_to_each_step():
    rng = random.Random(11)
    sims = [Simplex(str(v), (v,), rng.choice([0, 2, 5, 2**70])) for v in range(30)]
    x = FilteredComplex(Field(2), sims)
    for step in (-1, 0, 1, 2, 4, 5, 2**70 - 1, 2**70, 2**80):
        assert x.prefix_length(0, step) == sum(s.entry <= step for s in sims)
    assert x.prefix_length(1, 2) == 0


BAD_SIMPLICES = [
    ({"id": "bad", "vertices": [3, 1], "entry": 0}, "vertices of 'bad' must be strictly increasing"),
    ({"id": "bad", "vertices": [2, 2], "entry": 0}, "vertices of 'bad' must be strictly increasing"),
    ({"id": "bad", "vertices": [], "entry": 0}, "a simplex needs at least one vertex"),
    ({"id": "bad", "vertices": [9], "entry": -1}, "entry of 'bad' must be nonnegative"),
    ({"id": "bad", "vertices": [2**70, 1], "entry": 0}, "vertices of 'bad' must be strictly increasing"),
]


@pytest.mark.parametrize("bad, message", BAD_SIMPLICES)
def test_parser_refuses_what_simplex_refuses(bad, message):
    with pytest.raises(ValueError) as made:
        Simplex(bad["id"], tuple(bad["vertices"]), bad["entry"])
    assert str(made.value) == message
    good = _data(Field(2), closure(2), 1)
    for at in (0, 3, len(good["simplices"])):
        data = json.loads(json.dumps(good))
        data["simplices"].insert(at, bad)
        with pytest.raises(ValueError) as parsed:
            complex_from_data(data)
        assert str(parsed.value) == message
        # a badly typed simplex before it is named first, one after it is not
        data["simplices"].insert(at + 1, {"id": 7, "vertices": [0], "entry": 0})
        with pytest.raises(ValueError, match=message):
            complex_from_data(data)
        data["simplices"].insert(at, {"id": 7, "vertices": [0], "entry": 0})
        with pytest.raises(ValueError, match=r"\.id: expected a string, got 7"):
            complex_from_data(data)


def test_stored_keys_with_unknown_ids_name_no_incidence():
    x = FilteredComplex(Field(2), closure(2))
    ones = {s.id: 1 for s in x.simplices}
    restr = {(f.id, t.id): np.ones((1, 1), dtype=np.int64) for f, t in ref.codim1_pairs(x)}
    # '0.2' sits right after '0.1', the face of the last simplex '0.1.2'
    restr[("0.2", "nowhere")] = np.zeros((1, 1), dtype=np.int64)
    restr[("nowhere", "0.1.2")] = np.zeros((1, 1), dtype=np.int64)
    assert validate_sheaf(CellularSheaf(x, ones, restr)) == [
        "'0.2' -> 'nowhere' is not a codimension-1 incidence",
        "'nowhere' -> '0.1.2' is not a codimension-1 incidence",
    ]
    inc = x.incidences()
    pairs = [(f.id, t.id) for f, t in ref.codim1_pairs(x)]
    faces, cofaces = zip(*pairs, ("0.2", "nowhere"), ("nowhere", "0.1.2"), ("0", "0.1.2"))
    located = inc.locate(x.positions(faces), x.positions(cofaces))
    assert located.tolist() == list(range(len(pairs))) + [-1, -1, -1]


def test_omitted_stalks_are_zero():
    x = FilteredComplex(Field(2), closure(2))
    sheaf = CellularSheaf(x, {"0": 2}, {})
    assert sheaf.stalk_dim == {s.id: 2 if s.id == "0" else 0 for s in x.simplices}
    assert sheaf._sizes.tolist() == [2, 0, 0, 0, 0, 0, 0]


def _lists(sims):
    """The simplices as the parser hands them over: parallel lists."""
    return complexes._SimplexLists(
        [s.id for s in sims], [list(s.vertices) for s in sims], [s.entry for s in sims]
    )


def _relabeled_by(sims, shift, scale):
    return [
        Simplex(s.id, tuple(scale * v + shift for v in s.vertices), s.entry) for s in sims
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_simplex_objects_are_made_on_first_use(p):
    # labels past int64 take _ranked's fallback; negative ones rank below 0
    rng = random.Random(f"{p}-lazy")
    field = Field(p)
    for shift, scale in [(0, 1), (-5, 1), (-(2**70), 7), (2**70, 2**40)]:
        for _ in range(8):
            base = random_complex(rng, field, max_simplices=rng.randint(1, 40))
            sims, steps = _shuffled(rng, _relabeled_by(base.simplices, shift, scale), base.steps)
            if rng.random() < 0.5:
                sims, steps = _repeated_vertex_set(rng, sims, steps)
            given = FilteredComplex(field, sims, steps)
            lists = FilteredComplex(field, _lists(sims), steps)
            parsed = complex_from_data(_data(field, sims, steps))
            assert "_order" not in vars(lists)
            # past int64 the parser checks each simplex as a Simplex, and keeps it
            assert ("_order" in vars(parsed)) == (abs(shift) >= 2**63)
            for x in (lists, parsed):
                assert x.simplices == given.simplices
                assert x.by_id == given.by_id
                for k in range(-1, x.dim + 2):
                    assert x.simplices_of_dim(k) == given.simplices_of_dim(k)
                assert all(
                    type(v) is int and type(s.entry) is int
                    for s in x.simplices for v in s.vertices
                )
                assert "_order" in vars(x)
            # objects passed in come back as themselves
            assert sorted(map(id, given.simplices)) == sorted(map(id, sims))
            assert all(given.by_id[s.id] is s for s in sims)
            for k in range(given.dim + 1):
                assert all(given.by_id[s.id] is s for s in given.simplices_of_dim(k))


def _broken_stores(rng, x):
    """(stalks, maps) of a valid random sheaf on x, then of copies with
    missing, mis-shaped and stray maps and stray stalks."""
    sheaf = random_sheaf(rng, x, max_total=4)
    stalks, restr = sheaf.stalk_dim, sheaf._maps.as_dict()
    yield stalks, restr
    keys = sorted(restr)
    if keys:
        dropped = set(rng.sample(keys, min(2, len(keys))))
        yield stalks, {k: m for k, m in restr.items() if k not in dropped}
        key = rng.choice(keys)
        yield stalks, {**restr, key: np.vstack([restr[key], restr[key][:1]])}
    vertices, edges = x.simplices_of_dim(0), x.simplices_of_dim(1)
    stray = dict(restr)
    one = np.zeros((1, 1), dtype=np.int64)
    for v in vertices:
        stray[(v.id, v.id)] = stray[("nowhere", v.id)] = stray[(v.id, "nowhere")] = one
        for e in edges:
            if v.vertices[0] not in e.vertices:
                stray[(v.id, e.id)] = stray[(e.id, v.id)] = one
    yield stalks, stray
    yield {**stalks, "nope": 1, "gone": 0}, restr


@pytest.mark.parametrize("p", PRIMES)
def test_problems_are_worded_without_simplex_objects(p):
    """Every problem message of a complex, a sheaf and a cosheaf built
    from parallel lists is the reference's, and none made a Simplex."""
    rng = random.Random(f"{p}-worded")
    field = Field(p)
    kinds = set()
    for mutation in sorted(MUTATIONS):
        for _ in range(6):
            base = random_complex(rng, field, max_simplices=rng.randint(1, 40))
            sims, steps = MUTATIONS[mutation](rng, list(base.simplices), base.steps)
            duplicate = ref.duplicate_id(sims)
            for build in (
                lambda: FilteredComplex(field, _lists(sims), steps),
                lambda: complex_from_data(_data(field, sims, steps)),
            ):
                if duplicate is not None:
                    with pytest.raises(ValueError) as err:
                        build()
                    assert str(err.value) == duplicate
                    kinds.add("duplicate")
                    continue
                x = build()
                had = "_order" in vars(x)  # as the parser keeps them past int64
                got = x.validate()
                assert ("_order" in vars(x)) == had
                assert got == ref.validate_complex(sims, steps)
                kinds.update(m.split(" ")[0] for m in got)
    for _ in range(10):
        base = random_complex(rng, field, max_simplices=rng.randint(2, 40))
        for stalks, restr in _broken_stores(rng, base):
            x = FilteredComplex(field, _lists(base.simplices), base.steps)
            sheaf = CellularSheaf(x, stalks, restr)
            ext = {(t, f): m.T for (f, t), m in restr.items()}
            cosheaf = CellularCosheaf(x, stalks, ext)
            got, co_got = validate_sheaf(sheaf), validate_cosheaf(cosheaf)
            assert "_order" not in vars(x)
            assert got == ref.validate_sheaf(CellularSheaf(base, stalks, restr))
            assert co_got == ref.validate_cosheaf(CellularCosheaf(base, stalks, ext))
            kinds.update(word for m in got + co_got for word in m.split(" "))
    assert {"duplicate", "simplices", "entry", "missing", "restriction", "extension"} <= kinds
    assert {"shape", "codimension-1", "stalk"} <= kinds
