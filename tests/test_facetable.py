"""The face-table walker against the per-incidence references.

Every check and every assembled map the package reads from
FilteredComplex.face_table is compared with tests/perincidence.py,
which walks faces() and the public accessors one incidence at a time:
the tables themselves, the incidence order, the diamonds, the
(co)boundaries entry for entry, and the problem lists of broken
inputs string for string, at p in {2, 3, 2^31 - 1}.
"""

import random
from itertools import combinations

import numpy as np
import pytest

import perincidence as ref
from builders import dense_map
from genrandom import random_complex, random_monomorphic_diagram, random_sheaf
from persheaf import (
    CellularCosheaf,
    CellularSheaf,
    ChainComplex,
    CochainComplex,
    Field,
    FilteredComplex,
    GradedCosheaf,
    GradedSheaf,
    SheafMorphism,
    Simplex,
    constant,
    dualize,
    graded_chain_complex,
    graded_cochain_complex,
    validate_cosheaf,
    validate_graded_cosheaf,
    validate_graded_sheaf,
    validate_morphism,
    validate_sheaf,
)
from persheaf.sheaves import _codim1_pairs, _diamond_problems
from persheaf.typet import _check_input, filtration_cosheaf

PRIMES = [2, 3, 2**31 - 1]


def full_simplex(field, n, top):
    """Every face of dimension <= top of the simplex on n vertices."""
    return FilteredComplex(field, [
        Simplex(".".join(map(str, vs)), vs, 0)
        for d in range(top + 1)
        for vs in combinations(range(n), d + 1)
    ])


def complexes(p, count):
    """Random complexes up to dimension 2, then one of dimension 3."""
    rng = random.Random(p)
    field = Field(p)
    out = [random_complex(rng, field, max_simplices=20) for _ in range(count)]
    out.append(full_simplex(field, 5, 3))
    return rng, out


def scrambled(rng, sheaf, count):
    """The sheaf with count stored maps replaced by random ones."""
    p = sheaf.complex.field.p
    restr = sheaf._maps.as_dict()
    for key in rng.sample(sorted(restr), min(count, len(restr))):
        shape = restr[key].shape
        restr[key] = np.array(
            [rng.randrange(p) for _ in range(shape[0] * shape[1])], dtype=np.int64
        ).reshape(shape)
    return CellularSheaf(sheaf.complex, sheaf.stalk_dim, restr)


def same(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_face_tables_list_the_faces(p):
    _, xs = complexes(p, 8)
    for x in xs:
        for k in range(1, x.dim + 1):
            table = x.face_table(k)
            assert table.shape == (len(x.simplices_of_dim(k)), k + 1)
            faces = x.simplices_of_dim(k - 1)
            for t, row in zip(x.simplices_of_dim(k), table.tolist()):
                assert [faces[i] for i in row] == ref.faces(x, t)
        assert list(_codim1_pairs(x)) == list(ref.codim1_pairs(x))
        inc = x.incidences()
        ids = x._ids
        numbered = zip(inc.face.tolist(), inc.coface.tolist())
        assert [(ids[f], ids[t]) for f, t in numbered] == [
            (f.id, t.id) for f, t in ref.codim1_pairs(x)
        ]


def test_face_table_of_a_complex_with_holes():
    x = full_simplex(Field(2), 4, 2)
    holed = FilteredComplex(
        x.field, [s for s in x.simplices if s.id not in ("1", "0.2")]
    )
    for k in (1, 2):
        faces = holed.simplices_of_dim(k - 1)
        for t, row in zip(holed.simplices_of_dim(k), holed.face_table(k).tolist()):
            for i, at in enumerate(row):
                fv = t.vertices[:i] + t.vertices[i + 1:]
                if fv in holed.by_vertices:
                    assert faces[at].vertices == fv
                else:
                    assert at == -1
    inc = holed.incidences()
    assert (inc.face < 0).sum() == 3 + 2
    with pytest.raises(ValueError, match=r"missing face \[1\] of '0.1'"):
        inc.check_closed()
    with pytest.raises(ValueError, match="missing face"):
        list(_codim1_pairs(holed))


@pytest.mark.parametrize("p", PRIMES)
def test_every_diamond_in_order(p):
    # unit stalks with random entries: at p > 3 nearly every diamond
    # fails, so the failures list the diamonds themselves
    rng, xs = complexes(p, 6)
    listed = 0
    for x in xs:
        ones = {s.id: 1 for s in x.simplices}
        restr = {
            (f.id, t.id): np.array([[rng.randrange(1, p)]])
            for f, t in ref.codim1_pairs(x)
        }
        sheaf = CellularSheaf(x, ones, restr)
        want = [
            d for d in ref.diamonds(x)
            if (restr[(d[1].id, d[3].id)] * restr[(d[0].id, d[1].id)]
                - restr[(d[2].id, d[3].id)] * restr[(d[0].id, d[2].id)]) % p
        ]
        # 1 x 1 maps commute, so the dual's diamonds fail where the sheaf's do
        for stalks in (sheaf, dualize(sheaf)):
            assert _diamond_problems(stalks) == [
                f"diamond {a.id!r} -> {b.id!r} does not commute"
                f" (via {ra.id!r} vs {rb.id!r})"
                for s, ra, rb, t in want
                for a, b in [(t, s) if stalks._down else (s, t)]
            ]
        listed += len(want)
    if p > 3:
        assert listed > len(list(ref.diamonds(xs[-1])))


@pytest.mark.parametrize("p", PRIMES)
def test_assembled_maps_match_block_by_block(p):
    rng, xs = complexes(p, 8)
    for x in xs:
        sheaf = random_sheaf(rng, x, max_total=4)
        cc = CochainComplex(sheaf)
        for k, d in enumerate(ref.coboundaries(sheaf)):
            assert same(dense_map(cc, k), d)
        co = dualize(sheaf)
        ch = ChainComplex(co)
        for k, d in enumerate(ref.boundaries(co)):
            assert same(dense_map(ch, k + 1), d)
        degrees = {
            sid: tuple(sorted(rng.randrange(3) for _ in range(n)))
            for sid, n in sheaf.stalk_dim.items()
        }
        # degrees that never rise from a face to its coface, so every
        # t-power is nonnegative
        falling = {
            s.id: (x.dim - s.dim,) * sheaf.stalk(s.id) for s in x.simplices
        }
        gs = GradedSheaf(x, falling, sheaf._maps.as_dict())
        gc = graded_cochain_complex(gs)
        for k, d in enumerate(ref.graded_scalars(gs)):
            assert same(dense_map(gc, k), d)
        gco = filtration_cosheaf(sheaf)
        gch = graded_chain_complex(gco)
        for k, d in enumerate(ref.graded_scalars(gco)):
            assert same(dense_map(gch, k + 1), d)
        mixed = GradedSheaf(x, degrees, sheaf._maps.as_dict())
        assert validate_graded_sheaf(mixed) == ref.checked_graded_maps(mixed)[1]


def broken_sheaves(rng, x):
    """A valid sheaf, then copies with one kind of fault each."""
    sheaf = random_sheaf(rng, x, max_total=4)
    restr = sheaf._maps.as_dict()
    yield sheaf
    yield scrambled(rng, sheaf, 3)
    keys = sorted(restr)
    if keys:
        dropped = dict(restr)
        for key in rng.sample(keys, min(2, len(keys))):
            del dropped[key]
        yield CellularSheaf(x, sheaf.stalk_dim, dropped)
        reshaped = dict(restr)
        key = rng.choice(keys)
        reshaped[key] = np.vstack([restr[key], restr[key][:1]])
        yield CellularSheaf(x, sheaf.stalk_dim, reshaped)
    bogus = dict(restr)
    v = x.simplices_of_dim(0)[0].id
    bogus[(v, v)] = np.zeros((1, 1), dtype=np.int64)
    bogus[("nowhere", v)] = np.zeros((1, 1), dtype=np.int64)
    yield CellularSheaf(x, sheaf.stalk_dim, bogus)
    yield CellularSheaf(x, {**sheaf.stalk_dim, "nope": 1, "gone": 0}, restr)


@pytest.mark.parametrize("p", PRIMES)
def test_problem_lists_of_broken_inputs(p):
    rng, xs = complexes(p, 8)
    seen, co_seen, graded_seen, graded_co_seen = set(), set(), set(), set()
    for x in xs:
        for sheaf in broken_sheaves(rng, x):
            got = validate_sheaf(sheaf)
            assert got == ref.validate_sheaf(sheaf)
            seen.update(m.split(" ")[0] for m in got)
            ext = {(t, f): m.T for (f, t), m in sheaf._maps.as_dict().items()}
            co = CellularCosheaf(x, sheaf.stalk_dim, ext)
            got = validate_cosheaf(co)
            assert got == ref.validate_cosheaf(co)
            co_seen.update(word for m in got for word in m.split(" "))
            # all degrees 0, so only the shapes and the diamonds can
            # fail, then random degrees with negative t-powers
            for top in (1, 3):
                degrees = {
                    sid: tuple(rng.randrange(top) for _ in range(n))
                    for sid, n in sheaf.stalk_dim.items()
                }
                graded = GradedSheaf(x, degrees, sheaf._maps.as_dict())
                got = validate_graded_sheaf(graded)
                assert got == ref.checked_graded_maps(graded)[1]
                graded_seen.update(word for m in got for word in m.split(" "))
                graded = GradedCosheaf(x, degrees, ext)
                got = validate_graded_cosheaf(graded)
                assert got == ref.checked_graded_maps(graded)[1]
                graded_co_seen.update(word for m in got for word in m.split(" "))
    assert {"diamond", "missing", "restriction", "'nowhere'", "stalk"} <= seen
    assert {"diamond", "missing", "extension", "'nowhere'"} <= co_seen
    every_kind = {"diamond", "missing", "shape", "t-power", "'nowhere'"}
    assert every_kind <= graded_seen
    assert every_kind <= graded_co_seen


def problem_kind(problem):
    if problem.startswith("diamond"):
        return "diamond"
    return "t-power" if problem.endswith("t-power") else "store"


@pytest.mark.parametrize("p", PRIMES)
def test_graded_assembly_refuses_what_the_validator_reports(p):
    # the assembly checks only the store: a negative t-power is left to
    # HomogeneousMatrix and a broken diamond to the complex's dd = 0
    rng, xs = complexes(p, 8)
    outcomes = set()
    for x in xs:
        for sheaf in broken_sheaves(rng, x):
            restr = sheaf._maps.as_dict()
            ext = {(t, f): m.T for (f, t), m in restr.items()}
            stalks = {**sheaf.stalk_dim, **dict.fromkeys(sheaf._stray, 1)}
            for kind, maps in ((GradedSheaf, restr), (GradedCosheaf, ext)):
                for ordered in (True, False):
                    # ordered degrees never rise along a map, so only
                    # the store and the diamonds can fail; random ones
                    # often need a negative t-power
                    degrees = {}
                    for sid, n in stalks.items():
                        dim = x.by_id[sid].dim if sid in x.by_id else 0
                        step = dim if kind is GradedCosheaf else x.dim - dim
                        degrees[sid] = tuple(
                            3 * step + rng.randrange(3) if ordered
                            else rng.randrange(3 * x.dim + 3)
                            for _ in range(n)
                        )
                    graded = kind(x, degrees, maps)
                    problems = validate_graded_sheaf(graded)
                    try:
                        graded_cochain_complex(graded)
                    except ValueError:
                        assert problems, (kind, degrees)
                    else:
                        assert problems == [], (kind, degrees, problems)
                    outcomes.add(frozenset(map(problem_kind, problems)))
    # refused for broken diamonds alone, for negative t-powers alone and
    # for the store alone, and accepted
    assert {frozenset({k}) for k in ("diamond", "t-power", "store")} < outcomes
    assert frozenset() in outcomes


@pytest.mark.parametrize("p", PRIMES)
def test_naturality_matches_per_incidence_loop(p):
    rng = random.Random(p + 1)
    field = Field(p)
    checked = failed = 0
    while checked < 12:
        x = random_complex(rng, field, max_simplices=16)
        diagram = random_monomorphic_diagram(rng, x, length=2, max_total=4)
        phi = diagram.steps[0]
        assert validate_morphism(phi) == ref.validate_morphism(phi) == []
        comps = {s.id: phi.component(s.id) for s in x.simplices}
        for sid in rng.sample(sorted(comps), min(3, len(comps))):
            shape = comps[sid].shape
            comps[sid] = np.array(
                [rng.randrange(p) for _ in range(shape[0] * shape[1])], dtype=np.int64
            ).reshape(shape)
        broken = SheafMorphism(phi.source, phi.target, comps)
        want = ref.validate_morphism(broken)
        assert validate_morphism(broken) == want
        failed += bool(want)
        checked += 1
        ghost = SheafMorphism(phi.source, phi.target, {**comps, "ghost": [[1]]})
        want = ref.validate_morphism(ghost)
        assert validate_morphism(ghost) == want
        assert "component stored under 'ghost', which names no simplex" in want
    assert failed > 3


def test_naturality_skips_maps_the_sheaves_lack():
    x = full_simplex(Field(3), 3, 2)
    whole = constant(x, 1)
    restr = whole._maps.as_dict()
    del restr[("0", "0.1")]
    lacking = CellularSheaf(x, whole.stalk_dim, restr)
    phi = SheafMorphism(lacking, whole, {s.id: np.eye(1, dtype=np.int64) for s in x.simplices})
    assert validate_sheaf(lacking) == ["missing restriction for '0' -> '0.1'"]
    assert validate_morphism(phi) == []


HOLES = {
    "vertex": {"2"},
    "edge": {"1.3"},
    "triangle": {"0.2.4"},
    "two-edges": {"0.1", "2.3"},
}


@pytest.mark.parametrize("p", PRIMES)
def test_holed_validation_matches_per_incidence_loops(p):
    # the full 4-simplex with simplices dropped, its faces left as
    # holes: identity restrictions with a few random ones commute on
    # some diamonds and not on others, and so do identity components
    # with a few random ones across the incidences
    rng = random.Random(31 + p % 1000)
    x = full_simplex(Field(p), 5, 4)
    failures = 0
    for name, dropped in HOLES.items():
        holed = FilteredComplex(x.field, [s for s in x.simplices if s.id not in dropped])
        stalks = {s.id: rng.choice([1, 2, 2]) for s in holed.simplices}

        def rand(rows, cols):
            return np.array(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
            ).reshape(rows, cols)

        def eye(rows, cols):
            return np.eye(rows, cols, dtype=np.int64)

        restr = {
            (f.id, t.id): (rand if rng.random() < 0.2 else eye)(stalks[t.id], stalks[f.id])
            for f, t in ref.present_pairs(holed)
        }
        assert len(restr) < len(list(ref.codim1_pairs(x)))
        sheaf = CellularSheaf(holed, stalks, restr)
        co = dualize(sheaf)
        want = ref.diamond_problems(sheaf, lambda f, t: sheaf.restriction(f.id, t.id))
        assert validate_sheaf(sheaf) == want, name
        co_want = ref.diamond_problems(co, lambda f, t: co.extension(t.id, f.id))
        assert validate_cosheaf(co) == co_want, name
        comps = {
            s.id: (rand if rng.random() < 0.2 else eye)(stalks[s.id], stalks[s.id])
            for s in holed.simplices
        }
        phi = SheafMorphism(sheaf, sheaf, comps)
        natural = ref.validate_morphism(phi)
        assert validate_morphism(phi) == natural, name
        assert all(m.startswith("naturality fails") for m in natural)
        failures += len(want) + len(co_want) + len(natural)
    assert failures > 0


def test_validation_and_assembly_read_no_restriction_one_by_one(monkeypatch):
    rng = random.Random(5)
    x = full_simplex(Field(5), 6, 3)
    sheaf = random_sheaf(rng, x, max_total=3)
    calls = []
    original = CellularSheaf.restriction

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CellularSheaf, "restriction", counted)
    assert validate_sheaf(sheaf) == []
    CochainComplex(sheaf, validate=False)
    CochainComplex(sheaf)
    assert calls == []
    assert len(list(ref.diamonds(x))) > 0


@pytest.mark.parametrize(
    "dropped, first",
    [
        (lambda s: s.id == "2", r"\[2\] of '0.2'"),
        # no edges: the edges' face table has no rows, and every face of
        # the triangle is a hole
        (lambda s: s.dim == 1, r"\[1, 2\] of '0.1.2'"),
    ],
    ids=["vertex", "every-edge"],
)
def test_library_validators_refuse_missing_faces_with_value_error(dropped, first):
    x = full_simplex(Field(2), 3, 2)
    holed = FilteredComplex(x.field, [s for s in x.simplices if not dropped(s)])
    stalks = {s.id: 1 for s in holed.simplices}
    restr = {
        (f.id, t.id): np.eye(1, dtype=np.int64)
        for t in holed.simplices if t.dim
        for f in (holed.by_vertices.get(t.vertices[:i] + t.vertices[i + 1:])
                  for i in range(len(t.vertices)))
        if f is not None
    }
    sheaf = CellularSheaf(holed, stalks, restr)
    assert validate_sheaf(sheaf) == []
    assert validate_cosheaf(dualize(sheaf)) == []
    degrees = {sid: (0,) for sid in stalks}
    ext = {(t, f): m.T for (f, t), m in restr.items()}
    assert validate_graded_sheaf(GradedSheaf(holed, degrees, restr)) == []
    assert validate_graded_cosheaf(GradedCosheaf(holed, degrees, ext)) == []
    with pytest.raises(ValueError, match="missing face " + first):
        _check_input(sheaf)
    with pytest.raises(ValueError, match="missing face"):
        CochainComplex(sheaf)
    with pytest.raises(ValueError, match="missing face"):
        constant(holed, 1)
