import random

import pytest

from persheaf import (
    Barcode,
    Field,
    FilteredComplex,
    Simplex,
    barcodes_equal,
    cohomology_basis,
    constant,
    filtration_cosheaf,
    g_chain,
    mirrored_g_diagram,
    persistent_cohomology,
    reflect,
    type_t_direct,
    type_t_graded,
    validate_diagram,
    validate_graded_cosheaf,
    validate_morphism,
    validate_sheaf,
)

from builders import square_filtration
from perstep import pullback_chain
from genrandom import random_complex, random_sheaf
from oracles import persistence_bars
from perincidence import faces

F2 = Field(2)


def test_square_barcodes():
    sheaf = constant(square_filtration(), 1)
    mod0, bc0 = type_t_direct(sheaf, 0)
    assert mod0.dims == (4, 3, 2, 1)
    assert bc0 == Barcode([(0, None), (0, 2), (0, 1), (0, 0)])
    mod1, bc1 = type_t_direct(sheaf, 1)
    assert mod1.dims == (0, 0, 0, 1)
    assert bc1 == Barcode([(3, None)])
    assert type_t_graded(sheaf, 0) == bc0
    assert type_t_graded(sheaf, 1) == bc1


def test_cosheaf_degrees_are_filtration_entries():
    x = square_filtration()
    gco = filtration_cosheaf(constant(x, 1))
    assert validate_graded_cosheaf(gco) == []
    for s in x.simplices:
        assert gco.degrees[s.id] == (s.entry,)
    powers = {}
    for e in x.simplices_of_dim(1):
        for v in faces(x, e):
            ext = gco.extension(e.id, v.id)
            assert ext.scalar.tolist() in ([[1]], [[-1 % 2]])
            powers[(e.id, v.id)] = ext.col_degrees[0] - ext.row_degrees[0]
    assert powers == {
        ("0.1", "0"): 1, ("0.1", "1"): 1,
        ("2.3", "2"): 2, ("2.3", "3"): 2,
        ("0.2", "0"): 3, ("0.2", "2"): 3,
        ("1.3", "1"): 3, ("1.3", "3"): 3,
    }


def test_degrees_track_entries_on_random_input():
    rng = random.Random(601)
    for _ in range(10):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        sheaf = random_sheaf(rng, x)
        gco = filtration_cosheaf(sheaf)
        for s in x.simplices:
            assert gco.degrees[s.id] == (s.entry,) * sheaf.stalk(s.id)


def test_pullback_chain_is_one_sheaf_per_step():
    x = square_filtration()
    chain = pullback_chain(constant(x, 1))
    assert len(chain) == x.steps
    for i, sheaf in enumerate(chain):
        assert validate_sheaf(sheaf) == []
        assert sheaf.complex.same_data(x.subcomplex(i))


def test_single_step_bars_never_die():
    rng = random.Random(602)
    for _ in range(8):
        x = random_complex(rng, Field(rng.choice([2, 5])), min_steps=1, max_steps=1)
        sheaf = random_sheaf(rng, x)
        for k in range(x.dim + 1):
            _, bc = type_t_direct(sheaf, k)
            want = Barcode([(0, None)] * cohomology_basis(sheaf, k).dim)
            assert bc == want


def test_constant_sheaf_reproduces_filtration_persistence():
    rng = random.Random(603)
    for _ in range(25):
        p = rng.choice([2, 5])
        x = random_complex(rng, Field(p))
        sheaf = constant(x, 1)
        want = persistence_bars([(s.vertices, s.entry) for s in x.simplices], p)
        for k in range(x.dim + 1):
            _, bc = type_t_direct(sheaf, k)
            assert bc == Barcode(want.get(k, []))


def test_both_engines_agree_on_random_pairs():
    rng = random.Random(604)
    for _ in range(15):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        sheaf = random_sheaf(rng, x)
        for k in range(x.dim + 1):
            _, direct = type_t_direct(sheaf, k)
            assert barcodes_equal(type_t_graded(sheaf, k), direct)


def test_extension_chain_is_natural():
    x = square_filtration()
    sheaf = constant(x, 1)
    extended, morphisms = g_chain(sheaf)
    assert len(extended) == x.steps and len(morphisms) == x.steps - 1
    for ext in extended:
        assert validate_sheaf(ext) == []
        assert ext.complex.same_data(x)
    for phi in morphisms:
        assert validate_morphism(phi) == []
    # stalks vanish outside the step subcomplex
    assert extended[0].stalk("0.1") == 0
    assert extended[1].stalk("0.1") == 1 and extended[1].stalk("2.3") == 0


def test_mirrored_chain_reflects_the_barcode():
    sheaf = constant(square_filtration(), 1)
    m = sheaf.complex.steps
    mirror = mirrored_g_diagram(sheaf)
    assert validate_diagram(mirror) == []
    for k in (0, 1):
        _, t_bc = type_t_direct(sheaf, k)
        _, a_bc = persistent_cohomology(mirror, k)
        assert a_bc.closed(m) == reflect(t_bc, m).closed(m)


def test_mirrored_chain_on_random_pairs():
    rng = random.Random(605)
    for _ in range(10):
        x = random_complex(rng, Field(rng.choice([2, 5])))
        sheaf = random_sheaf(rng, x)
        mirror = mirrored_g_diagram(sheaf)
        for k in range(x.dim + 1):
            _, t_bc = type_t_direct(sheaf, k)
            _, a_bc = persistent_cohomology(mirror, k)
            assert a_bc.closed(x.steps) == reflect(t_bc, x.steps).closed(x.steps)


def test_invalid_input_is_refused():
    x = FilteredComplex(F2, [
        Simplex("0", (0,), 1), Simplex("1", (1,), 0), Simplex("0.1", (0, 1), 0),
    ], steps=2)
    with pytest.raises(ValueError, match="invalid input"):
        type_t_direct(constant(x, 1), 0)
    good = square_filtration()
    from persheaf import CellularSheaf
    patchy = CellularSheaf(good, {s.id: 1 for s in good.simplices}, {})
    with pytest.raises(ValueError, match="invalid input"):
        type_t_graded(patchy, 0)
