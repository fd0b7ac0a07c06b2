"""Round trips and rendering for the on-disk formats."""

import gc
import json
import os
import random
import sys

import pytest

from builders import bench_input, edge_diagram, square_filtration
from genrandom import random_complex, random_sheaf
from persheaf import Barcode, Field, validate_diagram, validate_sheaf
from persheaf.sheaves import _codim1_pairs
from persheaf.formats import (
    BarcodeReport,
    barcode_from_data,
    barcode_to_data,
    complex_from_data,
    complex_to_data,
    diagram_from_data,
    diagram_to_data,
    parse_complex,
    parse_diagram,
    parse_points,
    parse_sheaf,
    render_barcode,
    render_reports,
    serialize_json,
    sheaf_from_data,
    sheaf_to_data,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def same_sheaf(a, b):
    if not a.complex.same_data(b.complex):
        return False
    for s in a.complex.simplices:
        if a.stalk(s.id) != b.stalk(s.id):
            return False
    for f, t in _codim1_pairs(a.complex):
        if a.stalk(f.id) == 0 or a.stalk(t.id) == 0:
            continue
        if a.restriction(f.id, t.id).tolist() != b.restriction(f.id, t.id).tolist():
            return False
    return True


def test_complex_round_trip():
    x = square_filtration()
    data = complex_to_data(x)
    assert data["field"] == 2
    assert data["steps"] == 4
    assert x.same_data(complex_from_data(data))
    # the data is already JSON-clean
    assert complex_from_data(json.loads(json.dumps(data))).same_data(x)


@pytest.mark.parametrize("seed", range(8))
def test_sheaf_round_trip(seed):
    rng = random.Random(7300 + seed)
    x = random_complex(rng, Field(5), max_simplices=12, max_steps=3)
    sheaf = random_sheaf(rng, x)
    back = sheaf_from_data(json.loads(json.dumps(sheaf_to_data(sheaf))))
    assert same_sheaf(sheaf, back)
    # without the embedded complex the caller has to provide one
    bare = sheaf_to_data(sheaf, embed_complex=False)
    assert "complex" not in bare
    assert same_sheaf(sheaf, sheaf_from_data(bare, x))


def test_sheaf_data_needs_a_complex():
    x = square_filtration()
    sheaf = random_sheaf(random.Random(1), x)
    bare = sheaf_to_data(sheaf, embed_complex=False)
    with pytest.raises(ValueError, match="no complex"):
        sheaf_from_data(bare)


def test_embedded_complex_mismatch_detected():
    x = square_filtration()
    sheaf = random_sheaf(random.Random(2), x)
    data = sheaf_to_data(sheaf)
    other = random_complex(random.Random(3), Field(2))
    with pytest.raises(ValueError, match="embedded complex disagrees"):
        sheaf_from_data(data, other)


def test_diagram_round_trip():
    diagram = edge_diagram()
    back = diagram_from_data(json.loads(json.dumps(diagram_to_data(diagram))))
    assert validate_diagram(back) == []
    assert len(back.snapshots) == len(diagram.snapshots)
    for a, b in zip(diagram.snapshots, back.snapshots):
        assert same_sheaf(a, b)
    for pa, pb in zip(diagram.steps, back.steps):
        for s in diagram.complex.simplices:
            assert pa.component(s.id).tolist() == pb.component(s.id).tolist()


def _entry_refcounts(sheaf_data, owned):
    """sys.getrefcount of each restriction entry's face, coface and matrix.

    A one-character id is an interpreter-wide singleton, the very object
    of the complex's own id, so only the other objects are counted.
    """
    out = []
    for entry in sheaf_data["restrictions"]:
        for key in ("face", "coface", "matrix"):
            if id(entry[key]) not in owned:
                out.append(sys.getrefcount(entry[key]))
    return out


def test_parsed_sheaf_keeps_no_decoded_json(tmp_path):
    bench_input("backward-rips", tmp_path)
    x = parse_complex(str(tmp_path / "complex.json"))
    with open(tmp_path / "sheaf.json", encoding="utf-8") as fh:
        data = json.load(fh)
    owned = {id(sid) for sid in x._ids}
    before = _entry_refcounts(data, owned)
    assert len(before) > 2 * len(data["restrictions"])
    sheaf = sheaf_from_data(data, x)
    gc.collect()
    assert _entry_refcounts(data, owned) == before
    assert validate_sheaf(sheaf) == []


def test_parsed_diagram_keeps_no_decoded_json(tmp_path):
    bench_input("forward-diagram", tmp_path)
    x = parse_complex(str(tmp_path / "complex.json"))
    with open(tmp_path / "diagram.json", encoding="utf-8") as fh:
        data = json.load(fh)
    owned = {id(sid) for sid in x._ids}
    before = [_entry_refcounts(s, owned) for s in data["snapshots"]]
    for counts, snapshot in zip(before, data["snapshots"]):
        assert len(counts) > 2 * len(snapshot["restrictions"])
    diagram = diagram_from_data(data, x)
    gc.collect()
    assert [_entry_refcounts(s, owned) for s in data["snapshots"]] == before
    assert validate_diagram(diagram) == []


def test_barcode_round_trip():
    bc = Barcode([(0, 2), (1, None), (3, 3)])
    data = barcode_to_data(bc)
    assert data == [[0, 2], [1, None], [3, 3]]
    assert barcode_from_data(json.loads(json.dumps(data))) == bc


def test_parse_fixture_files():
    x = parse_complex(os.path.join(FIXTURES, "triangle.json"))
    assert [s.id for s in x.simplices_of_dim(0)] == ["0", "1", "2"]
    sheaf = parse_sheaf(os.path.join(FIXTURES, "triangle_sheaf.json"))
    assert validate_sheaf(sheaf) == []
    diagram = parse_diagram(os.path.join(FIXTURES, "edge_diagram.json"))
    assert validate_diagram(diagram) == []
    assert len(diagram.snapshots) == 5


def test_parse_points(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,blue\n 1 , 2.5 , red \n\n3,1,blue\n")
    points, labels = parse_points(str(path))
    assert points == [(0.0, 0.0), (1.0, 2.5), (3.0, 1.0)]
    assert labels == ["blue", "red", "blue"]


def test_parse_points_needs_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.5\n")
    with pytest.raises(ValueError, match="coordinates and a label"):
        parse_points(str(path))


def test_report_data():
    rep = BarcodeReport.of(1, Barcode([(0, None), (2, 3)]), "graded", 5)
    assert rep.to_data() == {
        "degree": 1,
        "bars": [[0, None], [2, 3]],
        "engine": "graded",
        "field": 5,
    }


def test_text_rendering():
    reports = [
        BarcodeReport.of(0, Barcode([(0, 2), (1, None)]), "pointwise", 2),
        BarcodeReport.of(1, Barcode([]), "pointwise", 2),
    ]
    assert render_reports(reports, "text") == (
        "H^0: [0, 2]\nH^0: [1, inf)\nH^1: (empty)\n"
    )


def test_json_rendering():
    rep = BarcodeReport.of(0, Barcode([(1, None)]), "graded", 2)
    single = render_barcode(rep, "json")
    assert json.loads(single) == rep.to_data()
    many = render_reports([rep, rep], "json")
    assert json.loads(many) == [rep.to_data(), rep.to_data()]
    assert single.endswith("\n")
    # keys come out sorted, so equal reports give equal bytes
    assert single == render_barcode(rep, "json")


def test_svg_rendering():
    reports = [BarcodeReport.of(0, Barcode([(0, 1), (2, None)]), "pointwise", 2)]
    svg = render_reports(reports, "svg")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'fill="white"' in svg
    # the unbounded bar gets an arrowhead
    assert "<polygon" in svg
    bounded = render_reports(
        [BarcodeReport.of(0, Barcode([(0, 1)]), "pointwise", 2)], "svg"
    )
    assert "<polygon" not in bounded
    assert svg == render_reports(reports, "svg")


def test_unknown_render_format():
    rep = BarcodeReport.of(0, Barcode([]), "pointwise", 2)
    with pytest.raises(ValueError, match="unknown format"):
        render_reports([rep], "html")


def test_serialize_json_deterministic():
    x = square_filtration()
    blob = serialize_json(complex_to_data(x))
    assert blob == serialize_json(complex_to_data(square_filtration()))
    assert blob.endswith("\n")
