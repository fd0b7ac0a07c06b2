"""End-to-end command-line runs against the on-disk fixtures.

Everything goes through main(argv) in process so exit codes and both
output streams stay visible to the assertions.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from persheaf import (
    Barcode,
    ChainComplex,
    CochainComplex,
    Field,
    FilteredComplex,
    QuotientBasis,
    SheafDiagram,
    SheafMorphism,
    Simplex,
    constant,
    graded,
    label_diagram,
    sheaves,
)
from persheaf import persistence
from persheaf.cli import main
from persheaf.formats import (
    complex_to_data,
    diagram_to_data,
    parse_complex,
    serialize_json,
    sheaf_to_data,
)
from persheaf.linalg import Columns

import densekernel
import perincidence as ref
from builders import bench_input, closure, edge_diagram
from genrandom import random_complex

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def zero_step_diagram(tmp_path):
    """Two constant snapshots joined by the zero morphism: not monomorphic."""
    tri = parse_complex(fx("triangle.json"))
    c1 = constant(tri, 1)
    d = SheafDiagram([c1, c1], [SheafMorphism(c1, c1, {})])
    path = tmp_path / "diagram.json"
    path.write_text(serialize_json(diagram_to_data(d)))
    return str(path)


def test_validate_ok(capsys):
    code, out, err = run(capsys, ["validate", fx("triangle_sheaf.json")])
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_reports_broken_diamond(capsys):
    code, out, _ = run(capsys, ["validate", fx("two_simplex_sheaf_broken.json")])
    assert code == 2
    assert "does not commute" in out
    assert "'0' -> '0.1.2'" in out


def test_validate_json(capsys):
    code, out, _ = run(
        capsys, ["validate", fx("triangle_sheaf.json"), "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {"ok": True, "problems": []}
    code, out, _ = run(
        capsys,
        ["validate", fx("two_simplex_sheaf_broken.json"), "--format", "json"],
    )
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert any("does not commute" in p for p in data["problems"])


def test_cohomology_triangle(capsys):
    code, out, err = run(
        capsys, ["cohomology", fx("triangle.json"), fx("triangle_sheaf.json")]
    )
    assert (code, err) == (0, "")
    assert out == "H^0: 1\nH^1: 1\n"


def test_cohomology_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "cohomology",
            fx("triangle.json"),
            fx("triangle_sheaf.json"),
            "--format",
            "json",
            "--k",
            "0",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"dims": [[0, 1]], "field": 2}


def test_persist_a_edge_diagram(capsys):
    code, out, err = run(capsys, ["persist-a", fx("edge_diagram.json"), "--k", "0"])
    assert (code, err) == (0, "")
    assert out == "H^0: [1, inf)\nH^0: [2, inf)\nH^0: [4, inf)\n"


def test_persist_a_engine_tags(capsys):
    base = ["persist-a", fx("edge_diagram.json"), "--k", "0", "--format", "json"]
    code, out, _ = run(capsys, base)
    assert code == 0
    report = json.loads(out)
    assert report["engine"] == "graded"
    assert report["bars"] == [[1, None], [2, None], [4, None]]
    code, out, _ = run(capsys, base + ["--engine", "pointwise"])
    assert code == 0
    report = json.loads(out)
    assert report["engine"] == "pointwise"
    assert report["bars"] == [[1, None], [2, None], [4, None]]


@pytest.mark.parametrize("engine, name", [("direct", "direct"), ("both", "graded")])
def test_persist_t_engine_tags(capsys, engine, name):
    code, out, err = run(capsys, [
        "persist-t", fx("square.json"), fx("square_sheaf.json"), "--k", "1",
        "--format", "json", "--engine", engine,
    ])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["engine"] == name
    assert report["bars"] == [[3, None]]


def test_persist_t_square(capsys):
    code, out, err = run(
        capsys, ["persist-t", fx("square.json"), fx("square_sheaf.json"), "--k", "1"]
    )
    assert (code, err) == (0, "")
    assert out == "H^1: [3, inf)\n"


def test_persist_t_all_degrees(capsys):
    code, out, _ = run(
        capsys, ["persist-t", fx("square.json"), fx("square_sheaf.json")]
    )
    assert code == 0
    assert out == (
        "H^0: [0, 0]\nH^0: [0, 1]\nH^0: [0, 2]\nH^0: [0, inf)\nH^1: [3, inf)\n"
    )


def test_closed_end_presentation(capsys):
    code, out, _ = run(
        capsys,
        [
            "persist-t",
            fx("square.json"),
            fx("square_sheaf.json"),
            "--k",
            "1",
            "--closed-end",
        ],
    )
    assert code == 0
    assert out == "H^1: [3, 3]\n"


def test_bipersist_edge_diagram(capsys, tmp_path):
    with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
        embedded = json.load(fh)["complex"]
    cpath = tmp_path / "complex.json"
    cpath.write_text(serialize_json(embedded))
    code, out, err = run(
        capsys,
        ["bipersist", str(cpath), fx("edge_diagram.json"), "--k", "0"],
    )
    assert (code, err) == (0, "")
    assert out == "k=0\n0 1 2 2 3\n2 3 4 4 5\n"
    code, out, _ = run(
        capsys,
        [
            "bipersist",
            str(cpath),
            fx("edge_diagram.json"),
            "--k",
            "0",
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert json.loads(out) == {
        "degree": 0,
        "dims": [[0, 1, 2, 2, 3], [2, 3, 4, 4, 5]],
        "field": 2,
    }


def test_labeled_points(capsys):
    code, out, err = run(
        capsys,
        [
            "labeled",
            fx("points.csv"),
            "--thresholds",
            "0.5,1.5,2.5",
            "--max-dim",
            "2",
            "--hom-n",
            "0",
        ],
    )
    assert (code, err) == (0, "")
    assert out == "H^0: [2, inf)\nH^1: (empty)\n"


def test_unicolored_points(capsys):
    code, out, err = run(
        capsys,
        ["unicolored", fx("points.csv"), "--thresholds", "0.5,1.5,2.5", "--k", "0"],
    )
    assert (code, err) == (0, "")
    assert out == "H^0: [0, 0]\nH^0: [0, 0]\nH^0: [0, 1]\nH^0: [0, 1]\n"


def test_field_mismatch(capsys):
    code, _, err = run(
        capsys,
        [
            "persist-t",
            fx("square.json"),
            fx("square_sheaf.json"),
            "--field",
            "5",
        ],
    )
    assert code == 2
    assert "disagrees with the file's field" in err


FIELD_RUNS = {
    "validate": ["validate", fx("triangle_sheaf.json")],
    "cohomology": ["cohomology", fx("triangle.json"), fx("triangle_sheaf.json")],
    "persist-a": ["persist-a", fx("edge_diagram.json")],
    "persist-t": ["persist-t", fx("square.json"), fx("square_sheaf.json")],
    "bipersist": ["bipersist", fx("square.json"), fx("edge_diagram.json")],
    "labeled": [
        "labeled", fx("points.csv"), "--thresholds", "0.5,1.5",
        "--max-dim", "1", "--hom-n", "0",
    ],
    "unicolored": ["unicolored", fx("points.csv"), "--thresholds", "0.5,1.5"],
}


@pytest.mark.parametrize("command", list(FIELD_RUNS))
@pytest.mark.parametrize("value", ["4", "1", "0", "-3", "2147483648"])
def test_field_that_is_no_field_order_is_a_usage_error(capsys, command, value):
    code, out, err = run(capsys, FIELD_RUNS[command] + ["--field", value])
    assert (code, out) == (1, "")
    assert err == f"usage error: --field must be a prime below 2^31, got {value}\n"


def test_non_integer_field_keeps_its_message(capsys):
    argv = FIELD_RUNS["unicolored"] + ["--field", "x"]
    assert run(capsys, argv) == (1, "", "usage error: argument --field: invalid int value: 'x'\n")


@pytest.mark.parametrize("command", ["validate", "cohomology", "bipersist"])
def test_svg_not_available(capsys, command):
    argv = {
        "validate": ["validate", fx("triangle_sheaf.json")],
        "cohomology": ["cohomology", fx("triangle.json"), fx("triangle_sheaf.json")],
        "bipersist": ["bipersist", fx("square.json"), fx("edge_diagram.json")],
    }[command]
    code, _, err = run(capsys, argv + ["--format", "svg"])
    assert code == 1
    assert err == "usage error: svg output is not available for this command\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, ["validate", fx("no_such_file.json")])
    assert code == 2
    assert err.startswith("error:")


def test_missing_subcommand(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert err.startswith("usage error:")


def test_bad_engine_choice(capsys):
    code, _, err = run(
        capsys,
        ["persist-a", fx("edge_diagram.json"), "--engine", "fast"],
    )
    assert code == 1
    assert err.startswith("usage error:")


def test_empty_thresholds(capsys):
    code, _, err = run(
        capsys,
        [
            "unicolored",
            fx("points.csv"),
            "--thresholds",
            ",",
        ],
    )
    assert code == 1
    assert "at least one value" in err


@pytest.fixture
def edge_complex(tmp_path):
    """The complex embedded in edge_diagram.json, as a file of its own."""
    with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
        embedded = json.load(fh)["complex"]
    path = tmp_path / "complex.json"
    path.write_text(serialize_json(embedded))
    return str(path)


NEGATIVE_FLAG_RUNS = [
    (["cohomology", fx("square.json"), fx("square_sheaf.json")], "--k"),
    (["persist-a", fx("edge_diagram.json")], "--k"),
    (["persist-t", fx("square.json"), fx("square_sheaf.json")], "--k"),
    (["bipersist", "EDGE_COMPLEX", fx("edge_diagram.json")], "--k"),
    (["unicolored", fx("points.csv"), "--thresholds", "0.5,1.5"], "--k"),
] + [
    (["labeled", fx("points.csv"), "--thresholds", "0.5,1.5"], flag)
    for flag in ("--k", "--max-dim", "--hom-n")
]


@pytest.mark.parametrize(
    "argv, flag", NEGATIVE_FLAG_RUNS, ids=[f"{a[0]}{f}" for a, f in NEGATIVE_FLAG_RUNS]
)
def test_negative_degree_or_dimension_is_a_usage_error(capsys, edge_complex, argv, flag):
    argv = [edge_complex if part == "EDGE_COMPLEX" else part for part in argv]
    values = {"--k": "0", "--max-dim": "2", "--hom-n": "1"} if argv[0] == "labeled" else {}
    values[flag] = "-1"
    argv = argv + [part for item in values.items() for part in item]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: argument {flag}: must be nonnegative, got -1\n"


def test_non_integer_degree_keeps_its_message(capsys):
    argv = ["persist-t", fx("square.json"), fx("square_sheaf.json"), "--k", "x"]
    assert run(capsys, argv) == (1, "", "usage error: argument --k: invalid int value: 'x'\n")


@pytest.mark.parametrize("command", ["labeled", "unicolored"])
@pytest.mark.parametrize("value", ["nan", "0.5,inf", "0.5,-inf"])
def test_non_finite_thresholds(capsys, command, value):
    argv = [command, fx("points.csv"), "--thresholds", value]
    if command == "labeled":
        argv += ["--max-dim", "2", "--hom-n", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: --thresholds must be finite")


@pytest.mark.parametrize("command", ["labeled", "unicolored"])
@pytest.mark.parametrize(
    "value, problem",
    [
        ("a", "must be numbers"),
        ("0.5,x,1.5", "must be numbers"),
        ("0.3,0.1", "must be strictly increasing"),
        ("0.5,0.5", "must be strictly increasing"),
    ],
)
def test_bad_thresholds_are_usage_errors(capsys, command, value, problem):
    argv = [command, fx("points.csv"), "--thresholds", value]
    if command == "labeled":
        argv += ["--max-dim", "2", "--hom-n", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: --thresholds {problem}, got {value!r}\n"


def _drop_key(tmp_path, name, edit):
    with open(fx(name), encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "command, name, edit, message",
    [
        (
            "cohomology", "triangle.json",
            lambda d: d.pop("simplices"),
            "complex: missing key 'simplices'",
        ),
        (
            "cohomology", "triangle.json",
            lambda d: d["simplices"][2].pop("vertices"),
            "complex.simplices[2]: missing key 'vertices'",
        ),
        (
            "validate", "triangle_sheaf.json",
            lambda d: d["restrictions"][0].pop("matrix"),
            "sheaf.restrictions[0]: missing key 'matrix'",
        ),
        (
            "validate", "triangle_sheaf.json",
            lambda d: d["complex"].pop("steps"),
            "sheaf.complex: missing key 'steps'",
        ),
        (
            "persist-a", "edge_diagram.json",
            lambda d: d["snapshots"][1]["restrictions"][0].pop("matrix"),
            "diagram.snapshots[1].restrictions[0]: missing key 'matrix'",
        ),
        (
            "persist-a", "edge_diagram.json",
            lambda d: d.pop("steps"),
            "diagram: missing key 'steps'",
        ),
    ],
)
def test_missing_json_key_is_invalid_input(capsys, tmp_path, command, name, edit, message):
    path = _drop_key(tmp_path, name, edit)
    argv = {
        "cohomology": ["cohomology", path, fx("triangle_sheaf.json")],
        "validate": ["validate", path],
        "persist-a": ["persist-a", path],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _set(path, value):
    """An edit that puts value at the JSON path given as a list of keys."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "command, name, edit, message",
    [
        (
            "persist-a", "edge_diagram.json",
            _set(["steps", 0], [[1]]),
            "diagram.steps[0]: expected a JSON object, got a list",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 0, "matrix"], 5),
            "sheaf.restrictions[0].matrix: expected a list of rows, got 5",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["stalks"], [1, 1, 1, 1, 1, 1]),
            "sheaf.stalks: expected a JSON object, got a list",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["stalks", "0.1"], "1"),
            "sheaf.stalks['0.1']: expected an integer, got \"1\"",
        ),
        (
            "cohomology", "triangle.json",
            _set(["simplices", 2, "vertices"], 2),
            "complex.simplices[2].vertices: expected a list, got 2",
        ),
        (
            "cohomology", "triangle.json",
            _set(["simplices", 2, "vertices"], "2"),
            "complex.simplices[2].vertices: expected a list, got \"2\"",
        ),
        (
            "persist-a", "edge_diagram.json",
            _set(["steps"], [{}, {}, {}, {}, {}]),
            "diagram.steps: expected one entry between consecutive snapshots, "
            "got 5 for 5 snapshots",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["stalks", "0.1"], 1.5),
            "sheaf.stalks['0.1']: expected an integer, got 1.5",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 0, "matrix"], [[1.5]]),
            "sheaf.restrictions[0].matrix: expected integer entries",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 0, "matrix"], [[1, None]]),
            "sheaf.restrictions[0].matrix: expected integer entries",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 0, "matrix"], [[1], [1, 0]]),
            "sheaf.restrictions[0].matrix: expected a list of rows of equal length",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["complex", "simplices", 0, "entry"], 0.5),
            "sheaf.complex.simplices[0].entry: expected an integer, got 0.5",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 0, "matrix"], [[1, True]]),
            "sheaf.restrictions[0].matrix: expected integer entries",
        ),
        (
            "persist-a", "edge_diagram.json",
            _set(["steps", 0, "0.1"], [[1, 0], [False, 1]]),
            "diagram.steps[0]['0.1']: expected integer entries",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["complex", "simplices", 0, "id"], [0]),
            "sheaf.complex.simplices[0].id: expected a string, got a list",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 0, "face"], [1]),
            "sheaf.restrictions[0].face: expected a string, got a list",
        ),
        (
            "validate", "triangle_sheaf.json",
            _set(["restrictions", 2, "coface"], ["0.1"]),
            "sheaf.restrictions[2].coface: expected a string, got a list",
        ),
        (
            "cohomology", "triangle.json",
            _set(["simplices", 1, "id"], 1),
            "complex.simplices[1].id: expected a string, got 1",
        ),
    ],
    ids=[
        "step-is-a-list", "matrix-is-a-number", "stalks-is-a-list",
        "stalk-is-a-string", "vertices-is-a-number", "vertices-is-a-string",
        "step-count", "stalk-1.5", "matrix-entry-1.5", "matrix-entry-null",
        "ragged-matrix", "entry-0.5", "matrix-mixes-true", "step-mixes-false",
        "id-is-a-list", "face-is-a-list", "coface-is-a-list", "id-is-a-number",
    ],
)
def test_wrongly_typed_json_is_invalid_input(capsys, tmp_path, command, name, edit, message):
    path = _drop_key(tmp_path, name, edit)
    argv = {
        "cohomology": ["cohomology", path, fx("triangle_sheaf.json")],
        "validate": ["validate", path],
        "persist-a": ["persist-a", path],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["persist-t", "persist-a", "validate"])
@pytest.mark.parametrize("dim", [-1, 2**63])
def test_out_of_range_stalk_is_invalid_input(capsys, tmp_path, command, dim):
    if command == "persist-a":
        edit = _set(["snapshots", 1, "stalks", "0"], dim)
        argv = [command, _drop_key(tmp_path, "edge_diagram.json", edit)]
        where = "diagram.snapshots[1]"
    else:
        path = _drop_key(tmp_path, "triangle_sheaf.json", _set(["stalks", "0"], dim))
        complex_ = [fx("triangle.json")] if command == "persist-t" else []
        argv, where = [command, *complex_, path], "sheaf"
    code, out, err = run(capsys, argv)
    message = f"{where}.stalks['0']: expected a dimension from 0 to 2^63 - 1, got {dim}"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["persist-t", "cohomology"])
def test_unallocatable_stalk_exits_2_in_one_line(capsys, tmp_path, command):
    """numpy refuses a 10^12-entry cochain vector before allocating it."""
    cpath = tmp_path / "vertex.json"
    cpath.write_text(json.dumps(
        {"field": 2, "steps": 1, "simplices": [{"id": "0", "vertices": [0], "entry": 0}]}
    ))
    spath = tmp_path / "vertex_sheaf.json"
    spath.write_text(json.dumps({"stalks": {"0": 10**12}, "restrictions": []}))
    code, out, err = run(capsys, [command, str(cpath), str(spath)])
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_broken_invariant_exits_4(capsys, monkeypatch):
    def broken(sheaf, degrees):
        raise AssertionError("pivot (0, 0) would need a negative t-power")

    monkeypatch.setattr("persheaf.cli.type_t_graded_by_degree", broken)
    code, out, err = run(
        capsys, ["persist-t", fx("square.json"), fx("square_sheaf.json")]
    )
    assert (code, out) == (4, "")
    assert err == "internal error: pivot (0, 0) would need a negative t-power\n"


def test_bad_label_diagram_exits_4(capsys, monkeypatch):
    """labeled builds its label diagram itself, so a diagram that fails
    validation is a broken invariant, not invalid input."""
    def broken(lf, n):
        d = label_diagram(lf, n)
        phi = d.steps[-1]
        comp = {t.id: phi.component(t.id) for t in lf.label_complex.simplices}
        comp["blue"] = 0 * comp["blue"]
        bad = SheafMorphism(phi.source, phi.target, comp)
        return SheafDiagram(d.snapshots, [*d.steps[:-1], bad])

    monkeypatch.setattr("persheaf.cli.label_diagram", broken)
    argv = ["labeled", fx("points.csv"), "--thresholds", "0.5,1.5,2.5",
            "--max-dim", "2", "--hom-n", "0"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err == (
        "internal error: label diagram: step 1: naturality fails across 'blue' -> 'blue.red'\n"
    )


@pytest.fixture
def validations(monkeypatch):
    """(function name, id of its argument) for every validate_sheaf,
    validate_diagram and validate_graded_sheaf call, wherever the
    package looks the function up, under any of its names."""
    calls = []
    for owner, name in (
        (sheaves, "validate_sheaf"),
        (sheaves, "validate_diagram"),
        (graded, "validate_graded_sheaf"),
    ):
        original = getattr(owner, name)

        def counted(obj, _name=name, _original=original):
            calls.append((_name, id(obj)))
            return _original(obj)

        for module in list(sys.modules.values()):
            if not module.__name__.startswith("persheaf"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def locations(monkeypatch):
    """One entry per FilteredComplex.positions call: stored ids made
    into simplex positions."""
    calls = []
    original = FilteredComplex.positions

    def counted(self, ids):
        calls.append(id(self))
        return original(self, ids)

    monkeypatch.setattr(FilteredComplex, "positions", counted)
    return calls


@pytest.fixture
def assemblies(monkeypatch):
    """The (co)sheaf of every sheaves._signed_maps call, held so that no
    two of them share an id."""
    calls = []
    original = sheaves._signed_maps

    def counted(stalks):
        calls.append(stalks)
        return original(stalks)

    monkeypatch.setattr(sheaves, "_signed_maps", counted)
    return calls


def _subcommand_runs(tmp_path):
    """(argv, top-level validator) of one fixture run per subcommand."""
    paths = {}
    for name in ("edge_diagram", "two_simplex_sheaf"):
        with open(fx(f"{name}.json"), encoding="utf-8") as fh:
            embedded = json.load(fh)["complex"]
        paths[name] = tmp_path / f"{name}_complex.json"
        paths[name].write_text(serialize_json(embedded))
    cpath, filled = paths["edge_diagram"], paths["two_simplex_sheaf"]
    return [
        (["cohomology", fx("triangle.json"), fx("triangle_sheaf.json")], "validate_sheaf"),
        (["persist-t", fx("square.json"), fx("square_sheaf.json")], "validate_sheaf"),
        # a filled triangle has a diamond, so its check reads the coboundaries too
        (["persist-t", str(filled), fx("two_simplex_sheaf.json")], "validate_sheaf"),
        (["persist-a", fx("edge_diagram.json")], "validate_diagram"),
        (["bipersist", str(cpath), fx("edge_diagram.json")], "validate_diagram"),
        (
            ["labeled", fx("points.csv"), "--thresholds", "0.5,1.5,2.5",
             "--max-dim", "2", "--hom-n", "0"],
            "validate_diagram",
        ),
        (["unicolored", fx("points.csv"), "--thresholds", "0.5,1.5,2.5"], "validate_sheaf"),
    ]


def test_each_invocation_validates_once(
    capsys, tmp_path, validations, constructions, locations, assemblies
):
    for argv, top in _subcommand_runs(tmp_path):
        validations.clear()
        constructions.clear()
        locations.clear()
        assemblies.clear()
        assert run(capsys, argv)[0] == 0
        names = [name for name, _ in validations]
        assert names.count(top) == 1, argv
        assert len(set(validations)) == len(validations), argv
        # each (co)sheaf's (co)boundaries serve its diamonds and every engine
        assert assemblies, argv
        assert len({id(stalks) for stalks in assemblies}) == len(assemblies), argv
        if argv[0] in ("persist-t", "persist-a"):
            # the graded engine trusts the input the CLI validated
            assert "validate_graded_sheaf" not in names, argv
        if argv[0] == "persist-t":
            # the sheaf's ids, read once, serve the filtration cosheaf too
            assert len(locations) == 1
        if argv[0] == "cohomology":
            # every degree reads one cochain complex
            assert constructions == ["CochainComplex"]


@pytest.mark.parametrize("k", [None, 1])
def test_persist_t_reduces_each_coboundary_once(capsys, tmp_path, monkeypatch, k):
    x = random_complex(random.Random(6), Field(3), 30, min_steps=3)
    assert x.dim == 2
    sheaf = constant(x, 2)
    cpath, spath = tmp_path / "complex.json", tmp_path / "sheaf.json"
    cpath.write_text(serialize_json(complex_to_data(x)))
    spath.write_text(serialize_json(sheaf_to_data(sheaf, embed_complex=False)))
    reduced = []
    original = Field._column_echelon

    def counted(self, m, *args, **kwargs):
        reduced.append(m)  # kept alive, so ids stay distinct
        return original(self, m, *args, **kwargs)

    monkeypatch.setattr(Field, "_column_echelon", counted)
    # the rank formula's own reductions go to the dense reference instead
    monkeypatch.setattr(
        persistence,
        "_composite_ranks",
        lambda module: densekernel.composite_ranks(
            module.field.p, module.dims, [m.dense() for m in module.maps]
        ),
    )
    argv = ["persist-t", str(cpath), str(spath), "--engine", "direct"]
    argv += [] if k is None else ["--k", str(k)]
    assert run(capsys, argv)[0] == 0
    # every degree reduces delta^0 .. delta^2 at each step; H^1 alone
    # needs delta^0's pivots and delta^1
    per_step = x.dim + 1 if k is None else 2
    assert len(reduced) == x.steps * per_step
    assert len({id(m) for m in reduced}) == len(reduced)
    # the stored sparse columns are reduced as they are, never densified
    assert all(isinstance(m, Columns) for m in reduced)


@pytest.fixture
def constructions(monkeypatch):
    """Names of the complexes built and of pullback calls, in call order."""
    calls = []
    for cls in (CochainComplex, ChainComplex):
        original = cls.__init__

        def counted(self, *args, _name=cls.__name__, _original=original, **kwargs):
            calls.append(_name)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    original = sheaves.pullback

    def pulled(*args, **kwargs):
        calls.append("pullback")
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("persheaf") and vars(module).get("pullback") is original:
            monkeypatch.setattr(module, "pullback", pulled)
    return calls


def test_persist_t_assembles_one_cochain_complex(capsys, constructions):
    argv = ["persist-t", fx("square.json"), fx("square_sheaf.json"), "--engine", "direct"]
    assert parse_complex(fx("square.json")).steps == 4
    assert run(capsys, argv)[0] == 0
    assert constructions == ["CochainComplex"]


def test_bipersist_assembles_one_complex_per_snapshot(capsys, edge_complex, constructions):
    assert parse_complex(edge_complex).steps == 2
    assert run(capsys, ["bipersist", edge_complex, fx("edge_diagram.json")])[0] == 0
    assert constructions == ["CochainComplex"] * 5


def test_labeled_assembles_one_chain_complex_per_filtration(capsys, constructions):
    argv = ["labeled", fx("points.csv"), "--thresholds", "0.5,1.5,2.5",
            "--max-dim", "2", "--hom-n", "0"]
    assert run(capsys, argv)[0] == 0
    # the three label parts are columns of the filtration's one chain
    # complex; the cochain complexes are the label sheaves' own, one per step
    assert constructions == ["ChainComplex"] + ["CochainComplex"] * 3


def test_unicolored_pulls_back_and_assembles_once(capsys, constructions):
    argv = ["unicolored", fx("points.csv"), "--thresholds", "0.5,1.5,2.5"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and "H^1" in out
    assert constructions == ["pullback", "CochainComplex"]


@pytest.fixture
def holed(tmp_path):
    """Input files whose complexes lack a vertex, and its maps."""
    with open(fx("triangle_sheaf.json"), encoding="utf-8") as fh:
        sheaf = json.load(fh)
    sheaf["complex"]["simplices"] = [
        s for s in sheaf["complex"]["simplices"] if s["id"] != "2"
    ]
    del sheaf["stalks"]["2"]
    sheaf["restrictions"] = [r for r in sheaf["restrictions"] if r["face"] != "2"]
    with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
        diagram = json.load(fh)
    diagram["complex"]["simplices"] = [
        s for s in diagram["complex"]["simplices"] if s["id"] != "1"
    ]
    for snap in diagram["snapshots"]:
        del snap["stalks"]["1"]
        snap["restrictions"] = [r for r in snap["restrictions"] if r["face"] != "1"]
    for step in diagram["steps"]:
        del step["1"]
    # a triangle with its vertices and no edges: one dimension is empty
    with open(fx("two_simplex_sheaf.json"), encoding="utf-8") as fh:
        hollow = json.load(fh)
    hollow["complex"]["simplices"] = [
        s for s in hollow["complex"]["simplices"] if len(s["vertices"]) != 2
    ]
    hollow["stalks"] = {
        s["id"]: hollow["stalks"][s["id"]] for s in hollow["complex"]["simplices"]
    }
    hollow["restrictions"] = []
    hollow_diagram = {
        "complex": hollow["complex"],
        "snapshots": [{"stalks": hollow["stalks"], "restrictions": []}],
        "steps": [],
    }
    paths = {}
    for name, data in [
        ("sheaf", sheaf), ("complex", sheaf["complex"]),
        ("diagram", diagram), ("edge", diagram["complex"]),
        ("hollow", hollow), ("hollow_complex", hollow["complex"]),
        ("hollow_diagram", hollow_diagram),
    ]:
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(serialize_json(data))
    return paths


TRIANGLE_HOLES = "missing face [2] of '0.2'\nmissing face [2] of '1.2'\n"
EDGE_HOLE = "missing face [1] of '0.1'\n"
NO_EDGES = (
    "missing face [1, 2] of '0.1.2'\n"
    "missing face [0, 2] of '0.1.2'\n"
    "missing face [0, 1] of '0.1.2'\n"
)


@pytest.mark.parametrize(
    "argv, out, err",
    [
        (["validate", "sheaf"], TRIANGLE_HOLES, ""),
        (["cohomology", "complex", "sheaf"], "", TRIANGLE_HOLES),
        (["persist-t", "complex", "sheaf"], "", TRIANGLE_HOLES),
        (["persist-a", "diagram"], "", EDGE_HOLE),
        (["bipersist", "edge", "diagram"], "", EDGE_HOLE),
        (["validate", "hollow"], NO_EDGES, ""),
        (["cohomology", "hollow_complex", "hollow"], "", NO_EDGES),
        (["persist-t", "hollow_complex", "hollow"], "", NO_EDGES),
        (["persist-a", "hollow_diagram"], "", NO_EDGES),
        (["bipersist", "hollow_complex", "hollow_diagram"], "", NO_EDGES),
    ],
    ids=[
        "validate", "cohomology", "persist-t", "persist-a", "bipersist",
        "validate-no-edges", "cohomology-no-edges", "persist-t-no-edges",
        "persist-a-no-edges", "bipersist-no-edges",
    ],
)
def test_missing_face_is_invalid_input(capsys, holed, argv, out, err):
    argv = [argv[0]] + [holed[name] for name in argv[1:]]
    assert run(capsys, argv) == (2, out, err)


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda snap: snap["restrictions"].pop(1),
            "snapshot 1: missing restriction for '0' -> '0.1'",
        ),
        (
            lambda snap: snap["restrictions"][0].update(matrix=[[1]]),
            "snapshot 1: restriction '1' -> '0.1' has shape (1, 1), expected (2, 1)",
        ),
    ],
    ids=["missing", "misshaped"],
)
def test_broken_snapshot_map_is_reported_not_multiplied(capsys, tmp_path, edit, message):
    # naturality is not checked across a map the snapshot lacks or
    # mis-shapes; the snapshot's own problem is the report
    with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data["snapshots"][1])
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data))
    assert run(capsys, ["persist-a", str(path)]) == (2, "", message + "\n")


def _unit_sheaf_data(n=8):
    """The constant rank-1 sheaf on the 2-skeleton of an n-vertex simplex:
    one large group of 1 x 1 restrictions."""
    x = FilteredComplex(Field(5), [
        Simplex(".".join(map(str, vs)), vs, 0)
        for d in range(3)
        for vs in itertools.combinations(range(n), d + 1)
    ])
    return sheaf_to_data(constant(x, 1)), x


BAD_MATRICES = [
    ([[1.5]], "expected integer entries"),
    ([[True]], "expected integer entries"),
    ([[1], [1, 0]], "expected a list of rows of equal length"),
    ("1", 'expected a list of rows, got "1"'),
    ([["1"]], "expected integer entries"),
    (None, "expected a list of rows, got null"),
    ([[None]], "expected integer entries"),
    ([[2**64]], "expected integer entries"),
    ([[-(2**63) - 1]], "expected integer entries"),
]
BAD_IDS = ["float", "true", "ragged", "string", "string-entry", "null",
           "null-entry", "beyond-64-bits", "below-64-bits"]


@pytest.mark.parametrize("bad, message", BAD_MATRICES, ids=BAD_IDS)
def test_bad_matrix_late_in_a_large_group(capsys, tmp_path, bad, message):
    data, _ = _unit_sheaf_data()
    at = len(data["restrictions"]) - 3
    assert at > 150
    data["restrictions"][at]["matrix"] = bad
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: sheaf.restrictions[{at}].matrix: {message}\n"


def test_first_bad_matrix_wins_across_groups(capsys, tmp_path):
    data, _ = _unit_sheaf_data()
    restrictions = data["restrictions"]
    # an edge of stalk 2: its restrictions form groups of other shapes
    edge = restrictions[0]["coface"]
    data["stalks"][edge] = 2
    for r in restrictions:
        if r["coface"] == edge:
            r["matrix"] = [[1], [0]]
        elif r["face"] == edge:
            r["matrix"] = [[1, 0]]
    late = len(restrictions) - 1
    assert restrictions[late]["face"] != edge
    restrictions[late]["matrix"] = [[0.5]]
    for bad in (late, 0):
        restrictions[0]["matrix"] = [[1], [0]] if bad == late else [[1], [True]]
        path = tmp_path / "sheaf.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert err == f"error: sheaf.restrictions[{bad}].matrix: expected integer entries\n"


def test_bad_key_after_a_bad_matrix_reports_the_matrix(capsys, tmp_path):
    data, _ = _unit_sheaf_data()
    data["restrictions"][5]["matrix"] = [[1.5]]
    del data["restrictions"][100]["coface"]
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(data))
    assert run(capsys, ["validate", str(path)])[2] == (
        "error: sheaf.restrictions[5].matrix: expected integer entries\n"
    )
    data["restrictions"][5]["matrix"] = [[1]]
    path.write_text(json.dumps(data))
    assert run(capsys, ["validate", str(path)])[2] == (
        "error: sheaf.restrictions[100]: missing key 'coface'\n"
    )


@pytest.mark.parametrize("bad, message", BAD_MATRICES, ids=BAD_IDS)
def test_bad_matrix_late_in_a_diagram(capsys, tmp_path, bad, message):
    data, x = _unit_sheaf_data()
    c = constant(x, 1)
    ids = [s.id for s in x.simplices]
    unit = SheafMorphism(c, c, {sid: [[1]] for sid in ids})
    diagram = diagram_to_data(SheafDiagram([c, c, c], [unit, unit]))
    path = tmp_path / "diagram.json"
    at = len(diagram["snapshots"][2]["restrictions"]) - 2
    diagram["snapshots"][2]["restrictions"][at]["matrix"] = bad
    path.write_text(json.dumps(diagram))
    code, out, err = run(capsys, ["persist-a", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: diagram.snapshots[2].restrictions[{at}].matrix: {message}\n"
    diagram["snapshots"][2]["restrictions"][at]["matrix"] = [[1]]
    diagram["steps"][1][ids[-2]] = bad
    path.write_text(json.dumps(diagram))
    code, out, err = run(capsys, ["persist-a", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: diagram.steps[1][{ids[-2]!r}]: {message}\n"


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "triangle_sheaf.json"],
        ["cohomology", "triangle.json", "triangle_sheaf.json"],
        ["persist-t", "square.json", "square_sheaf.json"],
        ["persist-a", "edge_diagram.json"],
        ["bipersist", "edge_complex.json", "edge_diagram.json"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("nested", ["whole", "unused-key"])
def test_deeply_nested_json_is_invalid_input(capsys, tmp_path, argv, nested):
    command, names = argv[0], argv[1:]
    with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
        embedded = json.load(fh)["complex"]
    (tmp_path / "edge_complex.json").write_text(json.dumps(embedded))
    for deep in names:
        paths = []
        for name in names:
            source = tmp_path / name if name == "edge_complex.json" else fx(name)
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
            if name == deep:
                # past the recursion limit, as the whole file or under a key nothing reads
                text = DEEP if nested == "whole" else text.rstrip()[:-1] + f', "notes": {DEEP}}}'
            path = tmp_path / f"in-{name}"
            path.write_text(text)
            paths.append(str(path))
        code, out, err = run(capsys, [command, *paths])
        assert (code, out) == (2, ""), (command, deep)
        assert err == f"error: {tmp_path / f'in-{deep}'}: JSON is nested too deeply to read\n"


def test_python_dash_m(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "persheaf", "validate", fx("triangle_sheaf.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_engine_mismatch_is_a_hard_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        "persheaf.cli.type_t_graded_by_degree",
        lambda sheaf, degrees: {k: Barcode([(0, 0)]) for k in degrees},
    )
    code, _, err = run(
        capsys,
        ["persist-t", fx("square.json"), fx("square_sheaf.json"), "--k", "1"],
    )
    assert code == 3
    assert "engine mismatch at degree 1" in err


def test_graded_engine_refuses_non_monomorphic(capsys, zero_step_diagram):
    code, _, err = run(
        capsys, ["persist-a", zero_step_diagram, "--k", "0", "--engine", "graded"]
    )
    assert code == 2
    assert "not free" in err


def test_both_engines_fall_back_pointwise(capsys, zero_step_diagram):
    code, out, err = run(
        capsys, ["persist-a", zero_step_diagram, "--k", "0", "--format", "json"]
    )
    assert code == 0
    assert "falling back to the pointwise engine" in err
    report = json.loads(out)
    assert report["engine"] == "pointwise"
    assert report["bars"] == [[0, 0], [1, None]]


@pytest.mark.parametrize(
    "argv",
    [
        ["persist-a", "edge_diagram.json"],
        ["persist-t", "square.json", "square_sheaf.json", "--format", "svg"],
        ["persist-t", "square.json", "square_sheaf.json", "--format", "json"],
        ["labeled", "points.csv", "--thresholds", "1,2,3", "--max-dim", "1",
         "--hom-n", "0"],
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    argv = [fx(a) if "." in a and not a.startswith("-") else a for a in argv]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first[0] == 0
    assert first == second


@pytest.mark.parametrize("command", ["labeled", "unicolored"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coordinates_exit_2(capsys, tmp_path, command, value):
    path = tmp_path / "points.csv"
    path.write_text(f"0,0,blue\n1,0,red\n{value},1,1\n")
    argv = [command, str(path), "--thresholds", "0.5,1.5"]
    argv += ["--max-dim", "1", "--hom-n", "0"] if command == "labeled" else []
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: line 3, column 1: coordinate {value!r} is not finite\n"


@pytest.mark.parametrize("command", ["labeled", "unicolored"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("x,1,1", "line 3, column 1: coordinate 'x' is not a number"),
        ("0,,1e,red", "line 3, column 3: coordinate '1e' is not a number"),
        ("blue", "line 3: each row needs coordinates and a label"),
        ("1,2,3,red", "line 3: expected 2 coordinates as in the first row, got 3"),
        ("1, ,red", "line 3: expected 2 coordinates as in the first row, got 1"),
    ],
)
def test_bad_point_rows_name_their_line(capsys, tmp_path, command, row, message):
    path = tmp_path / "points.csv"
    path.write_text(f"0,0,blue\n\n{row}\n1,0,red\n2,2,red\n")
    argv = [command, str(path), "--thresholds", "0.5,1.5"]
    argv += ["--max-dim", "1", "--hom-n", "0"] if command == "labeled" else []
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.fixture
def coords_solves(monkeypatch):
    """Calls of QuotientBasis.coords, and the solves made inside them."""
    calls = {"coords": 0, "solves": []}
    depth = []
    original = QuotientBasis.coords

    def coords(self, vectors):
        calls["coords"] += 1
        depth.append(self)
        try:
            return original(self, vectors)
        finally:
            depth.pop()

    for name in ("solve", "express"):

        def counted(self, *args, _name=name, _original=getattr(Field, name), **kwargs):
            if depth:
                calls["solves"].append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Field, name, counted)
    monkeypatch.setattr(QuotientBasis, "coords", coords)
    return calls


@pytest.mark.parametrize("command", ["persist-t", "bipersist", "labeled"])
def test_coords_back_substitute_without_solving(capsys, tmp_path, coords_solves, command):
    if command == "persist-t":
        argv = [command, fx("square.json"), fx("square_sheaf.json"), "--engine", "direct"]
    elif command == "bipersist":
        with open(fx("edge_diagram.json"), encoding="utf-8") as fh:
            embedded = json.load(fh)["complex"]
        cpath = tmp_path / "complex.json"
        cpath.write_text(serialize_json(embedded))
        argv = [command, str(cpath), fx("edge_diagram.json")]
    else:
        argv = [command, fx("points.csv"), "--thresholds", "0.5,1.5,2.5",
                "--max-dim", "2", "--hom-n", "0"]
    assert run(capsys, argv)[0] == 0
    assert coords_solves["coords"] > 0
    assert coords_solves["solves"] == []


def _fresh_python(code: str, **env) -> tuple:
    """(exit code, stdout, stderr) of code run in a new interpreter with
    PYTHONPATH=src.  env sets variables; a value of None unsets one."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    environ = dict(os.environ, PYTHONPATH=src)
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=environ
    )
    return done.returncode, done.stdout, done.stderr


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, persheaf.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code) == (0, "[]\n", "")


def test_no_subcommand_loads_numpy_ma(tmp_path):
    runs = [argv for argv, _ in _subcommand_runs(tmp_path)]
    code = (
        "import contextlib, io, sys\n"
        "from persheaf.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    assert _fresh_python(code) == (0, "[]\n", "")


def test_package_import_loads_no_module_and_sets_no_variable():
    code = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import persheaf\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'persheaf')))\n"
        "print(dict(os.environ) == before)\n"
    )
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=None) == (0, "['persheaf']\nTrue\n", "")


@pytest.mark.parametrize("given, pinned", [(None, "1"), ("3", "3")])
def test_cli_import_pins_openblas_unless_the_caller_did(given, pinned):
    code = "import os, persheaf.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=given) == (0, f"{pinned}\n", "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_thread():
    code = "import os, persheaf.cli; print(len(os.listdir('/proc/self/task')))"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=None) == (0, "1\n", "")


def test_package_names_load_on_first_use():
    code = (
        "import persheaf\n"
        "print([n for n in persheaf.__all__ if n not in dir(persheaf)])\n"
        "for name in persheaf.__all__:\n"
        "    getattr(persheaf, name)\n"
        "star = {}\n"
        "exec('from persheaf import *', star)\n"
        "print(sorted(set(persheaf.__all__) - set(star)))\n"
        "try:\n"
        "    persheaf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    expected = "[]\n[]\nmodule 'persheaf' has no attribute 'no_such_name'\n"
    assert _fresh_python(code) == (0, expected, "")


@pytest.fixture(scope="module")
def backward_rips(tmp_path_factory):
    """(complex data, sheaf path) of the first backward-rips bench input at seed 7."""
    workdir = tmp_path_factory.mktemp("backward-rips")
    bench_input("backward-rips", workdir)
    with open(workdir / "complex.json", encoding="utf-8") as fh:
        return json.load(fh), str(workdir / "sheaf.json")


def _persist_t(capsys, tmp_path, data, sheaf):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    return run(capsys, ["persist-t", str(path), sheaf])


@pytest.mark.parametrize("shift", [2**70, -5])
def test_vertex_labels_only_need_an_order(capsys, tmp_path, backward_rips, shift):
    data, sheaf = backward_rips
    shifted = json.loads(json.dumps(data))
    for s in shifted["simplices"]:
        s["vertices"] = [v + shift for v in s["vertices"]]
    plain = _persist_t(capsys, tmp_path, data, sheaf)
    assert plain[0] == 0 and plain[1].startswith("H^0: [0, ")
    assert _persist_t(capsys, tmp_path, shifted, sheaf) == plain


def test_entry_past_int64_is_invalid_input(capsys, tmp_path, backward_rips):
    data, sheaf = backward_rips
    broken = json.loads(json.dumps(data))
    broken["simplices"][3]["entry"] = 2**70
    sims = [Simplex(s["id"], tuple(s["vertices"]), s["entry"]) for s in broken["simplices"]]
    problems = ref.validate_complex(sims, broken["steps"])
    assert f"entry {2**70} of {sims[3].id!r} is outside 0..2" in problems
    assert any("exceeds entry of coface" in p for p in problems)
    assert _persist_t(capsys, tmp_path, broken, sheaf) == (2, "", "\n".join(problems) + "\n")


STEP_COUNT_INPUTS = {
    "validate": ["sheaf"],
    "cohomology": ["complex", "sheaf"],
    "persist-t": ["complex", "sheaf"],
    "persist-a": ["diagram"],
    "bipersist": ["complex", "diagram"],
}


@pytest.mark.parametrize("command", sorted(STEP_COUNT_INPUTS))
@pytest.mark.parametrize("steps", [-1, 0])
def test_step_count_below_one_is_invalid_input(capsys, tmp_path, command, steps):
    complex_ = {"field": 2, "steps": steps, "simplices": []}
    level = {"stalks": {}, "restrictions": []}
    files = {
        "complex": complex_,
        "sheaf": {"complex": complex_, **level},
        "diagram": {"complex": complex_, "snapshots": [level], "steps": []},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [command] + [str(tmp_path / f"{n}.json") for n in STEP_COUNT_INPUTS[command]]
    message = f"steps must be at least 1, got {steps}\n"
    want = (message, "") if command == "validate" else ("", message)
    assert run(capsys, argv) == (2, *want)


def stray_id_run(capsys, tmp_path, command, edit):
    """(exit, stdout, stderr) of command on the edge diagram's files,
    after edit(files) changed their data."""
    d = edge_diagram()
    files = {
        "complex": complex_to_data(d.complex),
        "sheaf": sheaf_to_data(d.snapshots[-1]),
        "diagram": diagram_to_data(d),
    }
    edit(files)
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [command] + [str(tmp_path / f"{n}.json") for n in STEP_COUNT_INPUTS[command]]
    return run(capsys, argv)


@pytest.mark.parametrize("command", sorted(STEP_COUNT_INPUTS))
def test_stalk_under_no_simplex_is_invalid_input(capsys, tmp_path, command):
    assert stray_id_run(capsys, tmp_path, command, lambda files: None)[0] == 0

    def stray(files):
        files["sheaf"]["stalks"]["nope"] = 1
        files["diagram"]["snapshots"][1]["stalks"]["nope"] = 1

    message = "stalk stored under 'nope', which names no simplex\n"
    if "diagram" in STEP_COUNT_INPUTS[command]:
        message = "snapshot 1: " + message
    want = (message, "") if command == "validate" else ("", message)
    assert stray_id_run(capsys, tmp_path, command, stray) == (2, *want)


@pytest.mark.parametrize("command", ["bipersist", "persist-a"])
def test_component_under_no_simplex_is_invalid_input(capsys, tmp_path, command):
    def ghost(files):
        files["diagram"]["steps"][2]["ghost"] = [[1]]

    message = "step 2: component stored under 'ghost', which names no simplex\n"
    assert stray_id_run(capsys, tmp_path, command, ghost) == (2, "", message)


def test_closure_of_a_7_simplex_through_the_cli(capsys, tmp_path):
    sims = closure(7, [3 * v - 2**70 for v in range(8)])
    x = FilteredComplex(Field(3), sims)
    for k in range(1, 8):
        assert x.face_table(k).tolist() == ref.face_table(sims, k).tolist()
    cpath, spath = tmp_path / "complex.json", tmp_path / "sheaf.json"
    cpath.write_text(serialize_json(complex_to_data(x)))
    spath.write_text(serialize_json(sheaf_to_data(constant(x, 1), embed_complex=False)))
    code, out, err = run(capsys, ["cohomology", str(cpath), str(spath)])
    assert (code, err) == (0, "")
    assert out == "H^0: 1\n" + "".join(f"H^{k}: 0\n" for k in range(1, 8))


def test_parsing_builds_no_simplex_one_at_a_time(capsys, tmp_path, monkeypatch):
    x = random_complex(random.Random(3), Field(2), 30, min_steps=3)
    cpath, spath = tmp_path / "complex.json", tmp_path / "sheaf.json"
    cpath.write_text(serialize_json(complex_to_data(x)))
    spath.write_text(serialize_json(sheaf_to_data(constant(x, 1), embed_complex=False)))
    calls = []
    for cls, name in ((Simplex, "__post_init__"), (FilteredComplex, "__init__")):
        original = getattr(cls, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    argv = ["persist-t", str(cpath), str(spath), "--engine", "direct"]
    assert run(capsys, argv)[0] == 0
    assert calls == ["__init__"]
