"""File formats and barcode rendering.

Complexes, sheaves and diagrams travel as JSON with per-simplex ids so
the data stays human-auditable; labeled point clouds travel as CSV
with the label in the trailing column.  Serialization is deterministic:
identical objects produce identical bytes.  A sheaf file's restriction
entries are read off as they are decoded, so none becomes a JSON object.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .complexes import FilteredComplex, Simplex, _SimplexLists
from .linalg import Field, matrix
from .persistence import Barcode
from .sheaves import (
    CellularSheaf,
    SheafDiagram,
    SheafMorphism,
    _Batch,
    _codim1_pairs,
    _Maps,
    _starts,
)

__all__ = [
    "complex_to_data",
    "complex_from_data",
    "sheaf_to_data",
    "sheaf_from_data",
    "diagram_to_data",
    "diagram_from_data",
    "barcode_to_data",
    "barcode_from_data",
    "parse_complex",
    "parse_sheaf",
    "parse_diagram",
    "parse_points",
    "serialize_json",
    "BarcodeReport",
    "render_barcode",
    "render_reports",
]


def complex_to_data(x: FilteredComplex) -> dict:
    return {
        "field": x.field.p,
        "steps": x.steps,
        "simplices": [
            {"id": s.id, "vertices": list(s.vertices), "entry": s.entry}
            for s in x.simplices
        ],
    }


_KINDS = {dict: "a JSON object", list: "a list", int: "an integer", str: "a string"}


def _got(value) -> str:
    if isinstance(value, (dict, list)):
        return _KINDS[type(value)]
    return json.dumps(value)


def _typed(value, kind, where: str):
    """value if it has the JSON type kind, else a ValueError naming where.

    Booleans are not integers here, and neither is 1.0.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: expected {_KINDS[kind]}, got {_got(value)}")
    return value


def _require(data, key: str, where: str, kind=None):
    """data[key]; a ValueError naming the key and its JSON path if absent.

    With kind, the value must also have that JSON type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in data:
        raise ValueError(f"{where}: missing key {key!r}")
    value = data[key]
    if kind is None or type(value) is kind:
        return value
    return _typed(value, kind, f"{where}.{key}")


def _all_integers(values, where: str):
    """Check every item of a JSON list, or every value of an object."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    for key, v in items:
        if type(v) is not int:
            _typed(v, int, f"{where}[{key!r}]")


def _matrix(value, where: str) -> np.ndarray:
    """A JSON list of integer rows as an int64 matrix.

    The entries are checked by the dtype numpy infers for the whole
    array: anything but an integer dtype (a float such as 1.5, a
    string, null, an integer beyond 64 bits) is refused, not truncated.
    numpy reads a boolean among integers as 0 or 1, so the entry types
    are also collected, in one pass in C.  The morphism the matrix goes
    into reduces it mod p.
    """
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list of rows, got {_got(value)}")
    if not value:
        return matrix(value)
    try:
        a = np.array(value)
    except ValueError:
        a = None
    if a is None or a.ndim != 2:
        raise ValueError(f"{where}: expected a list of rows of equal length")
    if a.size and (a.dtype.kind != "i" or bool in {*map(type, chain(*value))}):
        raise ValueError(f"{where}: expected integer entries")
    return a.astype(np.int64, copy=False)


def _flat(values, rows, cols):
    """JSON matrices, values[n] of rows[n] x cols[n] integers, as one flat
    int64 array, row by row, or None.

    The bulk check of _matrix: every matrix a list of rows lists, each
    of its length, every entry an int (a bool is not one) within 64
    bits.  It reads the entries once, flat, so numpy never has to
    discover the nesting.  None sends the list back to _matrix, one
    matrix at a time.
    """
    if not {*map(type, values)} <= {list}:
        return None
    lines = list(chain.from_iterable(values))
    if not (
        {*map(type, lines)} <= {list}
        and np.array_equal([*map(len, values)], rows)
        and np.array_equal([*map(len, lines)], np.repeat(cols, rows))
    ):
        return None
    flat = list(chain.from_iterable(lines))
    if not {*map(type, flat)} <= {int}:
        return None
    try:
        return np.array(flat, dtype=np.int64)
    except OverflowError:
        return None


class _Reread(Exception):
    """A captured entry cannot be named as bad: parse_sheaf reads its file again."""


_ENTRY = object()  # a restriction entry captured by parse_sheaf


def _each_entry(entries, where: str):
    """Check a "restrictions" list entry by entry: the first bad entry raises."""
    for n, entry in enumerate(entries):
        if entry is _ENTRY:
            raise _Reread
        at = f"{where}.restrictions[{n}]"
        _require(entry, "face", at, str)
        _require(entry, "coface", at, str)
        _matrix(_require(entry, "matrix", at), f"{at}.matrix")


def _restrictions(entries, stalks: dict, complex_: FilteredComplex, where: str, captured) -> _Maps:
    """A sheaf's "restrictions" list as maps by simplex position, each id
    looked up once, read and reduced mod p once.  captured, if given, is
    parse_sheaf's lists of the entries' faces, cofaces and matrices.

    Every matrix is read in the shape its stalks ask for by _flat; a
    JSON [] is 0 x 0 there, as _matrix reads it.  When the list does not
    come out as one flat array of integers (a bad entry, or a matrix of
    another shape), it is checked entry by entry, so the first bad entry
    raises as in a reading one by one, and read matrix by matrix.  A
    later entry for the same incidence replaces an earlier one.
    """
    try:
        faces, cofaces, values = captured or (
            list(map(itemgetter(key), entries)) for key in ("face", "coface", "matrix")
        )
        if not {*map(type, faces), *map(type, cofaces)} <= {str}:
            raise TypeError("a face or coface is not a simplex id")
    except (KeyError, TypeError):
        _each_entry(entries, where)
        raise
    ids, p = complex_._ids, complex_.field.p
    # the stalk dimensions in the global order, then a 0 for position -1
    sizes = np.fromiter(chain(map(stalks.get, ids, repeat(0)), [0]), np.int64, len(ids) + 1)
    at = complex_.positions(faces + cofaces)
    cols, rows = sizes[at].reshape(2, -1)  # (face, coface) dimensions
    cols[rows == 0] = 0  # a JSON [] is 0 x 0, as _matrix reads it
    flat = _flat(values, rows, cols)
    if flat is not None:
        batch = _Batch(flat % p, _starts(rows * cols), rows, cols)
    else:  # a bad entry or another shape: the first bad entry raises
        _each_entry(entries, where)
        batch = _Batch.of([_matrix(m, where) % p for m in values])
    return _Maps.named(complex_, faces, cofaces, batch, at)


def complex_from_data(data: dict, where: str = "complex") -> FilteredComplex:
    """The complex of a JSON object, its simplices checked in bulk: each
    field by its set of types, the vertex lists in one numpy pass.  Only
    if a check fails are they read one by one, so the first bad one raises.
    """
    items = _require(data, "simplices", where, list)
    try:
        simplices = _SimplexLists(
            *(list(map(itemgetter(key), items)) for key in ("id", "vertices", "entry"))
        )
        flat = list(chain(*simplices.vertices))
        lens = np.fromiter(map(len, simplices.vertices), np.int64, len(items))
        rises = np.diff(np.array(flat, dtype=np.int64)) > 0
        rises[np.cumsum(lens)[:-1] - 1] = True  # where one list ends
        kinds = zip((items, *simplices, flat), (dict, str, list, int, int))
        ok = all({*map(type, part)} <= {kind} for part, kind in kinds)
        ok = ok and lens.min(initial=1) > 0 and min(simplices.entries, default=0) >= 0
    except (KeyError, TypeError, ValueError, OverflowError, IndexError):
        ok = False
    if not (ok and rises.all()):
        simplices = []
        for i, s in enumerate(items):
            at = f"{where}.simplices[{i}]"
            vertices = _require(s, "vertices", at, list)
            _all_integers(vertices, f"{at}.vertices")
            sid, entry = _require(s, "id", at, str), _require(s, "entry", at, int)
            simplices.append(Simplex(sid, tuple(vertices), entry))
    field = Field(_require(data, "field", where, int))
    return FilteredComplex(
        field, simplices, steps=_require(data, "steps", where, int)
    )


def _matrix_to_lists(m) -> list:
    return [[int(v) for v in row] for row in m]


def sheaf_to_data(sheaf: CellularSheaf, embed_complex: bool = True) -> dict:
    data: dict = {}
    if embed_complex:
        data["complex"] = complex_to_data(sheaf.complex)
    data["stalks"] = {s.id: sheaf.stalk(s.id) for s in sheaf.complex.simplices}
    restrictions = []
    for f, t in _codim1_pairs(sheaf.complex):
        if sheaf.stalk(f.id) == 0 or sheaf.stalk(t.id) == 0:
            continue
        restrictions.append(
            {
                "face": f.id,
                "coface": t.id,
                "matrix": _matrix_to_lists(sheaf.restriction(f.id, t.id)),
            }
        )
    data["restrictions"] = restrictions
    return data


def _complex_of(data, complex_, where: str, what: str) -> FilteredComplex:
    """complex_, or the complex embedded in data; both must then agree."""
    embedded = data.get("complex")
    if embedded is not None:
        built = complex_from_data(embedded, f"{where}.complex")
        if complex_ is None:
            complex_ = built
        elif not complex_.same_data(built):
            raise ValueError("embedded complex disagrees with the provided one")
    if complex_ is None:
        raise ValueError(f"{what} data has no complex and none was provided")
    return complex_


def sheaf_from_data(
    data: dict, complex_: FilteredComplex | None = None, where: str = "sheaf"
) -> CellularSheaf:
    return _sheaf(data, complex_, where, None)


def _sheaf(data, complex_, where: str, captured) -> CellularSheaf:
    stalk_data = _require(data, "stalks", where, dict)
    restriction_data = _require(data, "restrictions", where, list)
    complex_ = _complex_of(data, complex_, where, "sheaf")
    _all_integers(stalk_data, f"{where}.stalks")
    dims = stalk_data.values()
    if min(dims, default=0) < 0 or max(dims, default=0) >= 2**63:
        sid, dim = next((k, v) for k, v in stalk_data.items() if not 0 <= v < 2**63)
        raise ValueError(
            f"{where}.stalks[{sid!r}]: expected a dimension from 0 to 2^63 - 1, got {dim}"
        )
    restrictions = _restrictions(restriction_data, stalk_data, complex_, where, captured)
    return CellularSheaf(complex_, stalk_data, restrictions)


def diagram_to_data(diagram: SheafDiagram, embed_complex: bool = True) -> dict:
    data: dict = {}
    if embed_complex:
        data["complex"] = complex_to_data(diagram.complex)
    data["snapshots"] = [
        sheaf_to_data(s, embed_complex=False) for s in diagram.snapshots
    ]
    steps = []
    for phi in diagram.steps:
        comp = {}
        for s in diagram.complex.simplices:
            if phi.source.stalk(s.id) and phi.target.stalk(s.id):
                comp[s.id] = _matrix_to_lists(phi.component(s.id))
        steps.append(comp)
    data["steps"] = steps
    return data


def diagram_from_data(data: dict, complex_: FilteredComplex | None = None) -> SheafDiagram:
    snapshot_data = _require(data, "snapshots", "diagram", list)
    step_data = _require(data, "steps", "diagram", list)
    if len(step_data) != max(len(snapshot_data) - 1, 0):
        raise ValueError(
            f"diagram.steps: expected one entry between consecutive snapshots, "
            f"got {len(step_data)} for {len(snapshot_data)} snapshots"
        )
    complex_ = _complex_of(data, complex_, "diagram", "diagram")
    snapshots = [
        sheaf_from_data(s, complex_, f"diagram.snapshots[{i}]")
        for i, s in enumerate(snapshot_data)
    ]
    steps = []
    for i, comp_data in enumerate(step_data):
        at = f"diagram.steps[{i}]"
        comp = {
            sid: _matrix(m, f"{at}[{sid!r}]")
            for sid, m in _typed(comp_data, dict, at).items()
        }
        steps.append(SheafMorphism(snapshots[i], snapshots[i + 1], comp))
    return SheafDiagram(snapshots, steps)


def barcode_to_data(barcode: Barcode) -> list:
    return [[a, b] for a, b in barcode]


def barcode_from_data(data) -> Barcode:
    return Barcode((a, b) for a, b in data)


def _load(path: str, object_pairs_hook=None):
    """The JSON in a file; text that does not decode is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.loads(fh.read(), object_pairs_hook=object_pairs_hook)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply to read") from None
        except ValueError as err:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {err}") from None


def parse_complex(path: str) -> FilteredComplex:
    return complex_from_data(_load(path))


def parse_sheaf(path: str, complex_: FilteredComplex | None = None) -> CellularSheaf:
    """The sheaf in a file.  Each object keyed "face", "coface", "matrix"
    is read off onto three lists as it is decoded.  When "restrictions"
    is not exactly those objects, or the text does not decode, or an
    entry is bad, sheaf_from_data reads the file's whole tree instead."""
    captured = faces, cofaces, values = [], [], []

    def entry(pairs):
        if len(pairs) == 3:
            (kf, face), (kc, coface), (km, value) = pairs
            if (kf, kc, km) == ("face", "coface", "matrix"):
                faces.append(face)
                cofaces.append(coface)
                values.append(value)
                return _ENTRY
        return dict(pairs)

    data = None
    with suppress(ValueError):  # sheaf_from_data below names the fault
        data = _load(path, entry)
    entries = data.get("restrictions") if type(data) is dict else None
    with suppress(_Reread):
        if type(entries) is list and entries.count(_ENTRY) == len(entries) == len(faces):
            return _sheaf(data, complex_, "sheaf", captured)
    return sheaf_from_data(_load(path), complex_)


def parse_diagram(path: str, complex_: FilteredComplex | None = None) -> SheafDiagram:
    return diagram_from_data(_load(path), complex_)


def _coordinate(text: str, line: int, column: int) -> float:
    at = f"line {line}, column {column}: coordinate {text!r}"
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{at} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{at} is not finite")
    return value


def parse_points(path: str):
    """Labeled point cloud: each CSV row is coordinates plus a label.

    Blank cells are skipped.  A coordinate that is not a finite number,
    a row without a coordinate and a label, and a row with another
    coordinate count than the first are ValueErrors naming their line.
    """
    points, labels = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                line = reader.line_num
                cells = [(n, cell.strip()) for n, cell in enumerate(row, 1) if cell.strip()]
                if not cells:
                    continue
                if len(cells) < 2:
                    raise ValueError(f"line {line}: each row needs coordinates and a label")
                point = tuple(_coordinate(c, line, n) for n, c in cells[:-1])
                if points and len(point) != len(points[0]):
                    raise ValueError(
                        f"line {line}: expected {len(points[0])} coordinates "
                        f"as in the first row, got {len(point)}"
                    )
                points.append(point)
                labels.append(cells[-1][1])
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
    return points, labels


def serialize_json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


@dataclass(frozen=True)
class BarcodeReport:
    """One barcode with the context needed to print it."""

    degree: int
    bars: tuple
    engine: str
    field: int

    @classmethod
    def of(cls, degree: int, barcode: Barcode, engine: str, field: int):
        return cls(degree, tuple(barcode), engine, field)

    def to_data(self) -> dict:
        return {
            "degree": self.degree,
            "bars": [[a, b] for a, b in self.bars],
            "engine": self.engine,
            "field": self.field,
        }


def _bar_text(degree: int, a: int, b) -> str:
    end = "inf)" if b is None else f"{b}]"
    return f"H^{degree}: [{a}, {end}"


def _render_text(reports) -> str:
    lines = []
    for rep in reports:
        if not rep.bars:
            lines.append(f"H^{rep.degree}: (empty)")
            continue
        for a, b in rep.bars:
            lines.append(_bar_text(rep.degree, a, b))
    return "\n".join(lines) + "\n"


def _render_json(reports, single: bool) -> str:
    if single:
        return json.dumps(reports[0].to_data(), indent=2, sort_keys=True) + "\n"
    data = [rep.to_data() for rep in reports]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_ROW = 18
_SCALE = 40
_LEFT = 70
_TOP = 30


def _render_svg(reports) -> str:
    """Horizontal bars over an integer axis, one row per bar.

    Unbounded bars run to the axis end and get an arrowhead; the axis
    extends one unit past the largest endpoint so they stay readable.
    """
    ends = [0]
    for rep in reports:
        for a, b in rep.bars:
            ends.append(a)
            if b is not None:
                ends.append(b)
    axis_end = max(ends) + 1
    nrows = sum(max(len(rep.bars), 1) for rep in reports)
    width = _LEFT + axis_end * _SCALE + 60
    height = _TOP + nrows * _ROW + 40
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    axis_y = _TOP + nrows * _ROW + 10
    x0 = _LEFT
    x1 = _LEFT + axis_end * _SCALE
    out.append(
        f'<line x1="{x0}" y1="{axis_y}" x2="{x1}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for t in range(axis_end + 1):
        x = _LEFT + t * _SCALE
        out.append(
            f'<line x1="{x}" y1="{axis_y - 3}" x2="{x}" y2="{axis_y + 3}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{axis_y + 16}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{t}</text>'
        )
    row = 0
    for rep in reports:
        label_rows = max(len(rep.bars), 1)
        label_y = _TOP + row * _ROW + (label_rows * _ROW) // 2 + 4
        out.append(
            f'<text x="10" y="{label_y}" font-size="12" '
            f'font-family="monospace">H^{rep.degree}</text>'
        )
        if not rep.bars:
            row += 1
            continue
        for a, b in rep.bars:
            y = _TOP + row * _ROW + _ROW // 2
            xa = _LEFT + a * _SCALE
            if b is None:
                xb = x1
                out.append(
                    f'<line x1="{xa}" y1="{y}" x2="{xb}" y2="{y}" '
                    'stroke="steelblue" stroke-width="6"/>'
                )
                out.append(
                    f'<polygon points="{xb},{y - 6} {xb + 10},{y} {xb},{y + 6}" '
                    'fill="steelblue"/>'
                )
            else:
                xb = _LEFT + (b + 1) * _SCALE
                out.append(
                    f'<line x1="{xa}" y1="{y}" x2="{xb}" y2="{y}" '
                    'stroke="steelblue" stroke-width="6"/>'
                )
            row += 1
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_reports(reports, fmt: str, single: bool = False) -> str:
    if fmt == "text":
        return _render_text(reports)
    if fmt == "json":
        return _render_json(reports, single)
    if fmt == "svg":
        return _render_svg(reports)
    raise ValueError(f"unknown format {fmt!r}")


def render_barcode(report: BarcodeReport, fmt: str) -> str:
    return render_reports([report], fmt, single=True)
