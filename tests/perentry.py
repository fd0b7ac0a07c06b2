"""One-entry-at-a-time reference reader of a sheaf's restriction list.

formats.sheaf_from_data reads the "restrictions" list in bulk, grouped
by shape.  The reader here takes the literal route: each entry in list
order, each field checked by plain Python type tests, each matrix
built alone.  The first bad entry raises, with the message the parser
gives it, and a later entry for the same (face, coface) pair replaces
an earlier one.
"""

import json

import numpy as np

from persheaf import CellularSheaf


def _got(value) -> str:
    if isinstance(value, dict):
        return "a JSON object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value)


def _field(entry, key: str, at: str):
    if not isinstance(entry, dict):
        raise ValueError(f"{at}: expected a JSON object")
    if key not in entry:
        raise ValueError(f"{at}: missing key {key!r}")
    return entry[key]


def _simplex_id(entry, key: str, at: str) -> str:
    value = _field(entry, key, at)
    if not isinstance(value, str):
        raise ValueError(f"{at}.{key}: expected a string, got {_got(value)}")
    return value


def read_matrix(value, at: str) -> np.ndarray:
    """A JSON list of integer rows as an int64 matrix, checked cell by cell.

    The empty list is the 0 x 0 matrix.  Rows must be lists of one
    length whose cells are not lists; every cell must then be an int
    (a bool is not one) within 64 bits.
    """
    if not isinstance(value, list):
        raise ValueError(f"{at}: expected a list of rows, got {_got(value)}")
    if not value:
        return np.zeros((0, 0), dtype=np.int64)
    rows_ok = all(isinstance(row, list) for row in value)
    if not rows_ok or len({len(row) for row in value}) != 1 or any(
        isinstance(cell, list) for row in value for cell in row
    ):
        raise ValueError(f"{at}: expected a list of rows of equal length")
    for row in value:
        for cell in row:
            if type(cell) is not int or not -(2**63) <= cell < 2**63:
                raise ValueError(f"{at}: expected integer entries")
    return np.array(value, dtype=np.int64).reshape(len(value), len(value[0]))


def read_restrictions(entries, p: int, where: str = "sheaf") -> dict:
    """(face id, coface id) to its matrix mod p, in first-seen key order."""
    maps = {}
    for n, entry in enumerate(entries):
        at = f"{where}.restrictions[{n}]"
        face = _simplex_id(entry, "face", at)
        coface = _simplex_id(entry, "coface", at)
        maps[(face, coface)] = read_matrix(_field(entry, "matrix", at), f"{at}.matrix") % p
    return maps


def sheaf_from_data(data, complex_, where: str = "sheaf") -> CellularSheaf:
    """formats.sheaf_from_data for data whose stalks are valid, given
    its complex."""
    maps = read_restrictions(data["restrictions"], complex_.field.p, where)
    return CellularSheaf(complex_, data["stalks"], maps)
