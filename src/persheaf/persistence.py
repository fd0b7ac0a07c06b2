"""One-parameter persistence modules and their interval decomposition.

A module of length m is a chain of F_p spaces joined by forward maps;
a copersistence module runs the maps backward.  The maps are held as
linalg.Columns.  Decomposition is the left-to-right reduction with the
elder rule (Zomorodian and Carlsson, "Computing persistent homology",
DCG 2005): a basis of each space, oldest class first, is pushed through
the next map, the one column reduction finds which classes die there,
and unit vectors complete the image to a basis of the next space.  The
diagram is implicitly continued to the right by identity maps, so a
class alive at the last index belongs to an unbounded bar, written
(a, None).
"""

from __future__ import annotations

from .linalg import Columns, Field, _hstack, _mulcols

__all__ = [
    "Barcode",
    "PersistenceModule",
    "CopersistenceModule",
    "decompose_by_ranks",
    "decompose_copersistence",
    "reflect",
    "barcodes_equal",
]


def _bar_key(bar):
    a, b = bar
    # finite bars of equal birth sort before the unbounded one
    return (a, 1, 0) if b is None else (a, 0, b)


class Barcode:
    """An immutable multiset of bars (a, b), with b = None meaning no death."""

    def __init__(self, bars=()):
        clean = []
        for a, b in bars:
            a = int(a)
            b = None if b is None else int(b)
            if a < 0:
                raise ValueError(f"bar cannot start at {a}")
            if b is not None and b < a:
                raise ValueError(f"bar ({a}, {b}) ends before it starts")
            clean.append((a, b))
        self.bars = tuple(sorted(clean, key=_bar_key))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __eq__(self, other):
        return isinstance(other, Barcode) and other.bars == self.bars

    def __hash__(self):
        return hash(self.bars)

    def __repr__(self):
        inner = ", ".join(
            f"[{a}, inf)" if b is None else f"[{a}, {b}]" for a, b in self.bars
        )
        return "Barcode({" + inner + "})"

    def closed(self, m: int) -> "Barcode":
        """Rewrite unbounded bars as [a, m-1], for an index range of length m."""
        out = []
        for a, b in self.bars:
            if b is None:
                if a > m - 1:
                    raise ValueError(f"bar starting at {a} exceeds {m} indices")
                b = m - 1
            out.append((a, b))
        return Barcode(out)


def barcodes_equal(x: Barcode, y: Barcode) -> bool:
    return Barcode(x).bars == Barcode(y).bars


def reflect(bc: Barcode, m: int) -> Barcode:
    """Reverse a barcode across an index range of length m.

    [a, b] becomes [m-1-b, m-1-a].  An unbounded bar is read as ending
    at m-1 first; the result keeps the unbounded marker only when it
    still touches the last index after reflection, i.e. when a = 0.
    """
    out = []
    for a, b in bc:
        if b is None:
            if a >= m:
                raise ValueError(f"bar start {a} outside range of length {m}")
            out.append((0, None) if a == 0 else (0, m - 1 - a))
        else:
            if b >= m:
                raise ValueError(f"bar end {b} outside range of length {m}")
            out.append((m - 1 - b, m - 1 - a))
    return Barcode(out)


class _Module:
    """Spaces of dimensions dims[i], with maps[i] between i and i+1.

    The maps run forward, from i to i+1, unless _down.  They are held
    as Columns; a dense map given here is converted once.
    """

    _down = False

    def __init__(self, field: Field, dims, maps):
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        name = "copersistence" if self._down else "persistence"
        if not self.dims:
            raise ValueError(f"a {name} module needs at least one index")
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be nonnegative")
        self.maps = tuple(field.sparse(m) for m in maps)
        if len(self.maps) != len(self.dims) - 1:
            raise ValueError("expected one map per consecutive index pair")
        for i, mp in enumerate(self.maps):
            source, target = (i + 1, i) if self._down else (i, i + 1)
            want = (self.dims[target], self.dims[source])
            if mp.shape != want:
                raise ValueError(f"map {i} has shape {mp.shape}, expected {want}")

    @property
    def length(self) -> int:
        return len(self.dims)


class PersistenceModule(_Module):
    """Spaces of dimensions dims[i] with maps[i] running from i to i+1."""


class CopersistenceModule(_Module):
    """Spaces of dimensions dims[i] with maps[i] running from i+1 to i."""

    _down = True

    def transposed(self) -> PersistenceModule:
        """The dual module: same dims, every map transposed to run forward."""
        return PersistenceModule(self.field, self.dims, [m.transposed() for m in self.maps])


def decompose_by_ranks(module: PersistenceModule) -> Barcode:
    """Interval decomposition by one left-to-right sweep.

    basis spans the current space, oldest class first, with one birth
    per column; at index 0 it is the identity, so maps[0] is reduced as
    it is.  Each map is applied to basis and reduced once: a column
    that reduces to zero dies there, and the reduced pivot columns keep
    their births as a basis of the image.  Unit vectors at the rows
    that own no pivot complete it to a basis of the next space, born
    there.
    """
    field = module.field
    births = [0] * module.dims[0]
    basis = None
    bars = []
    for i, step in enumerate(module.maps):
        image = step if basis is None else _mulcols(step, basis, field.p)
        found = field._column_echelon(image)
        bars.extend((births[j], i) for j in found.zero)
        births = [births[j] for j in found.pivots.values()]
        rows = step.shape[0]
        fresh = Columns.units(rows, [r for r in range(rows) if r not in found.pivots])
        basis = _hstack(found.reduced, fresh)
        births += [i + 1] * fresh.shape[1]
    bars.extend((a, None) for a in births)
    return Barcode(bars)


def decompose_copersistence(module: CopersistenceModule) -> Barcode:
    """Barcode of a backward diagram, via the transposed forward module."""
    return decompose_by_ranks(module.transposed())
