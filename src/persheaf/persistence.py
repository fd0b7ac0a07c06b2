"""One-parameter persistence modules and their interval decomposition.

A module of length m is a chain of F_p spaces joined by forward maps;
a copersistence module runs the maps backward.  The maps are held as
linalg.Columns.  Decomposition is by the rank formula: bar
multiplicities are an inclusion-exclusion over ranks of composite
maps, which are sparse products (linalg._mulcols) ranked by the one
column reduction.  The diagram is implicitly continued to the right by
identity maps, so a class alive at the last index belongs to an
unbounded bar, written (a, None).
"""

from __future__ import annotations

from .linalg import Field, _mulcols

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


def _composite_ranks(module: PersistenceModule) -> list:
    """r[a][b] = rank of the composite map a -> b, r[a][a] = dims[a].

    Row a starts from maps[a] itself and goes on from the reduced pivot
    columns of each composite, a basis of its image, so a module of
    length m makes (m-1)(m-2)/2 sparse products, none with an identity,
    and each is only as wide as the rank before it.
    """
    m = module.length
    field = module.field
    r = [[0] * m for _ in range(m)]
    for a in range(m):
        r[a][a] = module.dims[a]
        image = None
        for b in range(a + 1, m):
            step = module.maps[b - 1]
            comp = step if image is None else _mulcols(step, image, field.p)
            image = field._column_echelon(comp).reduced
            r[a][b] = image.shape[1]
    return r


def decompose_by_ranks(module: PersistenceModule) -> Barcode:
    """Interval decomposition via the rank formula.

    mult[a, b] = r(a,b) - r(a-1,b) - r(a,b+1) + r(a-1,b+1) for b below
    the last index; classes alive at the last index become unbounded
    bars with multiplicity r(a, m-1) - r(a-1, m-1).
    """
    m = module.length
    table = _composite_ranks(module)

    def r(a, b):
        return 0 if a < 0 else table[a][b]

    bars = []
    for a in range(m):
        for b in range(a, m - 1):
            mult = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            if mult < 0:
                raise AssertionError(f"negative multiplicity at [{a}, {b}]")
            bars.extend([(a, b)] * mult)
        mult = r(a, m - 1) - r(a - 1, m - 1)
        if mult < 0:
            raise AssertionError(f"negative multiplicity at [{a}, inf)")
        bars.extend([(a, None)] * mult)
    return Barcode(bars)


def decompose_copersistence(module: CopersistenceModule) -> Barcode:
    """Barcode of a backward diagram, via the transposed forward module."""
    return decompose_by_ranks(module.transposed())
