"""Two-parameter grids: a diagram of sheaves over a growing complex.

Taking every snapshot of a diagram over every filtration step gives a
grid of cohomology spaces with maps in two directions: along the
diagram, and from each complex down to the previous (smaller) one.
Each snapshot's cochain complex is assembled once, and each of its
coboundaries is reduced once for every step (cohomology._step_bases).
Rows are stored with the topological axis reversed, u = steps - 1 - i,
so that both stored directions point from smaller index to larger and
every square can be checked for commutativity the same way.
"""

from __future__ import annotations

from .cohomology import CochainComplex, _induced, _restrict, _step_bases
from .linalg import _mulcols
from .sheaves import SheafDiagram, _check_diagram

__all__ = ["BiGrid", "grid", "grid_by_degree", "check_commutative"]


class BiGrid:
    """A grid of vector space dimensions with maps right and down.

    hmaps[u][j] maps column j to column j+1 inside row u; vmaps[u][j]
    maps row u to row u+1 inside column j.  All rows have equal length.
    The maps are held as linalg.Columns; a dense map given here is
    converted once.
    """

    def __init__(self, field, dims, hmaps, vmaps):
        self.field = field
        self.dims = [list(row) for row in dims]
        self.hmaps = [[field.sparse(m) for m in row] for row in hmaps]
        self.vmaps = [[field.sparse(m) for m in row] for row in vmaps]
        rows = len(self.dims)
        if rows == 0 or len(self.dims[0]) == 0:
            raise ValueError("a grid needs at least one row and column")
        cols = len(self.dims[0])
        if any(len(row) != cols for row in self.dims):
            raise ValueError("rows of unequal length")
        if len(self.hmaps) != rows or any(
            len(row) != cols - 1 for row in self.hmaps
        ):
            raise ValueError("need one map per adjacent column pair per row")
        if len(self.vmaps) != rows - 1 or any(
            len(row) != cols for row in self.vmaps
        ):
            raise ValueError("need one map per adjacent row pair per column")
        for u in range(rows):
            for j in range(cols - 1):
                got = self.hmaps[u][j].shape
                want = (self.dims[u][j + 1], self.dims[u][j])
                if got != want:
                    raise ValueError(
                        f"map right at ({u}, {j}) has shape {got}, wanted {want}"
                    )
        for u in range(rows - 1):
            for j in range(cols):
                got = self.vmaps[u][j].shape
                want = (self.dims[u + 1][j], self.dims[u][j])
                if got != want:
                    raise ValueError(
                        f"map down at ({u}, {j}) has shape {got}, wanted {want}"
                    )

    @property
    def rows(self) -> int:
        return len(self.dims)

    @property
    def cols(self) -> int:
        return len(self.dims[0])


def grid_by_degree(diagram: SheafDiagram, degrees) -> dict:
    """The H^k grid of a valid diagram for every k in degrees.

    One cochain complex per snapshot is assembled, and each of its
    coboundaries is reduced once for every step.  Row u uses the leading
    parts of each diagram step's cochain maps; the maps down a column
    drop trailing rows.
    """
    x = diagram.complex
    mt = x.steps
    ma = len(diagram.snapshots)
    degrees = list(degrees)
    steps = [_step_bases(CochainComplex(s, validate=False), degrees) for s in diagram.snapshots]
    out = {}
    for k in degrees:
        bases = [[s[k][mt - 1 - u] for s in steps] for u in range(mt)]
        hmaps = [
            [_induced(phi, row[j], row[j + 1]) for j, phi in enumerate(diagram.steps)]
            for row in bases
        ]
        vmaps = [
            [_restrict(bases[u][j], bases[u + 1][j]) for j in range(ma)]
            for u in range(mt - 1)
        ]
        dims = [[b.dim for b in row] for row in bases]
        out[k] = BiGrid(x.field, dims, hmaps, vmaps)
    return out


def grid(diagram: SheafDiagram, k: int) -> BiGrid:
    """The H^k grid of a diagram over all steps of its filtered complex.

    Row u holds the snapshots over step i = steps - 1 - u, so the top
    row sees the whole complex.  Horizontal maps are induced by the
    diagram's morphisms, vertical ones by the step inclusions; bases
    are fixed once per grid position and shared by both directions.
    """
    _check_diagram(diagram)
    return grid_by_degree(diagram, [k])[k]


def check_commutative(g: BiGrid):
    """None if every square commutes, else the first failing (u, j).

    The square at (u, j) has corners (u, j) and (u+1, j+1); failure
    means right-then-down disagrees with down-then-right from (u, j).
    Both composites are sparse products (linalg._mulcols), whose stored
    arrays are canonical, so they are compared array for array.
    """
    p = g.field.p
    for u in range(g.rows - 1):
        for j in range(g.cols - 1):
            rd = _mulcols(g.vmaps[u][j + 1], g.hmaps[u][j], p)
            dr = _mulcols(g.hmaps[u + 1][j], g.vmaps[u][j], p)
            if rd != dr:
                return (u, j)
    return None
