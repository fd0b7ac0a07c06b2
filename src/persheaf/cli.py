"""Command-line interface.

Exit codes: 0 success, 1 usage error (a negative --k, --max-dim or
--hom-n, and a --field that is not a prime below 2^31, among them), 2
invalid input (also an input too large to allocate, reported in one
line, and a --field that disagrees with the input's field), 3 engine
mismatch (the cross-checking modes treat any disagreement between two
routes to the same barcode as a hard failure), 4 internal error (a
broken internal invariant, reported in one line on stderr).

persist-t, persist-a, bipersist, labeled and unicolored validate their
input once, build what every degree shares once, and then do only the
per-degree work; a filtration's complex is assembled once and read at
every step through its leading blocks.

Importing this module pins OpenBLAS to one thread, unless the caller
has set OPENBLAS_NUM_THREADS: nothing here runs BLAS, and its thread
pool would only slow start-up.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# All arithmetic is exact F_p on int64 arrays, which numpy never hands to
# BLAS; OpenBLAS's worker thread would only cost start-up.  Set before
# numpy loads, which the package imports below do; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bipersistence import check_commutative, grid_by_degree
from .cohomology import CochainComplex, cohomology_basis, persistent_cohomology_by_degree
from .complexes import vietoris_rips
from .formats import (
    BarcodeReport,
    parse_complex,
    parse_diagram,
    parse_points,
    parse_sheaf,
    render_reports,
    serialize_json,
)
from .graded import NotFreeError, diagram_graded_barcode_by_degree
from .labeled import LabeledFiltration, label_diagram, unicolored_pipeline
from .linalg import Field, _is_prime
from .persistence import barcodes_equal
from .sheaves import validate_diagram, validate_sheaf
from .typet import type_t_direct_by_degree, type_t_graded_by_degree

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _nonnegative_int(text: str) -> int:
    """A nonnegative integer option value (a degree or a dimension)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _field_order(text: str) -> int:
    """A --field value: a prime p with 2 <= p < 2^31."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not (2 <= value < 2**31 and _is_prime(value)):
        # raised past argparse, which would prefix the option's name
        raise _UsageError(f"--field must be a prime below 2^31, got {value}")
    return value


def _create_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--field", type=_field_order, default=None)
    common.add_argument(
        "--format", choices=("text", "json", "svg"), default="text"
    )
    common.add_argument("--closed-end", action="store_true")

    parser = _Parser(prog="persheaf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common])
    p.add_argument("sheaf")

    p = sub.add_parser("cohomology", parents=[common])
    p.add_argument("complex")
    p.add_argument("sheaf")
    p.add_argument("--k", type=_nonnegative_int, default=None)

    p = sub.add_parser("persist-a", parents=[common])
    p.add_argument("diagram")
    p.add_argument("--k", type=_nonnegative_int, default=None)
    p.add_argument(
        "--engine", choices=("graded", "pointwise", "both"), default="both"
    )

    p = sub.add_parser("persist-t", parents=[common])
    p.add_argument("complex")
    p.add_argument("sheaf")
    p.add_argument("--k", type=_nonnegative_int, default=None)
    p.add_argument(
        "--engine", choices=("direct", "graded", "both"), default="both"
    )

    p = sub.add_parser("bipersist", parents=[common])
    p.add_argument("complex")
    p.add_argument("diagram")
    p.add_argument("--k", type=_nonnegative_int, default=None)

    p = sub.add_parser("labeled", parents=[common])
    p.add_argument("points")
    p.add_argument("--thresholds", required=True)
    p.add_argument("--max-dim", type=_nonnegative_int, required=True)
    p.add_argument("--hom-n", type=_nonnegative_int, required=True)
    p.add_argument("--k", type=_nonnegative_int, default=None)

    p = sub.add_parser("unicolored", parents=[common])
    p.add_argument("points")
    p.add_argument("--thresholds", required=True)
    p.add_argument("--k", type=_nonnegative_int, default=None)

    return parser


def _check_field(args, complex_) -> list:
    if args.field is not None and args.field != complex_.field.p:
        return [
            f"--field {args.field} disagrees with the file's field "
            f"{complex_.field.p}"
        ]
    return []


def _no_svg(args):
    if args.format == "svg":
        raise _UsageError("svg output is not available for this command")


def _degrees(args, top: int) -> list:
    if args.k is not None:
        return [args.k]
    return list(range(top + 1))


def _finish_barcode(barcode, closed_end: bool, m: int):
    return barcode.closed(m) if closed_end else barcode


def _invalid(args, complex_, problems) -> bool:
    """Write the problems of the input to stderr; whether there are any."""
    problems = _check_field(args, complex_) + complex_.validate() + problems
    sys.stderr.write("".join(f"{p}\n" for p in problems))
    return bool(problems)


def _emit(reports, args) -> int:
    sys.stdout.write(render_reports(reports, args.format, single=args.k is not None))
    return 0


def _cmd_validate(args) -> int:
    _no_svg(args)
    sheaf = parse_sheaf(args.sheaf)
    problems = (
        _check_field(args, sheaf.complex)
        + sheaf.complex.validate()
        + validate_sheaf(sheaf)
    )
    if args.format == "json":
        sys.stdout.write(
            serialize_json({"ok": not problems, "problems": problems})
        )
    elif problems:
        sys.stdout.write("\n".join(problems) + "\n")
    else:
        sys.stdout.write("ok\n")
    return 2 if problems else 0


def _cmd_cohomology(args) -> int:
    _no_svg(args)
    complex_ = parse_complex(args.complex)
    sheaf = parse_sheaf(args.sheaf, complex_)
    if _invalid(args, complex_, validate_sheaf(sheaf)):
        return 2
    cochains = CochainComplex(sheaf, validate=False)  # validated above
    dims = [
        [k, cohomology_basis(sheaf, k, cochains).dim]
        for k in _degrees(args, complex_.dim)
    ]
    if args.format == "json":
        sys.stdout.write(
            serialize_json({"dims": dims, "field": complex_.field.p})
        )
    else:
        sys.stdout.write("".join(f"H^{k}: {d}\n" for k, d in dims))
    return 0


def _cross_checked(args, degrees, m, p, pointwise, graded, name, note=""):
    """Emit one report per degree, or exit 3 if the two engines disagree.

    pointwise and graded map each degree to its barcode, or are None
    for an engine that did not run; graded bars are reported when there
    are any.  name is the pointwise engine's name in reports and
    messages.  note goes to stderr once per degree.
    """
    reports = []
    for k in degrees:
        sys.stderr.write(note)
        slow = pointwise[k] if pointwise is not None else None
        fast = graded[k] if graded is not None else None
        if slow is not None and fast is not None and not barcodes_equal(slow, fast):
            sys.stderr.write(
                f"engine mismatch at degree {k}: "
                f"{name} {slow!r} != graded {fast!r}\n"
            )
            return 3
        barcode = fast if fast is not None else slow
        engine = "graded" if fast is not None else name
        reports.append(
            BarcodeReport.of(k, _finish_barcode(barcode, args.closed_end, m), engine, p)
        )
    return _emit(reports, args)


def _cmd_persist_a(args) -> int:
    diagram = parse_diagram(args.diagram)
    complex_ = diagram.complex
    if _invalid(args, complex_, validate_diagram(diagram)):
        return 2
    degrees = _degrees(args, complex_.dim)
    graded = pointwise = None
    note = ""
    if args.engine in ("graded", "both"):
        try:
            graded = diagram_graded_barcode_by_degree(diagram, degrees)
        except NotFreeError as exc:
            if args.engine == "graded":
                sys.stderr.write(f"{exc}\n")
                return 2
            note = f"note: {exc}; falling back to the pointwise engine\n"
    if args.engine in ("pointwise", "both"):
        found = persistent_cohomology_by_degree(diagram, degrees)
        pointwise = {k: barcode for k, (_, barcode) in found.items()}
    return _cross_checked(
        args, degrees, diagram.length, complex_.field.p,
        pointwise, graded, "pointwise", note,
    )


def _cmd_persist_t(args) -> int:
    complex_ = parse_complex(args.complex)
    sheaf = parse_sheaf(args.sheaf, complex_)
    if _invalid(args, complex_, validate_sheaf(sheaf)):
        return 2
    degrees = _degrees(args, complex_.dim)
    direct = graded = None
    if args.engine in ("direct", "both"):
        found = type_t_direct_by_degree(sheaf, degrees)
        direct = {k: barcode for k, (_, barcode) in found.items()}
    if args.engine in ("graded", "both"):
        graded = type_t_graded_by_degree(sheaf, degrees)
    return _cross_checked(
        args, degrees, complex_.steps, complex_.field.p, direct, graded, "direct"
    )


def _cmd_bipersist(args) -> int:
    _no_svg(args)
    complex_ = parse_complex(args.complex)
    diagram = parse_diagram(args.diagram, complex_)
    if _invalid(args, complex_, validate_diagram(diagram)):
        return 2
    grids = grid_by_degree(diagram, _degrees(args, complex_.dim))
    for k, g in grids.items():
        bad = check_commutative(g)
        if bad is not None:
            sys.stderr.write(
                f"grid at degree {k} fails to commute at square {bad}\n"
            )
            return 3
    results = [(k, g.dims) for k, g in grids.items()]
    if args.format == "json":
        data = [
            {"degree": k, "dims": dims, "field": complex_.field.p}
            for k, dims in results
        ]
        if args.k is not None:
            data = data[0]
        sys.stdout.write(serialize_json(data))
    else:
        lines = []
        for k, dims in results:
            lines.append(f"k={k}")
            lines.extend(" ".join(str(d) for d in row) for row in dims)
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _labeled_input(args):
    points, labels = parse_points(args.points)
    given = args.thresholds
    try:
        thresholds = [float(t) for t in given.split(",") if t.strip()]
    except ValueError:
        raise _UsageError(f"--thresholds must be numbers, got {given!r}") from None
    if not thresholds:
        raise _UsageError("--thresholds needs at least one value")
    if not all(math.isfinite(t) for t in thresholds):
        raise _UsageError(f"--thresholds must be finite, got {given!r}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise _UsageError(f"--thresholds must be strictly increasing, got {given!r}")
    p = args.field if args.field is not None else 2
    max_dim = getattr(args, "max_dim", 1)
    x = vietoris_rips(Field(p), points, thresholds, max_dim)
    return LabeledFiltration(x, dict(enumerate(labels)))


def _emit_pointwise(args, lf, barcodes) -> int:
    """Emit the pointwise barcodes of a labeled filtration, by degree."""
    m, p = lf.filtration.steps, lf.filtration.field.p
    reports = [
        BarcodeReport.of(k, _finish_barcode(barcode, args.closed_end, m), "pointwise", p)
        for k, barcode in barcodes.items()
    ]
    return _emit(reports, args)


def _cmd_labeled(args) -> int:
    lf = _labeled_input(args)
    diagram = label_diagram(lf, args.hom_n)
    problems = validate_diagram(diagram)  # built here, so a problem is a bug
    if problems:
        raise AssertionError("label diagram: " + "; ".join(problems))
    found = persistent_cohomology_by_degree(
        diagram, _degrees(args, lf.label_complex.dim)
    )
    return _emit_pointwise(args, lf, {k: barcode for k, (_, barcode) in found.items()})


def _cmd_unicolored(args) -> int:
    lf = _labeled_input(args)
    found = unicolored_pipeline(lf, _degrees(args, max(lf.filtration.dim, 0)))
    return _emit_pointwise(args, lf, found)


_COMMANDS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "persist-a": _cmd_persist_a,
    "persist-t": _cmd_persist_t,
    "bipersist": _cmd_bipersist,
    "labeled": _cmd_labeled,
    "unicolored": _cmd_unicolored,
}


def main(argv=None) -> int:
    parser = _create_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


def entry():
    sys.exit(main())
