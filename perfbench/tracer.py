"""Run one persheaf CLI job with spans around the calls into each layer.

Usage: python3 perfbench/tracer.py SPANS.json CLI-ARGS...

The package is not changed: this process imports it from src/, wraps
the functions and methods listed in LAYERS, re-binds each wrapped
module function in every persheaf module that imported it by name (a
call through a stale name would skip its span), then calls
persheaf.cli.main and writes the per-layer totals to SPANS.json.

Each span records wall time and the rise of ru_maxrss.  A layer is
charged self time and self rise: the span's own figure minus what its
child spans account for, since layers nest (cohomology_basis calls
Field.kernel_basis).  "cells" is the sum of rows x cols of the matrices
passed in.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

MODULES = (
    "formats", "complexes", "sheaves", "cohomology", "linalg", "graded",
    "persistence", "typet", "bipersistence", "labeled", "cli",
)

# Field.rank calls made directly inside these spans count as persistence.rank_calls.
PERSISTENCE_SPANS = ("decompose_by_ranks", "decompose_copersistence", "reflect")

# (module, attribute path, self-time metric or None, inclusive metric or None)
LAYERS = [
    ("formats", "parse_complex", "formats.parse_s", None),
    ("formats", "parse_sheaf", "formats.parse_s", None),
    ("formats", "parse_diagram", "formats.parse_s", None),
    ("formats", "parse_points", "formats.parse_s", None),
    ("formats", "render_reports", "formats.render_s", None),
    ("formats", "serialize_json", "formats.render_s", None),
    ("complexes", "FilteredComplex.__init__", "complexes.build_s", None),
    ("complexes", "FilteredComplex.subcomplex", "complexes.build_s", None),
    ("complexes", "SimplicialMap.__init__", "complexes.build_s", None),
    ("complexes", "preimage_subcomplex", "complexes.build_s", None),
    ("complexes", "vietoris_rips", "complexes.build_s", None),
    ("complexes", "FilteredComplex.validate", "complexes.validate_s", None),
    ("sheaves", "validate_sheaf", "sheaves.validate_s", None),
    ("sheaves", "validate_cosheaf", "sheaves.validate_s", None),
    ("sheaves", "validate_diagram", "sheaves.validate_s", None),
    ("sheaves", "validate_morphism", "sheaves.validate_s", None),
    ("sheaves", "pullback", "sheaves.pullback_s", None),
    ("sheaves", "extend_by_zero", "sheaves.pullback_s", None),
    ("sheaves", "dualize", "sheaves.pullback_s", None),
    ("cohomology", "CochainComplex.__init__", "cohomology.assemble_s", None),
    ("cohomology", "ChainComplex.__init__", "cohomology.assemble_s", None),
    ("cohomology", "simplicial_chain_complex", "cohomology.assemble_s", None),
    ("cohomology", "chain_inclusion_matrix", "cohomology.assemble_s", None),
    ("cohomology", "cohomology_basis", "cohomology.basis_s", None),
    ("cohomology", "cosheaf_homology_basis", "cohomology.basis_s", None),
    ("cohomology", "_quotient", "cohomology.basis_s", None),
    ("cohomology", "induced_by_sheaf_morphism", "cohomology.induced_s", None),
    ("cohomology", "induced_by_simplicial_map", "cohomology.induced_s", None),
    ("cohomology", "persistent_cohomology", "cohomology.induced_s", None),
    ("cohomology", "QuotientBasis.coords", "cohomology.induced_s", None),
    ("linalg", "Field.rank", "linalg.echelon_s", None),
    ("linalg", "Field.kernel_basis", "linalg.echelon_s", None),
    ("linalg", "Field.image_basis", "linalg.echelon_s", None),
    ("linalg", "Field.solve", "linalg.solve_s", None),
    ("linalg", "Field.express", "linalg.solve_s", None),
    ("linalg", "Field.matmul", "linalg.matmul_s", None),
    ("graded", "diagram_to_graded_sheaf", "graded.to_sheaf_s", None),
    ("graded", "GradedSheaf.__init__", "graded.assemble_s", None),
    ("graded", "GradedCosheaf.__init__", "graded.assemble_s", None),
    ("graded", "validate_graded_sheaf", "graded.assemble_s", None),
    ("graded", "validate_graded_cosheaf", "graded.assemble_s", None),
    ("graded", "graded_cochain_complex", "graded.assemble_s", None),
    ("graded", "graded_chain_complex", "graded.assemble_s", None),
    ("typet", "filtration_cosheaf", "graded.assemble_s", None),
    ("graded", "_graded_kernel", "graded.reduce_s", None),
    ("graded", "_graded_snf_bars", "graded.reduce_s", None),
    ("graded", "_graded_quotient_bars", "graded.reduce_s", None),
    ("graded", "graded_barcode", "graded.reduce_s", None),
    ("graded", "graded_homology_barcode", "graded.reduce_s", None),
    ("graded", "diagram_graded_barcode", "graded.reduce_s", None),
    ("persistence", "decompose_by_ranks", "persistence.decompose_s", None),
    ("persistence", "decompose_copersistence", "persistence.decompose_s", None),
    ("persistence", "reflect", "persistence.decompose_s", None),
    ("typet", "type_t_direct", None, "typet.direct_s"),
    ("typet", "type_t_graded", None, "typet.graded_s"),
    ("bipersistence", "grid", None, "bipersistence.grid_s"),
    ("bipersistence", "check_commutative", None, "bipersistence.commute_s"),
    ("labeled", "label_diagram", None, "labeled.diagram_s"),
    ("labeled", "unicolored_pipeline", None, "labeled.unicolored_s"),
    ("cli", "main", None, "cli.main_s"),
]


def _cells(m):
    shape = getattr(m, "shape", None)
    if shape is None or len(shape) != 2:
        return 0
    return int(shape[0]) * int(shape[1])


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span stack and per-metric totals for one process."""

    def __init__(self):
        self.totals = {}
        self.stack = []
        self.validated = {}

    def add(self, name, value):
        self.totals[name] = self.totals.get(name, 0) + value

    def peak(self, name, value):
        self.totals[name] = max(self.totals.get(name, 0), value)

    def wrap(self, module, attr, self_metric, incl_metric, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.before(attr, parent, args)
            frame = [attr, time.perf_counter(), 0.0, _maxrss_mb(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                dur = time.perf_counter() - frame[1]
                rise = _maxrss_mb() - frame[3]
                if self_metric:
                    tracer.add(self_metric, dur - frame[2])
                if incl_metric:
                    tracer.add(incl_metric, dur)
                tracer.add(f"{module}.rss_rise_mb", rise - frame[4])
                if parent is not None:
                    parent[2] += dur
                    parent[4] += rise
            tracer.after(attr, args, result)
            return result

        return wrapper

    def before(self, attr, parent, args):
        """Counters known from the arguments."""
        name = attr.split(".")[-1]
        if attr in ("Field.rank", "Field.kernel_basis", "Field.image_basis"):
            cells = _cells(args[1])
            self.add("linalg.echelon.calls", 1)
            self.add("linalg.echelon_cells", cells)
            self.peak("linalg.max_matrix_cells", cells)
            if attr == "Field.rank" and parent is not None:
                if parent[0] == "_quotient":
                    self.add("cohomology.quotient_rank_calls", 1)
                elif parent[0] in PERSISTENCE_SPANS:
                    self.add("persistence.rank_calls", 1)
        elif attr == "Field.solve":
            self.add("linalg.solve.calls", 1)
            self.peak("linalg.max_matrix_cells", _cells(args[1]))
        elif attr == "Field.matmul":
            a, b = _cells(args[1]), _cells(args[2])
            self.add("linalg.matmul.calls", 1)
            self.add("linalg.matmul_cells", a + b)
            self.peak("linalg.max_matrix_cells", max(a, b))
        elif name in ("_graded_kernel", "_graded_snf_bars"):
            self.add("graded.reduce_cells", _cells(args[1]))
        elif name in ("validate_sheaf", "validate_diagram", "validate_cosheaf"):
            self.add("sheaves.validate.calls", 1)
            self.validated[id(args[0])] = args[0]
        elif name in ("cohomology_basis", "cosheaf_homology_basis"):
            self.add("cohomology.bases", 1)
        elif name.startswith("parse_"):
            self.add("formats.input_bytes", os.path.getsize(args[0]))

    def after(self, attr, args, result):
        """Counters known from the result or the constructed object."""
        if attr == "FilteredComplex.__init__":
            self.add("complexes.simplices_built", len(args[0].simplices))
        elif attr in ("CochainComplex.__init__", "ChainComplex.__init__"):
            cc = args[0]
            self.add(
                "cohomology.coboundary_cells",
                sum(cc.dim(k) * cc.dim(k + 1) for k in range(cc.complex.dim)),
            )
        elif attr == "_quotient":
            self.add("cohomology.quotient_kept", int(result.shape[1]))

    def install(self, package):
        originals = {}
        for module, attr, self_metric, incl_metric in LAYERS:
            owner = importlib.import_module(f"{package}.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, name)
            wrapped = self.wrap(module, attr, self_metric, incl_metric, fn)
            setattr(owner, name, wrapped)
            if not path:
                originals[fn] = wrapped
        mods = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in MODULES
        ]
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if callable(value) and value in originals:
                    setattr(mod, name, originals[value])

    def report(self):
        """Totals; run.py turns the distinct and kept counts into ratios."""
        return dict(self.totals, **{"sheaves.validate.distinct": len(self.validated)})


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer()
    tracer.install("persheaf")
    cli = importlib.import_module("persheaf.cli")
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
