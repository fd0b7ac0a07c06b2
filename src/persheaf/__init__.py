"""Persistent cohomology of cellular sheaves on filtered simplicial complexes.

Sheaves of finite-dimensional vector spaces over a prime field live on
the simplices of a finite complex; their cohomology persists in two
senses.  Diagrams of sheaf morphisms over a fixed complex are handled
degreewise and, for stalk-wise injective diagrams, also through a
graded-module fast path.  A single sheaf over a growing complex yields
backward modules, computed both by restricting step by step and by one
graded chain reduction; the two routes cross-validate each other.

Importing the package loads none of its modules, and so not numpy: each
name below is imported from its module on first use (PEP 562).  This
lets persheaf.cli set up the process before numpy loads.
"""

import importlib

_EXPORTS = {
    "complexes": (
        "FilteredComplex", "Simplex", "SimplicialMap", "preimage_subcomplex",
        "vietoris_rips",
    ),
    "linalg": ("Field", "identity", "matrix", "zeros"),
    "sheaves": (
        "CellularCosheaf", "CellularSheaf", "SheafDiagram", "SheafMorphism",
        "constant", "dualize", "extend_by_zero", "pullback", "validate_cosheaf",
        "validate_diagram", "validate_morphism", "validate_sheaf",
    ),
    "cohomology": (
        "ChainComplex", "CochainComplex", "QuotientBasis",
        "chain_inclusion_matrix", "cohomology_basis", "cosheaf_homology_basis",
        "induced_by_sheaf_morphism", "induced_by_simplicial_map",
        "persistent_cohomology", "persistent_cohomology_by_degree",
        "simplicial_chain_complex",
    ),
    "persistence": (
        "Barcode", "CopersistenceModule", "PersistenceModule", "barcodes_equal",
        "decompose_by_ranks", "decompose_copersistence", "reflect",
    ),
    "graded": (
        "GradedCosheaf", "GradedSheaf", "HomogeneousMatrix", "NotFreeError",
        "SlicedComplex", "diagram_graded_barcode",
        "diagram_graded_barcode_by_degree", "diagram_to_graded_sheaf",
        "evaluate_at", "evaluate_sheaf_at", "graded_barcode",
        "graded_chain_complex", "graded_cochain_complex",
        "graded_homology_barcode", "validate_graded_cosheaf",
        "validate_graded_sheaf",
    ),
    "typet": (
        "filtration_cosheaf", "g_chain", "mirrored_g_diagram", "type_t_direct",
        "type_t_direct_by_degree", "type_t_graded", "type_t_graded_by_degree",
    ),
    "bipersistence": ("BiGrid", "check_commutative", "grid", "grid_by_degree"),
    "labeled": (
        "LabeledFiltration", "full_label_complex", "label_diagram",
        "mixed_feature_barcodes", "two_label_sheaf", "unicolored_pipeline",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
