"""Persistent cohomology of cellular sheaves on filtered simplicial complexes.

Sheaves of finite-dimensional vector spaces over a prime field live on
the simplices of a finite complex; their cohomology persists in two
senses.  Diagrams of sheaf morphisms over a fixed complex are handled
degreewise and, for stalk-wise injective diagrams, also through a
graded-module fast path.  A single sheaf over a growing complex yields
backward modules, computed both by restricting step by step and by one
graded chain reduction; the two routes cross-validate each other.
"""

from .complexes import (
    FilteredComplex,
    Simplex,
    SimplicialMap,
    preimage_subcomplex,
    vietoris_rips,
)
from .linalg import Field, identity, matrix, zeros
from .sheaves import (
    CellularCosheaf,
    CellularSheaf,
    SheafDiagram,
    SheafMorphism,
    constant,
    dualize,
    extend_by_zero,
    pullback,
    validate_cosheaf,
    validate_diagram,
    validate_morphism,
    validate_sheaf,
)
from .cohomology import (
    ChainComplex,
    CochainComplex,
    QuotientBasis,
    chain_inclusion_matrix,
    cohomology_basis,
    cosheaf_homology_basis,
    induced_by_sheaf_morphism,
    induced_by_simplicial_map,
    persistent_cohomology,
    persistent_cohomology_by_degree,
    simplicial_chain_complex,
    simplicial_homology_basis,
)
from .persistence import (
    Barcode,
    CopersistenceModule,
    PersistenceModule,
    barcodes_equal,
    decompose_by_ranks,
    decompose_copersistence,
    reflect,
)
from .graded import (
    GradedChainComplex,
    GradedComplex,
    GradedCosheaf,
    GradedFreeModule,
    GradedSheaf,
    HomogeneousMatrix,
    NotFreeError,
    SlicedComplex,
    diagram_graded_barcode,
    diagram_graded_barcode_by_degree,
    diagram_to_graded_sheaf,
    evaluate_at,
    evaluate_sheaf_at,
    graded_barcode,
    graded_chain_complex,
    graded_cochain_complex,
    graded_homology_barcode,
    validate_graded_cosheaf,
    validate_graded_sheaf,
)
from .typet import (
    filtration_cosheaf,
    g_chain,
    mirrored_g_diagram,
    type_t_direct,
    type_t_direct_by_degree,
    type_t_graded,
    type_t_graded_by_degree,
)
from .bipersistence import (
    BiGrid,
    check_commutative,
    grid,
    grid_by_degree,
)
from .labeled import (
    LabeledFiltration,
    full_label_complex,
    label_diagram,
    mixed_feature_barcodes,
    two_label_sheaf,
    unicolored_pipeline,
)

__version__ = "0.1.0"
