"""Exact-arithmetic toolkit for binomial cup-one dgas over Z and Z_p.

The package builds 1-minimal models of simplicial cochain algebras stage
by stage, computes the torsion invariants kappa_n, triple Massey
products with a Magnus-expansion cross-check, and nilpotent group
realizations, all with exact integer or mod-p arithmetic.
"""
from .delta import (
    Cochain,
    DeltaSet,
    FiniteMagma,
    bar_construction,
    check_admissible,
    coboundary,
    cup1_cochain,
    cup2_cochain,
    cup_cochain,
    cyclic_group_magma,
    delta_from_magma,
    extension_magma,
    magma_from_tau,
    psi_embed,
    segment_cohomology,
    zeta_cochain,
)
from .differential import (
    Differential,
    GeneratorSet,
    apply_d,
    build_differential,
    check_d_squared,
    circ,
    cup1_high,
    zero_differential,
)
from .interval import (
    Cylinder,
    cylinder_over_complex,
    cylinder_over_dga,
    interval_algebra,
)
from .linalg import (
    AbelianInvariants,
    cohomology_at,
    smith_normal_form,
    solve_Z,
    solve_in_image,
)
from .massey import (
    MagnusSeries,
    MasseyContext,
    cross_validate,
    magnus_expand,
    magnus_gate,
    magnus_pairings,
    triple_massey,
)
from .model import (
    KappaInvariant,
    ModelStage,
    StageCapError,
    construct_homotopy,
    extend_stage,
    h2_free_d0,
    h2_stage2_Z,
    h2_stage_Zp,
    kappa,
    minimal_model,
    n_step_compare,
    psi_cohomology_comparison,
    realize_group,
    stage1,
)
from .presentation import (
    PresentedGroup,
    borromean_presentation,
    heisenberg_presentation,
    presentation_complex,
    torus_presentation,
    wedge_presentation,
)
from .rings import BinomialPoly, MultiIndex, RingSpec, binom_of, zeta_add_expand
from .tensor import TensorElem, cup, cup1_deg1, cup1_hirsch, zeta_apply

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants", "BinomialPoly", "Cochain", "Cylinder",
    "DeltaSet", "Differential", "FiniteMagma", "GeneratorSet",
    "KappaInvariant", "MagnusSeries", "MasseyContext", "ModelStage",
    "MultiIndex", "PresentedGroup", "RingSpec", "StageCapError",
    "TensorElem", "apply_d", "bar_construction", "binom_of",
    "borromean_presentation", "build_differential", "check_admissible",
    "check_d_squared", "circ", "coboundary", "cohomology_at",
    "construct_homotopy", "cross_validate", "cup", "cup1_cochain",
    "cup1_deg1", "cup1_hirsch", "cup2_cochain", "cup_cochain",
    "cup1_high", "cyclic_group_magma", "cylinder_over_complex",
    "cylinder_over_dga",
    "delta_from_magma", "extend_stage", "extension_magma",
    "h2_free_d0", "h2_stage2_Z", "h2_stage_Zp", "heisenberg_presentation",
    "interval_algebra", "kappa", "magma_from_tau", "magnus_expand",
    "magnus_gate", "magnus_pairings", "minimal_model",
    "n_step_compare", "presentation_complex", "psi_cohomology_comparison",
    "psi_embed", "realize_group", "segment_cohomology",
    "smith_normal_form", "solve_Z", "solve_in_image", "stage1",
    "torus_presentation",
    "triple_massey", "wedge_presentation", "zero_differential",
    "zeta_add_expand", "zeta_apply", "zeta_cochain", "__version__",
]
