"""Insertion-deletion code constructions, exact distance tools, and bounds."""

from .errors import (
    AlphabetMismatch,
    ContextMismatch,
    DomainError,
    InsdelError,
    LengthMismatch,
    NonUnitError,
    ScaleCapExceeded,
    UndefinedDistance,
)
from .words import (
    CWL1,
    HAMMING,
    INSDEL,
    L1,
    Code,
    Composition,
    Word,
    all_words,
    code_min_distance,
    compositions_colex,
    hamming_distance,
    insdel_distance,
    l1_distance,
    lcs_length,
    phi,
    psi,
)
from .gf import (
    FieldCtx,
    Matrix,
    Polynomial,
    ResidueCtx,
    UnitResidue,
    det,
    field_from_size,
    field_make,
    is_prime,
    next_prime,
    nullspace,
    poly_gcd,
    unit_group_size,
)
from .cw_l1 import (
    L1ConstructionSpec,
    construct_l1,
    pi_map,
    smallest_construction_prime,
    verify_l1_code,
)
from .lift import guarantee_report, lift
from .rs import (
    AffineMap,
    RsCode,
    affine_apply,
    affine_fixed_points,
    affine_through,
    check_rs2_criterion,
    construct_rs2,
    invertible_difference_indices,
    low_distance_witness,
    rs2_field_threshold,
    rs_encode,
    rs_exhaustive_insdel,
)
from .bounds import (
    counterexample_code,
    distance_drop_threshold,
    exact_iq,
    field_size_threshold,
    levenshtein_lower_bound,
    project_code,
    singleton_bound,
    size_upper_bound,
    verify_support_structure,
)
from . import codefile

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
