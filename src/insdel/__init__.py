"""Insertion-deletion code constructions, exact distance tools, and bounds.

The public names load on first access (PEP 562): ``import insdel`` or
``import insdel.cli`` compiles only the modules it needs, and
``from insdel import *`` loads them all.
"""

from importlib import import_module as _import_module

# The function ``lift`` shares its name with its module. The import system
# binds a submodule on the package when it first loads it, so the module is
# loaded here, and the function bound over it, before any other import can.
from .lift import lift

# Each home module and the public names it gives the package.
_EXPORTS = {
    "errors": (
        "AlphabetMismatch",
        "ContextMismatch",
        "DomainError",
        "InsdelError",
        "LengthMismatch",
        "NonUnitError",
        "ScaleCapExceeded",
        "UndefinedDistance",
    ),
    "words": (
        "CWL1",
        "HAMMING",
        "INSDEL",
        "L1",
        "Code",
        "Composition",
        "Word",
        "all_words",
        "code_min_distance",
        "compositions_colex",
        "hamming_distance",
        "insdel_distance",
        "l1_distance",
        "lcs_length",
        "phi",
        "psi",
    ),
    "gf": (
        "FieldCtx",
        "Matrix",
        "Polynomial",
        "ResidueCtx",
        "UnitResidue",
        "det",
        "field_from_size",
        "field_make",
        "is_prime",
        "next_prime",
        "nullspace",
        "poly_gcd",
        "unit_group_size",
    ),
    "cw_l1": (
        "L1ConstructionSpec",
        "construct_l1",
        "pi_map",
        "smallest_construction_prime",
        "verify_l1_code",
    ),
    "lift": ("guarantee_report", "lift"),
    "rs": (
        "AffineMap",
        "RsCode",
        "affine_apply",
        "affine_fixed_points",
        "affine_through",
        "check_rs2_criterion",
        "construct_rs2",
        "invertible_difference_indices",
        "low_distance_witness",
        "rs2_field_threshold",
        "rs_encode",
        "rs_exhaustive_insdel",
    ),
    "bounds": (
        "counterexample_code",
        "distance_drop_threshold",
        "exact_iq",
        "field_size_threshold",
        "levenshtein_lower_bound",
        "project_code",
        "singleton_bound",
        "size_upper_bound",
        "verify_support_structure",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bounds", "codefile", "cw_l1", "errors", "gf", "rs", "value", "words")

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
