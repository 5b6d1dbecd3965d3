"""orbmod: modular data of rational chiral algebras and their orbifolds.

The package computes and validates modular data (central charge, conformal
weights, S- and T-matrices): consistency checks and Verlinde fusion for any
datum, exact SL(2, Z) generator arithmetic with the conformal-block
representation, the complete pipeline producing the modular datum of the
cyclic permutation orbifold of prime order, and a generic evaluator for
restricted S-matrices of fixed-point subalgebras from orbit/character data.
"""

from .modular_data import (
    DEFAULT_EPS,
    DEFAULT_EPS_INT,
    CheckResult,
    FusionTensor,
    InvalidDatum,
    ModularDatum,
    ModuleInfo,
    Phase,
    ValidationReport,
    modular_datum_to_dict,
    parse_modular_datum,
    quantum_dimensions,
    t_matrix,
    validate_modular_datum,
    verlinde_fusion,
)
from .perm_orbifold import (
    Diagonal,
    OffDiagonal,
    OrbifoldDatum,
    OrbifoldLabel,
    Twisted,
    assemble_orbifold_S,
    build_orbifold_datum,
    canonical_rotation,
    enumerate_orbifold_modules,
    module_count,
    orbifold_datum_to_dict,
    orbifold_labels,
    orbifold_t_phases,
    permutation_restriction_data,
    twisted_sector_block,
)
from .restricted import (
    CharacterTable,
    FiniteAbelianGroup,
    OrbitSpec,
    assemble_restricted_S,
    restricted_spec_to_dict,
    validate_group_data,
)
from .sl2z import (
    GeneratorWord,
    SL2Matrix,
    SectorCongruence,
    decompose_to_generators,
    evaluate_word,
    rho_of,
    sector_congruence,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EPS",
    "DEFAULT_EPS_INT",
    "CheckResult",
    "FusionTensor",
    "InvalidDatum",
    "ModularDatum",
    "ModuleInfo",
    "Phase",
    "ValidationReport",
    "modular_datum_to_dict",
    "parse_modular_datum",
    "quantum_dimensions",
    "t_matrix",
    "validate_modular_datum",
    "verlinde_fusion",
    "Diagonal",
    "OffDiagonal",
    "OrbifoldDatum",
    "OrbifoldLabel",
    "Twisted",
    "assemble_orbifold_S",
    "build_orbifold_datum",
    "canonical_rotation",
    "enumerate_orbifold_modules",
    "module_count",
    "orbifold_datum_to_dict",
    "orbifold_labels",
    "orbifold_t_phases",
    "permutation_restriction_data",
    "twisted_sector_block",
    "CharacterTable",
    "FiniteAbelianGroup",
    "OrbitSpec",
    "assemble_restricted_S",
    "restricted_spec_to_dict",
    "validate_group_data",
    "GeneratorWord",
    "SL2Matrix",
    "SectorCongruence",
    "decompose_to_generators",
    "evaluate_word",
    "rho_of",
    "sector_congruence",
    "__version__",
]
