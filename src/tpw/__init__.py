"""Verification workbench for morphism products of finite-dimensional complex algebras."""

from .amenability import (
    Analysis,
    DerivationSpace,
    derivation_space,
    inner_amenability_suite,
    is_character_amenable,
    is_character_inner_amenable,
    is_weakly_amenable,
    lift_derivation,
    solve_inner_mean,
    solve_tli,
    tli_product_characterization,
)
from .arens import (
    arens_first,
    arens_second,
    arens_tables,
    hom_adjoints,
    product_dual_actions,
    topological_center,
    topological_center_membership,
)
from .characters import (
    Character,
    enumerate_characters,
    product_characters,
    verify_character,
)
from .core import (
    FiniteAlgebra,
    LinearMap,
    center,
    find_left_identity,
    find_right_identity,
    validate_algebra,
)
from .corpus import CorpusEntry, builtin_corpus, full_corpus
from .errors import (
    CharacterRejected,
    HomInvalid,
    NotADerivation,
    ParseError,
    ShapeError,
    ValidationError,
    WorkbenchError,
)
from .io import load_algebra, load_hom, save_algebra, save_hom
from .product import AlgebraHom, MorphismProduct, build_product, check_hom, ideal_and_quotient
from .report import CheckReport, Verdict, dump_json
from .suite import RunConfig, verify_theorems

__version__ = "0.1.0"

__all__ = [
    "AlgebraHom",
    "Analysis",
    "Character",
    "CharacterRejected",
    "CheckReport",
    "CorpusEntry",
    "DerivationSpace",
    "FiniteAlgebra",
    "HomInvalid",
    "LinearMap",
    "MorphismProduct",
    "NotADerivation",
    "ParseError",
    "RunConfig",
    "ShapeError",
    "ValidationError",
    "Verdict",
    "WorkbenchError",
    "arens_first",
    "arens_second",
    "arens_tables",
    "builtin_corpus",
    "center",
    "build_product",
    "check_hom",
    "derivation_space",
    "dump_json",
    "enumerate_characters",
    "find_left_identity",
    "find_right_identity",
    "full_corpus",
    "hom_adjoints",
    "ideal_and_quotient",
    "inner_amenability_suite",
    "is_character_amenable",
    "is_character_inner_amenable",
    "is_weakly_amenable",
    "lift_derivation",
    "load_algebra",
    "load_hom",
    "product_characters",
    "product_dual_actions",
    "save_algebra",
    "save_hom",
    "solve_inner_mean",
    "solve_tli",
    "tli_product_characterization",
    "topological_center",
    "topological_center_membership",
    "validate_algebra",
    "verify_character",
    "verify_theorems",
]
