"""Exact finite-difference calculus for polynomial maps between ordered spaces.

Everything is computed over arbitrary-precision rationals: sparse polynomial
arithmetic, symmetric-form polarization, forward differences (numeric and
symbolic), homogeneous-component extraction by three independent methods, a
degree criterion via vanishing differences, cone positivity with witnesses,
and the constructive positive extension of suitable cone functions.
"""

from .combinatorics import (
    binomial,
    falling_factorial,
    multinomial,
    stirling1_unsigned,
    stirling2,
)
from .diffcalc import (
    BlackBoxFn,
    DiffReport,
    Witness,
    mixed_diff_at,
    mixed_from_pure,
    newton_expand,
    pure_diff_at,
    symbolic_mixed_diff,
    symbolic_pure_diff,
)
from .errors import (
    ConeDomainError,
    DimensionError,
    ExtensionHypothesisError,
    MissingSampleError,
    NotHomogeneousError,
    ParseError,
    PolydiffError,
    ResourceLimitError,
)
from .kantorovich import ConeFunction, ExtensionResult, jordan_parts, kantorovich_extend
from .parser import format_poly, parse
from .poly import ScalarPoly, VectorPoly, variables
from .positivity import counterexample_cubic, is_positive
from .sampling import SamplerConfig
from .tensor import (
    SymTensor,
    polarize_mo,
    polarize_signs,
    poly_to_tensor,
    tensor_eval,
    tensor_is_nonneg,
    tensor_to_poly,
)

__version__ = "0.1.0"

__all__ = [
    "BlackBoxFn",
    "ConeDomainError",
    "ConeFunction",
    "DiffReport",
    "DimensionError",
    "ExtensionHypothesisError",
    "ExtensionResult",
    "MissingSampleError",
    "NotHomogeneousError",
    "ParseError",
    "PolydiffError",
    "ResourceLimitError",
    "SamplerConfig",
    "ScalarPoly",
    "SymTensor",
    "VectorPoly",
    "Witness",
    "binomial",
    "counterexample_cubic",
    "falling_factorial",
    "format_poly",
    "is_positive",
    "jordan_parts",
    "kantorovich_extend",
    "mixed_diff_at",
    "mixed_from_pure",
    "multinomial",
    "newton_expand",
    "parse",
    "polarize_mo",
    "polarize_signs",
    "poly_to_tensor",
    "pure_diff_at",
    "stirling1_unsigned",
    "stirling2",
    "symbolic_mixed_diff",
    "symbolic_pure_diff",
    "tensor_eval",
    "tensor_is_nonneg",
    "tensor_to_poly",
    "variables",
]
