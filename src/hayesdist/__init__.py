"""Exact zero-count distributions of random monic polynomials over GF(q)
inside Hayes equivalence classes, with Reed-Solomon distance rows, character
diagnostics, and certified inequality checks."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, HypothesisError, ValidationError
from .ffield import FieldSpec, FqElement, Polynomial, distinct_roots_in, enumerate_monic
from .hayes import ClassGroup, HayesParams, HayesSignature, equivalent, phi, signature
from .chars import character_table, l_polynomial
from .dist import (
    ZeroDistribution,
    classify_word,
    default_point_set,
    enumeration_distributions_all,
    exact_distribution,
    exact_distributions_all,
    factorial_moments,
    rs_census,
    rs_distance_row,
)

__all__ = [
    "BudgetExceededError",
    "HypothesisError",
    "ValidationError",
    "FieldSpec",
    "FqElement",
    "Polynomial",
    "distinct_roots_in",
    "enumerate_monic",
    "ClassGroup",
    "HayesParams",
    "HayesSignature",
    "equivalent",
    "phi",
    "signature",
    "character_table",
    "l_polynomial",
    "ZeroDistribution",
    "classify_word",
    "default_point_set",
    "enumeration_distributions_all",
    "exact_distribution",
    "exact_distributions_all",
    "factorial_moments",
    "rs_census",
    "rs_distance_row",
    "__version__",
]
