"""Exact zero-count distributions of random monic polynomials over GF(q)
inside Hayes equivalence classes, with Reed-Solomon distance rows, character
diagnostics, and certified inequality checks.

The public names below are resolved on first access (PEP 562), so that
importing one layer does not import the others."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": ("BudgetExceededError", "HypothesisError", "ValidationError"),
    "ffield": ("FieldSpec", "FqElement", "Polynomial", "distinct_roots_in", "enumerate_monic", "phi"),
    "hayes": ("ClassGroup", "HayesParams", "HayesSignature", "equivalent", "signature"),
    "chars": ("CharacterTable", "l_polynomial"),
    "dist": (
        "ZeroDistribution",
        "ZeroDistributions",
        "classify_word",
        "default_point_set",
        "enumeration_distributions_all",
        "exact_distribution",
        "exact_distributions_all",
        "factorial_moments",
        "rs_census",
        "rs_distance_row",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("_writer", "asym", "chars", "cli", "comb", "commands", "dist", "errors", "ffield", "hayes", "transform")

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
