"""Affine composition operators on d-dimensional Fock space.

The package analyzes operators f -> f(Az + b) acting on the Fock space of
entire functions: boundedness and compactness, cyclicity of the operator,
cyclic-vector tests, truncation spectra, and closed-form approximation
numbers, each cross-checkable against brute-force oracles.

Submodule attributes are loaded lazily so that the command line can cap
BLAS threading (FOCK_DYNAMICS_THREADS) before numpy first loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # symbol
    "AffineSymbol": "symbol",
    "BoundednessReport": "symbol",
    "check_boundedness": "symbol",
    "fixed_point": "symbol",
    # spectral
    "EigenvalueInfo": "spectral",
    "SpectralData": "spectral",
    "eigen_decompose": "spectral",
    "geometric_eigenvalue_list": "spectral",
    "LinearFormBasis": "spectral",
    "linear_form_basis": "spectral",
    # relations
    "PolarEigenvalue": "relations",
    "ExactPolarSpec": "relations",
    "RelationResult": "relations",
    "RelationStatus": "relations",
    "exact_relation_decide": "relations",
    "numeric_relation_search": "relations",
    # classify
    "CyclicityStatus": "classify",
    "CyclicityVerdict": "classify",
    "CyclicVectorReport": "classify",
    "Reason": "classify",
    "classify_cyclicity": "classify",
    "cyclic_vector_test": "classify",
    "convex_obstruction_value": "classify",
    # io
    "load_symbol": "io",
    "dump_symbol": "io",
    "load_function": "io",
    "dump_function": "io",
    "load_exact_spec": "io",
    "dump_exact_spec": "io",
    "dump_verdict": "io",
    "dump_boundedness": "io",
    "dump_approx": "io",
    # errors
    "InvalidInputError": "errors",
    "DimensionMismatchError": "errors",
    "PreconditionError": "errors",
    "NoFixedPointError": "errors",
    "UnsupportedInputError": "errors",
    "BudgetError": "errors",
    "DegreeOverflowError": "errors",
    "ConditioningError": "errors",
    "NumericalFailureError": "errors",
    "NodeSearchError": "errors",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
