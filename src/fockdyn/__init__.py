"""Affine composition operators on d-dimensional Fock space.

The package analyzes operators f -> f(Az + b) acting on the Fock space of
entire functions: boundedness and compactness, cyclicity of the operator,
cyclic-vector tests, truncation spectra, and closed-form approximation
numbers, each cross-checkable against brute-force oracles.  Names are
imported from the submodule that defines them (symbol, spectral, relations,
classify, fockmat, polymap, io, errors, suite, cli).
"""

__version__ = "0.1.0"
