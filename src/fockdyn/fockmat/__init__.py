"""Computational core, one submodule per concern; names are imported from
the submodule that defines them:

* basis: the graded basis, and the monomial norms of the orbit's input vector
* operator: truncated matrices, their spectra and singular values
* enumeration: lattice-power enumeration and the closed-form approximation
  numbers with their SVD cross-checks
* projections: homogeneous projections and expansions in degree-one forms
* experiments: orbit ranks, adjoint pairings and Jordan coefficient bounds
* combinatorics: Dickson partitions and invertible torus node systems
"""
