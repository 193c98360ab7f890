"""Homogeneous projections around a center and the degree-one-basis
expansion.

project_homogeneous extracts the part of f homogeneous of degree n in
(z - xi), either by re-expanding around xi (default) or by a circle average
with the smallest exact trapezoidal node count.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConditioningError, DegreeOverflowError, InvalidInputError
from ..polymap import compose_affine, poly_add, poly_clean, poly_degree, poly_scale
from ..spectral import LinearFormBasis

PROJECTION_DEGREE_CAP = 200


def project_homogeneous(f_coeffs, xi, n: int, mode: str = "recentering"):
    """Coefficients of the degree-n homogeneous part of f around xi."""
    if n < 0:
        raise InvalidInputError(f"homogeneous degree must be nonnegative, got {n}")
    xi = np.asarray(xi, dtype=complex)
    d = xi.shape[0]
    deg = poly_degree(f_coeffs)
    if deg > PROJECTION_DEGREE_CAP:
        raise DegreeOverflowError(
            f"polynomial degree {deg} exceeds projection cap {PROJECTION_DEGREE_CAP}"
        )
    eye = np.eye(d)
    if mode == "recentering":
        shifted = compose_affine(f_coeffs, eye, xi)  # f(w + xi), w = z - xi
        kept = {a: c for a, c in shifted.items() if sum(a) == n}
        return poly_clean(compose_affine(kept, eye, -xi))
    if mode == "quadrature":
        # the node average cancels the node terms' coefficients; beyond
        # 1e8 x the input's size that cancellation has no digits left
        limit = 1e8 * max([1.0, *(abs(c) for c in f_coeffs.values())])
        nodes = max(deg, 0) + n + 1
        acc = {}
        for j in range(nodes):
            theta = 2 * np.pi * j / nodes
            rot = np.exp(1j * theta)
            term = compose_affine(f_coeffs, rot * eye, xi - rot * xi)
            largest = max((abs(c) for c in term.values()), default=0.0)
            if largest > limit:
                raise ConditioningError(
                    f"quadrature node coefficient {largest:.3e} exceeds 1e8 times "
                    "the input's largest; recentering mode avoids the cancellation"
                )
            weight = np.exp(-1j * n * theta) / nodes
            acc = poly_add(acc, poly_scale(term, weight))
        return poly_clean(acc, tol=0.0)
    raise InvalidInputError(f"unknown projection mode {mode!r}")


def _basis_condition(rows: np.ndarray) -> float:
    s = np.linalg.svd(rows, compute_uv=False)
    if s[-1] == 0:
        return np.inf
    return float(s[0] / s[-1])


def expand_in_L_basis(f_coeffs, basis: LinearFormBasis, degree: int | None = None):
    """Coefficients of f over monomials in the degree-one forms L_j.

    Substitutes z = xi + R^{-1} u (R the row matrix of the basis), so the
    returned map g satisfies f(z) = g(L_1(z), ..., L_d(z)).
    """
    rows = basis.rows
    if degree is not None and poly_degree(f_coeffs) > degree:
        raise InvalidInputError(
            f"polynomial degree {poly_degree(f_coeffs)} exceeds stated degree {degree}"
        )
    cond = _basis_condition(rows)
    if cond > 1e8:
        raise ConditioningError(
            f"linear-form basis condition {cond:.3e} exceeds 1e8"
        )
    rinv = np.linalg.inv(rows)
    return poly_clean(compose_affine(f_coeffs, rinv, basis.xi))


def from_L_basis(l_coeffs, basis: LinearFormBasis):
    """Inverse of expand_in_L_basis: recover monomial coefficients of f."""
    rows = basis.rows
    cond = _basis_condition(rows)
    if cond > 1e8:
        raise ConditioningError(
            f"linear-form basis condition {cond:.3e} exceeds 1e8"
        )
    return poly_clean(compose_affine(l_coeffs, rows, -rows @ basis.xi))
