"""Homogeneous projections around a center and the degree-one-basis
expansion.

project_homogeneous extracts the part of f homogeneous of degree n in
(z - xi), either by re-expanding around xi (default) or by a circle average
with the smallest exact trapezoidal node count, all node maps in one batch.
"""

from __future__ import annotations

import numpy as np

from ..errors import BudgetError, InvalidInputError, NumericalFailureError
from ..polymap import compose_affine, compose_batches, poly_add, poly_clean, poly_degree
from ..polymap import validate_coeffs
from ..spectral import LinearFormBasis

PROJECTION_DEGREE_CAP = 200


def _node_stages(xi: np.ndarray, rot: np.ndarray) -> tuple:
    """Stages of z -> rot_j z + (1 - rot_j) xi over the batch, as affine_stages
    orders a diagonal map: z_i -> rot z_i + (1 - rot) xi_i by descending i."""
    rows = [(i, [(i, rot)], xi[i] - rot * xi[i]) for i in reversed(range(len(xi)))]
    return tuple(range(len(xi))), rows


def project_homogeneous(f_coeffs, xi, n: int, mode: str = "recentering"):
    """Coefficients of the degree-n homogeneous part of f around xi."""
    if n < 0:
        raise InvalidInputError(f"homogeneous degree must be nonnegative, got {n}")
    if mode not in ("recentering", "quadrature"):
        raise InvalidInputError(f"unknown projection mode {mode!r}")
    xi = np.asarray(xi, dtype=complex)
    d = xi.shape[0]
    deg = poly_degree(f_coeffs)
    if deg > PROJECTION_DEGREE_CAP:
        raise BudgetError(f"polynomial degree {deg} exceeds projection cap {PROJECTION_DEGREE_CAP}")
    validate_coeffs(f_coeffs, d)
    if n > deg:
        return {}  # every term of f has degree below n around any center
    eye = np.eye(d)
    if mode == "recentering":
        shifted = compose_affine(f_coeffs, eye, xi)  # f(w + xi), w = z - xi
        kept = {a: c for a, c in shifted.items() if sum(a) == n}
        return poly_clean(compose_affine(kept, eye, -xi))
    # the node average cancels the node terms' coefficients; beyond
    # 1e8 x the input's size that cancellation has no digits left
    limit = 1e8 * max([1.0, *(abs(c) for c in f_coeffs.values())])
    nodes = deg + n + 1
    theta = 2 * np.pi * np.arange(nodes) / nodes
    rot, weight = np.exp(1j * theta), np.exp(-1j * n * theta) / nodes
    acc = {}
    for js, keys, vals in compose_batches(f_coeffs, lambda s: _node_stages(xi, rot[s]), nodes):
        largest = np.abs(vals).max(axis=0, initial=0.0)
        if (largest > limit).any():
            j = int(np.argmax(largest > limit))
            raise NumericalFailureError(
                f"quadrature node {js.start + j} of {nodes} has a coefficient "
                f"{largest[j]:.3e}, over 1e8 times the input's largest; "
                "recentering mode avoids the cancellation"
            )
        acc = poly_add(acc, dict(zip(keys, (vals @ weight[js]).tolist())))
    return poly_clean(acc, tol=0.0)


def _check_basis(rows: np.ndarray) -> None:
    s = np.linalg.svd(rows, compute_uv=False)
    cond = np.inf if s[-1] == 0 else float(s[0] / s[-1])
    if cond > 1e8:
        raise NumericalFailureError(f"linear-form basis condition {cond:.3e} exceeds 1e8")


def expand_in_L_basis(f_coeffs, basis: LinearFormBasis):
    """Coefficients of f over monomials in the degree-one forms L_j.

    Substitutes z = xi + R^{-1} u (R the row matrix of the basis), so the
    returned map g satisfies f(z) = g(L_1(z), ..., L_d(z)).
    """
    rows = basis.rows
    _check_basis(rows)
    rinv = np.linalg.inv(rows)
    return poly_clean(compose_affine(f_coeffs, rinv, basis.xi))


def from_L_basis(l_coeffs, basis: LinearFormBasis):
    """Inverse of expand_in_L_basis: recover monomial coefficients of f."""
    rows = basis.rows
    _check_basis(rows)
    return poly_clean(compose_affine(l_coeffs, rows, -rows @ basis.xi))
