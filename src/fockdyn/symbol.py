"""Affine self-maps phi(z) = Az + b of C^d and basic operator checks.

The induced composition operator f -> f(phi(.)) acts on the Fock space of
entire functions square-integrable against the Gaussian weight
exp(-|z|^2 / 2); the inner product convention is <z, w> = sum_j z_j conj(w_j)
and the reproducing kernel is k_w(z) = exp(<z, w> / 2).

A symbol keeps one SVD A = U diag(s) V*, which boundedness, invertibility, the
linear forms and the approximation numbers with their reduced oracle all read,
and one complex Schur form A = Q T Q*, which spectra and Jordan structure read.
Exact eigenvalue data, when given, is a plain tuple of relations.PolarEigenvalue
values, one per eigenvalue counted by algebraic multiplicity; classify reads it.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, NoFixedPointError, NumericalFailureError


def as_complex_matrix(a) -> np.ndarray:
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix entries must be finite")
    return a


def as_complex_vector(b, dim: int) -> np.ndarray:
    b = np.array(b, dtype=complex)
    if b.ndim != 1:
        raise InvalidInputError(f"vector must be one-dimensional, got shape {b.shape}")
    if b.shape[0] != dim:
        raise InvalidInputError(f"vector has length {b.shape[0]}, expected {dim}")
    if not np.isfinite(b).all():
        raise InvalidInputError("vector entries must be finite")
    return b


def unit_scaled(b: np.ndarray) -> tuple:
    """(b s, s) for s a power of two that brings the parts of b under 1 in
    modulus when they reach 1, else s = 1.0: norms and inner products of
    b s cannot overflow.  The product is taken part by part, so it rounds
    nothing and keeps signed zeros, which a complex product would not."""
    top = float(np.abs(b.view(float)).max(initial=0.0))
    s = math.ldexp(1.0, -math.frexp(top)[1]) if top >= 1.0 else 1.0
    return (b.view(float) * s).view(complex), s


@dataclasses.dataclass(frozen=True)
class AffineSymbol:
    """phi(z) = a z + b with an optional exact polar eigenvalue description."""

    a: np.ndarray
    b: np.ndarray
    exact: tuple | None = None
    tol: float = 1e-10

    def __post_init__(self):
        a = as_complex_matrix(self.a)
        b = as_complex_vector(self.b, a.shape[0])
        if self.exact is not None and len(self.exact) != a.shape[0]:
            raise InvalidInputError(
                f"exact data lists {len(self.exact)} eigenvalues for dimension {a.shape[0]}")
        if not (0 < self.tol < 1):
            raise InvalidInputError(f"tol must lie in (0, 1), got {self.tol}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    # One analysis per symbol, computed on first use (by the module-level
    # function where there is one) and kept on the instance; a raise keeps nothing.
    @functools.cached_property
    def svd(self) -> tuple:
        """(u, s, vh) with a = u diag(s) vh and s nonincreasing, read-only."""
        factors = np.linalg.svd(self.a)
        if factors[1][0] == np.inf:  # every analysis reads ||A||
            raise InvalidInputError("the norm of the matrix exceeds the float range")
        for x in factors:
            x.setflags(write=False)
        return factors

    @functools.cached_property
    def schur(self) -> tuple:
        """(t, q) with a = q t q*, t upper triangular and q unitary, read-only."""
        t, _, _, q, _, info = lapack.zgees(lambda _: 0, self.a)
        if info:
            raise NumericalFailureError(f"the Schur form of A did not converge (zgees info {info})")
        for x in (t, q):
            x.setflags(write=False)
        return t, q

    @functools.cached_property
    def boundedness(self) -> BoundednessReport:
        return check_boundedness(self)

    @functools.cached_property
    def xi(self) -> np.ndarray:
        return fixed_point(self)

    @functools.cached_property
    def spectrum(self):  # spectral imports this module
        from . import spectral
        return spectral.eigen_decompose(self.schur, float(self.svd[1][0]))


@dataclasses.dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    compact: bool
    operator_norm_of_a: float
    isometric_subspace_dim: int
    violation_witness: np.ndarray | None


def check_boundedness(sym: AffineSymbol) -> BoundednessReport:
    """Boundedness and compactness of the composition operator.

    Bounded iff ||A|| <= 1 and A v _|_ b for every v that A moves
    isometrically; compact iff ||A|| < 1.  Over the right singular vectors V
    with singular value at least 1 - tol, the pairings <A v, b> form c = S U* b,
    and |c| <= tol |b| is required, whatever basis of a repeated value the SVD
    took.  Witness: the unit V c / |c|, whose image pairs with b by |c|.
    """
    tol = sym.tol
    u, s, vh = sym.svd
    norm_a = float(s[0]) if s.size else 0.0
    iso_dim = int(np.count_nonzero(np.abs(s - 1) <= 10 * tol))
    b, _ = unit_scaled(sym.b)  # the test below is homogeneous in b
    near = s >= 1 - tol
    c = s[near] * (u[:, near].conj().T @ b)
    size, witness = math.hypot(*np.abs(c).tolist()), None  # no square of s past 1e154
    if size > tol * float(np.linalg.norm(b)):
        witness = vh[near].conj().T @ (c / size)
        witness.setflags(write=False)  # a symbol keeps its report
    bounded, compact = norm_a <= 1 + tol and witness is None, norm_a < 1 - tol
    return BoundednessReport(bounded, compact, norm_a, iso_dim, witness)


def fixed_point(sym: AffineSymbol) -> np.ndarray:
    """Solve (I - A) xi = b, minimum-norm when 1 is an eigenvalue of A.

    For bounded symbols a solution always exists; an inconsistent system
    raises, naming the residual.  The system is solved for b scaled by
    unit_scaled, and a solution past the float range raises
    NumericalFailureError.
    """
    d = sym.dimension
    m = np.eye(d) - sym.a
    b, scale = unit_scaled(sym.b)
    xi, *_ = np.linalg.lstsq(m, b, rcond=None)
    residual = float(np.linalg.norm(m @ xi - b)) / scale
    if residual > sym.tol * (1 + float(np.linalg.norm(b)) / scale):
        raise NoFixedPointError(f"(I - A) x = b is inconsistent (residual {residual:.3e})")
    if float(np.abs(xi.view(float)).max(initial=0.0)) / scale > np.finfo(float).max:
        raise NumericalFailureError("the fixed point has an entry past the float range")
    xi = (xi.view(float) / scale).view(complex)
    xi.setflags(write=False)  # a symbol keeps its fixed point
    return xi
