"""Truncated matrices of the composition operator on the graded basis.

Polynomials of degree <= N form an invariant subspace (an affine substitution
never raises total degree), so the assembled matrix is the exact restriction
of the operator -- the only error is floating rounding of the entries.

Two realizations are provided: a dense assembly for moderate basis sizes,
and a matrix-free action on the full coefficient grid (used for singular
value computation at degrees where the dense matrix is too large).  The
matrix-free action runs polymap._compose_grid, the substitution kernel that
polymap.compose_affine also uses; _assemble_matrix is the column recursion
that builds every column at once.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from ..errors import InvalidInputError, PreconditionError
from ..polymap import _compose_grid, affine_stages, check_dense_bytes, dense_grid
from ..symbol import AffineSymbol, check_boundedness
from .basis import GradedBasis, graded_basis

DENSE_SVD_CUTOFF = 1200


@dataclasses.dataclass(frozen=True)
class TruncatedOperator:
    basis: GradedBasis
    matrix: np.ndarray  # action on the orthonormalized monomials z^alpha/||z^alpha||
    symbol: AffineSymbol


def _raise_tables(basis: GradedBasis) -> list:
    """Per-axis index pairs (src, dst) realizing multiplication by z_k."""
    tables = []
    n = basis.max_degree
    for k in range(basis.d):
        src, dst = [], []
        for i, alpha in enumerate(basis.indices):
            if sum(alpha) < n:
                beta = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
                src.append(i)
                dst.append(basis.index_of[beta])
        tables.append((np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)))
    return tables


def _assemble_matrix(sym: AffineSymbol, basis: GradedBasis) -> np.ndarray:
    """Exact restriction matrix, no boundedness requirement (internal)."""
    d, m = basis.d, basis.size
    # the columns, the float norm ratios and the scaled complex result
    check_dense_bytes(40 * m * m, f"a dense {m} x {m} truncated matrix")
    tables = _raise_tables(basis)
    cols = np.zeros((m, m), dtype=complex)
    cols[0, 0] = 1.0
    for i, alpha in enumerate(basis.indices):
        if i == 0:
            continue
        k = next(j for j in range(d) if alpha[j] > 0)
        parent = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :]
        pvec = cols[basis.index_of[parent]]
        vec = sym.b[k] * pvec
        for var in range(d):
            coef = sym.a[k, var]
            if coef != 0:
                src, dst = tables[var]
                vec[dst] += coef * pvec[src]
        cols[i] = vec
    return cols.T * (basis.norms[:, None] / basis.norms[None, :])


def assemble_truncated(sym: AffineSymbol, n: int) -> TruncatedOperator:
    """Matrix of the composition operator on the degree-<=n subspace.

    Requires a bounded symbol; the basis-size budget of graded_basis applies.
    """
    rep = check_boundedness(sym)
    if not rep.bounded:
        raise PreconditionError("symbol does not induce a bounded operator")
    basis = graded_basis(sym.dimension, n)
    mat = _assemble_matrix(sym, basis)
    return TruncatedOperator(basis, mat, sym)


def truncated_spectrum(op: TruncatedOperator) -> np.ndarray:
    """Eigenvalue multiset of the restriction, sorted by (-|w|, arg)."""
    vals = np.linalg.eigvals(op.matrix)
    order = np.lexsort((np.angle(vals) % (2 * np.pi), -np.abs(vals)))
    return vals[order]


def truncated_singular_values(op: TruncatedOperator, k: int) -> np.ndarray:
    """Top-k singular values of the restriction, descending."""
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    s = scipy.linalg.svdvals(op.matrix)
    return s[: min(k, s.size)]


# ---------------------------------------------------------------------------
# matrix-free action on the full (n+1)^d coefficient grid


def _multiply_kernel_series(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Box-truncated product with exp(<z, b>/2) = prod_j exp(conj(b_j) z_j / 2)."""
    n = t.shape[0] - 1
    for j, bj in enumerate(b):
        w = np.conj(bj) / 2.0
        if w == 0:
            continue
        coeffs = np.empty(n + 1, dtype=complex)
        coeffs[0] = 1.0
        for m in range(1, n + 1):
            coeffs[m] = coeffs[m - 1] * w / m
        out = coeffs[0] * t
        src = [slice(None)] * t.ndim
        dst = [slice(None)] * t.ndim
        for m in range(1, n + 1):
            src[j] = slice(0, n + 1 - m)
            dst[j] = slice(m, None)
            out[tuple(dst)] += coeffs[m] * t[tuple(src)]
        t = out
    return t


class GridCompositionOperator:
    """Matrix-free truncated composition operator in orthonormal coordinates.

    matvec applies the composition, rmatvec its Fock-space adjoint (weighted
    composition with the conjugate-transposed linear part and the kernel
    multiplier of the shift); both agree with the dense assembly columns.
    """

    def __init__(self, sym: AffineSymbol, n: int):
        rep = check_boundedness(sym)
        if not rep.bounded:
            raise PreconditionError("symbol does not induce a bounded operator")
        self.symbol = sym
        self.basis = graded_basis(sym.dimension, n)
        self.n = n
        self._index = tuple(np.array(self.basis.indices).T)
        self._norms = self.basis.norms
        self._stages = affine_stages(sym.a, sym.b)
        self._adjoint_stages = affine_stages(sym.a.conj().T, np.zeros_like(sym.b))

    @property
    def shape(self):
        m = self.basis.size
        return (m, m)

    def _scatter(self, x: np.ndarray) -> np.ndarray:
        # scipy hands matmat columns over as (m, 1) blocks
        grid = dense_grid((self.n + 1,) * len(self._index))
        grid[self._index] = np.asarray(x, dtype=complex).reshape(-1) / self._norms
        return grid

    def _gather(self, grid: np.ndarray) -> np.ndarray:
        return grid[self._index] * self._norms

    def matvec(self, x: np.ndarray) -> np.ndarray:
        grid = self._scatter(x)
        grid = _compose_grid(grid, self._stages, self.n)
        return self._gather(grid)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        grid = self._scatter(x)
        grid = _compose_grid(grid, self._adjoint_stages, self.n)
        grid = _multiply_kernel_series(grid, self.symbol.b)
        return self._gather(grid)

    def as_linear_operator(self) -> scipy.sparse.linalg.LinearOperator:
        return scipy.sparse.linalg.LinearOperator(
            self.shape, matvec=self.matvec, rmatvec=self.rmatvec, dtype=complex
        )


def top_singular_values(sym: AffineSymbol, n: int, k: int) -> np.ndarray:
    """Top-k singular values of the degree-<=n restriction, descending.

    Dense for small bases, Lanczos on the matrix-free grid action otherwise.
    """
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    m = math.comb(n + sym.dimension, sym.dimension)
    if m <= DENSE_SVD_CUTOFF or k >= m - 1:
        op = assemble_truncated(sym, n)
        return truncated_singular_values(op, k)
    gop = GridCompositionOperator(sym, n)
    v0 = np.full(m, 1.0 / np.sqrt(m), dtype=complex)
    s = scipy.sparse.linalg.svds(
        gop.as_linear_operator(),
        k=k,
        v0=v0,
        return_singular_vectors=False,
        maxiter=max(2000, 40 * k),
    )
    return np.sort(s)[::-1]
