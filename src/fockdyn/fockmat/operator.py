"""Truncated matrices of the composition operator on the graded basis.

Polynomials of degree <= N form an invariant subspace (an affine substitution
never raises total degree), so the assembled matrix is the exact restriction
of the operator -- the only error is floating rounding of the entries.  In
graded order it is block upper triangular: diagonal block k is A acting on
the forms of degree k, and b only fills blocks above it.

Two realizations are provided: a dense assembly for moderate basis sizes
(assemble_truncated returns the plain ndarray), and a matrix-free action on
the full coefficient grid (grid_operator, a scipy LinearOperator, used for
singular value computation at degrees where the dense matrix is too large).
The matrix-free action runs polymap._compose_grid, the substitution kernel
that polymap.compose_affine and the reduced oracle's one-variable factors
also use, on a batch of one; _degree_columns builds the dense matrix, or its
diagonal blocks, a degree of columns at a time.  top_singular_values takes
the cheaper of a dense SVD and Lanczos on the grid action, within one
operations budget.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from ..errors import BudgetError, InvalidInputError
from ..polymap import (
    DENSE_BYTES_BUDGET, _compose_grid, affine_stages, check_dense_bytes, dense_grid
)
from ..symbol import AffineSymbol
from .basis import GradedBasis, graded_basis

DENSE_SVD_CUTOFF = 1200

# Operations of the SVD routes, about 1 ns each on a 2-vCPU Xeon: dense m^3 (4.3 s at
# m = 1,770, 29 s at m = 3,003), Lanczos for k values 32 m k^2 (3.9 s at m = 1,770 and
# k = 250, 17 s at m = 3,003 and k = 450); the two meet near k = 0.18 m.
LANCZOS_COST = 32
SVD_OPERATIONS_BUDGET = 30_000_000_000

# Cap on sum n_k^3 over the n_k x n_k diagonal blocks of a spectrum; its edges
# d=3, N=34 and d=4, N=15 take 3.3 s and 1.6 s on a 2-vCPU Xeon.
EIGVALS_OPERATIONS_BUDGET = 1_500_000_000


def _require_bounded(sym: AffineSymbol) -> None:
    if not sym.boundedness.bounded:
        raise InvalidInputError("symbol does not induce a bounded operator")


def _degree_columns(sym: AffineSymbol, basis: GradedBasis, shift: bool):
    """Yield, for k = 0..N, the matrix columns of the degree-k monomials.

    Those whose first exponent is on z_f are one graded-lex slice, z_f times the
    first monomials of degree k-1: their images are those columns times (Az + b)_f,
    a b_f term and a shifted add per variable.  Rows: all m with shift, else the
    degree-k ones and no b term, which gives the diagonal block of degree k."""
    d, m, norms = basis.d, basis.size, basis.norms
    a, b = sym.a.tolist(), sym.b.tolist()
    below = basis.degree_slice(basis.max_degree).start
    # up[v][i]: position of z_v z^alpha for the i-th alpha, of degree < N
    up = [
        np.array([basis.index_of[x[:v] + (x[v] + 1,) + x[v + 1 :]] for x in basis.indices[:below]])
        for v in range(d)
    ]
    prev, prev_lo = np.eye(m if shift else 1, 1, dtype=complex), 0
    yield prev * norms[: len(prev), None]
    for k in range(1, basis.max_degree + 1):
        rows = basis.degree_slice(k)
        lo, hi = (0, m) if shift else (rows.start, rows.stop)
        src = min(prev_lo + len(prev), below)  # z_v raises the parent rows below N
        dst = [u[prev_lo:src] - lo for u in up]
        cols = np.zeros((hi - lo, rows.stop - rows.start), dtype=complex)
        start = 0
        for f in reversed(range(d)):
            width = math.comb(k - 2 + d - f, d - 1 - f)
            out, p = cols[:, start : start + width], prev[:, :width]
            start += width
            if shift:
                out[:] = b[f] * p
            for v in range(d):
                if a[f][v] != 0:
                    out[dst[v]] += a[f][v] * p[: src - prev_lo]
        yield cols * (norms[lo:hi, None] / norms[None, rows])
        prev, prev_lo = cols, lo


def _assemble_matrix(sym: AffineSymbol, basis: GradedBasis) -> np.ndarray:
    """Exact restriction matrix, no boundedness requirement (internal)."""
    m = basis.size
    # the column blocks, their concatenation and the float norm ratios
    check_dense_bytes(40 * m * m, f"a dense {m} x {m} truncated matrix")
    return np.concatenate(list(_degree_columns(sym, basis, shift=True)), axis=1)


def assemble_truncated(sym: AffineSymbol, n: int) -> np.ndarray:
    """Matrix of the composition operator on the degree-<=n subspace, acting
    on the orthonormalized monomials z^alpha/||z^alpha|| in graded order.

    Requires a bounded symbol; the basis-size budget of graded_basis applies.
    """
    _require_bounded(sym)
    return _assemble_matrix(sym, graded_basis(sym.dimension, n))


def truncated_spectrum(sym: AffineSymbol, n: int) -> np.ndarray:
    """Eigenvalue multiset of the degree-<=n restriction, sorted by (-|w|, arg):
    those of its diagonal blocks, with no m x m matrix formed."""
    _require_bounded(sym)
    basis = graded_basis(sym.dimension, n)
    work = sum((s.stop - s.start) ** 3 for s in map(basis.degree_slice, range(n + 1)))
    if work > EIGVALS_OPERATIONS_BUDGET:
        raise BudgetError(f"{n + 1} diagonal blocks need {work:.2e} operations, over "
                          f"the {EIGVALS_OPERATIONS_BUDGET:.1e} eigensolver budget")
    vals = np.concatenate([np.linalg.eigvals(c) for c in _degree_columns(sym, basis, False)])
    return vals[np.lexsort((np.angle(vals) % (2 * np.pi), -np.abs(vals)))]


def truncated_singular_values(matrix: np.ndarray, k: int) -> np.ndarray:
    """Top-k singular values of a truncated matrix, descending."""
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    s = scipy.linalg.svdvals(matrix)
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


def grid_operator(sym: AffineSymbol, n: int) -> scipy.sparse.linalg.LinearOperator:
    """Matrix-free degree-<=n truncation in orthonormal coordinates.

    matvec applies the composition, rmatvec its Fock-space adjoint (weighted
    composition with the conjugate-transposed linear part and the kernel
    multiplier of the shift); both agree with the dense assembly columns.
    """
    _require_bounded(sym)
    basis = graded_basis(sym.dimension, n)
    index = tuple(np.array(basis.indices).T) + (0,)
    stages = affine_stages(sym.a, sym.b)
    adjoint_stages = affine_stages(sym.a.conj().T, np.zeros_like(sym.b))

    def scatter(x):
        # a batch of one; scipy hands matmat columns over as (m, 1) blocks
        grid = dense_grid((n + 1,) * sym.dimension + (1,))
        grid[index] = np.asarray(x, dtype=complex).reshape(-1) / basis.norms
        return grid

    def matvec(x):
        return _compose_grid(scatter(x), stages, n)[index] * basis.norms

    def rmatvec(x):
        grid = _compose_grid(scatter(x), adjoint_stages, n)
        return _multiply_kernel_series(grid, sym.b)[index] * basis.norms

    return scipy.sparse.linalg.LinearOperator(
        (basis.size, basis.size), matvec=matvec, rmatvec=rmatvec, dtype=complex
    )


def top_singular_values(sym: AffineSymbol, n: int, k: int) -> np.ndarray:
    """Top-k singular values of the degree-<=n restriction, descending.

    Dense for small bases and wherever it costs less than Lanczos and fits the dense
    budget, else Lanczos on the grid action; either over SVD_OPERATIONS_BUDGET is refused.
    """
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    m = math.comb(n + sym.dimension, sym.dimension)
    cheaper = m * m <= LANCZOS_COST * k * k and 40 * m * m <= DENSE_BYTES_BUDGET
    dense = m <= DENSE_SVD_CUTOFF or cheaper  # k >= m - 1 (past Lanczos) is cheaper or over budget
    op = None if dense else grid_operator(sym, n)  # refuses a basis over budget first
    work = m**3 if dense else LANCZOS_COST * m * k * k
    if work > SVD_OPERATIONS_BUDGET:
        raise BudgetError(f"{k} of {m} singular values: {work:.2e} operations, over the SVD budget")
    if dense:
        return truncated_singular_values(assemble_truncated(sym, n), k)
    v0 = np.full(m, 1.0 / np.sqrt(m), dtype=complex)
    s = scipy.sparse.linalg.svds(
        op,
        k=k,
        v0=v0,
        return_singular_vectors=False,
        maxiter=max(2000, 40 * k),
    )
    return np.sort(s)[::-1]
