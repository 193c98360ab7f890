"""Truncated matrices of the composition operator on the graded basis.

Polynomials of degree <= N form an invariant subspace (an affine substitution
never raises total degree), so the assembled matrix is the exact restriction
of the operator -- the only error is floating rounding of the entries.  It acts
on the orthonormal e_alpha = z^alpha / ||z^alpha||; in graded order it is block
upper triangular: diagonal block k is A acting on the forms of degree k, and b
only fills blocks above it.

_degree_columns builds the dense matrix, or its diagonal blocks, a degree of columns
at a time, in orthonormal coordinates; truncated_spectrum runs its recursion on the
eigenvalues of A alone.  grid_operator, the matrix-free action on the full coefficient
grid, runs polymap._compose_grid on a batch of one between a scatter and a gather by
the monomial norms, which cap its degree at 149.  top_singular_values takes the
cheaper of a dense SVD of the real twin (_real_twin, a unitarily equivalent real symbol;
a real A and b give real truncations) and Lanczos on the grid action, within one budget.
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
from .basis import GradedBasis, check_basis_size, graded_basis, monomial_norms

DENSE_SVD_CUTOFF = 1200

# Operations of the SVD routes, about 1 ns each on a 2-vCPU Xeon: dense m^3 (4.3 s at
# m = 1,770, 29 s at m = 3,003); Lanczos 64 max(k, 10) (n+1)^d n s, s the stages of a
# matvec pair (its own, the adjoint's and one kernel factor per variable), each n passes
# over the (n+1)^d grid.  With a dense A, svds took 30-70 ns per grid entry, pass and
# value at k = 10 and 30 (d = 2 and 3, n = 20-60), and as long for any k below 10.  The
# dense route runs on the real twin: svdvals took 21 ms at m = 378, 45 ms at m = 528 and 2.4 s
# at m = 1,770 against 47 ms, 132 ms and 6.4 s complex (one core), so m^3 overcharges it 2-3x.
LANCZOS_COST = 64
LANCZOS_MIN_VALUES = 10
SVD_OPERATIONS_BUDGET = 30_000_000_000


def _require_bounded(sym: AffineSymbol) -> None:
    if not sym.boundedness.bounded:
        raise InvalidInputError("symbol does not induce a bounded operator")


def _entry_type(sym: AffineSymbol) -> type:
    """float for a symbol with real A and b, whose truncations are real, else complex."""
    return complex if sym.a.imag.any() or sym.b.imag.any() else float


def _degree_columns(sym: AffineSymbol, basis: GradedBasis, shift: bool):
    """Yield, for k = 0..N, the matrix columns of the degree-k basis functions.

    Those whose first exponent is on z_f are one graded-lex slice, z_f times the
    first ones of degree k-1: as z_v maps e_gamma to sqrt(2 (gamma_v + 1)) e_{gamma + e_v},
    the column of e_{beta + e_f} is (Az + b)_f times that of e_beta over sqrt(2 (beta_f + 1)),
    a b_f term and a shifted add per variable.  Rows: those of degree <= k with shift,
    else the degree-k ones and no b term, which gives the diagonal block of degree k."""
    d, dtype = basis.d, _entry_type(sym)
    a, b = ((x if dtype is complex else x.real).tolist() for x in (sym.a, sym.b))
    below = basis.indices[: basis.degree_slice(basis.max_degree).start]
    # up[v][i] and rise[v][i]: position of gamma + e_v and sqrt(2 (gamma_v + 1)), gamma = below[i]
    up = [
        np.array([basis.index_of[x[:v] + (x[v] + 1,) + x[v + 1 :]] for x in below])
        for v in range(d)
    ]
    rise = np.sqrt(2.0 * np.array(below).reshape(-1, d).T + 2.0)
    prev = np.ones((1, 1), dtype=dtype)
    yield prev
    for k in range(1, basis.max_degree + 1):
        rows, parents = basis.degree_slice(k), basis.degree_slice(k - 1)
        lo, src = (0, slice(0, parents.stop)) if shift else (rows.start, parents)
        dst, gain = [u[src] - lo for u in up], rise[:, src]
        cols = np.zeros((rows.stop - lo, rows.stop - rows.start), dtype=dtype)
        start = 0
        for f in reversed(range(d)):
            width = math.comb(k - 2 + d - f, d - 1 - f)
            out = cols[:, start : start + width]
            p = prev[:, :width] / rise[f, parents.start : parents.start + width]
            start += width
            if shift:
                out[: parents.stop] = b[f] * p
            for v in range(d):
                if a[f][v] != 0:
                    out[dst[v]] += (a[f][v] * gain[v])[:, None] * p
        yield cols
        prev = cols


def _assemble_matrix(sym: AffineSymbol, basis: GradedBasis) -> np.ndarray:
    """Exact restriction matrix, no boundedness requirement (internal)."""
    m = basis.size
    # the matrix, the column blocks of the recursion and their temporaries
    check_dense_bytes(40 * m * m, f"a dense {m} x {m} truncated matrix")
    mat = np.zeros((m, m), dtype=_entry_type(sym))
    for k, cols in enumerate(_degree_columns(sym, basis, shift=True)):
        mat[: len(cols), basis.degree_slice(k)] = cols
    return mat


def assemble_truncated(sym: AffineSymbol, n: int) -> np.ndarray:
    """Matrix of the composition operator on the degree-<=n subspace, acting
    on the orthonormalized monomials z^alpha/||z^alpha|| in graded order.

    Requires a bounded symbol; the basis-size budget of graded_basis applies.
    """
    _require_bounded(sym)
    return _assemble_matrix(sym, graded_basis(sym.dimension, n))


def truncated_spectrum(sym: AffineSymbol, n: int) -> np.ndarray:
    """Eigenvalue multiset of the degree-<=n restriction, sorted by (-|w|, arg): lambda^alpha over
    |alpha| <= n, lambda = diag(T) for A = Q T Q* (sym.schur).  Composing with Q is unitary and
    keeps degrees, and the degree-k block of T is triangular in graded-lex order with diagonal
    lambda^alpha, also for a defective A.  One multiply per value, recursing as _degree_columns."""
    _require_bounded(sym)
    d = sym.dimension
    check_basis_size(d, n)
    lam, vals = sym.schur[0].diagonal(), np.ones(math.comb(n + d, d), dtype=complex)
    for k in range(1, n + 1):
        lo, start = math.comb(k + d - 2, d), math.comb(k + d - 1, d)  # degrees k-1 and k
        for f in reversed(range(d)):
            width = math.comb(k - 2 + d - f, d - 1 - f)
            vals[start : start + width] = lam[f] * vals[lo : lo + width]
            start += width
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


def _grid_stages(sym: AffineSymbol) -> tuple:
    """Substitution stages of the grid matvec and of its adjoint."""
    return affine_stages(sym.a, sym.b), affine_stages(sym.a.conj().T, np.zeros_like(sym.b))


def _real_twin(sym: AffineSymbol) -> AffineSymbol:
    """A real symbol w -> A'w + b' whose truncations are unitarily equivalent to sym's.

    Householder bidiagonalization of [b | A] (Golub & Kahan 1965), a unit phase turning each pivot
    real: X [b | A] diag(1, Y) = [beta e_1 | B], X and Y unitary and B real lower bidiagonal;
    reversed, A' is upper bidiagonal and b' = beta e_d.  phi' = X o phi o Y, so C_phi' = C_Y C_phi
    C_X with C_X, C_Y unitary on Fock space and keeping degrees: every degree-n truncation keeps its
    singular values.  No SVD or eigensolve of A enters A' or b'.  The twin carries sym's boundedness
    report, witness in sym's coordinates."""
    m = np.hstack([sym.b[:, None], sym.a])
    for j in range(sym.dimension):
        for g in (m, m[:, 1:].T):  # column j of [b | A], then row j of A as a column of A^T
            x = g[j:, j]  # rows j..: a left map never reaches the row of b's pivot
            r = np.linalg.norm(x)
            if r:
                phase = x[0] / abs(x[0]) if x[0] else 1.0
                v = x.copy()
                v[0] += phase * r  # no cancellation: v[0] and phase r share the argument
                g[j:] -= np.outer(v, v.conj() @ g[j:] * (2.0 / np.vdot(v, v).real))
                g[j] *= -np.conj(phase)  # the pivot -phase r, turned real
            g[j + 1 :, j] = 0.0
    m = m.real[::-1]
    twin = AffineSymbol(m[:, :0:-1], m[:, 0], tol=sym.tol)
    vars(twin)["boundedness"] = sym.boundedness
    return twin


def grid_operator(sym: AffineSymbol, n: int) -> scipy.sparse.linalg.LinearOperator:
    """Matrix-free degree-<=n truncation in orthonormal coordinates.

    matvec applies the composition, rmatvec its Fock-space adjoint (weighted
    composition with the conjugate-transposed linear part and the kernel
    multiplier of the shift); both agree with the dense assembly columns.
    """
    _require_bounded(sym)
    basis = graded_basis(sym.dimension, n)
    norms = monomial_norms(basis.indices)
    index = tuple(np.array(basis.indices).T) + (0,)
    stages, adjoint_stages = _grid_stages(sym)

    def scatter(x):
        # a batch of one; scipy hands matmat columns over as (m, 1) blocks
        grid = dense_grid((n + 1,) * sym.dimension + (1,))
        grid[index] = np.asarray(x, dtype=complex).reshape(-1) / norms
        return grid

    def matvec(x):
        return _compose_grid(scatter(x), stages, n)[index] * norms

    def rmatvec(x):
        grid = _compose_grid(scatter(x), adjoint_stages, n)
        return _multiply_kernel_series(grid, sym.b)[index] * norms

    return scipy.sparse.linalg.LinearOperator(
        (basis.size, basis.size), matvec=matvec, rmatvec=rmatvec, dtype=complex
    )


def top_singular_values(sym: AffineSymbol, n: int, k: int) -> np.ndarray:
    """Top-k singular values of the degree-<=n restriction, descending.

    Dense for small bases and wherever it costs less than Lanczos and fits the dense
    budget, else Lanczos on the grid action; either over SVD_OPERATIONS_BUDGET is refused.
    The dense route runs on sym's real twin, whose truncation takes a real SVD.
    """
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    d = sym.dimension
    check_basis_size(d, n)
    m = math.comb(n + d, d)
    passes = n * (sum(len(rows) for _, rows in _grid_stages(sym)) + d)
    lanczos = LANCZOS_COST * max(k, LANCZOS_MIN_VALUES) * (n + 1) ** d * passes
    cheaper = m**3 <= lanczos and 40 * m * m <= DENSE_BYTES_BUDGET
    dense = m <= DENSE_SVD_CUTOFF or cheaper  # k >= m - 1 (past Lanczos) is cheaper or over budget
    work = m**3 if dense else lanczos
    if work > SVD_OPERATIONS_BUDGET:
        raise BudgetError(f"{k} of {m} singular values: {work:.2e} operations, over the SVD budget")
    if dense:
        return truncated_singular_values(assemble_truncated(_real_twin(sym), n), k)
    op = grid_operator(sym, n)
    v0 = np.full(m, 1.0 / np.sqrt(m), dtype=complex)
    s = scipy.sparse.linalg.svds(
        op,
        k=k,
        v0=v0,
        return_singular_vectors=False,
        maxiter=max(2000, 40 * k),
    )
    return np.sort(s)[::-1]
