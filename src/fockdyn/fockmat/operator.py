"""Truncated matrices of the composition operator on the graded basis.

Polynomials of degree <= N form an invariant subspace (an affine substitution
never raises total degree), so the assembled matrix is the exact restriction
of the operator -- the only error is floating rounding of the entries.  It acts
on the orthonormal e_alpha = z^alpha / ||z^alpha||; in graded order it is block
upper triangular: diagonal block k is A acting on the forms of degree k, and b
only fills blocks above it.

_degree_columns builds the dense matrix, or its diagonal blocks, a degree of columns
at a time, in orthonormal coordinates; truncated_spectrum runs its recursion on the
eigenvalues of A alone.  top_singular_values builds one matrix, the truncation of the
real twin (_real_twin, a unitarily equivalent real symbol; a real A and b give real
truncations), and takes the cheaper of its dense SVD and Lanczos on it, within one budget.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from ..errors import BudgetError, InvalidInputError
from ..polymap import check_dense_bytes
from ..symbol import AffineSymbol
from .basis import GradedBasis, check_basis_size, graded_basis

DENSE_SVD_CUTOFF = 1200

# Operations of the SVD routes, about 1 ns each on a 2-vCPU Xeon: dense m^3 (4.3 s at
# m = 1,770, 29 s at m = 3,003); Lanczos LANCZOS_COST max(k, 10) m^2 on the same matrix, whose
# build and svds took 2.3-5.1 ns per m^2 and value at d = 1..6, m = 2,556-3,876 and k = 1-100
# (one BLAS thread, best of two), nearly as long for any k below 10.  The dense route runs on the
# real twin: svdvals took 21 ms at m = 378, 45 ms at m = 528 and 2.4 s at m = 1,770 against
# 47 ms, 132 ms and 6.4 s complex (one core), so m^3 overcharges it 2-3x.
LANCZOS_COST = 6
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
    m, dtype = basis.size, np.dtype(_entry_type(sym))
    # the matrix, the column blocks of the recursion and their temporaries: tracemalloc peaks of
    # 8.0-18.0 m^2 bytes real (m = 200-8,000) and 16-36 complex (m = 200-4,000) at d = 1..6
    check_dense_bytes(5 * dtype.itemsize * m * m // 2, f"a dense {m} x {m} truncated matrix")
    mat = np.zeros((m, m), dtype=dtype)
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


def top_singular_values(sym: AffineSymbol, n: int, k: int) -> np.ndarray:
    """Top-k singular values of the degree-<=n restriction, descending.

    One matrix, the truncation of sym's real twin, whose SVD is real: a dense SVD for small
    bases and wherever it costs less than Lanczos, else Lanczos (svds) on that matrix; either
    over SVD_OPERATIONS_BUDGET is refused before the matrix is built.
    """
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    d = sym.dimension
    check_basis_size(d, n)
    m = math.comb(n + d, d)
    lanczos = LANCZOS_COST * max(k, LANCZOS_MIN_VALUES) * m**2
    dense = m <= DENSE_SVD_CUTOFF or m**3 <= lanczos  # k >= m - 1 (past svds) is cheaper
    work = m**3 if dense else lanczos
    if work > SVD_OPERATIONS_BUDGET:
        raise BudgetError(f"{k} of {m} singular values: {work:.2e} operations, over the SVD budget")
    matrix = assemble_truncated(_real_twin(sym), n)
    if dense:
        return truncated_singular_values(matrix, k)
    s = scipy.sparse.linalg.svds(
        matrix,
        k=k,
        v0=np.full(m, 1.0 / np.sqrt(m)),
        return_singular_vectors=False,
        maxiter=max(2000, 40 * k),
    )
    return np.sort(s)[::-1]
