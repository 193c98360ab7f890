"""Orbit-rank experiments, the adjoint pairing identity, iterate-coefficient
bounds along Jordan chains, and a torus-density demonstration.  The orbit places, and takes
norms for, only the coefficients of the rows it iterates (basis.graded_positions).
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from ..errors import BudgetError, InvalidInputError, NumericalFailureError
from ..polymap import check_dense_bytes, compose_affine, poly_clean, poly_degree
from ..spectral import LinearFormBasis
from ..symbol import AffineSymbol
from .basis import graded_basis, graded_positions, monomial_norm_sq_int, monomial_norms
from .operator import _assemble_matrix, _degree_columns

RANK_REL_TOL = 1e-8

# Cap on an orbit's work in matvec entries (1-2 ns each on a 2-vCPU Xeon): steps x
# (rows^2 + STEP_OPERATIONS, a step's 25 us of Python) for the block and 5 x width x
# steps x min(width, steps) for its SVD (up to 5 ns a unit).  Edges: 66,653 steps on
# 1 row 1.6 s; 17,182 on the 120 of d=3, N=14 2.3 s; 94 on the 4,368 of d=6, N=11 5 s.
ORBIT_OPERATIONS_BUDGET = 2_000_000_000
STEP_OPERATIONS = 30_000

# Cap on the torus-density scan in powers x angles, 60-95 ns each on a 2-vCPU
# Xeon: at the cap, 5 x 10^6 powers of two angles took 0.95 s (10^8, 11.8 s)
KRONECKER_OPERATIONS_BUDGET = 10**7


def _coeff_vector(f_coeffs, basis, lo: int) -> np.ndarray:
    """Orthonormal coordinates of f, given in monomial coefficients, on the basis rows from lo;
    norms of all coefficients when none is placed, for the refusal past degree 149."""
    keys, d = list(f_coeffs), basis.d
    alphas = np.array(keys if set(map(len, keys)) == {d} else [])
    if alphas.dtype.kind not in "biu" or (alphas < 0).any():
        monomial_norms(keys)  # a negative entry is refused as such
        alpha = next(a for a in keys if len(a) != d or np.array(a).dtype.kind not in "biu")
        raise InvalidInputError(
            f"coefficient index {alpha} outside degree-{basis.max_degree} basis")
    rows = graded_positions(alphas) - lo
    vec = np.zeros(basis.size - lo, dtype=complex)
    placed = list(compress(keys, keep := (rows >= 0).tolist()))
    values = np.fromiter(compress(f_coeffs.values(), keep), complex, len(placed))
    vec[rows[rows >= 0]] = values * monomial_norms(placed or keys)[: len(placed)]
    return vec


def _unit(x: np.ndarray) -> np.ndarray:
    """x / ||x||, scaled by max|x| first so that no square underflows."""
    x = x / (np.abs(x).max(initial=0.0) or 1.0)
    return x / (np.linalg.norm(x) or 1.0)


def orbit_krylov_rank(
    sym: AffineSymbol,
    f_coeffs,
    degree: int,
    steps: int,
    projector: int | None = None,
) -> int:
    """Numerical rank of the (projected) orbit f, Cf, C^2 f, ..., C^{J-1} f.

    The orbit lives in the exact degree-<=degree truncation; projector, if
    given, keeps only its part homogeneous of degree p, which the trailing
    block of degrees >= p determines, so that block is iterated alone (block
    N for p = N).  Iterates and projected columns are renormalized, because
    |eigenvalue|^(j*degree) under/overflows long before the span stabilizes.
    """
    if steps < 1:
        raise InvalidInputError(f"steps must be positive, got {steps}")
    if poly_degree(f_coeffs) > degree:
        raise InvalidInputError(
            f"polynomial degree {poly_degree(f_coeffs)} exceeds truncation {degree}"
        )
    if not f_coeffs:
        raise InvalidInputError("empty orbit: zero initial function")
    basis = graded_basis(sym.dimension, degree)
    if projector is not None and not 0 <= projector <= degree:
        _coeff_vector(f_coeffs, basis, basis.size)  # the refusals of f still apply
        return 0
    rows = basis.degree_slice(0 if projector is None else projector)
    lo, width = rows.start, (basis.size if projector is None else rows.stop) - rows.start
    n = basis.size - lo
    x = _coeff_vector(f_coeffs, basis, lo)
    work = steps * (n * n + STEP_OPERATIONS + 5 * width * min(width, steps))
    if work > ORBIT_OPERATIONS_BUDGET:
        raise BudgetError(f"{steps} steps on a {n}-row block need {work:.2e} operations, "
                          f"over the {ORBIT_OPERATIONS_BUDGET:.1e} orbit budget")
    with np.errstate(over="ignore", invalid="ignore"):  # unbounded symbols reach here
        if projector == degree:  # the last diagonal block, built beside block N-1
            check_dense_bytes(88 * n * n, f"a dense {n} x {n} diagonal block")
            for block in _degree_columns(sym, basis, shift=False):
                pass
        else:
            block = _assemble_matrix(sym, basis)[lo:, lo:]
    if not np.isfinite(block).all():
        raise NumericalFailureError(f"the degree-{degree} truncation of C overflows")
    cols = np.empty((steps, width), dtype=complex)
    for j in range(steps):
        x = _unit(x)
        cols[j] = x if width == n else _unit(x[:width])
        # a real block acts on the parts of x, the two columns of its float view, in one product
        x = block @ (x if block.dtype == complex else x.view(float).reshape(n, 2))
        x = x.view(complex).ravel()
    s = np.linalg.svd(cols.T, compute_uv=False)
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


# ---------------------------------------------------------------------------
# adjoint pairing


def adjoint_pairing_check(sym: AffineSymbol, alpha, beta):
    """Exact finite computation of both sides of the adjoint identity.

    lhs = <C z^alpha, z^beta>; rhs = <z^alpha, k_b * (A^H z)^beta> where k_b
    is the reproducing kernel at the shift.  Both reduce to single monomial
    coefficients through orthogonality.
    """
    if not sym.boundedness.bounded:
        raise InvalidInputError("adjoint pairing requires a bounded operator")
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    d = sym.dimension
    if len(alpha) != d or len(beta) != d:
        raise InvalidInputError("multi-index dimension mismatch")
    image = compose_affine({alpha: 1.0}, sym.a, sym.b)
    lhs = image.get(beta, 0.0) * monomial_norm_sq_int(beta)
    adj_image = compose_affine({beta: 1.0}, sym.a.conj().T, np.zeros(d))
    # multiply by the kernel factor; only the z^alpha coefficient can pair
    acc = 0.0 + 0.0j
    for gamma, c in adj_image.items():
        extra = tuple(a - g for a, g in zip(alpha, gamma))
        if any(e < 0 for e in extra):
            continue
        kcoef = 1.0 + 0.0j
        for jv in range(d):
            kcoef *= (np.conj(sym.b[jv]) / 2.0) ** extra[jv] / math.factorial(extra[jv])
        acc += c * kcoef
    rhs = np.conj(acc) * monomial_norm_sq_int(alpha)
    return complex(lhs), complex(rhs)


# ---------------------------------------------------------------------------
# coefficient bounds along a Jordan chain


def chain_stability_threshold(abs_lambda: float) -> int:
    """Smallest J with |lam|^j + j|lam|^{j-1} <= 1 for every j >= J."""
    if not (0.0 < abs_lambda < 1.0):
        raise InvalidInputError(
            f"chain eigenvalue modulus must lie in (0, 1), got {abs_lambda}"
        )

    def h(j):
        return abs_lambda**j + j * abs_lambda ** (j - 1) if j > 0 else 1.0

    peak = max(1, int(math.ceil(-1.0 / math.log(abs_lambda))) + 1)
    j = peak
    while h(j) > 1.0:
        j += 1
    last_bad = 0
    for jj in range(1, j):
        if h(jj) > 1.0:
            last_bad = jj
    return last_bad + 1


def jordan_coefficient_bound_check(
    sym: AffineSymbol,
    basis: LinearFormBasis,
    n: int,
    d_subset,
    j: int,
) -> float:
    """Largest coefficient modulus of C^j applied to sum of L^alpha, alpha
    in the subset, expanded over L-monomials.

    The iterate acts on the degree-one forms by L_i -> lam_i^j L_i, plus
    j lam^{j-1} L_{i-1} on a chain continuation, so a single affine
    substitution in L-coordinates realizes C^j exactly.
    """
    if not sym.boundedness.compact:
        raise InvalidInputError("coefficient bound check requires a compact operator")
    if j < 0:
        raise InvalidInputError(f"iterate must be nonnegative, got {j}")
    d = sym.dimension
    flags = basis.chain_flags
    # reject chains longer than 2: a flagged row must follow an unflagged one
    for pos in range(d):
        if flags[pos] and pos + 1 < d and flags[pos + 1]:
            raise InvalidInputError("chains longer than two are not supported here")
    subset = [tuple(int(x) for x in a) for a in d_subset]
    if any(len(a) != d or sum(a) != n for a in subset):
        raise InvalidInputError(f"subset entries must be degree-{n} multi-indices")
    f = {a: 1.0 + 0.0j for a in subset}
    smat = np.zeros((d, d), dtype=complex)
    for i in range(d):
        lam = basis.eigenvalues[i]
        smat[i, i] = lam**j
        if flags[i]:
            smat[i, i - 1] = j * lam ** (j - 1) if j > 0 else 0.0
    out = poly_clean(compose_affine(f, smat, np.zeros(d)))
    if not out:
        return 0.0
    return max(abs(c) for c in out.values())


# ---------------------------------------------------------------------------
# torus density demonstration


def kronecker_density_demo(thetas, target, n_max: int):
    """Best simultaneous approximation of the target by (e^{in theta_j})_j.

    Scans n = 1..n_max and returns (best_n, best_error) for the sup-distance
    max_j |e^{in theta_j} - target_j|.  n_max is a Python int.
    """
    thetas = np.asarray(thetas, dtype=float)
    target = np.asarray(target, dtype=complex)
    if thetas.shape != target.shape or thetas.ndim != 1 or not thetas.size:
        raise InvalidInputError("thetas and target must be lists of one nonzero length")
    if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(target.view(float)))):
        raise InvalidInputError("thetas and target must be finite")
    if type(n_max) is not int or n_max < 1:
        raise InvalidInputError(f"n_max must be a positive integer, got {n_max!r}")
    if n_max * thetas.size > KRONECKER_OPERATIONS_BUDGET:
        raise BudgetError(
            f"{n_max} powers of {thetas.size} angles exceed the scan budget "
            f"of {KRONECKER_OPERATIONS_BUDGET:.0e}"
        )
    best_n, best_err = 0, np.inf
    chunk = 200_000
    for lo in range(1, n_max + 1, chunk):
        hi = min(n_max, lo + chunk - 1)
        ns = np.arange(lo, hi + 1)
        vals = np.exp(1j * np.outer(ns, thetas))
        errs = np.max(np.abs(vals - target[None, :]), axis=1)
        i = int(np.argmin(errs))
        if errs[i] < best_err:
            best_err = float(errs[i])
            best_n = int(ns[i])
    return best_n, best_err
