"""Eigenstructure of the linear part, read from its complex Schur form A = Q T Q*:
clusters, Jordan profile, and the degree-one polynomial basis adapted to the symbol.

Two diagonal entries of T join one cluster within MERGE_DISTANCE ||A||, or when T - mu I at their
midpoint mu is singular to within rounding.  ztrsen moves each cluster to a trailing block,
whose nilpotent part (its diagonal set to the cluster's mean, a change within the spread)
gives the block sizes and the chain tops of the linear forms by one staircase.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidInputError, NumericalFailureError
from .symbol import AffineSymbol

# computed eigenvalues this close, relative to ||A||, always form one cluster
MERGE_DISTANCE = 1e-7
# a pair farther apart joins when T - mu I at its midpoint mu has a singular
# value at most SPLIT_TOL d ||A||, a backward error that rounding reaches: at
# most 0.15 d eps ||A|| at the splits of conjugated 2- to 6-blocks, and
# 8.5e3 d eps ||A|| between 0.5, 0.5001, 0.5002 with 0.3 above the diagonal
SPLIT_TOL = 10 * float(np.finfo(float).eps)
# solves with T - mu I and then its adjoint that estimate that singular value: three
# pairs came within 1.27x of the SVD on all 306 midpoints tested in a random d=150 T
INVERSE_STEPS = 3
# relative rank threshold of the staircase
RANK_TOL = 1e-10
# each rank decision of the staircase must hold for every rank threshold
# within this factor of RANK_TOL ||A||, from 1e-12 (a few thousand eps, above
# the rounding of the SVD) to 1e-8 (about sqrt(eps), the split of a
# rounded defective pair); a profile that hinges on the constant raises
RANK_MARGIN = 100.0


@dataclasses.dataclass(frozen=True)
class EigenvalueInfo:
    value: complex
    algebraic_mult: int
    geometric_mult: int
    block_sizes: tuple  # descending Jordan block sizes for this eigenvalue
    # orthonormal columns: the top staircase level of A^T - value I, beyond the
    # level below it; they head the chains of the largest blocks
    chain_tops: np.ndarray = dataclasses.field(compare=False, repr=False)


@dataclasses.dataclass(frozen=True)
class SpectralData:
    eigenvalues: tuple  # EigenvalueInfo, sorted by (-|value|, arg)
    diagonalizable: bool
    clustering_warning: bool


def _smallest_singular_value(t: np.ndarray, mu: complex) -> float:
    """An estimate from above of sigma_min(M), M = t - mu I, t upper triangular with ||t|| = 1:
    solves alternate between M and M* from a unit x, and each ratio |x_k+1| / |x_k| lies below
    1 / sigma_min and at least at the one before, so the last is kept.  No solve shrinks x below
    half its size; one that overflows, or meets a zero pivot, gives 0.  M is copied once, in the
    Fortran order ztrtrs reads, so no solve copies it again."""
    m, x = t.copy(order="F"), np.full(len(t), len(t) ** -0.5, dtype=complex)
    m.flat[:: len(t) + 1] -= mu
    for trans in (0, 2) * INVERSE_STEPS:
        last, (x, info) = x, lapack.ztrtrs(m, x, trans=trans)
        if info:
            return 0.0
    estimate = blas.dznrm2(last) / blas.dznrm2(x)  # Python floats: inf / inf is a quiet nan
    return estimate if math.isfinite(estimate) else 0.0


def _cluster(t: np.ndarray, norm: float) -> list:
    """Single-linkage clusters of the diagonal of the upper triangular t, norm = ||t||: a pair
    joins within MERGE_DISTANCE norm, or when no third value lies nearer their midpoint mu than
    they do and t - mu I has a singular value at most SPLIT_TOL n norm (estimated on t / norm)."""
    t, n = t / norm, t.shape[0]
    v, labels, limit = t.diagonal(), list(range(n)), SPLIT_TOL * n
    diff = v[:, None] - v
    close, apart = np.abs(diff) <= MERGE_DISTANCE, np.ones((n, n), dtype=bool)
    for w in diff:  # v_k lies nearer the midpoint of v_i, v_j than they do
        apart &= (w[:, None] * w.conj()).real >= 0  # iff Re (v_k - v_i) conj(v_k - v_j) < 0
    close, apart, mid = close.tolist(), apart.tolist(), ((v[:, None] + v) / 2).tolist()
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] != labels[j] and (
                    close[i][j] or apart[i][j] and _smallest_singular_value(t, mid[i][j]) <= limit):
                labels = [labels[i] if x == labels[j] else x for x in labels]
    return [[i for i in range(n) if labels[i] == x] for x in dict.fromkeys(labels)]


def _staircase(b: np.ndarray, tol: float) -> tuple:
    """Nullity steps of p, p^2, ... up to the size of p, the transpose of b's strictly upper
    part, and the top level's new directions as orthonormal columns.  Level i is the null space
    of (I - N N^H) p, N an orthonormal basis of level i - 1: N plus R times the null space of
    R^H p R, R an orthonormal complement of N.  Singular values up to tol count as zero, and
    each decision must hold from tol / RANK_MARGIN to tol * RANK_MARGIN."""
    p = np.triu(b, 1).T
    rest, image, steps = np.eye(p.shape[0], dtype=complex), p, []
    while sum(steps) < p.shape[0] and 0 not in steps:
        _, s, vh = np.linalg.svd(image)
        rank, s = int(np.count_nonzero(s > tol)), s.tolist()
        ratios = [x / tol for x in s[:rank]] + [tol / x for x in s[rank:] if x > 0]
        margin = min(ratios, default=np.inf)
        if margin < RANK_MARGIN:
            raise NumericalFailureError(
                f"Jordan structure is ill-determined: a rank decision clears its "
                f"threshold by a factor {margin:.3g}, below {RANK_MARGIN:g}")
        new = rest @ vh[rank:].conj().T
        steps.append(new.shape[1])
        rest = rest @ vh[:rank].conj().T
        image = rest.conj().T @ p @ rest
    return steps, new


def eigen_decompose(a: tuple, norm: float) -> SpectralData:
    """Clusters of the spectrum of A and their Jordan profiles, from a = (T, Q) with A = Q T Q*
    (AffineSymbol.schur) and norm = ||A||_2.  Reordered to trail, A = Q' T' Q'*, a cluster of k
    values is the block B = T'[-k:, -k:], and the last k rows W of Q'* satisfy W A = B W: chains
    of B^T map to chains of A^T by W^T, which keeps them orthonormal."""
    t, q = a
    d, norm = t.shape[0], max(norm, 1e-300)
    vals, clusters = t.diagonal().tolist(), _cluster(t, norm)
    reps = [complex(np.mean([vals[i] for i in idx])) for idx in clusters]
    near = 2 * MERGE_DISTANCE * norm
    warning = any(abs(x - y) < near for i, x in enumerate(reps) for y in reps[i + 1:])
    infos = []
    for idx, rep in zip(clusters, reps):
        alg = len(idx)
        others = np.ones(d, dtype=np.int32)
        others[idx] = 0  # ztrsen leads with the selected values, so the cluster trails
        ts, qs, *_ = lapack.ztrsen(others, t, q, job="N")
        b = ts[d - alg:, d - alg:]  # a simple eigenvalue's p is 0: one step, with top 1
        steps, tops = ([1], np.ones((1, 1))) if alg == 1 else _staircase(b, RANK_TOL * norm)
        # steps[k] blocks have size > k, so a level never adds more than the one below
        if sum(steps) != alg or steps != sorted(steps, reverse=True):
            raise NumericalFailureError(f"Jordan profile inconsistent for eigenvalue {rep:.6g}: "
                                        f"nullity steps {steps} vs algebraic multiplicity {alg}")
        sizes = tuple(sum(c > j for c in steps) for j in range(steps[0]))
        infos.append(EigenvalueInfo(rep, alg, len(sizes), sizes, qs[:, d - alg:].conj() @ tops))
    infos.sort(key=lambda e: (-abs(e.value), np.angle(e.value) % (2 * np.pi)))
    return SpectralData(tuple(infos), all(s == 1 for e in infos for s in e.block_sizes), warning)


def geometric_eigenvalue_list(spec: SpectralData) -> list:
    """Eigenvalues repeated once per Jordan block (geometric multiplicity)."""
    return [e.value for e in spec.eigenvalues for _ in range(e.geometric_mult)]


# ---------------------------------------------------------------------------
# degree-one polynomial basis L_j(z) = <row_j, z - xi>


@dataclasses.dataclass(frozen=True)
class LinearFormBasis:
    """Rows give L_j(z) = sum_k rows[j, k] (z_k - xi_k), ordered in Jordan
    chains of A^T.  chain_flags[j] is True when the composition operator
    sends L_j to eigenvalue * L_j + L_{j-1} (and False for eigenvectors)."""

    rows: np.ndarray
    chain_flags: tuple
    xi: np.ndarray
    eigenvalues: tuple  # eigenvalue attached to each row


def linear_form_basis(sym: AffineSymbol) -> LinearFormBasis:
    """Degree-one polynomials L_j = <row_j, z - xi> with row_j running through
    Jordan chains of A^T, so that composing with the symbol multiplies each
    L_j by its eigenvalue, plus L_{j-1} on chain continuation rows.  Each
    chain descends from one of the spectrum's chain tops by A^T - lambda I and
    is scaled to a unit eigenvector.

    Chain residuals above sqrt(tol) raise, naming the residual; so do Jordan
    blocks of several sizes at one eigenvalue, which no cyclic symbol has.
    """
    xi, spec = sym.xi, sym.spectrum
    m = sym.a.T.copy()
    rows, flags, eigs = [], [], []
    for info in spec.eigenvalues:
        if len(set(info.block_sizes)) > 1:
            raise InvalidInputError(
                f"eigenvalue {info.value:.6g} has Jordan blocks of sizes {info.block_sizes}")
        p = m - info.value * np.eye(sym.dimension)
        for top in info.chain_tops.T:
            chain = [top]
            for _ in range(info.block_sizes[0] - 1):
                chain.append(p @ chain[-1])
            scale = np.linalg.norm(chain[-1])
            if scale < 1e-300:
                raise NumericalFailureError("degenerate Jordan chain")
            for pos, vec in enumerate(reversed(chain)):
                rows.append(vec / scale)
                flags.append(pos > 0)
                eigs.append(info.value)
    r, tol_res = np.array(rows), np.sqrt(sym.tol) * (1 + float(sym.svd[1][0]))
    expect = r @ sym.a - np.array(eigs)[:, None] * r  # row j: (A^T - lambda_j) row_j, transposed
    expect[1:] -= np.array(flags[1:])[:, None] * r[:-1]
    residual = np.linalg.norm(expect, axis=1)
    for j in np.flatnonzero(residual > tol_res * np.linalg.norm(r, axis=1))[:1]:
        raise NumericalFailureError(f"Jordan chain residual {residual[j]:.3e} on row {j}")
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] < 1e-12 * s[0]:
        raise NumericalFailureError("linear form rows are numerically dependent")
    return LinearFormBasis(r, tuple(flags), xi, tuple(eigs))
