"""Eigenstructure of the linear part: clusters, Jordan profile, and the
degree-one polynomial basis adapted to the symbol.

Computed eigenvalues are clustered where they lie within MERGE_DISTANCE or
where A - mu I at their midpoint mu is singular to within rounding.  One
staircase per cluster then deflates the nullspaces of A^T - mu I in turn: the
steps in nullity give the block sizes, and the top level gives the chain tops
from which the linear forms descend.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .symbol import AffineSymbol

# computed eigenvalues this close always form one cluster
MERGE_DISTANCE = 1e-7
# a pair farther apart joins when A - mu I at its midpoint mu has a singular
# value at most SPLIT_TOL d ||A||, a backward error that rounding reaches: at
# most 0.15 d eps ||A|| at the splits of conjugated 2- to 6-blocks, and
# 8.5e3 d eps ||A|| between 0.5, 0.5001, 0.5002 with 0.3 above the diagonal
SPLIT_TOL = 10 * float(np.finfo(float).eps)
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


def _cluster(vals: list, m: np.ndarray, threshold: float) -> list:
    """Single-linkage clusters of the computed eigenvalues of m: a pair joins
    within MERGE_DISTANCE, or when m - mu I at its midpoint mu has a singular
    value at most threshold and no third value lies nearer mu than the pair.

    No SVD is taken where Henrici's bound clears threshold: with every
    eigenvalue at least delta from mu, and dep the departure of m from
    normality, sigma_min(m - mu I) >= delta / (n max(1, dep / delta)^(n-1))."""
    n, v, parent = len(vals), np.asarray(vals), list(range(len(vals)))
    fro = max(math.hypot(*np.abs(m).flat), 1e-300)
    # dep^2 = ||m||_F^2 - sum |lambda|^2, raised past the rounding of both sums;
    # taken relative to ||m||_F, so that no square overflows
    dep = fro * math.sqrt(max(1.0 - sum((abs(x) / fro) ** 2 for x in vals), 0.0) + n * SPLIT_TOL)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            half, mid = abs(vals[i] - vals[j]) / 2, (vals[i] + vals[j]) / 2
            if half <= MERGE_DISTANCE / 2 or (
                    math.log(half / n / threshold) <= (n - 1) * math.log(max(1.0, dep / half))
                    and np.delete(np.abs(v - mid), [i, j]).min(initial=np.inf) >= half
                    and np.linalg.svd(m - mid * np.eye(n), compute_uv=False)[-1] <= threshold):
                parent[find(i)] = find(j)
    roots = [find(i) for i in range(n)]
    return [[i for i in range(n) if roots[i] == r] for r in dict.fromkeys(roots)]


def _staircase(p: np.ndarray, alg: int, tol: float, spread: float) -> tuple:
    """Nullity steps of p, p^2, ... up to nullity alg, and the top level's new
    directions as orthonormal columns.

    Level i is the null space of (I - N N^H) p, N an orthonormal basis of
    level i - 1: N plus R times the null space of R^H p R, R an orthonormal
    complement of N.  Singular values up to tol + 2 spread count as zero, and
    each decision must hold from tol / RANK_MARGIN to tol * RANK_MARGIN, bar
    values within 2 spread, where a merged cluster's spread may put them."""
    rest, image, steps = np.eye(p.shape[0], dtype=complex), p, []
    while True:
        _, s, vh = np.linalg.svd(image)
        excess = [x - 2 * spread for x in s.tolist()]
        rank = sum(x > tol for x in excess)
        ratios = [x / tol for x in excess[:rank]] + [tol / x for x in excess[rank:] if x > 0]
        margin = min(ratios, default=np.inf)
        if margin < RANK_MARGIN:
            raise NumericalFailureError(
                f"Jordan structure is ill-determined: a rank decision clears its "
                f"threshold by a factor {margin:.3g}, below {RANK_MARGIN:g}")
        if rank == s.size:
            return steps, None
        new = rest @ vh[rank:].conj().T
        steps.append(new.shape[1])
        if sum(steps) >= alg:
            return steps, new
        rest = rest @ vh[:rank].conj().T
        image = rest.conj().T @ p @ rest


def eigen_decompose(a, norm: float | None = None) -> SpectralData:
    """Cluster the spectrum of a and resolve each cluster's Jordan profile;
    norm is ||a||_2 where the caller has it."""
    a = np.asarray(a, dtype=complex)
    norm = max(float(np.linalg.norm(a, 2)) if norm is None else norm, 1e-300)
    vals = np.linalg.eigvals(a).tolist()
    clusters = _cluster(vals, a.T, SPLIT_TOL * a.shape[0] * norm)
    reps = [complex(np.mean([vals[i] for i in idx])) for idx in clusters]
    warning = any(abs(x - y) < 2 * MERGE_DISTANCE for i, x in enumerate(reps) for y in reps[i + 1:])
    infos = []
    for idx, rep in zip(clusters, reps):
        alg = len(idx)
        spread = max(abs(vals[i] - rep) for i in idx)
        steps, tops = _staircase(a.T - rep * np.eye(a.shape[0]), alg, RANK_TOL * norm, spread)
        # steps[k] blocks have size > k, so a level never adds more than the one below
        if sum(steps) != alg or steps != sorted(steps, reverse=True):
            raise NumericalFailureError(f"Jordan profile inconsistent for eigenvalue {rep:.6g}: "
                                        f"nullity steps {steps} vs algebraic multiplicity {alg}")
        sizes = tuple(sum(c > j for c in steps) for j in range(steps[0]))
        infos.append(EigenvalueInfo(rep, alg, len(sizes), sizes, tops))
    infos.sort(key=lambda e: (-abs(e.value), np.angle(e.value) % (2 * np.pi)))
    diagonalizable = all(s == 1 for e in infos for s in e.block_sizes)
    return SpectralData(tuple(infos), diagonalizable, warning)


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
    r = np.array(rows)
    tol_res = np.sqrt(sym.tol) * (1 + float(sym.svd[1][0]))  # scaled by 1 + ||A||
    for j, (vec, flag, lam) in enumerate(zip(rows, flags, eigs)):
        expect = m @ vec - lam * vec
        if flag:
            expect = expect - rows[j - 1]
        residual = float(np.linalg.norm(expect))
        if residual > tol_res * float(np.linalg.norm(vec)):
            raise NumericalFailureError(f"Jordan chain residual {residual:.3e} on row {j}")
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] < 1e-12 * s[0]:
        raise NumericalFailureError("linear form rows are numerically dependent")
    return LinearFormBasis(r, tuple(flags), xi, tuple(eigs))
