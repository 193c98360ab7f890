"""Eigenstructure of the linear part: clusters, Jordan profile, and the
degree-one polynomial basis adapted to the symbol.

Eigenvalues are computed numerically, clustered at a caller-chosen radius,
and block sizes are read off rank drops of powers of (A - lambda I).  The
linear forms take one block size per eigenvalue, as every cyclic symbol has.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .symbol import AffineSymbol

# relative rank threshold of the Jordan profile and of the chain nullspaces
RANK_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class EigenvalueInfo:
    value: complex
    algebraic_mult: int
    geometric_mult: int
    block_sizes: tuple  # descending Jordan block sizes for this eigenvalue
    spread: float  # max distance of cluster members from the representative


@dataclasses.dataclass(frozen=True)
class SpectralData:
    eigenvalues: tuple  # EigenvalueInfo, sorted by (-|value|, arg)
    diagonalizable: bool
    cluster_radius: float
    clustering_warning: bool


def _cluster(values: np.ndarray, radius: float) -> list:
    """Single-linkage clusters of complex values at the given radius."""
    n = values.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _numerical_rank(mat: np.ndarray, threshold: float) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > threshold))


def eigen_decompose(a, cluster_radius: float = 1e-7) -> SpectralData:
    """Cluster the spectrum of a and resolve each cluster's Jordan profile.

    Rank decisions use threshold RANK_TOL * ||a||, widened by the cluster
    spread (so a merged pair of nearby simple eigenvalues reads as two
    one-blocks rather than a defective pair).
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    norm_a = max(float(np.linalg.norm(a, 2)), 1e-300)
    vals = np.linalg.eigvals(a)
    clusters = _cluster(vals, cluster_radius)
    reps = [complex(np.mean(vals[idx])) for idx in clusters]
    warning = any(
        abs(reps[i] - reps[j]) < 2 * cluster_radius
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    )
    infos = []
    for idx, rep in zip(clusters, reps):
        alg = len(idx)
        spread = max(abs(vals[i] - rep) for i in idx)
        p = a - rep * np.eye(d)
        blocks_geq = []
        r_prev = d
        pk = np.eye(d)
        for k in range(1, alg + 1):
            pk = pk @ p
            threshold = RANK_TOL * norm_a + (2 * spread) ** k
            r_k = _numerical_rank(pk, threshold)
            blocks_geq.append(r_prev - r_k)
            r_prev = r_k
            if r_k <= d - alg:
                break
        blocks_geq.append(0)
        sizes = []
        for k in range(len(blocks_geq) - 1):
            sizes.extend([k + 1] * (blocks_geq[k] - blocks_geq[k + 1]))
        sizes.sort(reverse=True)
        if sum(sizes) != alg or not sizes:
            raise NumericalFailureError(
                f"Jordan profile inconsistent for eigenvalue {rep:.6g}: "
                f"block sizes {sizes} vs algebraic multiplicity {alg}"
            )
        infos.append(
            EigenvalueInfo(rep, alg, len(sizes), tuple(sizes), float(spread))
        )
    infos.sort(key=lambda e: (-abs(e.value), np.angle(e.value) % (2 * np.pi)))
    diagonalizable = all(s == 1 for e in infos for s in e.block_sizes)
    return SpectralData(tuple(infos), diagonalizable, cluster_radius, warning)


def geometric_eigenvalue_list(spec: SpectralData) -> list:
    """Eigenvalues repeated once per Jordan block (geometric multiplicity)."""
    out = []
    for e in spec.eigenvalues:
        out.extend([e.value] * e.geometric_mult)
    return out


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


def _nullspace(mat: np.ndarray, threshold: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.count_nonzero(s > threshold))
    return vh[rank:].conj().T


def _chains(p: np.ndarray, size: int, count: int, threshold: float) -> list:
    """The count Jordan chains of length size, eigenvector first, of the
    eigenvalue whose shifted matrix is p and whose blocks all have that size:
    the leading right singular vectors of ker(p^size) projected off
    ker(p^(size-1)), each descended by p and scaled to a unit eigenvector."""
    d = p.shape[0]
    pk = np.eye(d)
    for _ in range(size - 1):
        pk = pk @ p
    q = np.linalg.qr(_nullspace(pk, threshold))[0] if size > 1 else np.zeros((d, 0))
    b = _nullspace(pk @ p, threshold)
    _, s_c, vh_c = np.linalg.svd(b - q @ (q.conj().T @ b), full_matrices=False)
    if s_c.size < count or s_c[count - 1] < 1e-8:
        raise NumericalFailureError("could not separate Jordan chain tops")
    out = []
    for i in range(count):
        chain = [b @ vh_c[i].conj()]
        for _ in range(size - 1):
            chain.append(p @ chain[-1])
        chain.reverse()
        scale = np.linalg.norm(chain[0])
        if scale < 1e-300:
            raise NumericalFailureError("degenerate Jordan chain")
        out.append([v / scale for v in chain])
    return out


def linear_form_basis(sym: AffineSymbol) -> LinearFormBasis:
    """Degree-one polynomials L_j = <row_j, z - xi> with row_j running through
    Jordan chains of A^T, so that composing with the symbol multiplies each
    L_j by its eigenvalue, plus L_{j-1} on chain continuation rows.

    Chain residuals above sqrt(tol) raise, naming the residual; so do Jordan
    blocks of several sizes at one eigenvalue, which no cyclic symbol has.
    """
    xi, spec = sym.xi, sym.spectrum
    m = sym.a.T.copy()
    norm_m = max(float(np.linalg.norm(m, 2)), 1e-300)
    rows: list = []
    flags: list = []
    eigs: list = []
    for info in spec.eigenvalues:
        p = m - info.value * np.eye(sym.dimension)
        threshold = RANK_TOL * norm_m + 2 * info.spread
        if len(set(info.block_sizes)) > 1:
            raise InvalidInputError(
                f"eigenvalue {info.value:.6g} has Jordan blocks of sizes {info.block_sizes}")
        for chain in _chains(p, info.block_sizes[0], info.geometric_mult, threshold):
            for pos, vec in enumerate(chain):
                rows.append(vec)
                flags.append(pos > 0)
                eigs.append(info.value)
    r = np.array(rows)
    tol_res = np.sqrt(sym.tol)
    for j, (vec, flag, lam) in enumerate(zip(rows, flags, eigs)):
        expect = m @ vec - lam * vec
        if flag:
            expect = expect - rows[j - 1]
        residual = float(np.linalg.norm(expect))
        if residual > tol_res * (1 + norm_m) * float(np.linalg.norm(vec)):
            raise NumericalFailureError(f"Jordan chain residual {residual:.3e} on row {j}")
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] < 1e-12 * s[0]:
        raise NumericalFailureError("linear form rows are numerically dependent")
    return LinearFormBasis(r, tuple(flags), xi, tuple(eigs))
