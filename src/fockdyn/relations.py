"""Multiplicative relation detection for eigenvalue tuples.

Decides whether a tuple lambda of nonzero complex numbers admits a nonzero
integer vector alpha with lambda^alpha = 1.  Two engines:

* exact: a plain tuple of PolarEigenvalue values, each field a rational or a
  tag (rational or tagged-irrational modulus, rational-multiple-of-pi or
  tagged-generic argument); the decision is a lattice computation and is
  conclusive either way.  Moduli enter through their valuations over a
  coprime base built from gcds, never through a factorization into primes.
* numeric: floating eigenvalues; exhaustive bounded search that can only ever
  certify a relation or report "none up to this height".
"""

from __future__ import annotations

import dataclasses
import enum
import math
from fractions import Fraction

import numpy as np

from .errors import BudgetError, InvalidInputError, NumericalFailureError

# io caps exact numerators and denominators at this many bits, the size the
# coprime base and the certificate arithmetic are tested at
FRACTION_BITS = 63
_EPS = float(np.finfo(float).eps)
# candidates the numeric scan may test.  A scan of the whole budget, with or
# without a relation, takes 0.01-0.06 s at d = 1..6 when |lambda_j| != 1
# prunes by modulus, and 0.06-0.23 s on unimodular lambda, on one Xeon core
RELATION_CANDIDATE_BUDGET = 10**7
# a numeric relation is |lambda^alpha - 1| <= RELATION_TOL
RELATION_TOL = 1e-9
# points per candidate array of the numeric scan (512 KiB of float64 each,
# a few of them live at once, with one array's survivors): at the budget
# edge on unimodular lambda, 2^19 points took 1.2-2.4 times as long, on a
# Xeon core with 2 MiB of L2 cache
_SCAN_CHUNK = 2**16
# coefficient rows per numpy step of the exact certificate search
_CERT_CHUNK = 2**16
# basis vectors of the tag-free lattice the certificate search combines: the
# box (2b+1)^m stays near 10^6 rows, at most 1.95e6 (m = 9); 3^13 rows that all
# close the phase took 0.6-1.1 s on one Xeon core, with 63-bit phases too
_CERT_VECTORS = 13


# ---------------------------------------------------------------------------
# exact polar data


@dataclasses.dataclass(frozen=True)
class PolarEigenvalue:
    """Exact polar description r e^{i theta} of one eigenvalue.

    modulus: r as a positive rational, or a tag (str) standing for
    r = exp(rho_tag); the log-tags are asserted Q-linearly independent,
    jointly with the logs of all primes.  arg: theta / pi as a rational,
    stored modulo 2, or a tag (str) standing for a generic theta; the
    arg-tags are asserted Q-linearly independent jointly with pi.  So two
    values are equal (==) exactly when they describe the same eigenvalue.
    """

    modulus: Fraction | str
    arg: Fraction | str

    def __post_init__(self):
        for name in ("modulus", "arg"):
            x = getattr(self, name)
            if not isinstance(x, (str, int, Fraction)) or isinstance(x, bool):
                raise InvalidInputError(f"{name} must be a rational or a tag, got {x!r}")
        if not isinstance(self.modulus, str):
            if self.modulus <= 0:
                raise InvalidInputError(f"modulus must be positive, got {self.modulus}")
            object.__setattr__(self, "modulus", Fraction(self.modulus))
        if not isinstance(self.arg, str):
            object.__setattr__(self, "arg", Fraction(self.arg) % 2)


# ---------------------------------------------------------------------------
# integer kernel via exact column reduction


def integer_kernel(rows: list, n: int) -> list:
    """Basis of {x in Z^n : R x = 0} for an integer matrix given as rows.

    Column-style Hermite reduction carrying a unimodular transform; all
    arithmetic is exact (arbitrary-precision ints), so no overflow path
    exists.
    """
    cols = [[int(r[j]) for r in rows] for j in range(n)]
    trans = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns of U
    m = len(rows)
    pivot_col = 0
    for i in range(m):
        if pivot_col >= n:
            break
        # gcd-style elimination across columns pivot_col..n-1 on row i
        while True:
            nonzero = [j for j in range(pivot_col, n) if cols[j][i] != 0]
            if not nonzero:
                break
            j0 = min(nonzero, key=lambda j: abs(cols[j][i]))
            cols[pivot_col], cols[j0] = cols[j0], cols[pivot_col]
            trans[pivot_col], trans[j0] = trans[j0], trans[pivot_col]
            done = True
            piv = cols[pivot_col][i]
            for j in range(pivot_col + 1, n):
                if cols[j][i] != 0:
                    q = cols[j][i] // piv
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[pivot_col])]
                    trans[j] = [a - q * b for a, b in zip(trans[j], trans[pivot_col])]
                    if cols[j][i] != 0:
                        done = False
            if done:
                break
        if cols[pivot_col][i] != 0:
            pivot_col += 1
    # the columns from pivot_col on vanish on every row, and U is unimodular
    return [tuple(vec) for vec in trans[pivot_col:]]


@dataclasses.dataclass(frozen=True)
class ValuationLattice:
    """Constraint matrix for |lambda^alpha| = 1 and its integer kernel."""

    matrix: tuple  # rows: coprime-base valuations first, then log-tag indicators
    kernel_basis: tuple


def coprime_base(numbers) -> list:
    """The pairwise coprime integers > 1, ascending, of which every number in
    numbers is a product of powers.  Factor refinement (Bach, Driscoll and
    Shallit 1993) by gcds alone: two numbers that share a factor g give way
    to g and their cofactors until no two share one.  The product of the
    numbers in play drops at each split, so the loop ends."""
    base: list = []
    work = [n for n in numbers if n > 1]
    while work:
        n = work.pop()
        for i, m in enumerate(base):
            g = math.gcd(n, m)
            if g > 1:
                del base[i]
                work.extend(x for x in (g, m // g, n // g) if x > 1)
                break
        else:
            base.append(n)
    return sorted(base)


def _valuation(n: int, q: int) -> int:
    """The largest k with q^k dividing n > 0 (q > 1, so k < n.bit_length())."""
    return next(k for k in range(n.bit_length()) if n % q ** (k + 1))


def _tag_rows(values) -> list:
    """One indicator row per distinct tag (str) among values, in sorted
    order: the tagged quantities drop out of lambda^alpha iff alpha sums to
    0 over each row."""
    tags = sorted({v for v in values if isinstance(v, str)})
    return [tuple(int(v == t) for v in values) for t in tags]


def modulus_kernel(eigs: tuple) -> ValuationLattice:
    """Integer kernel of the modulus constraints Sum_j alpha_j log|lambda_j| = 0.

    Rational moduli contribute one row per element q of the coprime base of
    their numerators and denominators (the valuations at q, which are
    unique as the base is pairwise coprime); each log-tag contributes an
    indicator row (its total coefficient must vanish).  Where every q is
    prime these are the prime valuations.
    """
    moduli = [e.modulus for e in eigs]
    rational = [m for m in moduli if not isinstance(m, str)]
    base = coprime_base([n for m in rational for n in (m.numerator, m.denominator)])
    rows = [
        tuple(0 if isinstance(m, str) else _valuation(m.numerator, q) - _valuation(m.denominator, q)
              for m in moduli)
        for q in base
    ]
    rows += _tag_rows(moduli)
    kernel = integer_kernel([list(r) for r in rows], len(eigs))
    # exact self-check: every basis vector leaves the rational moduli balanced
    for vec in kernel:
        if any(_row_sums(rows, vec)):
            raise NumericalFailureError("modulus kernel verification failed")
    return ValuationLattice(tuple(rows), tuple(kernel))


def _row_sums(rows, alpha) -> list:
    """Sum_j alpha_j row_j per valuation or tag row: every sum vanishes iff
    |lambda^alpha| = 1, with no power of a modulus ever formed."""
    return [sum(r * a for r, a in zip(row, alpha)) for row in rows]


# ---------------------------------------------------------------------------
# relation results


class RelationStatus(enum.Enum):
    FOUND = "found"
    NONE_UP_TO_HEIGHT = "none_up_to_height"
    PROVEN_NONE = "proven_none"


@dataclasses.dataclass(frozen=True)
class RelationResult:
    status: RelationStatus
    alpha: tuple | None = None
    height: int | None = None
    certificate: str = ""

    def __post_init__(self):
        if self.status is RelationStatus.FOUND:
            if self.alpha is None or not any(self.alpha):
                raise InvalidInputError("FOUND requires a nonzero alpha")


def _phase_sum(eigs: tuple, alpha) -> Fraction:
    """Sum of alpha_j * theta_j / pi over the rational-argument entries."""
    return sum((a * e.arg for e, a in zip(eigs, alpha) if not isinstance(e.arg, str)), Fraction(0))


def _verify_certificate(eigs: tuple, lattice: ValuationLattice, alpha) -> None:
    """Exact check that lambda^alpha = 1; raises when the certificate is wrong.
    The moduli balance when alpha cancels every row of lattice.matrix."""
    phase = _phase_sum(eigs, alpha)
    tagged = any(_row_sums(_tag_rows([e.arg for e in eigs]), alpha))
    sums = _row_sums(lattice.matrix, alpha)
    if phase.denominator != 1 or phase.numerator % 2 or tagged or any(sums):
        raise NumericalFailureError(
            f"relation certificate {alpha} fails exact verification "
            f"(modulus valuation sums {sums}, phase {phase} pi)"
        )


def _smallest_certificate(eigs: tuple, free: list, bound: int) -> tuple | None:
    """The least alpha = sum_i c_i free_i, 0 < max|c_i| <= bound, by
    (max|alpha|, sum|alpha|, alpha), whose phase _phase_sum is an even
    integer; None when there is none.

    Phases are integers in units of pi / D for the common denominator D of
    the rational arguments, taken modulo 2 D.  The coefficient box is cut
    by _grid_pieces, as the numeric scan's box is, into product grids of
    at most _CERT_CHUNK rows.  The phase sums and the exponents are each
    int64 when a bound on their sums rules out overflow, and Python ints
    otherwise: a wide phase leaves the exponents in int64.
    """
    args = [e.arg for e in eigs]
    den = math.lcm(*(q.denominator for q in args if not isinstance(q, str)))
    modulus = 2 * den
    weights = [0 if isinstance(q, str) else int(q * den) for q in args]
    phases = [sum(v * w for v, w in zip(vec, weights)) % modulus for vec in free]
    phase = np.array(phases, dtype=np.int64 if len(free) * modulus * bound < 2**62 else object)
    largest = sum(abs(v) for vec in free for v in vec) * bound
    coef = np.array(free, dtype=np.int64 if largest < 2**62 else object)
    best = None
    for axes in _grid_pieces([np.arange(-bound, bound + 1)] * len(free), _CERT_CHUNK):
        keep = _grid_dot([a.astype(phase.dtype, copy=False) for a in axes], phase) % modulus == 0
        if not keep.any():
            continue
        alphas = np.stack([a[i] for a, i in zip(axes, np.nonzero(keep))], axis=1) @ coef
        # only c = 0 gives alpha = 0, as the free vectors are independent
        height = np.abs(alphas).max(axis=1)
        alphas, height = alphas[height > 0], height[height > 0]
        if not height.size:
            continue
        alphas = alphas[height == height.min()]
        weight = np.abs(alphas).sum(axis=1)
        alphas = alphas[weight == weight.min()]
        alpha = min(tuple(int(v) for v in row) for row in alphas)
        key = (max(map(abs, alpha)), sum(map(abs, alpha)), alpha)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


def exact_relation_decide(eigs: tuple) -> RelationResult:
    """Conclusively decide lambda^alpha = 1 solvability from exact polar data.

    On the modulus kernel every arg-tag's total coefficient must vanish,
    leaving a rational-multiple-of-pi phase, some even multiple of which is
    always reachable.  So a relation exists iff the tag-free lattice, the
    integer kernel of the modulus rows stacked on the arg-tag rows, is
    nonzero.
    """
    lattice = modulus_kernel(eigs)
    if not lattice.kernel_basis:
        return RelationResult(RelationStatus.PROVEN_NONE, certificate="modulus kernel is trivial")
    free = integer_kernel([*lattice.matrix, *_tag_rows([e.arg for e in eigs])], len(eigs))
    if not free:
        return RelationResult(
            RelationStatus.PROVEN_NONE,
            certificate="every modulus-kernel vector carries a generic argument tag",
        )
    # search small combinations of the first basis vectors for a relation,
    # scaling the phase to an even integer; the bound is 1 from 10 vectors on
    search = free[:_CERT_VECTORS]
    bound = max(1, int(round(10 ** (6 / len(search)) - 1)) // 2)
    bound = min(bound, 6)
    alpha = _smallest_certificate(eigs, search, bound)
    if alpha is None:
        base = free[0]
        phase = _phase_sum(eigs, base)
        # smallest k with k * phase an even integer
        k = 2 * phase.denominator // math.gcd(phase.numerator, 2 * phase.denominator)
        alpha = tuple(k * v for v in base)
    _verify_certificate(eigs, lattice, alpha)
    return RelationResult(
        RelationStatus.FOUND, alpha=alpha,
        certificate="exact: moduli cancel and phase is an even multiple of pi",
    )


def _grid_pieces(axes: list, limit: int):
    """Split a product grid into product grids of at most `limit` points."""
    rest = math.prod(len(a) for a in axes[1:])
    if len(axes[0]) * rest <= limit:
        yield axes
        return
    step = max(1, limit // rest)
    for i in range(0, len(axes[0]), step):
        head = axes[0][i:i + step]
        if rest <= limit:
            yield [head, *axes[1:]]
        else:
            for tail in _grid_pieces(axes[1:], limit):
                yield [head, *tail]


def _grid_dot(axes: list, weights) -> np.ndarray:
    """alpha . weights at every point of a product grid, in C order."""
    total = axes[0] * weights[0]
    for values, w in zip(axes[1:], weights[1:]):
        total = np.add.outer(total, values * w)
    return total


def _scalar_relation(alpha: tuple, log_mod, phase, tol: float) -> float | None:
    """|lambda^alpha - 1| when it is at most tol, else None."""
    av = np.array(alpha, dtype=float)
    r = float(av @ log_mod)
    if abs(math.expm1(r)) > tol:
        return None
    ph = float(av @ phase)
    val = math.exp(r) * complex(math.cos(ph), math.sin(ph))
    return abs(val - 1) if abs(val - 1) <= tol else None


def numeric_relation_search(lambdas, height: int) -> RelationResult:
    """Exhaustive scan for |lambda^alpha - 1| <= RELATION_TOL over
    0 < |alpha|_inf <= height.

    Returns the first hit in the smallest shell max|alpha| = h, in
    lexicographic order within it.  The box [-height, height]^d is walked
    once, in lexicographic order, as the numpy grids of at most _SCAN_CHUNK
    points that _grid_pieces cuts, so the work is the (2 height + 1)^d - 1
    candidates the budget counts, with or without a hit.  A grid point
    survives when alpha . log|lambda| and alpha . arg(lambda) / 2 pi lie
    within tol = RELATION_TOL plus a rounding bound of the window a hit must
    lie in; each grid's survivors, a superset of its hits, go through the
    scalar test in (shell, lexicographic) order, and the least hit over all
    grids is that of a scalar loop over the shells.  Survivors have
    alpha . log|lambda| < log 2 + tol + 1e-5, so exp never overflows.
    """
    lam = np.asarray(lambdas, dtype=complex)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidInputError("lambdas must be a nonempty vector")
    if np.any(lam == 0):
        raise InvalidInputError("zero eigenvalues admit no relation; handle upstream")
    if not np.all(np.isfinite(lam)):
        raise InvalidInputError("eigenvalues must be finite")
    if height < 1:
        raise InvalidInputError(f"height must be >= 1, got {height}")
    d = lam.size
    candidates = (2 * height + 1) ** d - 1
    if candidates > RELATION_CANDIDATE_BUDGET:
        raise BudgetError(
            f"search space (2*{height}+1)^{d} - 1 = {candidates} candidates exceeds "
            f"the budget {RELATION_CANDIDATE_BUDGET}"
        )
    tol = RELATION_TOL
    log_mod = np.log(np.abs(lam))
    phase = np.angle(lam)
    turns = phase / (2 * math.pi)
    # a hit has log1p(-tol) <= r <= log1p(tol), and |e^{i ph} - 1| <=
    # |expm1(r)| + |lambda^alpha - 1| <= 2 tol + O(eps), so ph lies within
    # pi/2 (2 tol + O(eps)) of a multiple of 2 pi: tol / 2 + O(eps) turns
    lo, hi = math.log1p(-tol), math.log1p(tol)
    size_l, size_t = float(np.abs(log_mod).sum()), float(np.abs(turns).sum())
    # the vector sums and the scalar dot product each round within
    # (d + 1) eps |alpha| . |x| of the exact value
    pad_r = tol + 2 * (d + 1) * _EPS * height * size_l
    win_t = tol + 16 * _EPS + 2 * (d + 3) * _EPS * (height * size_t + 1)
    best = None
    for piece in _grid_pieces([range(-height, height + 1)] * d, _SCAN_CHUNK):
        axes = [np.arange(a.start, a.stop) for a in piece]  # no 10^7-point array at d = 1
        r = _grid_dot(axes, log_mod)
        keep = (r >= lo - pad_r) & (r <= hi + pad_r)
        keep[np.ix_(*(a == 0 for a in axes))] = False  # alpha = 0 is no relation
        if not keep.any():
            continue
        s = _grid_dot(axes, turns)
        keep &= np.abs(s - np.rint(s)) <= win_t
        alphas = np.stack([a[i] for a, i in zip(axes, np.nonzero(keep))], axis=1)
        shells = np.abs(alphas).max(axis=1)
        # grids come in lexicographic order, so a later one wins only by shell
        for i in np.lexsort([*alphas.T[::-1], shells]):
            if best is not None and shells[i] >= best.height:
                break
            alpha = tuple(int(v) for v in alphas[i])
            gap = _scalar_relation(alpha, log_mod, phase, tol)
            if gap is not None:
                best = RelationResult(
                    RelationStatus.FOUND, alpha=alpha, height=int(shells[i]),
                    certificate=f"numeric: |lambda^alpha - 1| = {gap:.3e} <= {tol:g}",
                )
                break
    return best or RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=height)
