"""Multiplicative relation detection for eigenvalue tuples.

Decides whether a tuple lambda of nonzero complex numbers admits a nonzero
integer vector alpha with lambda^alpha = 1.  Two engines:

* exact: eigenvalues given in exact polar form (rational or tagged-irrational
  modulus, rational-multiple-of-pi or tagged-generic argument); the decision
  is a lattice computation and is conclusive either way.
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

# bits of the integers factorize accepts; io caps exact numerators and
# denominators at it, the size the certificate arithmetic is tested at
FRACTION_BITS = 63
_EPS = float(np.finfo(float).eps)
# candidates the numeric scan may test.  A scan of the whole budget takes
# 0.03-0.09 s at d = 1..6 when |lambda_j| != 1 prunes by modulus, and
# 0.12-0.23 s on unimodular lambda, on one 2.1 GHz Xeon core
RELATION_CANDIDATE_BUDGET = 10**7
# a numeric relation is |lambda^alpha - 1| <= RELATION_TOL
RELATION_TOL = 1e-9
# points per candidate array of the numeric scan (4 MiB of float64 each, a
# few of them live at once); its first step takes _SCAN_FIRST candidates,
# and each later step twice as many as the one before, up to _SCAN_CHUNK
_SCAN_CHUNK = 2**19
_SCAN_FIRST = 2**12
# coefficient rows per numpy step of the exact certificate search
_CERT_CHUNK = 2**16
# coefficient rows (2b+1)^m the certificate search may test: 5-30 ns a row on
# int64 arrays, 70-260 ns on Python ints (63-bit denominators), on one 2.1 GHz
# Xeon core; the largest box admitted, 3^14 rows, took 0.84 s on Python ints
CERTIFICATE_ROW_BUDGET = 10**7


# ---------------------------------------------------------------------------
# exact polar data


@dataclasses.dataclass(frozen=True)
class PolarEigenvalue:
    """Exact polar description of one eigenvalue.

    modulus: positive rational, or None when the modulus is exp(rho) for a
    tagged real rho (modulus_log_tag); the set of log-tags is asserted to be
    Q-linearly independent, jointly with the logs of all primes.
    Argument: theta = arg_pi_multiple * pi when rational, or a tagged real
    (arg_tag); the arg-tag set is asserted Q-linearly independent jointly
    with pi.
    """

    modulus: Fraction | None = None
    modulus_log_tag: str | None = None
    arg_pi_multiple: Fraction | None = None
    arg_tag: str | None = None

    def __post_init__(self):
        if (self.modulus is None) == (self.modulus_log_tag is None):
            raise InvalidInputError("exactly one of modulus / modulus_log_tag required")
        if (self.arg_pi_multiple is None) == (self.arg_tag is None):
            raise InvalidInputError("exactly one of arg_pi_multiple / arg_tag required")
        if self.modulus is not None and self.modulus <= 0:
            raise InvalidInputError(f"modulus must be positive, got {self.modulus}")

    def approximate_modulus(self) -> float | None:
        """Float modulus when expressible (rational moduli only)."""
        return float(self.modulus) if self.modulus is not None else None

    def approximate_value(self) -> complex | None:
        """Float value when both modulus and argument are exact rationals."""
        if self.modulus is None or self.arg_pi_multiple is None:
            return None
        return float(self.modulus) * np.exp(1j * math.pi * float(self.arg_pi_multiple))


@dataclasses.dataclass(frozen=True)
class ExactPolarSpec:
    eigenvalues: tuple[PolarEigenvalue, ...]

    def __post_init__(self):
        if not self.eigenvalues:
            raise InvalidInputError("empty eigenvalue list")

    def __len__(self) -> int:
        return len(self.eigenvalues)


# ---------------------------------------------------------------------------
# integer factorization (deterministic for 64-bit inputs)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic witness set for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise InvalidInputError(f"factorization budget exhausted for {n}")


def factorize(n: int) -> dict:
    """Prime factorization of a positive integer up to 64 bits."""
    if n <= 0:
        raise InvalidInputError(f"cannot factor nonpositive {n}")
    if n.bit_length() > FRACTION_BITS:
        raise InvalidInputError(f"{n} exceeds the 64-bit factorization budget")
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


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
    kernel = []
    for j in range(pivot_col, n):
        if all(v == 0 for v in cols[j]):
            vec = trans[j]
            if any(vec):
                kernel.append(tuple(vec))
    return kernel


@dataclasses.dataclass(frozen=True)
class ValuationLattice:
    """Constraint matrix for |lambda^alpha| = 1 and its integer kernel."""

    primes: tuple
    log_tags: tuple
    matrix: tuple  # rows: prime valuations first, then log-tag indicators
    kernel_basis: tuple


def modulus_kernel(spec: ExactPolarSpec) -> ValuationLattice:
    """Integer kernel of the modulus constraints Sum_j alpha_j log|lambda_j| = 0.

    Rational moduli contribute one row per prime (their valuations); each
    log-tag contributes an indicator row (its total coefficient must vanish).
    """
    d = len(spec)
    primes: set = set()
    vals = []
    for eig in spec.eigenvalues:
        if eig.modulus is not None:
            num = factorize(eig.modulus.numerator)
            den = factorize(eig.modulus.denominator)
            v = {p: num.get(p, 0) - den.get(p, 0) for p in set(num) | set(den)}
            primes.update(v)
            vals.append(v)
        else:
            vals.append(None)
    prime_list = tuple(sorted(primes))
    tags = tuple(sorted({e.modulus_log_tag for e in spec.eigenvalues if e.modulus_log_tag}))
    rows = []
    for p in prime_list:
        rows.append(tuple(0 if v is None else v.get(p, 0) for v in vals))
    for t in tags:
        rows.append(tuple(1 if e.modulus_log_tag == t else 0 for e in spec.eigenvalues))
    kernel = integer_kernel([list(r) for r in rows], d)
    # exact self-check: every basis vector leaves the rational moduli balanced
    for vec in kernel:
        if any(_row_sums(rows, vec)):
            raise NumericalFailureError("modulus kernel verification failed")
    return ValuationLattice(prime_list, tags, tuple(rows), tuple(kernel))


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


def _phase_sum(spec: ExactPolarSpec, alpha) -> Fraction:
    """Sum of alpha_j * theta_j / pi over the rational-argument entries."""
    total = Fraction(0)
    for eig, a in zip(spec.eigenvalues, alpha):
        if eig.arg_pi_multiple is not None:
            total += a * eig.arg_pi_multiple
    return total


def _verify_certificate(spec: ExactPolarSpec, lattice: ValuationLattice, alpha) -> None:
    """Exact check that lambda^alpha = 1; raises when the certificate is wrong.
    The moduli balance when alpha cancels every row of lattice.matrix."""
    phase = _phase_sum(spec, alpha)
    tags = {e.arg_tag for e in spec.eigenvalues if e.arg_tag}
    tagged = any(sum(v for v, e in zip(alpha, spec.eigenvalues) if e.arg_tag == t) for t in tags)
    sums = _row_sums(lattice.matrix, alpha)
    if phase.denominator != 1 or phase.numerator % 2 or tagged or any(sums):
        raise NumericalFailureError(
            f"relation certificate {alpha} fails exact verification "
            f"(modulus valuation sums {sums}, phase {phase} pi)"
        )


def _smallest_certificate(spec: ExactPolarSpec, free: list, bound: int) -> tuple | None:
    """The least alpha = sum_i c_i free_i, 0 < max|c_i| <= bound, by
    (max|alpha|, sum|alpha|, alpha), whose phase _phase_sum is an even
    integer; None when there is none.

    Phases are integers in units of pi / D for the common denominator D of
    the rational arguments, taken modulo 2 D.  The coefficient box is cut
    by _grid_pieces, as the numeric scan's annuli are, into product grids of
    at most _CERT_CHUNK rows; its integers are int64 when a bound on every
    sum rules out overflow, and Python ints otherwise.
    """
    args = [e.arg_pi_multiple for e in spec.eigenvalues]
    den = math.lcm(*(q.denominator for q in args if q is not None))
    modulus = 2 * den
    weights = [0 if q is None else int(q * den) for q in args]
    phases = [sum(v * w for v, w in zip(vec, weights)) % modulus for vec in free]
    largest = max(len(free) * modulus, sum(abs(v) for vec in free for v in vec)) * bound
    dtype = np.int64 if largest < 2**62 else object
    coef = np.array(free, dtype=dtype)
    phase = np.array(phases, dtype=dtype)
    box = [np.arange(-bound, bound + 1).astype(dtype)] * len(free)
    best = None
    for axes in _grid_pieces(box, _CERT_CHUNK):
        keep = _grid_dot(axes, phase) % modulus == 0
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


def exact_relation_decide(spec: ExactPolarSpec) -> RelationResult:
    """Conclusively decide lambda^alpha = 1 solvability from exact polar data.

    Restrict to the modulus kernel; on it every arg-tag's total coefficient
    must vanish, leaving a rational-multiple-of-pi phase, some even multiple
    of which is always reachable.  So a relation exists iff the tag-free
    sublattice of the modulus kernel is nonzero.
    """
    lattice = modulus_kernel(spec)
    basis = lattice.kernel_basis
    if not basis:
        return RelationResult(RelationStatus.PROVEN_NONE, certificate="modulus kernel is trivial")
    arg_tags = sorted({e.arg_tag for e in spec.eigenvalues if e.arg_tag})
    tag_rows = []
    for t in arg_tags:
        tag_rows.append([
            sum(v for v, e in zip(vec, spec.eigenvalues) if e.arg_tag == t)
            for vec in basis
        ])
    if tag_rows:
        sub = integer_kernel(tag_rows, len(basis))
    else:
        sub = [tuple(1 if i == j else 0 for i in range(len(basis))) for j in range(len(basis))]
    if not sub:
        return RelationResult(
            RelationStatus.PROVEN_NONE,
            certificate="every modulus-kernel vector carries a generic argument tag",
        )
    # search small combinations of the tag-free sublattice for a relation,
    # scaling the phase to an even integer
    free = [tuple(sum(x * basis[i][j] for i, x in enumerate(coefs)) for j in range(len(spec)))
            for coefs in sub]
    # keep the certificate search around 10^6 candidates
    bound = max(1, int(round(10 ** (6 / len(free)) - 1)) // 2)
    bound = min(bound, 6)
    rows = (2 * bound + 1) ** len(free)
    if rows > CERTIFICATE_ROW_BUDGET:
        raise BudgetError(f"certificate search over {rows} rows exceeds {CERTIFICATE_ROW_BUDGET}")
    alpha = _smallest_certificate(spec, free, bound)
    if alpha is None:
        base = free[0]
        phase = _phase_sum(spec, base)
        # smallest k with k * phase an even integer
        k = 2 * phase.denominator // math.gcd(phase.numerator, 2 * phase.denominator)
        alpha = tuple(k * v for v in base)
    _verify_certificate(spec, lattice, alpha)
    return RelationResult(
        RelationStatus.FOUND, alpha=alpha,
        certificate="exact: moduli cancel and phase is an even multiple of pi",
    )


def _annulus_grids(d: int, h0: int, h1: int):
    """Axis values of d disjoint product grids that tile h0 <= max|alpha| <= h1.

    Grid k holds the alpha whose first coordinate of modulus >= h0 is
    alpha_k: earlier coordinates lie below h0, later ones anywhere in the box.
    """
    outer = np.concatenate([np.arange(-h1, 1 - h0), np.arange(h0, h1 + 1)])
    if d == 1:
        yield [outer]
        return
    inner = np.arange(1 - h0, h0)
    full = np.arange(-h1, h1 + 1)
    for k in range(d):
        yield [inner] * k + [outer] + [full] * (d - k - 1)


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
    lexicographic order within it.  Candidates are numpy grids of at most
    _SCAN_CHUNK points, several shells at a time while shells are small, so
    the work is proportional to the (2 height + 1)^d - 1 candidates the
    budget counts.  A grid point survives when alpha . log|lambda| and
    alpha . arg(lambda) / 2 pi lie within tol = RELATION_TOL plus a rounding
    bound of the
    window a hit must lie in; the survivors, a superset of the hits, go
    through the scalar test in (shell, lexicographic) order, so the result
    is that of a scalar loop over the shells.  Survivors have
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
    h0, target = 1, _SCAN_FIRST
    while h0 <= height:
        inner = (2 * h0 - 1) ** d
        h1 = min(height, int(((inner + target) ** (1 / d) - 1) / 2))
        while h1 > h0 and (2 * h1 + 1) ** d - inner > target:
            h1 -= 1
        h1 = max(h0, h1)
        target = min(2 * target, _SCAN_CHUNK)
        # the vector sums and the scalar dot product each round within
        # (d + 1) eps |alpha| . |x| of the exact value
        pad_r = tol + 2 * (d + 1) * _EPS * h1 * size_l
        win_t = tol + 16 * _EPS + 2 * (d + 3) * _EPS * (h1 * size_t + 1)
        found = []
        for grid in _annulus_grids(d, h0, h1):
            for axes in _grid_pieces(grid, _SCAN_CHUNK):
                r = _grid_dot(axes, log_mod)
                keep = (r >= lo - pad_r) & (r <= hi + pad_r)
                if not keep.any():
                    continue
                s = _grid_dot(axes, turns)
                keep &= np.abs(s - np.rint(s)) <= win_t
                hits = np.nonzero(keep)
                if hits[0].size:
                    found.append(np.stack([a[i] for a, i in zip(axes, hits)], axis=1))
        if found:
            alphas = np.concatenate(found)
            shells = np.abs(alphas).max(axis=1)
            for i in np.lexsort([*alphas.T[::-1], shells]):
                alpha = tuple(int(v) for v in alphas[i])
                gap = _scalar_relation(alpha, log_mod, phase, tol)
                if gap is not None:
                    return RelationResult(
                        RelationStatus.FOUND, alpha=alpha, height=int(shells[i]),
                        certificate=f"numeric: |lambda^alpha - 1| = {gap:.3e} <= {tol:g}",
                    )
        h0 = h1 + 1
    return RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=height)
