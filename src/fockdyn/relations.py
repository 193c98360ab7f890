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
import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetError,
    DimensionMismatchError,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedInputError,
)

_INT64_MAX = 2**63 - 1


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
    raise UnsupportedInputError(f"factorization budget exhausted for {n}")


def factorize(n: int) -> dict:
    """Prime factorization of a positive integer up to 64 bits."""
    if n <= 0:
        raise InvalidInputError(f"cannot factor nonpositive {n}")
    if n > _INT64_MAX:
        raise UnsupportedInputError(f"{n} exceeds the 64-bit factorization budget")
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
        acc = Fraction(1)
        for eig, a in zip(spec.eigenvalues, vec):
            if eig.modulus is not None:
                acc *= Fraction(eig.modulus) ** a
        if acc != 1:
            raise NumericalFailureError("modulus kernel verification failed")
    return ValuationLattice(prime_list, tags, tuple(rows), tuple(kernel))


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


def _verify_certificate(spec: ExactPolarSpec, alpha) -> None:
    """Exact check that lambda^alpha = 1; raises when the certificate is wrong."""
    phase = _phase_sum(spec, alpha)
    tags = {e.arg_tag for e in spec.eigenvalues if e.arg_tag}
    tagged = any(sum(v for v, e in zip(alpha, spec.eigenvalues) if e.arg_tag == t) for t in tags)
    pairs = zip(spec.eigenvalues, alpha)
    acc = math.prod(Fraction(e.modulus) ** a for e, a in pairs if e.modulus is not None)
    if phase.denominator != 1 or phase.numerator % 2 or tagged or acc != 1:
        raise NumericalFailureError(
            f"relation certificate {alpha} fails exact verification "
            f"(modulus product {acc}, phase {phase} pi)"
        )


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
    d = len(spec)
    candidates = []
    free = [tuple(sum(x * basis[i][j] for i, x in enumerate(coefs)) for j in range(d))
            for coefs in sub]
    # keep the certificate search around 10^6 candidates
    bound = max(1, int(round(10 ** (6 / len(free)) - 1)) // 2)
    bound = min(bound, 6)
    for coefs in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        if not any(coefs):
            continue
        alpha = tuple(sum(c * v[j] for c, v in zip(coefs, free)) for j in range(d))
        if not any(alpha):
            continue
        phase = _phase_sum(spec, alpha)
        if phase.denominator == 1 and phase.numerator % 2 == 0:
            candidates.append(alpha)
    if not candidates:
        base = free[0]
        phase = _phase_sum(spec, base)
        # smallest k with k * phase an even integer
        k = 2 * phase.denominator // math.gcd(phase.numerator, 2 * phase.denominator)
        candidates.append(tuple(k * v for v in base))
    alpha = min(candidates, key=lambda a: (max(abs(v) for v in a), sum(map(abs, a)), a))
    _verify_certificate(spec, alpha)
    return RelationResult(
        RelationStatus.FOUND, alpha=alpha,
        certificate="exact: moduli cancel and phase is an even multiple of pi",
    )


def numeric_relation_search(lambdas, height: int, tol: float = 1e-9) -> RelationResult:
    """Exhaustive scan for |lambda^alpha - 1| <= tol over 0 < |alpha|_inf <= height.

    Works in log-modulus / phase coordinates so no overflow occurs; scans
    height shells outward and returns the first hit in lexicographic order.
    """
    lam = np.asarray(lambdas, dtype=complex)
    if lam.ndim != 1 or lam.size == 0:
        raise DimensionMismatchError("lambdas must be a nonempty vector")
    if np.any(lam == 0):
        raise InvalidInputError("zero eigenvalues admit no relation; handle upstream")
    if height < 1:
        raise InvalidInputError(f"height must be >= 1, got {height}")
    d = lam.size
    if height >= 25 and d >= 4:
        raise BudgetError(f"search space (2*{height}+1)^{d} exceeds the candidate budget")
    if (2 * height + 1) ** d > 10**9:
        raise BudgetError(f"search space (2*{height}+1)^{d} exceeds the candidate budget")
    log_mod = np.log(np.abs(lam))
    phase = np.angle(lam)
    for h in range(1, height + 1):
        for alpha in itertools.product(range(-h, h + 1), repeat=d):
            if max(abs(a) for a in alpha) != h:
                continue
            av = np.array(alpha, dtype=float)
            r = float(av @ log_mod)
            if abs(math.expm1(r)) > tol:
                continue
            ph = float(av @ phase)
            val = math.exp(r) * complex(math.cos(ph), math.sin(ph))
            if abs(val - 1) <= tol:
                return RelationResult(
                    RelationStatus.FOUND, alpha=alpha, height=h,
                    certificate=f"numeric: |lambda^alpha - 1| = {abs(val - 1):.3e} <= {tol:g}",
                )
    return RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=height)
