"""Threshold enumeration of lattice powers and the closed-form
approximation numbers with their SVD cross-check.

a_n = exp(<(I-B)^{-1}v, v>/2 - |v|^2/4) * lambda^{alpha_n}, with B = sqrt(AA*),
v = (I+B)^{-1}b, lambda the singular values of A, and (alpha_n) enumerating
the lattice powers in nonincreasing order.
"""

from __future__ import annotations

import dataclasses
import heapq
import math

import numpy as np

from ..errors import BudgetError, InvalidInputError
from ..polymap import dense_grid
from ..symbol import AffineSymbol, unit_scaled
from .basis import check_basis_size
from .operator import SVD_OPERATIONS_BUDGET, top_singular_values, truncated_singular_values

# numbers an enumeration may return, k values and k d exponents: `approx
# --top 1000000` at d = 3 took 5.8-6.7 s to a JSON report (peak RSS 566 MiB)
# and 5.6-6.7 s to a text one (415 MiB), on one core of a 2-vCPU Xeon
ENUMERATION_BUDGET = 4_000_000


def _check_budget(k: int, d: int) -> None:
    if k * (d + 1) > ENUMERATION_BUDGET:
        raise BudgetError(f"{k} terms of {d} exponents exceed the enumeration budget")


def _best_first(value, lengths, k: int) -> list:
    """The k largest value(idx) over index tuples with idx[j] < lengths[j].

    value must never increase when one index moves forward, so a best-first
    heap grown from the all-zero tuple pops the tuples in nonincreasing
    value order.  Returns (idx, value) pairs, ties broken by graded
    lexicographic order on idx.
    """
    d = len(lengths)
    start = (0,) * d
    heap = [(-value(start), 0, start)]
    seen = {start}
    out = []
    while heap and len(out) < k:
        negv, _, idx = heapq.heappop(heap)
        out.append((idx, -negv))
        for j in range(d):
            if idx[j] + 1 < lengths[j]:
                succ = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
                if succ not in seen:
                    seen.add(succ)
                    heapq.heappush(heap, (-value(succ), sum(succ), succ))
    return out


def _lattice_below(w, t: float, limit: int):
    """Columns of every alpha in N^d with alpha . w <= t (w_j > 0), in
    lexicographic order, and the sums alpha . w; expanded one axis at a time.
    None when the points of the first j axes alone would outnumber limit."""
    cols, total = [], np.zeros(1)
    for w_j in w:
        counts = np.floor((t - total) / w_j) + 1.0
        if counts.sum() > limit:
            return None
        counts = counts.astype(np.int64)
        rows = np.repeat(np.arange(total.size), counts)
        step = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [c[rows] for c in cols] + [step]
        total = total[rows] + step * w_j
    return cols, total


def enumerate_lambda_desc(lambdas, k: int) -> tuple:
    """The k largest values of prod(lambda_j^{alpha_j}) over alpha in N^d.

    Returns (alphas, values) as columns: alphas holds one tuple of plain
    ints per axis, alphas[j][i] the j-th exponent of the i-th term, and
    values the list of floats, in nonincreasing value order with ties
    broken by graded lexicographic order on alpha.  Requires 0 < lambda_j < 1.

    With w = -log lambda, a threshold t grows by 2^(1/d) until k lattice
    points have alpha . w <= t.  It starts where at most k can: each such
    alpha owns the cube alpha + [0, 1)^d inside the simplex of t + sum w, so
    at most (t + sum w)^d / (d! prod w) of them lie below t.  All points under
    t + 16 d eps (1 + t), twice a bound on the rounding of the sums and of
    -log of the values, are generated at once, and their values multiply
    per-axis tables of x**a in axis order, bit for bit the heap's.  The heap
    runs instead where values underflow (t > 700) or more than 4 k + 4096
    points would be generated (lambda_j within a few eps of 1).
    """
    lam = [float(x) for x in lambdas]
    if not lam:
        raise InvalidInputError("empty lambda list")
    if any(not (0.0 < x < 1.0) for x in lam):
        raise InvalidInputError(f"lambdas must lie strictly in (0, 1), got {lam}")
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    _check_budget(k, len(lam))
    w = [-math.log(x) for x in lam]
    d = len(w)
    margin = 16 * d * float(np.finfo(float).eps)
    # start at (k d! prod w)^(1/d) - sum w, in logarithms (d! overflows from d = 171)
    log_root = (math.log(k) + math.lgamma(d + 1) + sum(map(math.log, w))) / d
    t = max(min(w), math.exp(log_root) - sum(w))
    while True:
        grid = None if t > 700.0 else _lattice_below(w, t + margin * (1.0 + t), 4 * k + 4096)
        if grid is None:
            # alpha_j = k has k predecessors that pop first, so no top-k index reaches k
            pairs = _best_first(
                lambda alpha: math.prod(x**a for x, a in zip(lam, alpha)), (k,) * d, k
            )
            alphas, values = zip(*pairs)
            return tuple(zip(*alphas)), list(values)
        cols, total = grid
        if np.count_nonzero(total <= t) >= k:
            break
        t *= 2.0 ** (1.0 / d)
    values = np.ones(total.size)
    for x, c in zip(lam, cols):
        values = values * np.array([x**a for a in range(int(c.max()) + 1)])[c]
    # the rows come in lexicographic order on alpha, and lexsort is stable
    order = np.lexsort([sum(cols), -values])[:k]
    return tuple(tuple(c[order].tolist()) for c in cols), values[order].tolist()


def reduced_oracle_singular_values(
    sym: AffineSymbol, k: int, axis_degree: int | None = None
):
    """Top-k singular values by dense SVDs of one-variable truncations.

    Singular values are unchanged when the operator is multiplied by the
    unitary composition with a rotation, so the symbol (A, b) may be traded
    for (S, U* b) where A = U S V* is the singular value decomposition.  A
    diagonal linear part splits the operator into a tensor product of
    one-variable operators f -> f(lambda_j z + c_j), truncated by _line_factor;
    the k largest products of the per-axis singular values are merged with a
    best-first heap.

    Returns (values, degree) with degree the largest per-axis truncation
    order used.  This is an independent cross-check of the closed form: it
    never touches the enumeration formula, only dense linear algebra.
    """
    if not sym.boundedness.compact:
        raise InvalidInputError("singular-value oracle requires a compact operator")
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    u, s, _ = np.linalg.svd(sym.a)
    c = u.conj().T @ sym.b
    if axis_degree is None:
        # the j-th singular function of a factor is e_j displaced to w = c / (1 - lambda^2):
        # its degrees spread over the Poisson law of rate |w|^2 / 2 and further with j, and
        # hold under 1e-12 of its mass past j + 12 + rate + (7 + 1.5 sqrt(2 j)) sqrt(rate)
        # (summed to 220 digits at rates 0.001-2,000 and j up to 140)
        rates = np.abs(c / ((1.0 - s) * (1.0 + s))) ** 2 / 2.0
        spread = 7.0 + 1.5 * np.sqrt(2.0 * (k - 1))
        degrees = [(k - 1) + 12 + int(np.ceil(r + spread * np.sqrt(r))) for r in rates]
    else:
        check_basis_size(1, axis_degree)
        degrees = [axis_degree] * s.size
    work = sum((n_j + 1) ** 3 for n_j in degrees)
    if work > SVD_OPERATIONS_BUDGET:
        raise BudgetError(f"line factors of degree {max(degrees)}: {work:.2e} operations, "
                          "over the SVD budget")
    lists = [
        truncated_singular_values(_line_factor(lam_j, c_j, n_j), n_j + 1).tolist()
        for lam_j, c_j, n_j in zip(s, c, degrees)
    ]
    pairs = _best_first(
        lambda idx: math.prod(lst[i] for lst, i in zip(lists, idx)), [len(lst) for lst in lists], k
    )
    return [v for _, v in pairs], max(degrees)


def _line_factor(lam: float, c: complex, n: int) -> np.ndarray:
    """The orthonormal degree-<=n truncation of f -> f(lam z + c), _degree_columns at d = 1: as z
    maps e_i to sqrt(2 (i + 1)) e_{i+1}, column j is (lam z + c) times column j-1 over sqrt(2j)."""
    deg = np.arange(1.0, n + 1)
    step = c / np.sqrt(2.0 * deg)
    cols = dense_grid((n + 1, n + 1))  # row j holds the column of e_j
    cols[0, 0] = 1.0
    for j in range(1, n + 1):
        p = cols[j - 1, :j]
        np.multiply(p, step[j - 1], out=cols[j, :j])
        # one factor lam sqrt(i / j) per entry, so that no rounding repeats down a path
        cols[j, 1 : j + 1] += lam * np.sqrt(deg[:j] / j) * p
    return cols.T


@dataclasses.dataclass(frozen=True)
class ApproxReport:
    """The closed-form approximation numbers as columns: term i is
    values[i] = prefactor lambda^alpha with alpha_j = alphas[j][i]; the axes
    of zero singular values share one column of zeros."""

    prefactor: float
    alphas: tuple  # one tuple of exponents per axis
    values: list  # nonincreasing approximation numbers
    closed_form_sum: float
    oracle_values: tuple | None = None
    oracle_degree: int | None = None

    @property
    def max_rel_delta(self) -> float | None:
        if self.oracle_values is None:
            return None
        return max((abs(a - o) / a for a, o in zip(self.values, self.oracle_values)), default=0.0)


ZERO_SINGULAR_TOL = 1e-13
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def singular_data(sym: AffineSymbol):
    """(lambda, w, prefactor) of the closed-form approximation numbers,
    with w = (I-B)^{-1} v."""
    a, b = sym.a, sym.b
    d = sym.dimension
    aa = a @ a.conj().T
    evals, evecs = np.linalg.eigh(aa)
    evals = np.clip(evals, 0.0, None)
    bmat = (evecs * np.sqrt(evals)) @ evecs.conj().T
    lam = np.sort(np.sqrt(evals))[::-1]
    # v and w for b scaled by a power of two, whose squares cannot overflow;
    # the exponent scales back as a Python float, which overflows to inf
    b, scale = unit_scaled(b)
    v = np.linalg.solve(np.eye(d) + bmat, b)
    w = np.linalg.solve(np.eye(d) - bmat, v)
    exponent = float(np.real(np.vdot(v, w)) / 2.0 - np.vdot(v, v).real / 4.0) / scale / scale
    # the closed-form sum prefactor / prod(1 - lambda_j) bounds every number
    # of a report; it is refused before exp or the sum can overflow
    log_sum = exponent - np.log1p(-lam).sum()
    if not log_sum <= LOG_FLOAT_MAX:
        raise BudgetError(f"closed-form sum exp({log_sum:.6g}) exceeds float range")
    prefactor = float(np.exp(exponent))
    return lam, w / scale, prefactor


def approx_numbers(
    sym: AffineSymbol,
    k: int,
    oracle: str | None = None,
    oracle_degree: int | None = None,
) -> ApproxReport:
    """Closed-form approximation numbers a_1..a_k of the compact operator.

    Singular values of A equal to zero drop their lattice direction (the
    corresponding power never contributes a nonzero term).  oracle names
    the cross-check, none by default: "grid" against the matrix-free
    truncation of the operator itself, "reduced" against dense one-variable
    truncations of the unitarily reduced symbol; oracle_degree overrides its
    auto-selected truncation order (per axis for the reduced method).
    """
    _check_budget(k, sym.dimension)
    if not sym.boundedness.compact:
        raise InvalidInputError("approximation numbers require a compact operator")
    lam, w, prefactor = singular_data(sym)
    if lam[0] <= ZERO_SINGULAR_TOL:
        raise InvalidInputError("linear part is zero; enumeration is degenerate")
    keep = [j for j in range(lam.size) if lam[j] > ZERO_SINGULAR_TOL]
    kept, values = enumerate_lambda_desc([lam[j] for j in keep], k)
    alphas = [(0,) * len(values)] * sym.dimension
    for j, column in zip(keep, kept):
        alphas[j] = column
    values = [prefactor * v for v in values]
    total = prefactor * float(np.prod(1.0 / (1.0 - lam)))
    oracle_vals = used_degree = None
    if oracle == "grid":
        # the leading singular functions concentrate near a Gaussian centered
        # at w; their monomial tails beyond the top index's degree carry
        # Poisson-tail mass with rate |w|^2 / 2, which _oracle_pad covers
        used_degree = oracle_degree
        if used_degree is None:
            top_deg = int(np.sum(alphas, axis=0).max())
            used_degree = top_deg + _oracle_pad(float(np.vdot(w, w).real) / 2.0)
        oracle_vals = tuple(map(float, top_singular_values(sym, used_degree, len(values))))
    elif oracle == "reduced":
        sv, used_degree = reduced_oracle_singular_values(
            sym, len(values), axis_degree=oracle_degree
        )
        oracle_vals = tuple(sv)
    elif oracle is not None:
        raise InvalidInputError(f"unknown oracle method {oracle!r}")
    return ApproxReport(
        prefactor, tuple(alphas), values, total, oracle_vals, used_degree
    )


def _oracle_pad(rate: float) -> int:
    """Degrees past the top index that the grid oracle's truncation adds: a safety
    band over the Poisson tail of rate |w|^2 / 2."""
    return 12 + int(np.ceil(rate + 6.0 * np.sqrt(rate)))
