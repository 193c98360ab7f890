"""Graded monomial basis of the polynomial subspace of the Fock space.

Multi-indices (tuples, or rows of an int array) are ordered by total degree, then
lexicographically; graded_positions finds their positions by arithmetic.  Truncations act on
e_alpha = z^alpha / ||z^alpha|| and need no norms; monomial_norms, from
||z^alpha||^2 = 2^{|alpha|} * prod(alpha_j!), converts the orbit's input vector.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import BudgetError, InvalidInputError

BASIS_SIZE_BUDGET = 50_000


def _exponents(d: int, max_degree: int) -> np.ndarray:
    """Rows alpha, |alpha| <= max_degree, in order: block k holds, for f = d-1 down to 0, the
    first C(k-2+d-f, d-1-f) rows of block k-1 (those on z_f..z_{d-1}) plus e_f."""
    check_basis_size(d, max_degree)
    if d == 1:
        return np.arange(max_degree + 1)[:, None]
    eye, blocks = np.eye(d, dtype=np.int64), [np.zeros((1, d), dtype=np.int64)]
    for k in range(1, max_degree + 1):
        blocks.append(np.concatenate([
            blocks[-1][: math.comb(k - 2 + d - f, d - 1 - f)] + eye[f] for f in reversed(range(d))
        ]))
    return np.concatenate(blocks)


def multi_indices(d: int, max_degree: int) -> list:
    """All alpha in N^d with |alpha| <= max_degree, graded lexicographic."""
    return list(map(tuple, _exponents(d, max_degree).tolist()))


def graded_positions(alphas: np.ndarray) -> np.ndarray:
    """Positions of the rows alpha of an int array: C(|alpha| + d, d) - 1 less, over j < d, the
    C(s_j + j - 1, j) rows after alpha that first exceed it before its last j entries (sum s_j)."""
    d = alphas.shape[1]
    s = np.cumsum(alphas[:, ::-1], axis=1)  # s[:, j - 1] = s_j, s[:, -1] = n
    # counts[j, t] = C(t + j - 1, j), the j-tuples of sum below t
    counts = np.zeros((d + 1, s[:, -1].max(initial=0) + 2), dtype=np.int64)
    counts[0, 1:] = 1
    for j in range(1, d + 1):
        counts[j, 1:] = np.cumsum(counts[j - 1, 1:])
    return counts[d, s[:, -1] + 1] - 1 - counts[np.arange(1, d), s[:, :-1]].sum(axis=1)


def monomial_norm_sq_int(alpha) -> int:
    """Exact integer 2^{|alpha|} * prod(alpha_j!)."""
    if any(a < 0 for a in alpha):
        raise InvalidInputError(f"negative entry in multi-index {alpha}")
    total = sum(alpha)
    out = 1 << total
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class GradedBasis:
    """The multi-indices {alpha : |alpha| <= max_degree} in graded-lex order."""

    d: int
    max_degree: int
    exponents: np.ndarray  # row i is the multi-index at position i

    @property
    def size(self) -> int:
        return len(self.exponents)

    def degree_slice(self, n: int) -> slice:
        """Positions of the degree-n block (contiguous by construction)."""
        lo = math.comb(n + self.d - 1, self.d) if n > 0 else 0
        hi = math.comb(n + self.d, self.d)
        return slice(lo, hi)


def check_basis_size(d: int, max_degree: int) -> None:
    """Refuse a basis of degree max_degree over the budget before building any of it."""
    if d < 1 or max_degree < 0:
        raise InvalidInputError(f"invalid basis parameters d={d}, max_degree={max_degree}")
    size = math.comb(max_degree + d, d)
    if size > BASIS_SIZE_BUDGET:
        raise BudgetError(
            f"basis size {size} exceeds budget {BASIS_SIZE_BUDGET} "
            f"(d={d}, max_degree={max_degree})"
        )


def graded_basis(d: int, max_degree: int) -> GradedBasis:
    return GradedBasis(d, max_degree, _exponents(d, max_degree))


def monomial_norms(indices) -> np.ndarray:
    """||z^alpha|| per multi-index, for the orbit's input vector; refused past degree 149,
    where 2^N N! passes 2^1022."""
    degree = max(map(sum, indices), default=0)
    if degree > 149:
        raise BudgetError(f"monomial norms of degree {degree} exceed float range "
                          "(degree 149 is the last)")
    return np.sqrt([float(monomial_norm_sq_int(a)) for a in indices])
