"""Graded monomial basis of the polynomial subspace of the Fock space.

Multi-indices are plain tuples of nonnegative ints, ordered by total degree
first and lexicographically within a degree.  Norms come from the exact
integer identity ||z^alpha||^2 = 2^{|alpha|} * prod(alpha_j!).
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from ..errors import BudgetError, InvalidInputError

BASIS_SIZE_BUDGET = 50_000


def multi_indices(d: int, max_degree: int) -> list:
    """All alpha in N^d with |alpha| <= max_degree, graded lexicographic."""
    if d < 1 or max_degree < 0:
        raise InvalidInputError(f"invalid basis parameters d={d}, max_degree={max_degree}")
    out = []
    for total in range(max_degree + 1):
        block = []
        for cuts in itertools.combinations(range(total + d - 1), d - 1):
            prev = -1
            alpha = []
            for c in cuts + (total + d - 1,):
                alpha.append(c - prev - 1)
                prev = c
            block.append(tuple(alpha))
        block.sort()
        out.extend(block)
    return out


def monomial_norm_sq_int(alpha) -> int:
    """Exact integer 2^{|alpha|} * prod(alpha_j!)."""
    if any(a < 0 for a in alpha):
        raise InvalidInputError(f"negative entry in multi-index {alpha}")
    total = sum(alpha)
    out = 1 << total
    for a in alpha:
        out *= math.factorial(a)
    return out


def monomial_norm(alpha) -> float:
    """sqrt(2^{|alpha|} * prod(alpha_j!)), exact integer under the root."""
    sq = monomial_norm_sq_int(alpha)
    if sq.bit_length() > 1022:
        raise BudgetError(f"monomial norm for |alpha|={sum(alpha)} exceeds float range")
    return math.sqrt(sq)


@dataclasses.dataclass(frozen=True)
class GradedBasis:
    """Bijection between {alpha : |alpha| <= max_degree} and 0..size-1."""

    d: int
    max_degree: int
    indices: tuple  # multi-indices in graded lexicographic order
    index_of: dict  # inverse of indices
    norms: np.ndarray  # ||z^alpha|| per position

    @property
    def size(self) -> int:
        return len(self.indices)

    def degree_slice(self, n: int) -> slice:
        """Positions of the degree-n block (contiguous by construction)."""
        lo = math.comb(n + self.d - 1, self.d) if n > 0 else 0
        hi = math.comb(n + self.d, self.d)
        return slice(lo, hi)


def graded_basis(d: int, max_degree: int) -> GradedBasis:
    size = math.comb(max_degree + d, d)
    if size > BASIS_SIZE_BUDGET:
        raise BudgetError(
            f"basis size {size} exceeds budget {BASIS_SIZE_BUDGET} "
            f"(d={d}, max_degree={max_degree})"
        )
    idx = multi_indices(d, max_degree)
    norms = np.array([monomial_norm(a) for a in idx])
    index_of = {a: i for i, a in enumerate(idx)}
    basis = GradedBasis(d, max_degree, tuple(idx), index_of, norms)
    basis.norms.setflags(write=False)
    return basis
