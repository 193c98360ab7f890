"""Combinatorial utilities: Dickson-style partitions of finite index sets
and invertible torus-power node systems.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, NumericalFailureError


def dickson_partition(index_set) -> list:
    """Partition a finite set of multi-indices into parts, each dominated
    componentwise by its own contained minimum.

    Recursive construction: strip off the set of elements dominating the
    graded-lexicographic minimum, repeat on the remainder.
    """
    items = [tuple(int(x) for x in a) for a in index_set]
    if len(set(items)) != len(items):
        raise InvalidInputError("index set contains duplicates")
    d = None
    for a in items:
        if d is None:
            d = len(a)
        elif len(a) != d:
            raise InvalidInputError("index set mixes dimensions")
    remaining = list(items)
    parts = []
    while remaining:
        base = min(remaining, key=lambda a: (sum(a), a))
        part = [a for a in remaining if all(x >= y for x, y in zip(a, base))]
        parts.append(part)
        taken = set(part)
        remaining = [a for a in remaining if a not in taken]
    return parts


NODE_ATTEMPTS = 100


def unimodular_nodes(alphas, seed: int = 0):
    """Torus points w(1..n) making the power matrix (w(i)^{alpha(j)}) invertible.

    Draws nodes uniformly, up to NODE_ATTEMPTS times, until |det| clears 1e-6
    of the Hadamard scale n^{n/2} (entries are unimodular).  Returns
    (nodes, |det|).
    """
    alphas = [tuple(int(x) for x in a) for a in alphas]
    n = len(alphas)
    if n == 0:
        raise InvalidInputError("empty exponent list")
    if len(set(alphas)) != n:
        raise InvalidInputError("exponent vectors must be pairwise distinct")
    d = len(alphas[0])
    if any(len(a) != d for a in alphas):
        raise InvalidInputError("exponent vectors mix dimensions")
    exp_mat = np.array(alphas, dtype=float)  # n x d
    rng = np.random.default_rng(seed)
    scale = n ** (n / 2.0)
    for _ in range(NODE_ATTEMPTS):
        angles = rng.uniform(0.0, 2 * np.pi, size=(n, d))
        # power matrix entry (i, j) = exp(i <angles_i, alpha_j>)
        mat = np.exp(1j * angles @ exp_mat.T)
        det = np.linalg.det(mat)
        if abs(det) > 1e-6 * scale:
            nodes = np.exp(1j * angles)
            return nodes, float(abs(det))
    raise NumericalFailureError(
        f"no invertible node system in {NODE_ATTEMPTS} attempts for {n} exponents"
    )
