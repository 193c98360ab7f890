"""Graded monomial basis, monomial norms, and combinatorial helpers."""

import itertools
import math

import numpy as np
import pytest

from fockdyn.errors import BudgetError, InvalidInputError
from fockdyn.fockmat.basis import (
    BASIS_SIZE_BUDGET,
    graded_basis,
    graded_positions,
    monomial_norm_sq_int,
    monomial_norms,
    multi_indices,
)
from fockdyn.fockmat.combinatorics import dickson_partition, unimodular_nodes


def test_multi_indices_graded_order():
    idx = multi_indices(2, 2)
    assert idx[0] == (0, 0)
    degrees = [sum(a) for a in idx]
    assert degrees == sorted(degrees)
    assert len(idx) == 6  # C(2+2, 2)
    assert len(set(idx)) == len(idx)


def test_multi_indices_counts():
    for d in (1, 2, 3):
        for n in (0, 1, 4):
            expected = math.comb(d + n, d)
            assert len(multi_indices(d, n)) == expected


def test_monomial_norms_are_exact_integers():
    # ||z^alpha||^2 = 2^|alpha| * alpha!
    assert monomial_norm_sq_int((0, 0)) == 1
    assert monomial_norm_sq_int((1,)) == 2
    assert monomial_norm_sq_int((2, 1)) == 2 ** 3 * 2
    assert monomial_norm_sq_int((3, 2)) == 2 ** 5 * 6 * 2
    indices = multi_indices(2, 5)
    norms = monomial_norms(indices)
    assert norms[indices.index((2, 1))] == pytest.approx(np.sqrt(16.0))
    # each norm is the square root of the exact integer, rounded once
    assert norms.tolist() == [math.sqrt(monomial_norm_sq_int(a)) for a in indices]


def test_graded_basis_lookup_roundtrip():
    basis = graded_basis(3, 4)
    assert basis.exponents.tolist() == [list(a) for a in multi_indices(3, 4)]
    assert graded_positions(basis.exponents).tolist() == list(range(basis.size))
    block = basis.exponents[basis.degree_slice(2)]
    assert len(block) and (block.sum(axis=1) == 2).all()


def test_multi_indices_are_sorted_by_degree_then_lexicographically():
    for d in range(1, 5):
        everything = itertools.product(range(6), repeat=d)
        want = sorted((a for a in everything if sum(a) <= 5), key=lambda a: (sum(a), a))
        assert multi_indices(d, 5) == want


@pytest.mark.parametrize("d", range(1, 7))
def test_graded_positions_follow_the_basis_order_up_to_the_budget_degree(d):
    n = max(n for n in range(BASIS_SIZE_BUDGET) if math.comb(n + d, d) <= BASIS_SIZE_BUDGET)
    indices = multi_indices(d, n)
    assert len(indices) == math.comb(n + d, d) and len(set(indices)) == len(indices)
    assert graded_positions(np.array(indices)).tolist() == list(range(len(indices)))
    # any subset, in any order, keeps its positions
    rows = np.random.default_rng(d).permutation(len(indices))[:500]
    assert graded_positions(np.array([indices[i] for i in rows])).tolist() == rows.tolist()


def test_graded_basis_budget():
    with pytest.raises(BudgetError):
        graded_basis(6, 60)
    with pytest.raises(InvalidInputError, match="max_degree=-1"):
        graded_basis(2, -1)
    # the basis has no norms, so no float-range cap: degree 300 at d = 2 is 45,451 rows
    assert graded_basis(2, 300).size == 45_451


def test_monomial_norms_refuse_past_the_float_range():
    # 2^150 150! is the first squared norm past 2^1022; the error names the largest degree
    assert (monomial_norm_sq_int((149, 0))).bit_length() <= 1022
    assert (monomial_norm_sq_int((150, 0))).bit_length() > 1022
    assert np.isfinite(monomial_norms([(149, 0), (0, 149)])).all()
    with pytest.raises(BudgetError, match=r"degree 150 exceed float range \(degree 149 is the last\)"):
        monomial_norms([(0, 0), (75, 75), (3, 4)])


def test_dickson_partition_covers_and_dominates():
    alphas = [(0, 3), (1, 1), (2, 0), (4, 4), (5, 0), (0, 0)]
    parts = dickson_partition(alphas)
    seen = [a for part in parts for a in part]
    assert sorted(seen) == sorted(alphas)
    for part in parts:
        base = min(part, key=lambda a: (sum(a), a))
        for a in part:
            assert all(x >= y for x, y in zip(a, base))


def test_dickson_partition_single_chain():
    alphas = [(0, 0), (1, 0), (1, 1), (2, 1)]
    parts = dickson_partition(alphas)
    assert len(parts) == 1


def test_unimodular_nodes_solve_vandermonde():
    alphas = [(0, 1), (1, 0), (1, 1), (2, 0)]
    nodes, det = unimodular_nodes(alphas, seed=0)
    nodes = np.asarray(nodes)
    assert nodes.shape == (4, 2)
    assert np.allclose(np.abs(nodes), 1.0, atol=1e-12)
    mat = np.array([[np.prod(z ** np.array(a)) for a in alphas] for z in nodes])
    assert abs(np.linalg.det(mat)) == pytest.approx(det, rel=1e-8)
    assert det > 1e-6 * 4.0 ** 2


def test_unimodular_nodes_reproducible():
    alphas = [(0,), (1,), (3,)]
    n1 = np.asarray(unimodular_nodes(alphas, seed=5)[0])
    n2 = np.asarray(unimodular_nodes(alphas, seed=5)[0])
    assert np.array_equal(n1, n2)


def test_unimodular_nodes_reject_duplicates():
    with pytest.raises(InvalidInputError):
        unimodular_nodes([(1, 0), (1, 0)], seed=0)
