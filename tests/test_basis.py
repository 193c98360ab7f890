"""Graded monomial basis, monomial norms, and combinatorial helpers."""

import math

import numpy as np
import pytest

from fockdyn.errors import BudgetError, InvalidInputError
from fockdyn.fockmat.basis import (
    graded_basis,
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
    basis = graded_basis(2, 5)
    norms = monomial_norms(basis.indices)
    assert norms[basis.index_of[(2, 1)]] == pytest.approx(np.sqrt(16.0))
    # each norm is the square root of the exact integer, rounded once
    assert norms.tolist() == [math.sqrt(monomial_norm_sq_int(a)) for a in basis.indices]


def test_graded_basis_lookup_roundtrip():
    basis = graded_basis(3, 4)
    for i, alpha in enumerate(basis.indices):
        assert basis.index_of[alpha] == i
    block = basis.indices[basis.degree_slice(2)]
    assert block and all(sum(a) == 2 for a in block)


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
