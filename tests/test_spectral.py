"""Eigenvalue clustering, Jordan structure detection, linear form bases."""

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError, NumericalFailureError
from fockdyn.spectral import (
    eigen_decompose,
    geometric_eigenvalue_list,
    linear_form_basis,
)
from fockdyn.symbol import AffineSymbol

from matrices import conjugated, jordan_block


def planted_jordan(eigenvalue, size, conj):
    return conj @ jordan_block(eigenvalue, size) @ np.linalg.inv(conj)


def profile(a):
    return sorted((e.block_sizes for e in eigen_decompose(a).eigenvalues), reverse=True)


def test_distinct_eigenvalues_diagonalizable():
    spec = eigen_decompose(np.diag([0.5, 0.25, -0.1]))
    assert spec.diagonalizable
    assert [e.value for e in spec.eigenvalues] == pytest.approx([0.5, 0.25, -0.1])
    assert all(e.block_sizes == (1,) for e in spec.eigenvalues)


def test_planted_jordan_block_detected():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(2, 2)) + 0.2 * rng.normal(size=(2, 2)) * 1j
    a = planted_jordan(0.5, 2, p)
    spec = eigen_decompose(a)
    assert not spec.diagonalizable
    assert len(spec.eigenvalues) == 1
    info = spec.eigenvalues[0]
    assert info.value == pytest.approx(0.5, abs=1e-6)
    assert info.algebraic_mult == 2 and info.geometric_mult == 1
    assert info.block_sizes == (2,)


def test_perturbed_double_eigenvalue_clusters():
    # a numerically split pair within the cluster radius is one eigenvalue
    a = np.diag([0.5, 0.5 + 3e-9]).astype(complex)
    spec = eigen_decompose(a)
    assert len(spec.eigenvalues) == 1
    info = spec.eigenvalues[0]
    assert info.algebraic_mult == 2 and info.geometric_mult == 2
    assert info.block_sizes == (1, 1)


def test_separate_eigenvalues_not_clustered():
    spec = eigen_decompose(np.diag([0.5, 0.5001]))
    assert len(spec.eigenvalues) == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugated_three_block_is_one_cluster(seed):
    # eigvals splits the triple eigenvalue by 6.5e-7 to 1.2e-6, past
    # MERGE_DISTANCE; A - mu I is singular to rounding at the midpoints
    spec = eigen_decompose(conjugated(jordan_block(0.5, 3), seed))
    assert [e.block_sizes for e in spec.eigenvalues] == [(3,)]


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_conjugated_close_pair_stays_apart(seed):
    a = conjugated(np.diag([0.5, 0.5 + 1e-5, 0.2]), seed)
    assert profile(a) == [(1,), (1,), (1,)]


@pytest.mark.parametrize("third", [0.3, 0.505])
def test_exact_two_block_beside_a_simple_eigenvalue(third):
    a = np.diag([0.5, 0.5, third]) + np.diag([1.0, 0.0], 1)
    assert profile(a) == [(2,), (1,)]


def test_midpoint_on_a_third_eigenvalue_keeps_the_pair_apart():
    # A - mu I is singular at the pair's midpoint 1/2 because 1/2 is an eigenvalue
    assert profile(np.diag([2 / 3, 1 / 3, 1 / 2])) == [(1,), (1,), (1,)]


def test_conjugated_four_block_reads_one_block():
    assert profile(conjugated(jordan_block(0.5, 4), 4)) == [(4,)]


@pytest.mark.parametrize("size", [5, 6])
def test_conjugated_large_block_reads_one_block_or_raises(size):
    try:
        assert profile(conjugated(jordan_block(0.5, size), size)) == [(size,)]
    except NumericalFailureError as exc:
        assert "ill-determined" in str(exc)


def test_rank_decision_within_the_margin_raises():
    # kept singular values 1e-9 clear the threshold 5e-11 by a factor 20 only
    a = np.diag([0.5, 0.5, 0.5]) + np.diag([1e-9, 1e-9], 1)
    with pytest.raises(NumericalFailureError, match="factor 20"):
        eigen_decompose(a)


def test_geometric_eigenvalue_list_counts_blocks():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(3, 3))
    a = planted_jordan(0.4, 3, p)
    spec = eigen_decompose(a)
    lst = geometric_eigenvalue_list(spec)
    assert len(lst) == 1
    assert lst[0] == pytest.approx(0.4, abs=1e-4)
    # a diagonalizable double eigenvalue appears once per block
    spec2 = eigen_decompose(np.diag([0.3, 0.3]).astype(complex))
    assert len(geometric_eigenvalue_list(spec2)) == 2


def test_linear_forms_satisfy_functional_equation():
    rng = np.random.default_rng(2)
    sym = AffineSymbol([[0.5, 0.2], [0.0, 0.25]], [0.3, -0.1])
    basis = linear_form_basis(sym)
    assert basis.chain_flags == (False, False)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = sym.a @ z + sym.b
        for j in range(2):
            lz = basis.rows[j] @ (z - basis.xi)
            lw = basis.rows[j] @ (w - basis.xi)
            assert abs(lw - basis.eigenvalues[j] * lz) < 1e-10


def test_linear_forms_on_jordan_chain():
    sym = AffineSymbol([[0.5, 1.0], [0.0, 0.5]], [0.2, 0.1])
    basis = linear_form_basis(sym)
    assert basis.chain_flags == (False, True)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = sym.a @ z + sym.b
        l0z = basis.rows[0] @ (z - basis.xi)
        l0w = basis.rows[0] @ (w - basis.xi)
        l1z = basis.rows[1] @ (z - basis.xi)
        l1w = basis.rows[1] @ (w - basis.xi)
        assert abs(l0w - 0.5 * l0z) < 1e-10
        assert abs(l1w - (0.5 * l1z + l0z)) < 1e-10


def assert_functional_equation(sym, basis):
    """L_j(Az + b) = lambda_j L_j(z) + L_{j-1}(z) on chain rows, at random z."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = rng.normal(size=sym.dimension) + 1j * rng.normal(size=sym.dimension)
        lz = basis.rows @ (z - basis.xi)
        lw = basis.rows @ (sym.a @ z + sym.b - basis.xi)
        expect = np.array(basis.eigenvalues) * lz
        expect[1:] += np.where(basis.chain_flags[1:], lz[:-1], 0)
        assert np.abs(lw - expect).max() < 1e-10


def test_linear_forms_on_a_size_three_block():
    sym = AffineSymbol([[0.5, 0.25, 0], [0, 0.5, 0.25], [0, 0, 0.5]], [0.1, -0.2, 0.3])
    basis = linear_form_basis(sym)
    assert basis.chain_flags == (False, True, True)
    assert abs(np.linalg.norm(basis.rows[0]) - 1) < 1e-12
    assert_functional_equation(sym, basis)


def test_linear_forms_on_a_conjugated_four_block():
    sym = AffineSymbol(conjugated(jordan_block(0.5, 4), 4), [0.1, -0.2, 0.3, 0.0])
    basis = linear_form_basis(sym)
    assert basis.chain_flags == (False, True, True, True)
    assert_functional_equation(sym, basis)


def test_linear_forms_on_a_repeated_semisimple_eigenvalue():
    sym = AffineSymbol(np.diag([0.3, 0.3, 0.5]), [0.2, 0.1, -0.1])
    basis = linear_form_basis(sym)
    assert basis.chain_flags == (False, False, False)
    assert sorted(basis.eigenvalues, key=abs) == pytest.approx([0.3, 0.3, 0.5])
    assert_functional_equation(sym, basis)


def test_linear_forms_refuse_mixed_block_sizes():
    sym = AffineSymbol([[0.5, 1, 0], [0, 0.5, 0], [0, 0, 0.5]], [0, 0, 0])
    assert sym.spectrum.eigenvalues[0].block_sizes == (2, 1)
    with pytest.raises(InvalidInputError, match=r"sizes \(2, 1\)"):
        linear_form_basis(sym)
