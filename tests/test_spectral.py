"""Eigenvalue clustering, Jordan structure detection, linear form bases."""

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError
from fockdyn.spectral import (
    eigen_decompose,
    geometric_eigenvalue_list,
    linear_form_basis,
)
from fockdyn.symbol import AffineSymbol


def planted_jordan(eigenvalue, size, conj):
    j = np.eye(size, dtype=complex) * eigenvalue + np.diag(np.ones(size - 1), 1)
    return conj @ j @ np.linalg.inv(conj)


def test_distinct_eigenvalues_diagonalizable():
    spec = eigen_decompose(np.diag([0.5, 0.25, -0.1]))
    assert spec.diagonalizable
    assert [e.value for e in spec.eigenvalues] == pytest.approx([0.5, 0.25, -0.1])
    assert all(e.block_sizes == (1,) for e in spec.eigenvalues)


def test_planted_jordan_block_detected():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(2, 2)) + 0.2 * rng.normal(size=(2, 2)) * 1j
    a = planted_jordan(0.5, 2, p)
    spec = eigen_decompose(a, cluster_radius=1e-4)
    assert not spec.diagonalizable
    assert len(spec.eigenvalues) == 1
    info = spec.eigenvalues[0]
    assert info.value == pytest.approx(0.5, abs=1e-6)
    assert info.algebraic_mult == 2 and info.geometric_mult == 1
    assert info.block_sizes == (2,)


def test_perturbed_double_eigenvalue_clusters():
    # a numerically split pair within the cluster radius is one eigenvalue
    a = np.diag([0.5, 0.5 + 3e-9]).astype(complex)
    spec = eigen_decompose(a, cluster_radius=1e-7)
    assert len(spec.eigenvalues) == 1
    info = spec.eigenvalues[0]
    assert info.algebraic_mult == 2 and info.geometric_mult == 2
    assert info.block_sizes == (1, 1)


def test_separate_eigenvalues_not_clustered():
    spec = eigen_decompose(np.diag([0.5, 0.5001]), cluster_radius=1e-7)
    assert len(spec.eigenvalues) == 2


def test_geometric_eigenvalue_list_counts_blocks():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(3, 3))
    a = planted_jordan(0.4, 3, p)
    spec = eigen_decompose(a, cluster_radius=1e-3)
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
