"""Truncated operator matrices, spectra, and approximation numbers."""

import numpy as np
import pytest

from fockdyn.errors import PreconditionError
from fockdyn.fockmat import (
    GridCompositionOperator,
    approx_numbers,
    assemble_truncated,
    auto_oracle_degree,
    enumerate_lambda_desc,
    reduced_oracle_singular_values,
    top_singular_values,
    truncated_singular_values,
    truncated_spectrum,
)
from fockdyn.symbol import AffineSymbol


def test_one_variable_matrix_is_triangular_with_power_diagonal():
    sym = AffineSymbol([[0.5]], [0.3])
    op = assemble_truncated(sym, 6)
    mat = op.matrix
    diag = np.diag(mat)
    assert np.allclose(diag, 0.5 ** np.arange(7), atol=1e-12)
    # composing z^n with an affine map only produces degrees <= n
    assert np.allclose(np.tril(mat, -1), 0.0, atol=1e-14)


def test_pure_dilation_matrix_is_diagonal():
    sym = AffineSymbol(np.diag([0.5, 0.25]).astype(complex), np.zeros(2))
    op = assemble_truncated(sym, 3)
    offdiag = op.matrix - np.diag(np.diag(op.matrix))
    assert np.allclose(offdiag, 0.0, atol=1e-14)


def test_truncation_spectrum_is_eigenvalue_power_multiset():
    sym = AffineSymbol(np.diag([0.5, 0.25]).astype(complex), [0.1, 0.2])
    eig = truncated_spectrum(assemble_truncated(sym, 3))
    expected = [1.0, 0.5, 0.25, 0.25, 0.125, 0.125, 0.0625, 0.0625, 0.03125, 0.015625]
    assert np.allclose(sorted(eig.real, reverse=True), expected, atol=1e-10)
    assert np.allclose(eig.imag, 0.0, atol=1e-10)


def test_truncation_spectrum_unbounded_rejected():
    with pytest.raises(PreconditionError):
        assemble_truncated(AffineSymbol([[1.5]], [0.0]), 3)


def test_enumerate_lambda_desc_orders_products():
    pairs = enumerate_lambda_desc([0.5, 0.25], 6)
    values = [v for _, v in pairs]
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(1.0)
    # each value is the product lambda^alpha of its index
    for alpha, v in pairs:
        assert v == pytest.approx(0.5 ** alpha[0] * 0.25 ** alpha[1])


def test_approx_numbers_pure_dilation():
    rep = approx_numbers(AffineSymbol([[0.5]], [0.0]), 5)
    assert rep.prefactor == pytest.approx(1.0)
    assert list(rep.values) == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert rep.closed_form_sum == pytest.approx(2.0)


def test_approx_numbers_frozen_oracle_values():
    # frozen from the dense reduced-basis oracle at its auto degree
    sym = AffineSymbol([[0.4, 0.1], [0.0, 0.3]], [0.2, -0.1])
    rep = approx_numbers(sym, 6)
    frozen = [
        1.014519832853858,
        0.430424312075524,
        0.286949541383682,
        0.182613569913695,
        0.121742379942463,
        0.081161586628309,
    ]
    assert np.allclose(rep.values, frozen, rtol=1e-10)
    assert rep.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert rep.prefactor == pytest.approx(1.014519832853858, rel=1e-10)


def test_approx_numbers_match_both_oracles():
    sym = AffineSymbol([[0.35, 0.05], [0.1, 0.45]], [0.3, -0.2])
    rep_grid = approx_numbers(sym, 5, with_oracle=True, oracle_method="grid")
    rep_red = approx_numbers(sym, 5, with_oracle=True, oracle_method="reduced")
    assert rep_grid.max_rel_delta < 1e-6
    assert rep_red.max_rel_delta < 1e-8
    assert np.allclose(rep_grid.values, rep_red.values, rtol=1e-12)


def test_reduced_and_grid_oracles_agree():
    sym = AffineSymbol([[0.5, 0.2], [0.0, 0.4]], [0.25, 0.15])
    k = 8
    reduced, _ = reduced_oracle_singular_values(sym, k)
    degree = auto_oracle_degree(sym, approx_numbers(sym, k).indices)
    grid = top_singular_values(sym, degree, k)
    assert np.allclose(reduced, grid[:k], rtol=1e-8)
    # m = 1225 at degree 48 lies above DENSE_SVD_CUTOFF: the matrix-free path
    grid = top_singular_values(sym, 48, 3)
    assert np.allclose(reduced[:3], grid, rtol=1e-12)


@pytest.mark.parametrize(
    "a, b, n",
    [
        ([[0.5, 0.2], [0.1, 0.4]], [0.25, -0.15j], 6),
        ([[0.1, 0.3, 0.0], [0.4, 0.0, 0.2], [0.1, 0.1, 0.3j]], [0.2, 0.1, -0.3], 4),
    ],
)
def test_grid_action_matches_dense_matrix(a, b, n):
    sym = AffineSymbol(a, b)
    mat = assemble_truncated(sym, n).matrix
    gop = GridCompositionOperator(sym, n)
    rng = np.random.default_rng(7)
    x = rng.normal(size=mat.shape[0]) + 1j * rng.normal(size=mat.shape[0])
    assert np.allclose(gop.matvec(x), mat @ x, rtol=0, atol=1e-13)
    assert np.allclose(gop.rmatvec(x), mat.conj().T @ x, rtol=0, atol=1e-13)


def test_truncated_singular_values_monotone_in_degree():
    # truncations act on nested invariant subspaces, so each singular value
    # grows toward its limit as the degree increases
    sym = AffineSymbol([[0.6]], [0.4])
    s_lo = truncated_singular_values(assemble_truncated(sym, 8), 4)
    s_hi = truncated_singular_values(assemble_truncated(sym, 16), 4)
    assert np.all(s_hi >= s_lo - 1e-12)


def test_approx_numbers_requires_compact():
    with pytest.raises(PreconditionError):
        approx_numbers(AffineSymbol([[1.0]], [0.0]), 3)


def test_approx_numbers_rank_deficient_linear_part():
    # a zero singular value removes its axis from the index lattice
    sym = AffineSymbol([[0.5, 0.0], [0.0, 0.0]], [0.1, 0.1])
    rep = approx_numbers(sym, 4, with_oracle=True, oracle_method="reduced")
    assert all(a[1] == 0 for a in rep.indices)
    assert rep.max_rel_delta < 1e-8
