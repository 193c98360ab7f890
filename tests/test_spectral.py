"""Eigenvalue clustering, Jordan structure detection, linear form bases."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from fockdyn import spectral
from fockdyn.errors import InvalidInputError, NumericalFailureError
from fockdyn.spectral import _smallest_singular_value, geometric_eigenvalue_list, linear_form_basis
from fockdyn.symbol import AffineSymbol

from matrices import conditioned, conjugated, jordan_block


def planted_jordan(eigenvalue, size, conj):
    return conj @ jordan_block(eigenvalue, size) @ np.linalg.inv(conj)


def spectrum_of(a):
    """The spectrum of A as a symbol reads it: eigen_decompose on its Schur form."""
    return AffineSymbol(a, np.zeros(len(a))).spectrum


def profile(a):
    return sorted((e.block_sizes for e in spectrum_of(a).eigenvalues), reverse=True)


def test_distinct_eigenvalues_diagonalizable():
    spec = spectrum_of(np.diag([0.5, 0.25, -0.1]))
    assert spec.diagonalizable
    assert [e.value for e in spec.eigenvalues] == pytest.approx([0.5, 0.25, -0.1])
    assert all(e.block_sizes == (1,) for e in spec.eigenvalues)


def test_planted_jordan_block_detected():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(2, 2)) + 0.2 * rng.normal(size=(2, 2)) * 1j
    a = planted_jordan(0.5, 2, p)
    spec = spectrum_of(a)
    assert not spec.diagonalizable
    assert len(spec.eigenvalues) == 1
    info = spec.eigenvalues[0]
    assert info.value == pytest.approx(0.5, abs=1e-6)
    assert info.algebraic_mult == 2 and info.geometric_mult == 1
    assert info.block_sizes == (2,)


def test_perturbed_double_eigenvalue_clusters():
    # a numerically split pair within the cluster radius is one eigenvalue
    a = np.diag([0.5, 0.5 + 3e-9]).astype(complex)
    spec = spectrum_of(a)
    assert len(spec.eigenvalues) == 1
    info = spec.eigenvalues[0]
    assert info.algebraic_mult == 2 and info.geometric_mult == 2
    assert info.block_sizes == (1, 1)


def test_separate_eigenvalues_not_clustered():
    spec = spectrum_of(np.diag([0.5, 0.5001]))
    assert len(spec.eigenvalues) == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugated_three_block_is_one_cluster(seed):
    # the Schur diagonal splits the triple eigenvalue by 1.0e-6 to 3.0e-6, past
    # MERGE_DISTANCE; T - mu I is singular to rounding at the midpoints
    spec = spectrum_of(conjugated(jordan_block(0.5, 3), seed))
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


@pytest.mark.parametrize(
    "blocks, want",
    [
        ((jordan_block(0.5, 3), jordan_block(0.3, 2)), [(3,), (2,)]),
        ((jordan_block(0.3 + 0.4j, 4),), [(4,)]),
    ],
    ids=["J3+J2", "J4"],
)
def test_badly_conditioned_jordan_structures_read_right_or_raise(blocks, want):
    # at condition 1e4, clustering on eigvals with full-matrix staircases read 5 of these J3 + J2
    # seeds as (2,) plus (2, 1) and one J4 seed as (3, 1); the staircase on the cluster's
    # trailing Schur block reads every seed of both right here
    for seed in range(30):
        a = conditioned(scipy.linalg.block_diag(*blocks), seed, 1e4)
        try:
            got = profile(a)
        except NumericalFailureError as exc:
            assert "ill-determined" in str(exc) or "inconsistent" in str(exc), seed
            continue
        assert got == want, seed


def test_midpoint_estimate_lies_above_the_smallest_singular_value():
    # 1,020 shifts of random triangular matrices (d = 2 to 60) came within 1.48x of the SVD
    rng = np.random.default_rng(0)
    for d in (2, 3, 5, 20, 60):
        for _ in range(20):
            t = np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            t /= np.linalg.norm(t, 2)
            v = t.diagonal()
            for mu in (v[0] + 1e-3, (v[0] + v[1]) / 2, v[0] + 1e-9):
                estimate = _smallest_singular_value(t, mu)
                smallest = np.linalg.svd(t - mu * np.eye(d), compute_uv=False)[-1]
                assert smallest - 1e-14 <= estimate <= 2 * smallest


def test_midpoint_estimate_is_zero_on_overflow_and_zero_pivots():
    # sigma_min(J40(0) - 0.01 I) is about 1e-80, so the solves overflow; no warning escapes
    nilpotent = np.diag(np.ones(39, dtype=complex), 1)
    singular = np.triu(np.ones((3, 3), dtype=complex))
    singular[1, 1] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _smallest_singular_value(nilpotent, 0.01) == 0.0
        assert _smallest_singular_value(singular, 0.0) == 0.0
        assert _smallest_singular_value(nilpotent, 0.9) == pytest.approx(
            np.linalg.svd(nilpotent - 0.9 * np.eye(40), compute_uv=False)[-1], rel=1e-6)


def test_midpoint_solves_get_the_fortran_order_copy(monkeypatch):
    # a C-order copy of T was copied again, to Fortran order, by each of the six solves
    # (0.58 ms a solve against 0.041 ms at d = 400)
    orders = []
    solve = spectral.lapack.ztrtrs

    def recording_solve(m, x, **kwargs):
        orders.append(m.flags.f_contiguous)
        return solve(m, x, **kwargs)

    monkeypatch.setattr(spectral.lapack, "ztrtrs", recording_solve)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert len(spectrum_of(a).eigenvalues) == 8
    assert len(orders) >= 6 and all(orders)


def test_rank_decision_within_the_margin_raises():
    # kept singular values 1e-9 clear the threshold 5e-11 by a factor 20 only
    a = np.diag([0.5, 0.5, 0.5]) + np.diag([1e-9, 1e-9], 1)
    with pytest.raises(NumericalFailureError, match="factor 20"):
        spectrum_of(a)


def test_geometric_eigenvalue_list_counts_blocks():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(3, 3))
    a = planted_jordan(0.4, 3, p)
    spec = spectrum_of(a)
    lst = geometric_eigenvalue_list(spec)
    assert len(lst) == 1
    assert lst[0] == pytest.approx(0.4, abs=1e-4)
    # a diagonalizable double eigenvalue appears once per block
    spec2 = spectrum_of(np.diag([0.3, 0.3]).astype(complex))
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
