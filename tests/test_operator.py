"""Truncated operator matrices, spectra, and approximation numbers."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import fockdyn.fockmat.enumeration as enumeration
from fockdyn.errors import BudgetError, InvalidInputError
from fockdyn.fockmat.basis import graded_basis, monomial_norm_sq_int, multi_indices
from fockdyn.fockmat.enumeration import (
    _best_first,
    _line_factor,
    approx_numbers,
    enumerate_lambda_desc,
    reduced_oracle_singular_values,
)
from fockdyn.fockmat.operator import (
    _assemble_matrix,
    _degree_columns,
    _real_twin,
    assemble_truncated,
    top_singular_values,
    truncated_singular_values,
    truncated_spectrum,
)
from fockdyn.symbol import AffineSymbol, check_boundedness

from matrices import rotated


def column_loop_matrix(a, b, basis):
    """Reference: the truncated matrix built one column at a time, exactly.

    a and b hold Gaussian rationals as (re, im) pairs of Fractions.  The
    image of z^alpha is its parent's (alpha less one on its first nonzero
    axis) times (Az + b)_k, a dict of exact coefficients; entry (gamma,
    alpha) of the orthonormal matrix is the z^gamma coefficient times
    ||z^gamma|| / ||z^alpha||, the square root of an exact ratio of integers.
    """
    d = basis.d
    indices = multi_indices(d, basis.max_degree)
    position = {alpha: i for i, alpha in enumerate(indices)}

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    images = [{(0,) * d: (Fraction(1), Fraction(0))}]
    for alpha in indices[1:]:
        k = next(j for j in range(d) if alpha[j] > 0)
        parent = images[position[alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :]]]
        image = {}
        for gamma, c in parent.items():
            terms = [(gamma, b[k])] + [
                (gamma[:v] + (gamma[v] + 1,) + gamma[v + 1 :], a[k][v]) for v in range(d)
            ]
            for beta, coef in terms:
                re, im = image.get(beta, (0, 0))
                add = mul(c, coef)
                image[beta] = (re + add[0], im + add[1])
        images.append(image)
    want = np.zeros((basis.size, basis.size), dtype=complex)
    for j, (alpha, image) in enumerate(zip(indices, images)):
        for gamma, (re, im) in image.items():
            ratio = math.sqrt(Fraction(monomial_norm_sq_int(gamma), monomial_norm_sq_int(alpha)))
            want[position[gamma], j] = complex(float(re), float(im)) * ratio
    return want


def matching_error(want, got) -> float:
    """Largest distance under the optimal one-to-one pairing of two multisets."""
    cost = np.abs(np.subtract.outer(want, got))
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def power_multiset(a, n):
    """lambda^alpha over |alpha| <= n, lambda the eigenvalues of a."""
    lam = np.linalg.eigvals(np.asarray(a, dtype=complex))
    return np.prod(lam[None, :] ** np.array(multi_indices(len(lam), n)), axis=1)


def block_eigenvalues(sym, n):
    """Eigenvalues of each diagonal block of the assembled degree-<=n matrix."""
    mat, cut = assemble_truncated(sym, n), graded_basis(sym.dimension, n).degree_slice
    return np.concatenate([np.linalg.eigvals(mat[cut(k), cut(k)]) for k in range(n + 1)])


def dense_contraction(seed, d, norm=0.8, radius=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    return AffineSymbol(a * (norm / np.linalg.norm(a, 2)), b * (radius / np.linalg.norm(b)))


def test_one_variable_matrix_is_triangular_with_power_diagonal():
    sym = AffineSymbol([[0.5]], [0.3])
    mat = assemble_truncated(sym, 6)
    diag = np.diag(mat)
    assert np.allclose(diag, 0.5 ** np.arange(7), atol=1e-12)
    # composing z^n with an affine map only produces degrees <= n
    assert np.allclose(np.tril(mat, -1), 0.0, atol=1e-14)


def test_pure_dilation_matrix_is_diagonal():
    sym = AffineSymbol(np.diag([0.5, 0.25]).astype(complex), np.zeros(2))
    mat = assemble_truncated(sym, 3)
    offdiag = mat - np.diag(np.diag(mat))
    assert np.allclose(offdiag, 0.0, atol=1e-14)


def test_truncation_spectrum_is_eigenvalue_power_multiset():
    sym = AffineSymbol(np.diag([0.5, 0.25]).astype(complex), [0.1, 0.2])
    eig = truncated_spectrum(sym, 3)
    expected = [1.0, 0.5, 0.25, 0.25, 0.125, 0.125, 0.0625, 0.0625, 0.03125, 0.015625]
    assert np.allclose(sorted(eig.real, reverse=True), expected, atol=1e-10)
    assert np.allclose(eig.imag, 0.0, atol=1e-10)


def test_truncation_spectrum_unbounded_rejected():
    with pytest.raises(InvalidInputError, match="does not induce a bounded operator"):
        assemble_truncated(AffineSymbol([[1.5]], [0.0]), 3)
    with pytest.raises(InvalidInputError, match="does not induce a bounded operator"):
        truncated_spectrum(AffineSymbol([[1.5]], [0.0]), 3)


@pytest.mark.parametrize("d, n", [(1, 9), (2, 7), (3, 6), (4, 4)])
def test_degree_recursion_matches_column_loop(d, n):
    # non-diagonal A with one exact zero and b != 0, entries dyadic Gaussian
    # rationals, so the float symbol is exactly the rational one
    rng = np.random.default_rng(d)

    def draw(*shape):
        return [Fraction(int(x), 16) for x in rng.integers(-6, 7, size=shape).ravel()]

    re, im = draw(d, d), draw(d, d)
    a = [[(re[i * d + j], im[i * d + j]) for j in range(d)] for i in range(d)]
    if d > 1:
        a[0][d - 1] = (Fraction(0), Fraction(0))
    b = list(zip(draw(d), draw(d)))
    sym = AffineSymbol(
        [[complex(float(x), float(y)) for x, y in row] for row in a],
        [complex(float(x), float(y)) for x, y in b],
    )
    basis = graded_basis(d, n)
    want = column_loop_matrix(a, b, basis)
    got = _assemble_matrix(sym, basis)
    # 4 ulps of the largest entry (0.53 at most over five draws per case)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
    blocks = list(_degree_columns(sym, basis, shift=False))
    assert len(blocks) == n + 1
    for k, block in enumerate(blocks):
        s = basis.degree_slice(k)
        assert np.array_equal(block, got[s, s])


@pytest.mark.parametrize(
    "a, b, n",
    [
        (dense_contraction(3, 3).a, [0.3, -0.2j, 0.1], 6),
        ([[0.5, 0.25, 0.0], [0.0, 0.5, 0.25], [0.0, 0.0, 0.5]], [0.2, 0.1, -0.1], 5),
        (np.diag([0.5, 0.25]), [0.3, 0.1], 6),
        (np.diag([0.5, -0.5j]), [0.2, 0.1j], 4),
    ],
    ids=["random", "jordan-chain", "planted-coincidences", "modulus-ties"],
)
def test_block_spectrum_matches_full_eigenvalues(a, b, n):
    sym = AffineSymbol(a, b)
    got = truncated_spectrum(sym, n)
    full = np.linalg.eigvals(assemble_truncated(sym, n))
    assert got.size == full.size == len(multi_indices(len(b), n))
    assert matching_error(full, got) <= 1e-12
    assert matching_error(block_eigenvalues(sym, n), got) <= 1e-12
    assert matching_error(power_multiset(a, n), got) <= 1e-12
    # sorted by decreasing modulus, then by argument in [0, 2 pi)
    keys = list(zip(-np.abs(got), np.angle(got) % (2 * np.pi)))
    assert keys == sorted(keys)


def test_non_normal_spectrum_on_both_routes():
    # a dense contraction far from normal: the eigenvalues of the diagonal blocks
    # and of the whole matrix both give the lambda^alpha multiset to 1e-10
    sym = dense_contraction(61, 3)
    want = power_multiset(sym.a, 8)
    assert matching_error(want, truncated_spectrum(sym, 8)) <= 1e-10
    assert matching_error(want, block_eigenvalues(sym, 8)) <= 1e-10
    assert matching_error(want, np.linalg.eigvals(assemble_truncated(sym, 8))) <= 1e-10


def test_non_normal_spectra_match_the_power_multiset():
    # dense contractions at degree 12 (455 values), where the eigensolvers of the
    # diagonal blocks missed by up to 6.3e-12
    for seed in range(80):
        sym = dense_contraction(seed, 3)
        assert matching_error(power_multiset(sym.a, 12), truncated_spectrum(sym, 12)) <= 1e-13, seed


def test_spectrum_basis_budget():
    # the 50,000-row basis budget is the only bound: d=3 runs to degree 64
    sym = AffineSymbol(np.diag([0.5, 0.4, 0.3]), np.zeros(3))
    got = truncated_spectrum(sym, 64)
    assert got.size == math.comb(67, 3) and not got.imag.any()
    # positive reals: sorted by decreasing value, both multisets pair in order
    want = np.sort(power_multiset(sym.a, 64).real)[::-1]
    assert np.abs(got.real - want).max() <= 1e-15
    with pytest.raises(BudgetError, match="exceeds budget 50000"):
        truncated_spectrum(sym, 65)


def test_enumerate_lambda_desc_orders_products():
    alphas, values = enumerate_lambda_desc([0.5, 0.25], 6)
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(1.0)
    # each value is the product lambda^alpha of its index
    for a0, a1, v in zip(*alphas, values):
        assert v == pytest.approx(0.5**a0 * 0.25**a1)
    # equal values come in graded lexicographic order: (1, 0) before (0, 2)
    alphas, _ = enumerate_lambda_desc([0.25, 0.5], 4)
    assert alphas == ((0, 0, 1, 0), (0, 1, 0, 2))


def heap_lambda_desc(lambdas, k):
    """Reference: the best-first heap grown from alpha = 0, its (alpha,
    value) pairs transposed to the enumeration's (alphas, values) columns."""

    def value(alpha):
        v = 1.0
        for x, a in zip(lambdas, alpha):
            v *= x**a
        return v

    alphas, values = zip(*_best_first(value, (k,) * len(lambdas), k))
    return tuple(zip(*alphas)), list(values)


def random_lambda_cases():
    rng = np.random.default_rng(7)
    cases = []
    for d in range(1, 6):
        for k in (1, 2, 37, 1000, 5000):
            cases.append((list(rng.uniform(0.05, 0.95, d)), k))
    return cases


@pytest.mark.parametrize("lambdas, k", [
    *random_lambda_cases(),
    ([0.5, 0.5, 0.5], 5000),  # equal lambdas: whole shells tie
    ([0.7] * 5, 3000),
    ([0.6 * 0.6, 0.6], 2000),  # lambda_1 = lambda_2^2: ties across axes
    ([0.25, 0.5, 0.8], 5000),
    ([0.9**3, 0.9, 0.9**2, 0.3], 4000),
    ([1e-12, 0.5], 3000),  # lambda near 0
    ([1e-150, 1e-100, 0.9], 2000),
    ([1e-200, 0.5], 3000),  # values underflow to 0 within the top k
    ([1 - 1e-9], 5000),  # lambda near 1
    ([1 - 1e-12, 0.999, 0.5], 4000),
])
def test_threshold_enumeration_matches_heap(lambdas, k):
    alphas, values = enumerate_lambda_desc(lambdas, k)
    assert (alphas, values) == heap_lambda_desc([float(x) for x in lambdas], k)
    assert len(alphas) == len(lambdas) and all(type(column) is tuple for column in alphas)
    assert all(type(a) is int for column in alphas for a in column)
    assert type(values) is list and all(type(v) is float for v in values)


def count_calls(monkeypatch, name):
    """Wrap enumeration.<name> so that each call appends its arguments."""
    calls, real = [], getattr(enumeration, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, name, wrapper)
    return calls


@pytest.mark.parametrize("d, k", [(1, 100_000), (2, 30_000), (3, 10_000), (4, 5_000), (5, 3_000), (6, 2_000)])
def test_threshold_starts_at_the_volume_bound(monkeypatch, d, k):
    # the first threshold lies far above min(w) and the output is the heap's
    # (lambdas near 1, so that the values stay above the underflow line)
    lambdas = list(np.random.default_rng(d).uniform(0.995, 0.999, d))
    calls = count_calls(monkeypatch, "_lattice_below")
    assert enumerate_lambda_desc(lambdas, k) == heap_lambda_desc(lambdas, k)
    assert calls[0][1] > 4 * min(-math.log(x) for x in lambdas)


def test_threshold_start_past_the_underflow_line_takes_the_heap(monkeypatch):
    calls = count_calls(monkeypatch, "_best_first")
    assert enumerate_lambda_desc([1e-200, 0.5], 3000) == heap_lambda_desc([1e-200, 0.5], 3000)
    assert len(calls) == 1


def test_threshold_start_in_two_hundred_dimensions():
    # d! overflows a float at d = 171; the start is taken in logarithms
    assert enumerate_lambda_desc([0.5] * 200, 5) == heap_lambda_desc([0.5] * 200, 5)


def test_decide_sized_enumerations_take_few_passes(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(5):
        calls = count_calls(monkeypatch, "_lattice_below")
        enumerate_lambda_desc(list(rng.uniform(0.6, 0.9, 3)), 4000)
        assert len(calls) <= 3


@pytest.mark.parametrize("lambdas, k", [
    ([1 - 1.01e-10] * 20, 1),
    ([1 - 1e-15] * 20, 1),  # the lattice under any threshold is too large: heap
    ([1 - 1e-13] * 3, 1),
    ([1 - 1e-15] * 3, 50),
])
def test_lambdas_near_one_enumerate_in_small_memory(lambdas, k):
    tracemalloc.start()
    try:
        columns = enumerate_lambda_desc(lambdas, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert columns == heap_lambda_desc(lambdas, k)


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
    assert rep.alphas == ((0, 1, 0, 2, 1, 0), (0, 0, 1, 0, 1, 2))
    assert rep.prefactor == pytest.approx(1.014519832853858, rel=1e-10)


def test_approx_numbers_match_both_oracles():
    sym = AffineSymbol([[0.35, 0.05], [0.1, 0.45]], [0.3, -0.2])
    rep_grid = approx_numbers(sym, 5, oracle="grid")
    rep_red = approx_numbers(sym, 5, oracle="reduced")
    assert rep_grid.max_rel_delta < 1e-6
    assert rep_red.max_rel_delta < 1e-8
    assert np.allclose(rep_grid.values, rep_red.values, rtol=1e-12)


def test_reduced_and_grid_oracles_agree():
    sym = AffineSymbol([[0.5, 0.2], [0.0, 0.4]], [0.25, 0.15])
    k = 8
    reduced, _ = reduced_oracle_singular_values(sym, k)
    degree = approx_numbers(sym, k, oracle="grid").oracle_degree
    grid = top_singular_values(sym, degree, k)
    assert np.allclose(reduced, grid[:k], rtol=1e-8)
    # per-axis degree 1 leaves 2 values per axis, so only 4 products exist
    diag = AffineSymbol([[0.5, 0.0], [0.0, 0.3]], [0.0, 0.0])
    values, used = reduced_oracle_singular_values(diag, k, axis_degree=1)
    assert used == 1
    assert np.allclose(values, [1.0, 0.5, 0.3, 0.15], rtol=1e-12)
    # m = 1225 at degree 48 lies above DENSE_SVD_CUTOFF: Lanczos on the twin's matrix
    grid = top_singular_values(sym, 48, 3)
    assert np.allclose(reduced[:3], grid, rtol=1e-12)


def test_reduced_oracle_degree_covers_displaced_singular_functions():
    # lambda = 0.898 and |w| = 34.8: the 11th singular function is e_10 displaced to w, whose
    # degrees spread past the Poisson band of rate |w|^2 / 2 alone (degree 772 left 7.8e-3)
    sym = AffineSymbol([[0.2282664159470281 - 0.8680901175391346j]],
                       [-5.425988154397734 + 4.00257602173235j])
    rep = approx_numbers(sym, 11, oracle="reduced")
    assert rep.oracle_degree == 961 and rep.max_rel_delta < 1e-10


def twin_cases():
    """Random complex symbols at d = 1..5, then structured ones, the last two bounded but not compact."""
    cases = []
    for d in range(1, 6):
        for seed in (d, 10 + d):
            sym = dense_contraction(seed, d)
            cases.append(pytest.param(sym.a, sym.b, id=f"random-d{d}-{seed}"))
    rng = np.random.default_rng(11)
    u, v = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    rank1 = 0.7 * np.outer(u, v.conj()) / (np.linalg.norm(u) * np.linalg.norm(v))
    w = np.array([1.0, 0.0, 0.0]) - u * u[0].conj() / np.vdot(u, u)  # orthogonal to range(rank1)
    dense = dense_contraction(5, 3).a
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    return cases + [
        pytest.param(dense, np.zeros(3), id="b-zero"),
        pytest.param(rank1, [0.2, -0.1j, 0.3], id="rank-1"),
        pytest.param(dense * [[1.0], [0.0], [1.0]], [0.1, 0.2j, -0.3], id="zero-row"),
        pytest.param(dense * [1.0, 0.0, 1.0], [0.1, 0.2j, -0.3], id="zero-column"),
        pytest.param(rank1, 0.4 * w / np.linalg.norm(w), id="b-orthogonal-to-range"),
        pytest.param(dense.real, [0.3, -0.2, 0.1], id="real"),
        pytest.param(q, np.zeros(3), id="unitary-b-zero"),
        pytest.param(np.diag([1.0, 0.5]), [0.0, 0.7], id="half-isometry"),
    ]


@pytest.mark.parametrize("a, b", twin_cases())
def test_real_twin_has_the_singular_values_of_the_truncations(a, b, monkeypatch):
    sym = AffineSymbol(a, b)
    report = sym.boundedness  # the twin carries this report; its entries take no SVD
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", None)
        twin = _real_twin(sym)
    # real, A' upper bidiagonal with the singular values of A, and b' = |b| e_d
    assert not twin.a.imag.any() and not twin.b.imag.any()
    assert not np.tril(twin.a, -1).any() and not np.triu(twin.a, 2).any()
    s_a = np.linalg.svd(sym.a, compute_uv=False)
    assert np.abs(np.linalg.svd(twin.a, compute_uv=False) - s_a).max() <= 1e-15 * s_a[0]
    assert not twin.b[:-1].any() and twin.b[-1].real >= 0
    assert abs(twin.b[-1].real - np.linalg.norm(sym.b)) <= 1e-15 * np.linalg.norm(sym.b)
    # sym's report, which the twin's own check, bounded and compact exactly when sym is, agrees with
    own = check_boundedness(twin)
    assert twin.boundedness is report and report.bounded and own.bounded
    assert own.compact == report.compact
    n = {1: 24, 2: 10, 3: 6, 4: 4, 5: 3}[sym.dimension]
    got = assemble_truncated(twin, n)
    assert got.dtype == np.float64
    want = scipy.linalg.svdvals(assemble_truncated(sym, n))
    assert np.abs(scipy.linalg.svdvals(got) - want).max() <= 1e-13 * want[0]


def test_real_twin_of_an_unbounded_symbol_is_unbounded():
    rotation = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    for a, b in ((rotation, [0.5, 0.0]), (np.diag([1.0, 0.5]), [0.7, 0.0]), (1.2 * np.eye(2), [0.0, 0.0])):
        twin = _real_twin(AffineSymbol(a, b))
        assert not twin.boundedness.bounded and not check_boundedness(twin).bounded


def test_dense_grid_route_takes_a_real_svd(monkeypatch):
    # a complex symbol: svdvals gets the float64 truncation of its real twin
    sym = dense_contraction(8, 3)
    want = scipy.linalg.svdvals(assemble_truncated(sym, 8))[:20]
    seen, svdvals = [], scipy.linalg.svdvals

    def spy(matrix, *args, **kwargs):
        seen.append(matrix.dtype)
        return svdvals(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svdvals", spy)
    got = top_singular_values(sym, 8, 20)
    assert seen == [np.float64]
    assert np.abs(got - want).max() <= 1e-13 * want[0]


def test_real_twin_keeps_the_verdict_on_a_repeated_singular_value_one():
    # b's projection on the image of the singular value 1 has norm sqrt(2) 0.6e-10, under tol |b|
    # in every basis of it, the twin's as the identity's
    c = 0.6e-10
    sym = AffineSymbol(np.diag([1.0, 1.0, 0.5]), [c, c, 1.0])
    assert sym.boundedness.bounded
    want = scipy.linalg.svdvals(assemble_truncated(sym, 6))[:12]
    got = top_singular_values(sym, 6, 12)
    assert np.abs(got - want).max() <= 1e-13 * want[0]


def test_truncated_singular_values_monotone_in_degree():
    # truncations act on nested invariant subspaces, so each singular value
    # grows toward its limit as the degree increases
    sym = AffineSymbol([[0.6]], [0.4])
    s_lo = truncated_singular_values(assemble_truncated(sym, 8), 4)
    s_hi = truncated_singular_values(assemble_truncated(sym, 16), 4)
    assert np.all(s_hi >= s_lo - 1e-12)


def test_approx_numbers_requires_compact():
    with pytest.raises(InvalidInputError, match="require a compact operator"):
        approx_numbers(AffineSymbol([[1.0]], [0.0]), 3)


def test_approx_numbers_rank_deficient_linear_part():
    # a zero singular value removes its axis from the index lattice
    sym = AffineSymbol([[0.5, 0.0], [0.0, 0.0]], [0.1, 0.1])
    rep = approx_numbers(sym, 4, oracle="reduced")
    assert rep.alphas[1] == (0,) * 4
    assert rep.max_rel_delta < 1e-8
    # rotated, the zero stays zero: eigh(AA*) once read it as 2-9e-9 at 117 of
    # seeds 0-199, and seed 0 put 7 of 400 terms on that phantom axis (first at
    # index 349) with the reduced oracle 0.173 away
    b = [0.1, 0.2, 0.0]
    rep = approx_numbers(AffineSymbol(rotated([0.8, 0.05, 0.0], 0), b), 400, oracle="reduced")
    assert not any(rep.alphas[2]) and rep.max_rel_delta < 1e-10
    for seed in range(20):
        lam = enumeration.singular_data(AffineSymbol(rotated([0.8, 0.05, 0.0], seed), b))[0]
        assert np.count_nonzero(lam > enumeration.ZERO_SINGULAR_TOL) == 2


@pytest.mark.parametrize("small", [1e-8, 1e-9, 1e-12])
def test_approx_numbers_small_singular_value(small):
    # a singular value far below sqrt(eps) keeps its relative accuracy: eigh(AA*)
    # read 1e-9 with an error that left the reduced oracle 0.56 away
    a, b = rotated([0.5, small], 0), np.array([0.1, 0.2])
    rep = approx_numbers(AffineSymbol(a, b), 40, oracle="reduced")
    u, lam, _ = np.linalg.svd(a)
    v = u.conj().T @ b / (1 + lam)
    prefactor = math.exp(np.vdot(v, v / (1 - lam)).real / 2 - np.vdot(v, v).real / 4)
    want = sorted((prefactor * lam[0] ** i * lam[1] ** j for i in range(40) for j in range(40)),
                  reverse=True)[:40]
    assert np.allclose(rep.values, want, rtol=1e-12, atol=0)
    assert rep.max_rel_delta < 1e-10


@pytest.mark.parametrize(
    "lam, c, n",
    [(0.0, 0.3 - 0.2j, 6), (0.6, 0.4j, 0), (0.6, 0.4j, 1), (-0.7, 0.5, 2), (0.3, 1.5, 3),
     (0.8, -0.4 + 0.1j, 25), (0.5, 5000.0, 40)],
    ids=["zero-lambda", "n0", "n1", "n2", "n3", "table", "past-the-table-guard"],
)
def test_line_factor_matches_the_degree_recursion(lam, c, n):
    # the one-variable loop against the dense assembly of the 1 x 1 symbol:
    # lambda = 0, degrees 0 to 3, a moderate symbol and a large |c|
    got = _line_factor(lam, c, n)
    want = assemble_truncated(AffineSymbol([[lam]], [c]), n)
    assert got.shape == want.shape == (n + 1, n + 1)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_line_factor_stays_finite_past_degree_149():
    # built in orthonormal coordinates, every entry is one of the truncation,
    # at most exp(|c|^2 / 4) here (about 2.9e34), where monomial norms overflow;
    # 400 steps deep, each builder was within 1.5e-15 of the largest entry of a
    # 50-digit reference
    lam, c, n = 0.166, 17.72 + 1.84j, 400
    got = _line_factor(lam, c, n)
    want = assemble_truncated(AffineSymbol([[lam]], [c]), n)
    assert np.isfinite(got).all() and np.abs(got).max() <= np.exp(abs(c) ** 2 / 4)
    assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()
