"""Homogeneous projections, coefficient masks, and orbit experiments."""

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError
from fockdyn.fockmat import (
    adjoint_pairing_check,
    chain_stability_threshold,
    expand_in_L_basis,
    from_L_basis,
    jordan_coefficient_bound_check,
    kronecker_density_demo,
    mask_coefficients,
    multi_indices,
    orbit_krylov_rank,
    project_homogeneous,
)
from fockdyn.polymap import max_coeff_diff, poly_add
from fockdyn.spectral import linear_form_basis
from fockdyn.symbol import AffineSymbol


def random_poly(rng, d, degree, terms):
    f = {}
    for _ in range(terms):
        alpha = tuple(
            int(k)
            for k in rng.multinomial(rng.integers(0, degree + 1), np.ones(d) / d)
        )
        f[alpha] = complex(rng.normal(), rng.normal())
    return f


def test_projection_modes_agree():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        f = random_poly(rng, d, 5, 6)
        xi = rng.normal(size=d) * 0.5
        n = int(rng.integers(0, 6))
        p1 = project_homogeneous(f, xi, n, mode="recentering")
        p2 = project_homogeneous(f, xi, n, mode="quadrature")
        assert max_coeff_diff(p1, p2) <= 1e-11


def test_projections_are_complete_and_idempotent():
    rng = np.random.default_rng(12)
    f = random_poly(rng, 2, 4, 8)
    xi = np.array([0.3, -0.2])
    parts = [project_homogeneous(f, xi, n) for n in range(5)]
    assert max_coeff_diff(poly_add(*parts), f) <= 1e-11
    p2 = project_homogeneous(f, xi, 2)
    assert max_coeff_diff(project_homogeneous(p2, xi, 2), p2) <= 1e-11
    # projecting a component onto a different degree annihilates it
    assert max_coeff_diff(project_homogeneous(p2, xi, 3), {}) <= 1e-11


def test_projection_rejects_unknown_mode():
    with pytest.raises(InvalidInputError):
        project_homogeneous({(0,): 1.0}, [0.0], 0, mode="fourier")


def test_L_basis_roundtrip():
    sym = AffineSymbol([[0.5, 0.2], [0.0, 0.3]], [0.1, -0.2])
    basis = linear_form_basis(sym)
    rng = np.random.default_rng(13)
    lcoef = {a: complex(rng.normal(), rng.normal()) for a in multi_indices(2, 3)}
    f = from_L_basis(lcoef, basis)
    back = expand_in_L_basis(f, basis, 3)
    for a in lcoef:
        assert abs(back[a] - lcoef[a]) < 1e-9


def test_mask_keeps_selected_indices():
    f = {(0, 0): 1.0, (1, 0): 2.0, (0, 2): 3.0}
    masked = mask_coefficients(f, lambda a: sum(a) > 0)
    assert set(masked) == {(1, 0), (0, 2)}


def test_adjoint_pairing_identity_random():
    rng = np.random.default_rng(14)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a *= 0.8 / max(np.linalg.norm(a, 2), 1e-12)
        b = 0.8 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        sym = AffineSymbol(a, b)
        alpha = tuple(int(k) for k in rng.multinomial(3, np.ones(d) / d))
        beta = tuple(int(k) for k in rng.multinomial(3, np.ones(d) / d))
        lhs, rhs = adjoint_pairing_check(sym, alpha, beta)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_adjoint_pairing_hand_value():
    # <C z, z> for z -> 0.5 z + 0.4: the image 0.5 z + 0.4 pairs with z to
    # 0.5 ||z||^2 = 1
    lhs, rhs = adjoint_pairing_check(AffineSymbol([[0.5]], [0.4]), (1,), (1,))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_orbit_rank_counts_active_directions():
    sym = AffineSymbol(np.diag([0.5, 0.3]).astype(complex), np.zeros(2))
    full = {a: 1.0 + 0j for a in multi_indices(2, 2)}
    m = len(full)
    assert orbit_krylov_rank(sym, full, degree=2, steps=m) == m
    partial = dict(full)
    del partial[(1, 1)]
    del partial[(0, 2)]
    assert orbit_krylov_rank(sym, partial, degree=2, steps=m) == m - 2


def test_orbit_rank_jordan_chain_defect():
    # a nontrivial Jordan chain caps the projected orbit rank at 2N + 1,
    # strictly below the dimension of the degree-N component space
    a = np.array([[0.5, 0.25, 0.0], [0.0, 0.5, 0.25], [0.0, 0.0, 0.5]])
    sym = AffineSymbol(a.astype(complex), np.zeros(3))
    rng = np.random.default_rng(0)
    f = {
        alpha: complex(rng.normal(), rng.normal())
        for alpha in multi_indices(3, 4)
    }
    rank = orbit_krylov_rank(sym, f, degree=4, steps=40, projector=4)
    assert rank <= 9 < 15


def test_chain_stability_threshold_and_bound():
    sym = AffineSymbol([[0.5, 0.25], [0.0, 0.5]], [0.0, 0.0])
    basis = linear_form_basis(sym)
    j0 = chain_stability_threshold(0.5)
    subset = [a for a in multi_indices(2, 3) if sum(a) == 3]
    for j in (j0, j0 + 5, j0 + 40):
        bound = jordan_coefficient_bound_check(sym, basis, 3, subset, j)
        assert bound <= 1 + 1e-12
    early = jordan_coefficient_bound_check(sym, basis, 3, subset, j0 - 1)
    assert early > 1


def test_kronecker_demo_improves_with_budget():
    thetas = [np.pi / 4, np.sqrt(2)]
    target = [np.exp(1j * 0.9), np.exp(-1j * 0.4)]
    n1, e1 = kronecker_density_demo(thetas, target, 50)
    n2, e2 = kronecker_density_demo(thetas, target, 5000)
    assert 1 <= n1 <= 50 and 1 <= n2 <= 5000
    assert e2 <= e1
    assert e2 < 0.2
