"""Algebra laws of the sparse coefficient-map polynomial layer."""

import itertools

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError
from fockdyn.polymap import (
    _clusters,
    compose_affine,
    max_coeff_diff,
    poly_add,
    poly_clean,
    poly_degree,
    poly_eval,
    poly_mul,
    poly_scale,
    validate_coeffs,
)


def random_poly(rng, d, degree, terms):
    f = {}
    for _ in range(terms):
        alpha = tuple(int(k) for k in rng.multinomial(rng.integers(0, degree + 1), np.ones(d) / d))
        f[alpha] = complex(rng.normal(), rng.normal())
    return f


def test_eval_of_monomial():
    f = {(2, 1): 3.0 + 0j}
    assert poly_eval(f, [2.0, 5.0]) == pytest.approx(3 * 4 * 5)


def test_add_scale_linear_in_eval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        f = random_poly(rng, d, 4, 5)
        g = random_poly(rng, d, 4, 5)
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        lhs = poly_eval(poly_add(f, poly_scale(g, 2.5j)), z)
        rhs = poly_eval(f, z) + 2.5j * poly_eval(g, z)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_mul_matches_pointwise_product():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        f = random_poly(rng, d, 3, 4)
        g = random_poly(rng, d, 3, 4)
        z = 0.7 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        lhs = poly_eval(poly_mul(f, g), z)
        rhs = poly_eval(f, z) * poly_eval(g, z)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_compose_affine_matches_eval():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        f = random_poly(rng, d, 4, 5)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = compose_affine(f, a, b)
        z = 0.5 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        lhs = poly_eval(g, z)
        rhs = poly_eval(f, a @ z + b)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def _compose_by_products(f, a, b):
    out = {}
    d = len(b)
    for alpha, c in f.items():
        term = {(0,) * d: c}
        for i, k in enumerate(alpha):
            form = {tuple(int(j == l) for l in range(d)): a[i][j] for j in range(d) if a[i][j]}
            form[(0,) * d] = form.get((0,) * d, 0) + b[i]
            for _ in range(k):
                term = poly_mul(term, form)
        out = poly_add(out, term)
    return out


def test_compose_affine_far_apart_terms():
    # boxes of 65^2 entries and more keep the degree-70 terms apart
    rng = np.random.default_rng(7)
    cases = [
        ({(70, 0, 0): 1.0, (0, 70, 0): 2.0j, (0, 0, 70): -1.0, (2, 1, 0): 0.5},
         np.diag([0.9, -0.8j, 0.7]), np.array([0.1, 0.2j, -0.3])),
        ({(70, 0): 1.0, (0, 70): -2.0, (1, 3): 0.5j},
         rng.normal(size=(2, 2)), rng.normal(size=2)),
    ]
    for f, a, b in cases:
        assert len(_clusters(f)) > 1
        g = compose_affine(f, a, b)
        ref = _compose_by_products(f, a, b)
        scale = max(abs(c) for c in ref.values())
        assert max(abs(g.get(k, 0) - ref[k]) for k in ref) < 1e-12 * scale
        assert set(g) <= set(ref)


def test_full_polynomial_shares_one_box():
    full = {a: 1.0 for a in itertools.product(range(9), repeat=3) if sum(a) <= 8}
    assert len(_clusters(full)) == 1


def test_compose_affine_identity_map():
    f = {(3, 0): 2.0 + 0j, (1, 1): -1j}
    g = compose_affine(f, np.eye(2), np.zeros(2))
    assert max_coeff_diff(f, g) <= 1e-12


def test_degree():
    f = {(0, 0): 1.0, (2, 1): 1.0, (0, 4): 1.0}
    assert poly_degree(f) == 4
    assert poly_degree({}) == -1


def test_clean_drops_small_terms():
    f = {(1,): 1.0, (2,): 1e-14}
    assert set(poly_clean(f, 1e-12)) == {(1,)}
    assert set(poly_clean({(0,): 0.0})) == set()


def test_validate_rejects_bad_indices():
    with pytest.raises(InvalidInputError):
        validate_coeffs({(1, -1): 1.0})
    with pytest.raises(InvalidInputError):
        validate_coeffs({(1,): 1.0, (1, 0): 1.0})
    assert validate_coeffs({(1, 0): 1.0}) == 2
