"""Algebra laws of the sparse coefficient-map polynomial layer."""

import itertools
import math
import re

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError
from fockdyn.polymap import (
    _clusters,
    _compose_grid,
    compose_affine,
    max_coeff_diff,
    poly_add,
    poly_clean,
    poly_degree,
    poly_eval,
    poly_mul,
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
        lhs = poly_eval(poly_add(f, {a: 2.5j * v for a, v in g.items()}), z)
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
        validate_coeffs({(1, -1): 1.0}, 2)
    with pytest.raises(InvalidInputError):
        validate_coeffs({(1,): 1.0, (1, 0): 1.0}, 2)
    with pytest.raises(InvalidInputError):
        validate_coeffs({(1, 0): 1.0}, 3)
    validate_coeffs({(1, 0): 1.0}, 2)


def test_validate_names_the_first_bad_key():
    # 1.0 == 1 and both hash alike: a check over exponent values would lose the float
    message = r"^exponents must be nonnegative integers, got \(0, 1\.0\)$"
    with pytest.raises(InvalidInputError, match=message):
        validate_coeffs({(1, 0): 1.0, (0, 1.0): 1.0}, 2)
    with pytest.raises(InvalidInputError, match=r"got \(0, 1\.0\)$"):
        validate_coeffs({(1, 0): 1.0, (0, 1.0): 1.0, (2, -1): 1.0}, 2)
    with pytest.raises(InvalidInputError, match=r"got \(0, -1\)$"):
        validate_coeffs({(1, 0): 1.0, (0, -1): 1.0, (0.5, 0): 1.0}, 2)
    bad = (0, np.int64(-1))
    with pytest.raises(InvalidInputError, match=re.escape(f"got {bad}") + "$"):
        validate_coeffs({(np.int64(1), 0): 1.0, bad: 1.0}, 2)
    with pytest.raises(InvalidInputError, match=r"^mixed exponent lengths \[1, 2\]; expected 2$"):
        validate_coeffs({(1, 0): 1.0, (1,): 1.0}, 2)
    validate_coeffs({(np.int64(2), 0): 1.0, (0, np.uint8(1)): 1.0, (True, 0): 1.0}, 2)
    validate_coeffs({}, 3)


@pytest.mark.filterwarnings("error")
def test_compose_affine_past_the_float_range_of_a_table():
    # (z + 1e3)^150 / 1e300: 1e3^150 overflows, each coefficient does not
    want = {(j,): math.comb(150, j) * 10.0 ** (3 * (150 - j) - 300) for j in range(151)}
    g = compose_affine({(150,): 1e-300}, [[1]], [1e3])
    assert set(g) == set(want)
    assert max(abs(g[k] - want[k]) / want[k] for k in want) < 1e-12
    # the same in a box wide enough for a table: 1e11^30 overflows
    want = {(j, 30): math.comb(30, j) * 10.0 ** (11 * (30 - j) - 300) for j in range(31)}
    g = compose_affine({(30, 30): 1e-300}, np.eye(2), [1e11, 0])
    assert set(g) == set(want)
    assert max(abs(g[k] - want[k]) / want[k] for k in want) < 1e-12


def test_compose_affine_with_a_zero_map():
    f = {(2, 1): 1.5, (0, 3): -1.0, (0, 0): 0.25j}
    assert compose_affine(f, np.zeros((2, 2)), np.zeros(2)) == {(0, 0): 0.25j}


def dense_poly(rng, size):
    """Every monomial of degree below size in two variables: a size x size box."""
    keys = [a for a in itertools.product(range(size), repeat=2) if sum(a) < size]
    return {a: complex(rng.normal(), rng.normal()) for a in keys}


@pytest.mark.parametrize("size", [*range(1, 13), 61, 201])
def test_single_variable_stages_match_point_values(size):
    """The kernel's f(c z1 + e, c' z2 + e') against poly_eval, with c, c' in
    {0, 1, random} and e, e' in {0, random}, as scalars and over a batch."""
    rng = np.random.default_rng(size)
    f = dense_poly(rng, size)
    box = np.zeros((size, size, 1), complex)
    box[tuple(np.array(list(f)).T) + (0,)] = list(f.values())
    scale = sum(abs(v) for v in f.values())

    def draw():
        return complex(*rng.uniform(-0.5, 0.5, 2))

    # rows c, e, c', e' and one column per map
    maps = np.array([(0, 0, 1, draw()), (1, draw(), draw(), 0), (draw(), draw(), 0, draw())]).T
    z = np.array([draw(), draw()])  # |c z| + |e| <= 1 in each variable
    wants = [poly_eval(f, [c * z[0] + e, c2 * z[1] + e2]) for c, e, c2, e2 in maps.T]

    def check(out, want):
        outside = np.ones(out.shape, bool)
        outside[tuple(np.array(list(f)).T)] = False
        assert not out[outside].any()  # the degrees never grow
        assert abs(poly_eval({a: out[a] for a in f}, z) - want) < 1e-12 * scale

    for (c, e, c2, e2), want in zip(maps.T, wants):
        stages = ((0, 1), [(1, [(1, c2)], e2), (0, [(0, c)], e)])
        check(_compose_grid(box, stages, size)[..., 0], want)
    stages = ((0, 1), [(1, [(1, maps[2])], maps[3]), (0, [(0, maps[0])], maps[1])])
    batch = _compose_grid(np.broadcast_to(box, (size, size, 3)), stages, size)
    for j, want in enumerate(wants):
        check(batch[..., j], want)


def test_merged_node_map_matches_shift_then_scale():
    rng = np.random.default_rng(8)
    t = rng.normal(size=(7, 6, 5, 1)) + 1j * rng.normal(size=(7, 6, 5, 1))
    t = np.broadcast_to(t, (7, 6, 5, 9))
    rot = np.exp(2j * np.pi * np.arange(9) / 9)
    xi = np.array([0.3 - 0.1j, 0, 0.2j])
    merged = ((0, 1, 2), [(i, [(i, rot)], xi[i] - rot * xi[i]) for i in (2, 1, 0)])
    shifts = [(i, [(i, 1 + 0 * rot)], x - rot * x) for i, x in enumerate(xi) if x != 0]
    pair = ((0, 1, 2), shifts + [(i, [(i, rot)], 0 * rot) for i in (2, 1, 0)])
    want = _compose_grid(t, pair, 15)
    got = _compose_grid(t, merged, 15)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
