"""Homogeneous projections and orbit experiments."""

import math
import tracemalloc

import numpy as np
import pytest

from fockdyn import polymap
from fockdyn.errors import BudgetError, InvalidInputError, NumericalFailureError
from fockdyn.fockmat import experiments, projections
from fockdyn.fockmat.basis import graded_basis, multi_indices
from fockdyn.fockmat.experiments import (
    RANK_REL_TOL,
    _coeff_vector,
    adjoint_pairing_check,
    chain_stability_threshold,
    jordan_coefficient_bound_check,
    kronecker_density_demo,
    orbit_krylov_rank,
)
from fockdyn.fockmat.operator import assemble_truncated
from fockdyn.fockmat.projections import expand_in_L_basis, from_L_basis, project_homogeneous
from fockdyn.polymap import (
    _clusters,
    compose_affine,
    max_coeff_diff,
    poly_add,
    poly_clean,
    poly_degree,
)
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


def node_loop_quadrature(f, xi, n):
    """Reference: one compose_affine per node map z -> rot z + (1 - rot) xi,
    weighted and summed in node order.  Returns the index of the first node
    whose map has a coefficient over 1e8 max(1, max|f|) instead, if any."""
    xi = np.asarray(xi, dtype=complex)
    eye = np.eye(len(xi))
    limit = 1e8 * max([1.0, *(abs(c) for c in f.values())])
    nodes = max(poly_degree(f), 0) + n + 1
    acc = {}
    for j in range(nodes):
        theta = 2 * np.pi * j / nodes
        rot = np.exp(1j * theta)
        term = compose_affine(f, rot * eye, xi - rot * xi)
        if max((abs(c) for c in term.values()), default=0.0) > limit:
            return j
        weight = np.exp(-1j * n * theta) / nodes
        acc = poly_add(acc, {a: weight * c for a, c in term.items()})
    return poly_clean(acc)


def quadrature_cases():
    """Seeded (f, xi, n) at d = 1..4: xi with zero entries, n above the degree,
    constants, and far-apart sparse terms that make several clusters."""
    rng = np.random.default_rng(21)
    cases = []
    for d in range(1, 5):
        for _ in range(6):
            f = random_poly(rng, d, 6, 10)
            xi = 0.4 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            xi[rng.uniform(size=d) < 0.4] = 0
            cases.append((f, xi, int(rng.integers(0, 9))))
        cases.append(({(0,) * d: complex(rng.normal(), rng.normal())}, rng.normal(size=d), 0))
        cases.append(({(0,) * d: 2.5 + 0j}, rng.normal(size=d), 2))
        if d > 1:
            top = 70 if d == 2 else 20  # joint boxes over _SMALL_BOX entries
            f = {tuple(top * (i == j) for i in range(d)): complex(rng.normal()) for j in range(d)}
            f.update(random_poly(rng, d, 2, 3))
            assert len(_clusters(f)) > 1
            cases.append((f, 0.02 * rng.normal(size=d), int(rng.integers(0, 4))))
    return cases


def test_quadrature_matches_node_loop():
    for f, xi, n in quadrature_cases():
        want = node_loop_quadrature(f, xi, n)
        got = project_homogeneous(f, xi, n, mode="quadrature")
        scale = max(1.0, max(abs(c) for c in f.values()))
        assert max_coeff_diff(got, want) <= 1e-13 * scale, (f, xi, n)


def sparse_degree_200():
    """z1^200 + ... + z4^200 around xi = (1, 0, 0, 0): node coefficients near
    C(200, 100) make the node average meaningless."""
    return {tuple(200 * (i == j) for i in range(4)): 1.0 + 0j for j in range(4)}, [1, 0, 0, 0]


def test_quadrature_refusal_names_first_node():
    f, xi = sparse_degree_200()
    first = node_loop_quadrature(f, xi, 2)
    assert 0 < first < 203
    with pytest.raises(NumericalFailureError, match=f"quadrature node {first} of 203 has"):
        project_homogeneous(f, xi, 2, mode="quadrature")


def test_quadrature_chunks_stay_within_the_byte_budget(monkeypatch):
    rng = np.random.default_rng(22)
    f = {a: complex(rng.normal(), rng.normal()) for a in multi_indices(3, 4)}
    xi = np.array([0.3, 0, -0.2j])
    sparse, sparse_xi = sparse_degree_200()
    whole = project_homogeneous(f, xi, 2, mode="quadrature")
    with pytest.raises(NumericalFailureError, match="quadrature node 4 of") as refusal:
        project_homogeneous(sparse, sparse_xi, 2, mode="quadrature")
    starts = []

    def counted(*args):
        for js, keys, vals in polymap.compose_batches(*args):
            starts.append(js.start)
            yield js, keys, vals

    monkeypatch.setattr(projections, "compose_batches", counted)
    # two nodes of the 5^3 box, with the kernel's copies, per chunk
    monkeypatch.setattr(polymap, "DENSE_BYTES_BUDGET", 2 * 16 * polymap._GRID_COPIES * 5**3)
    chunked = project_homogeneous(f, xi, 2, mode="quadrature")
    assert starts == [0, 2, 4, 6]  # 4 + 2 + 1 nodes
    assert max_coeff_diff(chunked, whole) <= 1e-13 * max(1.0, *(abs(c) for c in f.values()))
    # two nodes of the four 201-entry boxes: node 4 refuses, in the third chunk
    starts.clear()
    monkeypatch.setattr(polymap, "DENSE_BYTES_BUDGET", 2 * 16 * polymap._GRID_COPIES * 4 * 201)
    with pytest.raises(NumericalFailureError, match="quadrature node 4 of") as chunked_refusal:
        project_homogeneous(sparse, sparse_xi, 2, mode="quadrature")
    assert str(chunked_refusal.value) == str(refusal.value)
    assert starts == [0, 2, 4]


def test_quadrature_tables_stay_within_the_byte_budget():
    """A binomial table holds no more entries than the box it acts on, so the
    copies that size a chunk bound it: z^200 at d=1 keeps its thin boxes on
    Horner sweeps (65 nodes of 201 x 201 tables would take 42 MB), and a
    square 31 x 31 box takes tables."""
    cases = [
        ({(200,): 1.0, (3,): 0.5}, [0.01], 2),
        ({(30, 30): 1.0, (0, 0): 1.0, (1, 1): 0.5}, [0.02, -0.01j], 3),
    ]
    for f, xi, n in cases:
        tracemalloc.start()
        try:
            got = project_homogeneous(f, xi, n, mode="quadrature")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * polymap._BATCH_BYTES, peak
        assert max_coeff_diff(got, project_homogeneous(f, xi, n)) <= 1e-12


def test_quadrature_of_far_apart_degree_60_terms():
    """One cluster holds z1^60, z2^60 and the low terms in a square box that
    takes tables; z3^60 gets a thin box of its own."""
    f = {(60, 0, 0): 1.0, (0, 60, 0): 1.0, (0, 0, 60): 1.0, (0, 0, 0): 1.0, (1, 1, 0): 0.5}
    xi = np.array([0.05, 0.05j, -0.05])
    assert len(_clusters(f)) == 2
    got = project_homogeneous(f, xi, 3, mode="quadrature")
    assert max_coeff_diff(got, project_homogeneous(f, xi, 3)) <= 1e-12


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
    back = expand_in_L_basis(f, basis)
    for a in lcoef:
        assert abs(back[a] - lcoef[a]) < 1e-9


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


def rank_and_margin(s):
    """Numerical rank at RANK_REL_TOL, and the distance in decades from the
    threshold to the nearest singular value."""
    threshold = RANK_REL_TOL * s[0]
    margin = np.min(np.abs(np.log10(np.maximum(s, 1e-300) / threshold)))
    return int(np.count_nonzero(s > threshold)), float(margin)


def full_matrix_orbit_rank(sym, f, degree, steps, projector):
    """Reference: the orbit iterated on the whole degree-<=N matrix, then masked."""
    mat = assemble_truncated(sym, degree)
    indices = multi_indices(sym.dimension, degree)
    position = {alpha: i for i, alpha in enumerate(indices)}
    mask = np.array([projector is None or sum(a) == projector for a in indices])
    x = np.zeros(len(indices), dtype=complex)
    for alpha, c in f.items():
        # orthonormal coordinates: c ||z^alpha||, ||z^alpha||^2 = 2^|alpha| alpha!
        x[position[alpha]] = c * math.sqrt(2 ** sum(alpha) * math.prod(map(math.factorial, alpha)))
    cols = []
    for _ in range(steps):
        x = x / np.linalg.norm(x)
        proj = x * mask
        cols.append(proj / np.linalg.norm(proj))
        x = mat @ x
    return rank_and_margin(np.linalg.svd(np.array(cols).T, compute_uv=False))


def test_trailing_block_orbit_matches_full_matrix_iteration():
    checked = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d, degree = (2, 5) if seed % 2 else (3, 4)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        sym = AffineSymbol(0.8 * a / np.linalg.norm(a, 2), 0.5 * b / np.linalg.norm(b))
        f = {alpha: complex(rng.normal(), rng.normal()) for alpha in multi_indices(d, degree)}
        for projector in (None, 2, degree):
            want, margin = full_matrix_orbit_rank(sym, f, degree, 25, projector)
            if margin < 0.1:
                continue
            got = orbit_krylov_rank(sym, f, degree=degree, steps=25, projector=projector)
            assert got == want, (seed, projector)
            checked.append(projector if projector in (None, 2) else "N")
    assert {None, 2, "N"} <= set(checked) and len(checked) >= 12


def unit_column_rank(mu, f, degree, steps):
    """Rank and margin of the unit columns c_alpha ||z^alpha|| mu^(j alpha),
    |alpha| = degree, j < steps: the projected orbit of a diagonal symbol,
    formed in log space so that no entry underflows."""
    top = [(alpha, c) for alpha, c in f.items() if sum(alpha) == degree]
    alphas = np.array([alpha for alpha, _ in top], dtype=float)
    coef = np.array([c for _, c in top])
    log_norm = np.array(
        [(degree * math.log(2) + sum(math.lgamma(k + 1) for k in alpha)) / 2 for alpha, _ in top]
    )
    j = np.arange(steps)[None, :]
    log_node, arg_node = alphas @ np.log(np.abs(mu)), alphas @ np.angle(mu)
    log_mod = (np.log(np.abs(coef)) + log_norm)[:, None] + log_node[:, None] * j
    phase = np.angle(coef)[:, None] + arg_node[:, None] * j
    cols = np.exp(log_mod - log_mod.max(axis=0) + 1j * phase)
    cols /= np.linalg.norm(cols, axis=0)
    return rank_and_margin(np.linalg.svd(cols, compute_uv=False))


@pytest.mark.parametrize(
    "seed, d, low, high, degree, steps, rank",
    [
        (5, 3, 0.5, 0.62, 14, 60, 60),
        (13, 3, 0.5, 0.62, 14, 60, 60),
        (2, 2, 1e-12, 4e-12, 14, 12, 12),
    ],
)
def test_orbit_rank_survives_underflow(seed, d, low, high, degree, steps, rank):
    # projected columns of size 0.6^(14 j) underflowed inside np.linalg.norm
    # and counted as zero (rank 55 and 56 for the first two); with
    # |mu| ~ 1e-12 the iterate itself, of size 1e-168 a step, does
    rng = np.random.default_rng(seed)
    mu = rng.uniform(low, high, d) * np.exp(2j * np.pi * rng.uniform(size=d))
    f = {alpha: complex(rng.normal(), rng.normal()) for alpha in multi_indices(d, degree)}
    want, margin = unit_column_rank(mu, f, degree, steps)
    assert want == rank and margin >= 0.5
    sym = AffineSymbol(np.diag(mu), np.zeros(d))
    assert orbit_krylov_rank(sym, f, degree=degree, steps=steps, projector=degree) == rank


def test_orbit_rank_budget_and_empty_projector(monkeypatch):
    sym = AffineSymbol(np.diag([0.5, 0.4, 0.3]), np.zeros(3))
    f = {(14, 0, 0): 1.0 + 0j, (0, 7, 7): 1.0 + 0j}
    # a projector outside 0..degree keeps nothing
    assert orbit_krylov_rank(sym, f, degree=14, steps=5, projector=15) == 0
    assert orbit_krylov_rank(sym, f, degree=14, steps=5, projector=-1) == 0
    # the work budget, checked before iterating: 2,000 steps on the 120-row
    # block of degree 14 run; 17,183 there and 714 on all 680 rows do not
    assert orbit_krylov_rank(sym, f, degree=14, steps=2000, projector=14) == 2
    for steps, projector in ((17_183, 14), (714, None)):
        with pytest.raises(BudgetError, match="orbit budget"):
            orbit_krylov_rank(sym, f, degree=14, steps=steps, projector=projector)
    # the work is counted exactly: on a budget of 100 steps of that block, 100 run
    work = 100 * (120**2 + experiments.STEP_OPERATIONS + 5 * 120 * 100)
    monkeypatch.setattr(experiments, "ORBIT_OPERATIONS_BUDGET", work)
    assert orbit_krylov_rank(sym, f, degree=14, steps=100, projector=14) == 2
    with pytest.raises(BudgetError, match="orbit budget"):
        orbit_krylov_rank(sym, f, degree=14, steps=101, projector=14)


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


@pytest.mark.parametrize("projector", [None, 0, 2, 5])
def test_orbit_places_only_the_rows_of_its_block(projector):
    rng = np.random.default_rng(1)
    f = {alpha: complex(rng.normal(), rng.normal()) for alpha in multi_indices(3, 5)}
    f = dict(list(f.items())[::-1][:40])  # a sparse f, its entries out of order
    basis = graded_basis(3, 5)
    lo = basis.degree_slice(projector or 0).start
    full = _coeff_vector(f, basis, 0)
    assert np.array_equal(_coeff_vector(f, basis, lo), full[lo:])
    want = np.zeros(basis.size, dtype=complex)
    for i, alpha in enumerate(multi_indices(3, 5)):
        want[i] = f.get(alpha, 0) * math.sqrt(2 ** sum(alpha) * math.prod(map(math.factorial, alpha)))
    assert np.array_equal(full, want)


@pytest.mark.parametrize("key, error", [
    ((1,), "coefficient index \\(1,\\) outside degree-3 basis"),
    ((1, 0, 0), "coefficient index \\(1, 0, 0\\) outside degree-3 basis"),
    ((2, -1), "negative entry in multi-index \\(2, -1\\)"),
])
def test_orbit_refuses_indices_outside_the_basis(key, error):
    sym = AffineSymbol(np.diag([0.5, 0.3]), np.zeros(2))
    for projector in (None, 3, 4):
        with pytest.raises(InvalidInputError, match=error):
            orbit_krylov_rank(sym, {(0, 0): 1.0, key: 1.0}, degree=3, steps=4, projector=projector)
