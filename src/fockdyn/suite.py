"""Self-verification suite: every closed-form guarantee of the library is
replayed against an independent oracle with seeded, reproducible inputs.

Each criterion draws its own inputs from a seeded generator, compares a
closed-form or structural claim against brute-force numerics, and reports
pass/fail with the worst observed deviation.  The CLI `suite` command and
the acceptance tests both execute this registry.
"""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import scipy.optimize

from .classify import (
    CyclicityStatus,
    classify_cyclicity,
    convex_obstruction_value,
    cyclic_vector_test,
)
from .errors import InvalidInputError
from .fockmat.basis import graded_basis, multi_indices
from .fockmat.combinatorics import dickson_partition, unimodular_nodes
from .fockmat.enumeration import approx_numbers, enumerate_lambda_desc, singular_data
from .fockmat.experiments import (
    adjoint_pairing_check,
    chain_stability_threshold,
    jordan_coefficient_bound_check,
    orbit_krylov_rank,
)
from .fockmat.operator import assemble_truncated, truncated_spectrum
from .fockmat.projections import from_L_basis, project_homogeneous
from .polymap import max_coeff_diff, poly_add, poly_eval
from .relations import (
    PolarEigenvalue,
    RelationStatus,
    exact_relation_decide,
    numeric_relation_search,
)
from .spectral import linear_form_basis
from .symbol import AffineSymbol


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    slug: str
    passed: bool
    detail: str
    elapsed: float


# ---------------------------------------------------------------------------
# samplers


def _random_contraction(rng, d: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a * (norm / np.linalg.norm(a, 2))


def _random_ball(rng, d: int, radius: float) -> np.ndarray:
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    n = np.linalg.norm(b)
    if n == 0.0:
        return np.zeros(d, dtype=complex)
    return b * (radius / n)


def _random_poly(rng, d: int, degree: int, terms: int | None = None) -> dict:
    idx = multi_indices(d, degree)
    if terms is not None and terms < len(idx):
        chosen = [idx[i] for i in rng.choice(len(idx), size=terms, replace=False)]
    else:
        chosen = list(idx)
    return {a: complex(rng.normal(), rng.normal()) for a in chosen}


def _random_index(rng, d: int, max_total: int) -> tuple:
    total = int(rng.integers(0, max_total + 1))
    return tuple(int(x) for x in rng.multinomial(total, [1.0 / d] * d))


# ---------------------------------------------------------------------------
# criterion 1: closed-form approximation numbers vs truncated-SVD oracle


def _criterion_approx_formula(seed: int):
    rng = np.random.default_rng(seed)
    cases = []
    for d in (1, 2, 3, 2, 3):
        lam = rng.uniform(0.3, 0.8, size=d)
        cases.append(
            (AffineSymbol(np.diag(lam).astype(complex), np.zeros(d)), 1e-8, "diag")
        )
    while len(cases) < 20:
        d = int(rng.integers(1, 4))
        a = _random_contraction(rng, d, rng.uniform(0.3, 0.8))
        b = _random_ball(rng, d, rng.uniform(0.0, 2.0))
        cases.append((AffineSymbol(a, b), 1e-6, "general"))
    worst = {"diag": 0.0, "general": 0.0}
    failures = []
    for i, (sym, tol, kind) in enumerate(cases):
        rep = approx_numbers(sym, 10, oracle="reduced")
        delta = rep.max_rel_delta
        worst[kind] = max(worst[kind], delta)
        if delta > tol:
            failures.append(f"case {i} ({kind}): rel delta {delta:.3e} > {tol:g}")
    detail = (
        f"20 symbols, top-10 values each; worst rel delta "
        f"{worst['general']:.3e} general (tol 1e-06), "
        f"{worst['diag']:.3e} diagonal b=0 (tol 1e-08)"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 2: partial sums against the closed-form total


def _criterion_approx_sum(seed: int):
    rng = np.random.default_rng(seed)
    k = 10_000
    failures = []
    worst_ratio = 0.0
    for case in range(10):
        d = int(rng.integers(1, 4))
        lam_target = np.sort(rng.uniform(0.3, 0.8, size=d))[::-1]
        q1, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a = q1 @ np.diag(lam_target).astype(complex) @ q2.conj().T
        b = _random_ball(rng, d, rng.uniform(0.0, 1.5))
        sym = AffineSymbol(a, b)
        lam, _, prefactor = singular_data(sym)
        partial = prefactor * math.fsum(enumerate_lambda_desc(list(lam), k)[1])
        total = prefactor * float(np.prod(1.0 / (1.0 - lam)))
        gap = (total - partial) / total
        m = math.ceil(math.log(k) / -math.log(float(lam[0])))
        bound = float(lam[0]) ** m
        worst_ratio = max(worst_ratio, gap / bound)
        if not -1e-12 <= gap <= bound:
            failures.append(
                f"case {case}: rel gap {gap:.3e} outside [0, {bound:.3e}]"
            )
    detail = (
        f"10 symbols, K={k}; partial sums below the total in every case; "
        f"worst gap/bound ratio {worst_ratio:.3f}"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 3: truncated spectrum against the eigensolvers, coincidences against eigenvalue powers


def _expected_power_multiset(eigs, d: int, n: int) -> list:
    out = []
    for alpha in multi_indices(d, n):
        val = 1.0 + 0.0j
        for lam, a in zip(eigs, alpha):
            val *= lam**a
        out.append(val)
    return out


def _criterion_spectrum_oracle(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    checks.append(("d=1 with shift", AffineSymbol([[0.5]], [0.3]), 6))
    checks.append(
        ("d=2 complex diagonal", AffineSymbol(np.diag([0.5, 0.3j]), [0.1, -0.2]), 5)
    )
    a = _random_contraction(rng, 3, 0.7)
    b = _random_ball(rng, 3, 0.5)
    checks.append(("d=3 dense random", AffineSymbol(a, b), 4))
    checks.append(
        (
            "d=2 nondiagonalizable",
            AffineSymbol([[0.5, 0.25], [0.0, 0.5]], [0.2, 0.1]),
            5,
        )
    )
    worst = 0.0
    failures = []
    for name, sym, n in checks:
        got = truncated_spectrum(sym, n)
        mat, cut = assemble_truncated(sym, n), graded_basis(sym.dimension, n).degree_slice
        blocks = np.hstack([np.linalg.eigvals(mat[cut(k), cut(k)]) for k in range(n + 1)])
        for route, want in (("diagonal blocks", blocks), ("full matrix", np.linalg.eigvals(mat))):
            cost = np.abs(np.subtract.outer(want, got))
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            err = float(cost[rows, cols].max())
            worst = max(worst, err)
            if err > 1e-8:
                failures.append(f"{name}: matching error {err:.3e} against the {route}")
    # planted coincidences: multiplicity counts must match the lattice counts
    sym = AffineSymbol(np.diag([0.5, 0.25]), [0.3, 0.1])
    n = 6
    got = truncated_spectrum(sym, n)
    expected = _expected_power_multiset(np.array([0.5, 0.25]), 2, n)
    distinct = sorted(set(expected), key=lambda z: -abs(z))
    for rho in distinct:
        want = sum(1 for v in expected if v == rho)
        have = int(np.sum(np.abs(got - rho) <= 1e-8))
        if have != want:
            failures.append(
                f"coincidence multiplicity at {rho:.6g}: got {have}, want {want}"
            )
    detail = (
        f"{len(checks)} product spectra matched to the eigenvalues of the diagonal blocks "
        f"and of the full matrix (worst pairing error {worst:.3e}, tol 1e-08); multiplicities at "
        f"planted coincidences (1/2, 1/4) all correct"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 4: classifier on the landmark exact-input cases


def _criterion_classifier_examples(_seed: int):
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    one = Fraction(1)
    cases = []

    spec = (PolarEigenvalue(half, "t1"), PolarEigenvalue(half, "t2"))
    sym = AffineSymbol(
        np.diag([0.5 * np.exp(0.7j), 0.5 * np.exp(1.9j)]), np.zeros(2), exact=spec
    )
    cases.append(("independent phases at modulus 1/2", sym, CyclicityStatus.CYCLIC))

    spec = (PolarEigenvalue(half, Fraction(1, 3)), PolarEigenvalue(quarter, Fraction(2, 3)))
    sym = AffineSymbol(
        np.diag(
            [0.5 * np.exp(1j * np.pi / 3), 0.25 * np.exp(2j * np.pi / 3)]
        ),
        np.zeros(2),
        exact=spec,
    )
    cases.append(("squared eigenvalue, dependent phases", sym, CyclicityStatus.NOT_CYCLIC))

    spec = (PolarEigenvalue(half, Fraction(1, 3)), PolarEigenvalue(quarter, "t3"))
    sym = AffineSymbol(
        np.diag([0.5 * np.exp(1j * np.pi / 3), 0.25 * np.exp(0.9j)]),
        np.zeros(2),
        exact=spec,
    )
    cases.append(("squared modulus, independent phases", sym, CyclicityStatus.CYCLIC))

    spec = (PolarEigenvalue("r1", one), PolarEigenvalue("r2", one))
    sym = AffineSymbol(np.diag([-0.52, -0.71]), np.zeros(2), exact=spec)
    cases.append(
        ("negative reals, independent log-moduli", sym, CyclicityStatus.CYCLIC)
    )

    spec = (PolarEigenvalue(one, Fraction(2, 7)),)
    sym = AffineSymbol([[np.exp(2j * np.pi / 7)]], [0.0], exact=spec)
    cases.append(("root of unity", sym, CyclicityStatus.NOT_CYCLIC))

    spec = (PolarEigenvalue(one, Fraction(2, 5)), PolarEigenvalue(one, "t4"))
    sym = AffineSymbol(
        np.diag([np.exp(2j * np.pi / 5), np.exp(1.1j)]), np.zeros(2), exact=spec
    )
    cases.append(
        ("unitary diagonal, dependent angle set", sym, CyclicityStatus.NOT_CYCLIC)
    )

    failures = []
    for name, sym, want in cases:
        verdict = classify_cyclicity(sym)
        if verdict.status is not want:
            failures.append(f"{name}: got {verdict.status.value}, want {want.value}")
            continue
        if want is CyclicityStatus.NOT_CYCLIC:
            reason = verdict.reasons[0]
            if reason.code != "RELATION_FOUND" or reason.alpha is None:
                failures.append(f"{name}: missing power-relation witness")
            else:
                logmod = 0.0
                for e, aj in zip(sym.exact, reason.alpha):
                    if not isinstance(e.modulus, str):
                        logmod += aj * math.log(e.modulus)
                if abs(logmod) > 1e-12:
                    failures.append(f"{name}: witness does not cancel moduli")
    n_ok = len(cases) - len(failures)
    detail = f"{n_ok}/{len(cases)} landmark classifications correct"
    if failures:
        detail += "; " + "; ".join(failures)
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 5: projected-orbit rank obstructions


def _criterion_orbit_rank(seed: int):
    rng = np.random.default_rng(seed)
    a3 = np.array(
        [[0.5, 0.25, 0.0], [0.0, 0.5, 0.25], [0.0, 0.0, 0.5]], dtype=complex
    )
    sym3 = AffineSymbol(a3, np.zeros(3))
    f3 = {a: complex(rng.normal(), rng.normal()) for a in multi_indices(3, 4)}
    rank3 = orbit_krylov_rank(sym3, f3, degree=4, steps=40, projector=4)
    a2 = np.array([[0.5, 0.25], [0.0, 0.5]], dtype=complex)
    sym2 = AffineSymbol(a2, np.zeros(2))
    f2 = {(3, 0): 1 + 0j, (2, 1): 1 + 0j, (1, 2): 1 + 0j, (0, 3): 1 + 0j}
    rank2 = orbit_krylov_rank(sym2, f2, degree=3, steps=40, projector=3)
    failures = []
    if not rank3 <= 9:
        failures.append(f"size-3 chain: projected rank {rank3} exceeds 9")
    if rank2 != 4:
        failures.append(f"size-2 chain: projected rank {rank2}, want exactly 4")
    detail = (
        f"size-3 chain rank {rank3} <= 9 < 15; size-2 chain rank {rank2} == 4"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 6: coefficient criterion vs Krylov-rank oracle


_KRYLOV_DEGREE = {1: 3, 2: 2, 3: 1}


def _criterion_cyclic_vectors(seed: int):
    rng = np.random.default_rng(seed)
    mismatches = []
    cyclic_count = 0
    for t in range(50):
        d = int(rng.integers(1, 4))
        # basis sizes are capped at 6 so the rank detector keeps orders of
        # magnitude between present and absent directions; larger Krylov
        # systems of products in (0, 1) condition beyond float64 rank tests
        deg = _KRYLOV_DEGREE[d]
        idx = multi_indices(d, deg)
        # reject draws whose eigenvalue powers nearly collide: the rank
        # oracle needs distinguishable truncation eigenvalues to be valid
        while True:
            lam = rng.uniform(0.35, 0.75, size=d)
            pows = sorted(float(np.prod(lam ** np.array(a))) for a in idx)
            if min(q - p for p, q in zip(pows, pows[1:])) >= 0.03:
                break
        exact = tuple(PolarEigenvalue(f"r{t}_{j}", Fraction(0)) for j in range(d))
        b = _random_ball(rng, d, 0.4) if rng.uniform() < 0.5 else np.zeros(d)
        sym = AffineSymbol(np.diag(lam).astype(complex), b, exact=exact)
        basis = linear_form_basis(sym)
        lcoef = {}
        for a in idx:
            if rng.uniform() < 0.25:
                continue
            mag = rng.uniform(0.5, 1.5)
            lcoef[a] = mag * np.exp(2j * np.pi * rng.uniform())
        if not lcoef:
            lcoef[idx[int(rng.integers(0, len(idx)))]] = 1.0 + 0.0j
        zeroed = len(idx) - len(lcoef)
        f = from_L_basis(lcoef, basis)
        report = cyclic_vector_test(sym, f, deg)
        criterion_cyclic = not report.failing_indices
        m = len(idx)
        rank = orbit_krylov_rank(sym, f, degree=deg, steps=m)
        oracle_cyclic = rank == m
        if criterion_cyclic != oracle_cyclic or rank != m - zeroed:
            mismatches.append(
                f"trial {t}: criterion={criterion_cyclic}, rank {rank} of {m} "
                f"with {zeroed} dropped coefficients"
            )
        if criterion_cyclic:
            cyclic_count += 1
    detail = (
        f"50 diagonal symbols: coefficient criterion and Krylov rank agree "
        f"everywhere ({cyclic_count} cyclic instances; rank deficiency always "
        f"equals the number of dropped coefficients)"
    )
    if mismatches:
        detail = f"{len(mismatches)} disagreements; " + "; ".join(mismatches[:4])
    return not mismatches, detail


# ---------------------------------------------------------------------------
# criterion 7: homogeneous projections


def _criterion_projections(seed: int):
    rng = np.random.default_rng(seed)
    worst_pair = worst_idem = worst_ann = worst_comp = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        deg = int(rng.integers(0, 7))
        f = _random_poly(rng, d, deg, terms=8)
        xi = _random_ball(rng, d, rng.uniform(0.0, 1.0))
        scale = max(1.0, max(abs(c) for c in f.values()))
        parts = []
        for n in range(deg + 1):
            q = project_homogeneous(f, xi, n, mode="quadrature")
            r = project_homogeneous(f, xi, n, mode="recentering")
            worst_pair = max(worst_pair, max_coeff_diff(q, r) / scale)
            parts.append(r)
        total = poly_add(*parts)
        worst_comp = max(worst_comp, max_coeff_diff(total, f) / scale)
        n = int(rng.integers(0, deg + 1))
        pn = parts[n]
        again = project_homogeneous(pn, xi, n, mode="recentering")
        worst_idem = max(worst_idem, max_coeff_diff(again, pn) / scale)
        if deg >= 1:
            mth = (n + 1 + int(rng.integers(0, deg))) % (deg + 1)
            killed = project_homogeneous(pn, xi, mth, mode="recentering")
            worst_ann = max(worst_ann, max_coeff_diff(killed, {}) / scale)
    worst = max(worst_pair, worst_idem, worst_ann, worst_comp)
    detail = (
        f"100 polynomials: quadrature vs recentering {worst_pair:.3e}, "
        f"idempotence {worst_idem:.3e}, annihilation {worst_ann:.3e}, "
        f"completeness {worst_comp:.3e} (tol 1e-12)"
    )
    return bool(worst <= 1e-12), detail


# ---------------------------------------------------------------------------
# criterion 8: adjoint pairing identity


def _criterion_adjoint_pairing(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        a = _random_contraction(rng, d, rng.uniform(0.2, 0.95))
        b = _random_ball(rng, d, rng.uniform(0.0, 1.5))
        sym = AffineSymbol(a, b)
        alpha = _random_index(rng, d, 4)
        beta = _random_index(rng, d, 4)
        lhs, rhs = adjoint_pairing_check(sym, alpha, beta)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    detail = f"200 random pairings; worst deviation {worst:.3e} (tol 1e-10)"
    return worst <= 1e-10, detail


# ---------------------------------------------------------------------------
# criterion 9: relation engine on planted relations


def _integer_perp(alpha: np.ndarray) -> list:
    """One or two integer vectors spanning enough of the orthogonal lattice."""
    d = alpha.size
    if d == 2:
        g = math.gcd(int(alpha[0]), int(alpha[1]))
        return [np.array([alpha[1] // g, -alpha[0] // g], dtype=int)]
    a0, a1, a2 = (int(x) for x in alpha)
    candidates = [
        np.array([a1, -a0, 0], dtype=int),
        np.array([0, a2, -a1], dtype=int),
        np.array([a2, 0, -a0], dtype=int),
        np.array([0, 1, 0], dtype=int) if a1 == 0 and a2 == 0 else None,
        np.array([0, 0, 1], dtype=int) if a1 == 0 and a2 == 0 else None,
        np.array([1, 0, 0], dtype=int) if a0 == 0 and a2 == 0 else None,
        np.array([0, 0, 1], dtype=int) if a0 == 0 and a2 == 0 else None,
        np.array([1, 0, 0], dtype=int) if a0 == 0 and a1 == 0 else None,
        np.array([0, 1, 0], dtype=int) if a0 == 0 and a1 == 0 else None,
    ]
    candidates = [c for c in candidates if c is not None and np.any(c != 0)]
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if np.any(np.cross(candidates[i], candidates[j]) != 0):
                v, w = candidates[i], candidates[j]
                v = v // math.gcd(*[int(abs(x)) for x in v], 0) if np.any(v) else v
                w = w // math.gcd(*[int(abs(x)) for x in w], 0) if np.any(w) else w
                return [v, w]
    raise InvalidInputError(f"no orthogonal pair for {alpha}")


def _criterion_relation_engine(seed: int):
    rng = np.random.default_rng(seed)
    failures = []
    exact_hits = numeric_hits = 0
    trials = 100
    for t in range(trials):
        d = int(rng.integers(2, 4))
        while True:
            alpha = rng.integers(-5, 6, size=d)
            if np.any(alpha != 0):
                break
        perp = _integer_perp(alpha)
        primes = (2, 3)
        moduli = []
        for j in range(d):
            m = Fraction(1)
            for p, v in zip(primes, perp):
                m *= Fraction(p) ** int(v[j])
            moduli.append(m)
        if t % 2 == 1:
            denom = int(rng.choice([3, 5, 7]))
            args = [Fraction(2 * int(perp[0][j]), denom) for j in range(d)]
        else:
            args = [Fraction(0)] * d
        spec = tuple(PolarEigenvalue(m, t) for m, t in zip(moduli, args))
        res = exact_relation_decide(spec)
        if res.status is RelationStatus.FOUND:
            mod_val = Fraction(1)
            phase = Fraction(0)
            for j, aj in enumerate(res.alpha):
                mod_val *= moduli[j] ** aj
                phase += args[j] * aj
            if mod_val == 1 and phase % 2 == 0:
                exact_hits += 1
            else:
                failures.append(f"trial {t}: exact witness {res.alpha} invalid")
        else:
            failures.append(f"trial {t}: exact mode missed planted {tuple(alpha)}")
        lam = [
            float(moduli[j]) * np.exp(1j * np.pi * float(args[j])) for j in range(d)
        ]
        res_n = numeric_relation_search(lam, height=5)
        if res_n.status is RelationStatus.FOUND:
            logsum = sum(
                aj * math.log(float(moduli[j])) for j, aj in enumerate(res_n.alpha)
            )
            angsum = sum(
                aj * np.pi * float(args[j]) for j, aj in enumerate(res_n.alpha)
            )
            ang = angsum % (2 * np.pi)
            if abs(logsum) < 1e-9 and min(ang, 2 * np.pi - ang) < 1e-6:
                numeric_hits += 1
            else:
                failures.append(f"trial {t}: numeric witness {res_n.alpha} invalid")
        else:
            failures.append(f"trial {t}: numeric mode missed planted {tuple(alpha)}")

    spec = (PolarEigenvalue(Fraction(1, 2), 0), PolarEigenvalue(Fraction(1, 3), 0))
    if exact_relation_decide(spec).status is not RelationStatus.PROVEN_NONE:
        failures.append("moduli (1/2, 1/3): expected a proof of independence")
    spec = (PolarEigenvalue(Fraction(1, 2), 0), PolarEigenvalue(Fraction(1, 4), 0))
    res = exact_relation_decide(spec)
    if res.status is not RelationStatus.FOUND or tuple(res.alpha) not in (
        (-2, 1),
        (2, -1),
    ):
        failures.append(f"moduli (1/2, 1/4): kernel witness {res}")
    detail = (
        f"planted relations: exact {exact_hits}/{trials}, numeric "
        f"{numeric_hits}/{trials}; (1/2, 1/3) proven independent; "
        f"(1/2, 1/4) kernel +-(-2, 1)"
    )
    if failures:
        detail += "; " + "; ".join(failures[:5])
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 10: convex combinations of orbit elements at the fixed point


def _criterion_convex_obstruction(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        a = _random_contraction(rng, d, rng.uniform(0.2, 0.8))
        b = _random_ball(rng, d, rng.uniform(0.0, 1.0))
        sym = AffineSymbol(a, b)
        f = _random_poly(rng, d, int(rng.integers(0, 4)), terms=6)
        count = int(rng.integers(2, 6))
        powers = [int(x) for x in rng.choice(7, size=count, replace=False)]
        w = rng.uniform(size=count)
        weights = list(w / w.sum())
        val = convex_obstruction_value(sym, f, weights, powers)
        target = poly_eval(f, sym.xi)
        worst = max(worst, abs(val - target) / max(1.0, abs(target)))
    detail = f"100 convex combinations; worst deviation {worst:.3e} (tol 1e-10)"
    return bool(worst <= 1e-10), detail


# ---------------------------------------------------------------------------
# criterion 11: combinatorial helpers and the chain coefficient bound


def _criterion_combinatorics(seed: int):
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(100):
        d = int(rng.integers(1, 5))
        count = int(rng.integers(1, 31))
        pts = {
            tuple(int(x) for x in rng.integers(0, 9, size=d)) for _ in range(count)
        }
        parts = dickson_partition(sorted(pts))
        seen = []
        for part in parts:
            base = min(part, key=lambda a: (sum(a), a))
            if not all(
                all(x >= y for x, y in zip(a, base)) for a in part
            ):
                failures.append(f"partition {t}: part not dominated by its minimum")
            seen.extend(part)
        if sorted(seen) != sorted(pts):
            failures.append(f"partition {t}: parts do not tile the input")
    for t in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, min(8, 6**d + 1)))
        alphas = set()
        while len(alphas) < n:
            alphas.add(tuple(int(x) for x in rng.integers(0, 6, size=d)))
        alphas = sorted(alphas)
        try:
            nodes, detval = unimodular_nodes(alphas, seed=int(rng.integers(0, 2**31)))
        except Exception as exc:
            failures.append(f"nodes {t}: {type(exc).__name__}: {exc}")
            continue
        if not np.allclose(np.abs(nodes), 1.0, atol=1e-12):
            failures.append(f"nodes {t}: not on the torus")
        mat = np.ones((n, n), dtype=complex)
        for i in range(n):
            for j, al in enumerate(alphas):
                mat[i, j] = np.prod(nodes[i] ** np.array(al))
        if abs(np.linalg.det(mat)) <= 1e-6 * n ** (n / 2.0):
            failures.append(f"nodes {t}: power matrix nearly singular")
    sym = AffineSymbol([[0.5, 0.25], [0.0, 0.5]], [0.0, 0.0])
    basis = linear_form_basis(sym)
    j_lo = chain_stability_threshold(0.5)
    subset = [a for a in multi_indices(2, 3) if sum(a) == 3]
    worst_c = 0.0
    for j in range(j_lo, 201):
        worst_c = max(
            worst_c, jordan_coefficient_bound_check(sym, basis, 3, subset, j)
        )
    below = jordan_coefficient_bound_check(sym, basis, 3, subset, j_lo - 1)
    if worst_c > 1.0 + 1e-12:
        failures.append(f"chain bound: max coefficient {worst_c:.6f} above 1")
    if below <= 1.0:
        failures.append(
            f"chain bound: threshold {j_lo} not sharp (j={j_lo - 1} gives {below:.3f})"
        )
    detail = (
        f"100 partitions tiled correctly; 50 node systems invertible; chain "
        f"coefficients bounded by {worst_c:.6f} <= 1 for iterates {j_lo}..200 "
        f"(and {below:.3f} > 1 just below the threshold)"
    )
    if failures:
        detail += "; " + "; ".join(failures[:5])
    return not failures, detail


# ---------------------------------------------------------------------------
# registry


_CRITERIA = {
    "approx-formula": _criterion_approx_formula,
    "approx-sum": _criterion_approx_sum,
    "spectrum-oracle": _criterion_spectrum_oracle,
    "classifier-examples": _criterion_classifier_examples,
    "orbit-rank": _criterion_orbit_rank,
    "cyclic-vectors": _criterion_cyclic_vectors,
    "projections": _criterion_projections,
    "adjoint-pairing": _criterion_adjoint_pairing,
    "relation-engine": _criterion_relation_engine,
    "convex-obstruction": _criterion_convex_obstruction,
    "combinatorics": _criterion_combinatorics,
}


def run_criterion(slug: str, seed: int = 0) -> CriterionResult:
    fn = _CRITERIA.get(slug)
    if fn is None:
        raise InvalidInputError(
            f"unknown criterion {slug!r}; available: {', '.join(_CRITERIA)}"
        )
    start = time.perf_counter()
    try:
        passed, detail = fn(seed)
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(slug, passed, detail, time.perf_counter() - start)


def run_suite(only=None, seed: int = 0) -> list:
    """Run all criteria, or those whose slug starts with an `only` prefix."""
    if only:
        prefixes = list(only)
        selected = [
            slug
            for slug in _CRITERIA
            if any(slug.startswith(p) for p in prefixes)
        ]
        if not selected:
            raise InvalidInputError(
                f"no criterion matches {prefixes}; available: "
                f"{', '.join(_CRITERIA)}"
            )
    else:
        selected = list(_CRITERIA)
    return [run_criterion(slug, seed) for slug in selected]
