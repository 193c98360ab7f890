"""Checks of fockdyn reports against computations made apart from fockdyn.

Nothing here imports fockdyn.  Each check recomputes what a report claims
from the benchmark's own inputs with numpy, scipy and exact fractions, or
tests a property that the method must have, and raises CheckError on the
first disagreement.  No check compares against a stored copy of a report.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.optimize

SPECTRUM_ABS_TOL = 1e-10
CLOSED_FORM_REL_TOL = 1e-10
ORACLE_REL_TOL = 1e-6
RELATION_TOL = 1e-9
ORBIT_RANK_REL_TOL = 1e-8
PROJECT_REL_TOL = 1e-8


class CheckError(Exception):
    """A report disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def cval(doc) -> complex:
    return complex(doc["re"], doc["im"])


def multi_indices(d: int, max_degree: int) -> list:
    """All alpha in N^d with |alpha| <= max_degree."""
    return [a for a in itertools.product(range(max_degree + 1), repeat=d) if sum(a) <= max_degree]


def poly_eval(coeffs: dict, z) -> complex:
    alphas = np.array(list(coeffs), dtype=float)
    values = np.array(list(coeffs.values()), dtype=complex)
    return complex(np.sum(values * np.prod(np.asarray(z)[None, :] ** alphas, axis=1)))


def poly_abs_eval(coeffs: dict, z) -> float:
    """Sum of |c_alpha z^alpha|: the scale of the rounding in poly_eval."""
    alphas = np.array(list(coeffs), dtype=float)
    values = np.abs(np.array(list(coeffs.values()), dtype=complex))
    return float(np.sum(values * np.prod(np.abs(np.asarray(z))[None, :] ** alphas, axis=1)))


def report_function(report) -> dict:
    return {tuple(e["alpha"]): cval(e["value"]) for e in report["coefficients"]}


# ---------------------------------------------------------------------------
# spectrum


def check_spectrum(report, a: np.ndarray, degree: int) -> None:
    """Eigenvalues are the multiset of mu^alpha, |alpha| <= degree."""
    d = a.shape[0]
    mu = np.linalg.eigvals(a)
    alphas = np.array(multi_indices(d, degree))
    expected = np.prod(mu[None, :] ** alphas, axis=1)
    got = np.array([cval(e) for e in report["eigenvalues"]])
    require(report["basis_size"] == len(alphas), f"basis_size {report['basis_size']} != {len(alphas)}")
    require(got.size == expected.size, f"{got.size} eigenvalues, expected {expected.size}")
    cost = np.abs(np.subtract.outer(expected, got))
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    err = float(cost[rows, cols].max())
    require(err <= SPECTRUM_ABS_TOL, f"spectrum matching error {err:.3e} > {SPECTRUM_ABS_TOL:g}")


# ---------------------------------------------------------------------------
# orbit rank on a diagonal symbol


def orbit_singular_values(mu, coeffs: dict, degree: int, steps: int) -> np.ndarray:
    """Singular values of the normalized projected orbit columns.

    For a diagonal linear part the degree-N part of C^j f has orthonormal
    coordinates c_alpha ||z^alpha|| mu^(j alpha), |alpha| = N; each column
    is scaled to unit norm, which leaves the rank unchanged.
    """
    top = [(a, c) for a, c in coeffs.items() if sum(a) == degree]
    alphas = np.array([a for a, _ in top], dtype=float)
    norms = np.array(
        [math.sqrt(2**degree * math.prod(math.factorial(k) for k in a)) for a, _ in top]
    )
    start = np.array([c for _, c in top], dtype=complex) * norms
    nodes = np.prod(np.asarray(mu)[None, :] ** alphas, axis=1)
    cols = start[:, None] * nodes[:, None] ** np.arange(steps)[None, :]
    cols = cols / np.abs(cols).max(axis=0)[None, :]
    cols = cols / np.linalg.norm(cols, axis=0)[None, :]
    return np.linalg.svd(cols, compute_uv=False)


def rank_margin_decades(s: np.ndarray) -> float:
    """Distance in decades from the rank threshold to the nearest singular value."""
    threshold = ORBIT_RANK_REL_TOL * s[0]
    return float(np.min(np.abs(np.log10(np.maximum(s, 1e-300) / threshold))))


def check_orbit_rank(report, mu, coeffs: dict, degree: int, steps: int) -> None:
    d = len(mu)
    s = orbit_singular_values(mu, coeffs, degree, steps)
    want = int(np.count_nonzero(s > ORBIT_RANK_REL_TOL * s[0]))
    got = report["rank"]
    cap = min(steps, math.comb(degree + d - 1, d - 1))
    require(1 <= got <= cap, f"rank {got} outside [1, {cap}]")
    require(got == want, f"orbit rank {got}, own rank {want}")


# ---------------------------------------------------------------------------
# approximation numbers


def closed_form(a: np.ndarray, b: np.ndarray, k: int):
    """(prefactor, lambda, top-k values) of the paper's closed form.

    With A = U S V*, B = sqrt(AA*) = U S U*, v = (I+B)^-1 b and
    w = (I-B)^-1 v, the prefactor is exp(Re<v, w>/2 - |v|^2/4) and the
    values are the k largest prefactor * lambda^alpha over alpha in N^d,
    lambda the singular values.  The top k come from a brute-force sort of
    a box that provably contains them.
    """
    u, lam, _ = np.linalg.svd(a)
    c = u.conj().T @ b
    v = c / (1.0 + lam)
    w = v / (1.0 - lam)
    prefactor = math.exp(float(np.vdot(v, w).real) / 2.0 - float(np.vdot(v, v).real) / 4.0)
    logs = np.log(lam[lam > 1e-13])
    # every alpha with lambda^alpha >= t lies in the box alpha_j <= log t / log lambda_j,
    # so once the box holds k such values it holds the k largest
    log_t = logs[0]
    while True:
        bounds = np.floor(log_t / logs + 1e-9).astype(int)
        grid = np.zeros(1)
        for j, lj in enumerate(logs):
            grid = (grid[:, None] + lj * np.arange(bounds[j] + 1)[None, :]).ravel()
            grid = grid[grid >= log_t - 1e-9]
        if grid.size >= k:
            break
        log_t *= 2.0
    top = np.sort(grid)[::-1][:k]
    return prefactor, lam, prefactor * np.exp(top)


def check_approx(report, a: np.ndarray, b: np.ndarray, k: int, oracle: bool) -> None:
    prefactor, lam, want = closed_form(a, b, k)
    got = np.array([t["value"] for t in report["terms"]])
    require(got.size == k, f"{got.size} approximation numbers, asked for {k}")
    require(bool(np.all(np.diff(got) <= 0)), "approximation numbers increase")
    rel = float(np.max(np.abs(got - want) / want))
    require(rel <= CLOSED_FORM_REL_TOL, f"closed form differs by {rel:.3e} relative")
    require(
        abs(report["prefactor"] - prefactor) <= CLOSED_FORM_REL_TOL * prefactor,
        f"prefactor {report['prefactor']!r} != {prefactor!r}",
    )
    total = prefactor * float(np.prod(1.0 / (1.0 - lam)))
    require(
        abs(report["closed_form_sum"] - total) <= CLOSED_FORM_REL_TOL * total,
        f"closed_form_sum {report['closed_form_sum']!r} != {total!r}",
    )
    alphas = np.array([t["alpha"] for t in report["terms"]], dtype=float)
    from_alpha = prefactor * np.prod(lam[None, :] ** alphas, axis=1)
    rel = float(np.max(np.abs(from_alpha - got) / got))
    require(rel <= CLOSED_FORM_REL_TOL, f"term alphas disagree with their values by {rel:.3e}")
    require(len({tuple(t["alpha"]) for t in report["terms"]}) == k, "repeated alpha")
    if oracle:
        ovals = np.array(report["oracle"]["values"])
        require(ovals.size == k, f"{ovals.size} oracle values, asked for {k}")
        rel = float(np.max(np.abs(ovals - want) / want))
        require(rel <= ORACLE_REL_TOL, f"oracle differs from the closed form by {rel:.3e}")


# ---------------------------------------------------------------------------
# cyclicity verdicts


def relation_hits(lam, height: int) -> np.ndarray:
    """All nonzero alpha with |alpha|_inf <= height and |lambda^alpha - 1| <= tol."""
    lam = np.asarray(lam, dtype=complex)
    axis = np.arange(-height, height + 1)
    alphas = np.stack(np.meshgrid(*([axis] * lam.size), indexing="ij"), -1).reshape(-1, lam.size)
    alphas = alphas[np.any(alphas != 0, axis=1)]
    vals = np.exp(alphas @ np.log(np.abs(lam)) + 1j * (alphas @ np.angle(lam)))
    return alphas[np.abs(vals - 1.0) <= RELATION_TOL]


def check_undecided(report, a: np.ndarray, height: int) -> None:
    cyc = report["cyclicity"]
    require(cyc is not None and cyc["status"] == "undecided", f"verdict {cyc and cyc['status']}, expected undecided")
    require(cyc["search_height"] == height, f"search_height {cyc['search_height']} != {height}")
    hits = relation_hits(np.linalg.eigvals(a), height)
    require(hits.size == 0, f"own scan finds relations {hits[:3].tolist()}")


def _report_order(report, mu) -> np.ndarray:
    """The benchmark's eigenvalues in the order the report lists them."""
    got = [cval(e["value"]) for e in report["spectral"]["eigenvalues"]]
    mu = np.asarray(mu, dtype=complex)
    cost = np.abs(np.subtract.outer(np.array(got), mu))
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    err = float(cost[rows, cols].max())
    require(len(got) == mu.size and err <= 1e-8, f"reported eigenvalues off by {err:.3e}")
    return mu[cols]


def check_planted(report, mu) -> None:
    """not_cyclic, with an alpha that is a relation on the benchmark's own
    eigenvalues and lies in the smallest shell that has one."""
    cyc = report["cyclicity"]
    require(cyc is not None and cyc["status"] == "not_cyclic", f"verdict {cyc and cyc['status']}, expected not_cyclic")
    reason = cyc["reasons"][0]
    require(reason["code"] == "RELATION_FOUND", f"reason {reason['code']}")
    alpha = np.array(reason["alpha"])
    lam = _report_order(report, mu)
    require(alpha.size == lam.size and np.any(alpha != 0), f"alpha {alpha.tolist()} malformed")
    value = complex(np.prod(lam.astype(complex) ** alpha))
    require(abs(value - 1.0) <= RELATION_TOL, f"|lambda^alpha - 1| = {abs(value - 1):.3e} for alpha {alpha.tolist()}")
    shell = int(np.abs(alpha).max())
    require(cyc.get("search_height") == shell, f"search_height {cyc.get('search_height')} != shell {shell}")
    smaller = relation_hits(lam, shell - 1)
    require(smaller.size == 0, f"smaller shell has relations {smaller[:3].tolist()}")


def check_exact(report, moduli, args, relation: bool) -> None:
    """Verdict implied by the planted exact data; alpha verified in fractions.

    moduli are Fractions, args are Fractions of pi, in input order.
    """
    cyc = report["cyclicity"]
    want = "not_cyclic" if relation else "cyclic"
    require(cyc is not None and cyc["status"] == want, f"verdict {cyc and cyc['status']}, expected {want}")
    reason = cyc["reasons"][0]
    if not relation:
        require(reason["code"] == "NO_RELATION", f"reason {reason['code']}")
        return
    require(reason["code"] == "RELATION_FOUND", f"reason {reason['code']}")
    alpha = reason["alpha"]
    require(len(alpha) == len(moduli) and any(alpha), f"alpha {alpha} malformed")
    modulus = math.prod((Fraction(m) ** k for m, k in zip(moduli, alpha)), start=Fraction(1))
    phase = sum((Fraction(t) * k for t, k in zip(args, alpha)), start=Fraction(0))
    require(modulus == 1, f"prod |lambda_j|^alpha_j = {modulus} for alpha {alpha}")
    require(phase.denominator == 1 and phase.numerator % 2 == 0, f"phase {phase} pi is not a multiple of 2 pi")


# ---------------------------------------------------------------------------
# cyclic vectors


def check_cyclic_vector(report, d: int, degree: int, fail_slot: int | None) -> None:
    """A generic f passes; f = L_p^degree fails at every index but degree*e_p."""
    require(report["degree_checked"] == degree, f"degree_checked {report['degree_checked']}")
    failing = {tuple(a) for a in report["failing_indices"]}
    require(len(failing) == len(report["failing_indices"]), "repeated failing index")
    if fail_slot is None:
        require(report["verdict"] is True and not failing, f"generic f: verdict {report['verdict']}, failing at {sorted(failing)[:3]}")
        return
    keep = tuple(degree if j == fail_slot else 0 for j in range(d))
    want = set(multi_indices(d, degree)) - {keep}
    require(report["verdict"] is False, "f = L^k reported cyclic")
    require(failing == want, f"failing set differs at {sorted(failing ^ want)[:3]}")


# ---------------------------------------------------------------------------
# homogeneous projections


def check_project(report, other, f: dict, xi, n: int) -> None:
    """p(xi + t w) = t^n p(xi + w); p is the circle average of f around xi
    at frequency n; the other projection mode gives the same coefficients."""
    xi = np.asarray(xi, dtype=complex)
    got_xi = np.array([cval(z) for z in report["expansion_point"]])
    require(np.allclose(got_xi, xi, rtol=1e-12, atol=1e-12), "expansion point is not (I - A)^-1 b")
    p = report_function(report)
    require(bool(p), "empty component")
    require(all(sum(a) <= n for a in p), "component has degree above n")
    rng = np.random.default_rng(n)
    d = xi.size
    for _ in range(3):
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        t = complex(rng.normal(), rng.normal())
        lhs = poly_eval(p, xi + t * w)
        rhs = t**n * poly_eval(p, xi + w)
        scale = poly_abs_eval(p, xi + t * w) + abs(t) ** n * poly_abs_eval(p, xi + w)
        require(abs(lhs - rhs) <= PROJECT_REL_TOL * scale, f"not homogeneous of degree {n}: {abs(lhs - rhs):.3e}")
        nodes = max(sum(a) for a in f) + 1
        roots = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        average = sum(poly_eval(f, xi + r * w) * r ** (-n) for r in roots) / nodes
        scale = max(poly_abs_eval(f, xi + r * w) for r in roots)
        got = poly_eval(p, xi + w)
        require(abs(got - average) <= PROJECT_REL_TOL * scale, f"component differs from the circle average by {abs(got - average):.3e}")
    q = report_function(other)
    keys = set(p) | set(q)
    diff = max(abs(p.get(a, 0j) - q.get(a, 0j)) for a in keys)
    top = max(abs(c) for c in q.values())
    require(diff <= PROJECT_REL_TOL * top, f"projection modes differ by {diff / top:.3e} relative")


# ---------------------------------------------------------------------------
# Kronecker demonstration


def check_kronecker(report, thetas, target, n_max: int) -> None:
    ns = np.arange(1, n_max + 1)
    errs = np.max(np.abs(np.exp(1j * np.outer(ns, thetas)) - np.asarray(target)[None, :]), axis=1)
    best = int(np.argmin(errs))
    require(report["best_n"] == best + 1, f"best_n {report['best_n']}, own scan {best + 1}")
    require(abs(report["best_error"] - errs[best]) <= 1e-12, f"best_error {report['best_error']!r} != {errs[best]!r}")
