"""Seeded input pools for the four workloads.

A pool is a fixed list of rounds.  A round is the workload's fixed list of
CLI commands, each with the JSON document it reads and a check of its
report made apart from fockdyn.  The same seed gives the same pool, and the
program only ever sees the generated files.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Callable

import numpy as np

import checks

POOL_SIZE = 16
WORKLOADS = ("truncate", "decide", "expand", "interactive")


@dataclasses.dataclass(frozen=True)
class Command:
    verb: str
    flags: tuple
    doc: dict
    check: Callable  # check(report, companion_report)
    companion: tuple | None = None  # flags of an untimed second run the check reads


# ---------------------------------------------------------------------------
# documents


def complex_doc(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def symbol_doc(a, b, exact=None) -> dict:
    doc = {
        "dimension": len(b),
        "A": [[complex_doc(x) for x in row] for row in a],
        "b": [complex_doc(x) for x in b],
    }
    if exact is not None:
        doc["exact"] = exact
    return doc


def with_function(sym: dict, coeffs: dict) -> dict:
    return {
        "symbol": sym,
        "function": {
            "coefficients": [
                {"alpha": list(a), "value": complex_doc(c)} for a, c in coeffs.items()
            ]
        },
    }


def tagged_exact(d: int) -> dict:
    """Independence-tagged moduli and arguments: a provably cyclic spectrum."""
    return {
        "eigenvalues": [
            {"modulus": {"log_generic": f"r{j}"}, "arg": {"generic": f"t{j}"}}
            for j in range(d)
        ]
    }


def rational_exact(moduli, args) -> dict:
    return {
        "eigenvalues": [
            {
                "modulus": {"num": m.numerator, "den": m.denominator},
                "arg": {"pi_rational": {"num": t.numerator, "den": t.denominator}},
            }
            for m, t in zip(moduli, args)
        ]
    }


# ---------------------------------------------------------------------------
# random symbols


def contraction(rng, d: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a * (norm / np.linalg.norm(a, 2))


def ball(rng, d: int, radius: float) -> np.ndarray:
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    return b * (radius / np.linalg.norm(b))


def unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def similar(rng, mu, max_norm: float):
    """(A, S) with A = S diag(mu) S^-1, S near the identity, ||A|| <= max_norm."""
    d = len(mu)
    while True:
        s = np.eye(d) + 0.25 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
        a = s @ np.diag(mu) @ np.linalg.inv(s)
        if np.linalg.norm(a, 2) <= max_norm:
            return a, s


def random_poly(rng, d: int, degree: int, terms: int | None = None) -> dict:
    alphas = checks.multi_indices(d, degree)
    if terms is not None:
        alphas = [alphas[i] for i in sorted(rng.choice(len(alphas), size=terms, replace=False))]
    return {a: complex(rng.normal(), rng.normal()) for a in alphas}


def natural_order(mu) -> list:
    """Eigenvalue order of fockdyn's reports: modulus descending, then argument."""
    return sorted(range(len(mu)), key=lambda j: (-abs(mu[j]), np.angle(mu[j]) % (2 * np.pi)))


# ---------------------------------------------------------------------------
# commands


def spectrum(rng, d: int, degree: int) -> Command:
    """Dense, unitarily diagonalizable linear part.

    On non-normal linear parts the dense eigensolver misses the exact
    multiset by more than the check's 1e-10 on some draws (see CHANGES.md).
    """
    mu = rng.uniform(0.3, 0.8, d) * np.exp(2j * np.pi * rng.uniform(size=d))
    q = unitary(rng, d)
    a = q @ np.diag(mu) @ q.conj().T
    b = ball(rng, d, 0.5)
    return Command(
        "spectrum",
        ("--degree", str(degree)),
        symbol_doc(a, b),
        lambda rep, _: checks.check_spectrum(rep, a, degree),
    )


def orbit_rank(rng, d: int, degree: int, steps: int) -> Command:
    """Diagonal symbol and a full degree-N function given in the file.

    Draws again until no singular value of the projected orbit lies within
    0.1 decade of the rank threshold, where rounding could flip the rank.
    One |mu_j| >= 0.85 keeps every projected column above 1e-150: fockdyn
    leaves a column unnormalized when its norm underflows (see CHANGES.md).
    """
    while True:
        moduli = np.append(rng.uniform(0.85, 0.95), rng.uniform(0.55, 0.95, d - 1))
        mu = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
        coeffs = random_poly(rng, d, degree)
        s = checks.orbit_singular_values(mu, coeffs, degree, steps)
        if checks.rank_margin_decades(s) >= 0.1:
            break
    b = ball(rng, d, 0.5)
    return Command(
        "orbit-rank",
        ("--degree", str(degree), "--steps", str(steps)),
        with_function(symbol_doc(np.diag(mu), b), coeffs),
        lambda rep, _: checks.check_orbit_rank(rep, mu, coeffs, degree, steps),
    )


def approx(rng, d: int, top: int, singular_range, oracle: str | None) -> Command:
    lo, hi = singular_range
    s = np.sort(rng.uniform(lo, hi, d))[::-1]
    a = unitary(rng, d) @ np.diag(s) @ unitary(rng, d).conj().T
    b = ball(rng, d, 0.5)
    flags = ("--top", str(top))
    if oracle is not None:
        flags += ("--oracle", "--oracle-method", oracle)
    return Command(
        "approx",
        flags,
        symbol_doc(a, b),
        lambda rep, _: checks.check_approx(rep, a, b, top, oracle is not None),
    )


def analyze_numeric(rng, d: int, height: int) -> Command:
    a = contraction(rng, d, 0.8)
    b = ball(rng, d, 0.5)
    flags = () if height == 12 else ("--height", str(height))
    return Command(
        "analyze",
        flags,
        symbol_doc(a, b),
        lambda rep, _: checks.check_undecided(rep, a, height),
    )


def analyze_planted(rng, shell: int) -> Command:
    """d=3 with lambda_3 = lambda_1^p lambda_2^q, max(|p|, |q|) <= shell."""
    while True:
        mu = rng.uniform(0.5, 0.9, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        p, q = rng.integers(-shell, shell + 1, size=2)
        if p == 0 and q == 0:
            continue
        mu3 = mu[0] ** p * mu[1] ** q
        if 0.2 < abs(mu3) < 0.9 and np.min(np.abs(mu - mu3)) > 0.05:
            break
    mu = np.append(mu, mu3)[rng.permutation(3)]
    a, _ = similar(rng, mu, 0.99)
    b = ball(rng, 3, 0.5)
    return Command("analyze", (), symbol_doc(a, b), lambda rep, _: checks.check_planted(rep, mu))


_MODULI = [Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (3, 7), (5, 7))]
_PRIMES = (2, 3, 5, 7, 11)


def analyze_exact(rng, relation: bool) -> Command:
    """d=3 with exact polar data: rational moduli, rational multiples of pi.

    With a relation, lambda_3 = lambda_1^p lambda_2^q exactly; without, the
    moduli are 1/p_j for distinct primes, so no integer relation exists.
    """
    args = [Fraction(int(rng.integers(0, 2 * q)), int(q)) for q in rng.choice([3, 4, 5, 6], size=3)]
    if relation:
        i, j = rng.choice(len(_MODULI), size=2, replace=False)
        p, q = (int(x) for x in rng.integers(1, 3, size=2))
        moduli = [_MODULI[i], _MODULI[j], _MODULI[i] ** p * _MODULI[j] ** q]
        args[2] = (p * args[0] + q * args[1]) % 2
    else:
        moduli = [Fraction(1, int(p)) for p in rng.choice(_PRIMES, size=3, replace=False)]
    mu = [float(m) * np.exp(1j * math.pi * float(t)) for m, t in zip(moduli, args)]
    a, _ = similar(rng, mu, 0.99)
    b = ball(rng, 3, 0.5)
    return Command(
        "analyze",
        (),
        symbol_doc(a, b, rational_exact(moduli, args)),
        lambda rep, _: checks.check_exact(rep, moduli, args, relation),
    )


def cyclic_vector(rng, d: int, degree: int, failing: bool) -> Command:
    """Compact symbol with a tagged (provably cyclic) spectrum.

    f is a generic random polynomial, or f = L(z)^degree with
    L(z) = <w, z - xi> built from a left eigenvector w of A and the fixed
    point xi = (I - A)^-1 b, which must fail at every other index.
    """
    while True:
        moduli = rng.uniform(0.3, 0.7, d)
        if np.min(np.diff(np.sort(moduli))) > 0.02:
            break
    mu = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    a, s = similar(rng, mu, 0.95)
    b = ball(rng, d, 0.3)
    fail_slot = None
    if failing:
        q = int(rng.integers(d))
        w = np.linalg.inv(s)[q]
        c = complex(w @ np.linalg.solve(np.eye(d) - a, b))
        coeffs = {}
        for beta in checks.multi_indices(d, degree):
            rest = degree - sum(beta)
            count = math.factorial(degree) // (
                math.prod(math.factorial(k) for k in beta) * math.factorial(rest)
            )
            coeffs[beta] = count * complex(np.prod(w**np.array(beta))) * (-c) ** rest
        fail_slot = natural_order(mu).index(q)
    else:
        coeffs = random_poly(rng, d, degree)
    return Command(
        "cyclic-vector",
        ("--degree", str(degree)),
        with_function(symbol_doc(a, b, tagged_exact(d)), coeffs),
        lambda rep, _: checks.check_cyclic_vector(rep, d, degree, fail_slot),
    )


def project(rng, d: int, degree: int, n: int, mode: str, terms: int | None = None) -> Command:
    a = contraction(rng, d, 0.7)
    b = ball(rng, d, 0.5)
    coeffs = random_poly(rng, d, degree, terms)
    xi = np.linalg.solve(np.eye(d) - a, b)
    other = "recentering" if mode == "quadrature" else "quadrature"
    return Command(
        "project",
        ("--degree", str(n), "--mode", mode),
        with_function(symbol_doc(a, b), coeffs),
        lambda rep, other_rep: checks.check_project(rep, other_rep, coeffs, xi, n),
        companion=("--degree", str(n), "--mode", other),
    )


def kronecker(rng, k: int, n_max: int) -> Command:
    thetas = rng.uniform(0, 2 * np.pi, k)
    target = np.exp(2j * np.pi * rng.uniform(size=k))
    doc = {"thetas": list(thetas), "target": [complex_doc(t) for t in target], "n_max": n_max}
    return Command(
        "demo-kronecker",
        (),
        doc,
        lambda rep, _: checks.check_kronecker(rep, thetas, target, n_max),
    )


# ---------------------------------------------------------------------------
# workloads


def truncate_round(rng, i: int) -> list:
    return [
        spectrum(rng, 3, 12),
        orbit_rank(rng, 3, 14, 60),
        approx(rng, 2, 50, (0.55, 0.75), "grid"),
    ]


def decide_round(rng, i: int) -> list:
    return [
        analyze_numeric(rng, 3, 12),
        analyze_numeric(rng, 4, 6),
        analyze_planted(rng, 3),
        analyze_exact(rng, relation=i % 2 == 0),
        approx(rng, 3, 4000, (0.6, 0.9), None),
    ]


def expand_round(rng, i: int) -> list:
    return [
        cyclic_vector(rng, 3, 8, failing=i % 2 == 1),
        cyclic_vector(rng, 4, 5, failing=i % 2 == 0),
        project(rng, 3, 8, 4, "quadrature"),
    ]


def interactive_round(rng, i: int) -> list:
    """The nine small commands on three fresh input sets: 27 commands,
    about 0.17 s.  With rounds of nine (0.06 s) the machine's short slow
    spells set round_tail_s, whose spread over ten runs then reached 0.21."""
    return [cmd for _ in range(3) for cmd in interactive_commands(rng, i)]


def interactive_commands(rng, i: int) -> list:
    return [
        analyze_numeric(rng, 2, 12),
        analyze_planted(rng, 2),
        analyze_exact(rng, relation=i % 2 == 1),
        approx(rng, 3, 10, (0.5, 0.8), "reduced"),
        spectrum(rng, 3, 6),
        orbit_rank(rng, 3, 6, 20),
        project(rng, 3, 6, 2, "recentering", terms=8),
        cyclic_vector(rng, 3, 3, failing=i % 2 == 0),
        kronecker(rng, 3, 2000),
    ]


_ROUNDS = {
    "truncate": truncate_round,
    "decide": decide_round,
    "expand": expand_round,
    "interactive": interactive_round,
}


def build_pool(workload: str, seed: int, size: int = POOL_SIZE) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [_ROUNDS[workload](rng, i) for i in range(size)]
