"""Multiplicative relation detection, exact and numeric."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fockdyn import relations
from fockdyn.errors import BudgetError, InvalidInputError, NumericalFailureError
from fockdyn.relations import (
    PolarEigenvalue,
    RelationResult,
    RelationStatus,
    RELATION_CANDIDATE_BUDGET,
    RELATION_TOL,
    _smallest_certificate,
    _verify_certificate,
    coprime_base,
    exact_relation_decide,
    integer_kernel,
    modulus_kernel,
    numeric_relation_search,
)


def rational_polar(num, den, arg_num=0, arg_den=1):
    return PolarEigenvalue(Fraction(num, den), Fraction(arg_num, arg_den))


def test_half_third_has_no_relation():
    spec = (rational_polar(1, 2), rational_polar(1, 3))
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.PROVEN_NONE


def test_half_quarter_relation_found():
    spec = (rational_polar(1, 2), rational_polar(1, 4))
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.FOUND
    assert result.alpha in ((-2, 1), (2, -1))


def test_wrong_certificate_raises():
    spec = (rational_polar(1, 2), rational_polar(1, 4))
    lattice = modulus_kernel(spec)
    _verify_certificate(spec, lattice, (-2, 1))
    with pytest.raises(NumericalFailureError):
        _verify_certificate(spec, lattice, (1, 1))


def test_root_of_unity_is_a_relation():
    spec = (PolarEigenvalue(Fraction(1), Fraction(2, 7)),)
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.FOUND
    assert result.alpha is not None and result.alpha[0] % 7 == 0


def test_independent_log_tags_proven_none():
    spec = (
        PolarEigenvalue("r1", Fraction(0)),
        PolarEigenvalue("r2", Fraction(0)),
    )
    assert exact_relation_decide(spec).status is RelationStatus.PROVEN_NONE


def test_matching_log_tags_cancel():
    # equal tags with opposite exponents give modulus one; phases must
    # still close, which they do at arguments zero
    spec = (
        PolarEigenvalue("r1", Fraction(0)),
        PolarEigenvalue("r1", Fraction(0)),
    )
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.FOUND


def test_generic_phase_tag_blocks_relation():
    # moduli admit 2^-2 * 4 = 1 but the transcendence-tagged phase on the
    # second eigenvalue cannot participate in any rational phase identity
    spec = (
        rational_polar(1, 2),
        PolarEigenvalue(Fraction(1, 4), "t1"),
    )
    assert exact_relation_decide(spec).status is RelationStatus.PROVEN_NONE


def test_numeric_search_finds_planted_relation():
    lam = np.array([0.5, 0.25])
    result = numeric_relation_search(lam, height=5)
    assert result.status is RelationStatus.FOUND
    alpha = np.array(result.alpha)
    value = np.prod(lam.astype(complex) ** alpha)
    assert abs(value - 1) < 1e-9


def test_numeric_search_reports_exhaustion():
    lam = np.array([0.5, 1 / 3])
    result = numeric_relation_search(lam, height=6)
    assert result.status is RelationStatus.NONE_UP_TO_HEIGHT
    assert result.height == 6


def test_numeric_search_on_complex_pair():
    lam = np.array([0.5 * np.exp(1j * np.pi / 3), 0.25 * np.exp(2j * np.pi / 3)])
    result = numeric_relation_search(lam, height=6)
    assert result.status is RelationStatus.FOUND
    alpha = np.array(result.alpha)
    assert abs(np.prod(lam ** alpha) - 1) < 1e-9


def test_numeric_search_budget():
    with pytest.raises(BudgetError):
        numeric_relation_search(np.full(8, 0.5), height=40)
    # 501^3 - 1 candidates; the relation (1, -1, 0) sits in shell 1, so
    # without the check the call returns at once and the test fails fast
    with pytest.raises(BudgetError):
        numeric_relation_search([0.5, 0.5, 0.25], height=250)
    # 57^4 - 1 = 10,556,000 candidates is over the budget, 55^4 - 1 is not
    with pytest.raises(BudgetError):
        numeric_relation_search([0.5, 0.25, 0.3, 0.7], height=28)
    result = numeric_relation_search([0.5, 0.25, 0.3, 0.7], height=27)
    assert result.status is RelationStatus.FOUND and result.height <= 2


def test_polar_eigenvalue_validates_slots():
    # each field is a rational (int or Fraction) or a tag (str), nothing else
    for bad in (True, 0.5, None):
        with pytest.raises(InvalidInputError, match="modulus must be a rational or a tag"):
            PolarEigenvalue(bad, Fraction(0))
        with pytest.raises(InvalidInputError, match="arg must be a rational or a tag"):
            PolarEigenvalue(Fraction(1, 2), bad)
    for modulus in (0, Fraction(-1, 2)):
        with pytest.raises(InvalidInputError, match="modulus must be positive"):
            PolarEigenvalue(modulus, Fraction(0))
    assert PolarEigenvalue("", "").modulus == ""  # the empty string is a tag too


def test_polar_eigenvalues_are_equal_when_the_eigenvalues_are():
    assert PolarEigenvalue(Fraction(1, 2), Fraction(1, 3)) == PolarEigenvalue(
        Fraction(1, 2), Fraction(7, 3))
    assert PolarEigenvalue(Fraction(1, 2), Fraction(-1, 3)).arg == Fraction(5, 3)
    assert PolarEigenvalue(1, 0) == PolarEigenvalue(Fraction(1), Fraction(2))
    assert PolarEigenvalue(1, 0).modulus.__class__ is Fraction
    assert PolarEigenvalue("r", "t") == PolarEigenvalue("r", "t")
    # a tag never equals a rational, whatever the tag's text
    assert PolarEigenvalue("1", 0) != PolarEigenvalue(1, 0)
    assert PolarEigenvalue(1, "0") != PolarEigenvalue(1, 0)
    assert PolarEigenvalue("", 0) != PolarEigenvalue(1, 0)
    assert PolarEigenvalue("r1", "t") != PolarEigenvalue("r2", "t")


def test_numeric_search_survives_large_exponents():
    # 0.5^-1024 overflows a float: the scan must reject, not raise
    result = numeric_relation_search([0.5], 2000)
    assert result == RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=2000)
    assert numeric_relation_search([0.5, 0.3], 1500).status is RelationStatus.NONE_UP_TO_HEIGHT


def test_numeric_search_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        numeric_relation_search([0.5, np.inf], 3)


# ---------------------------------------------------------------------------
# the vectorized scan against the scalar loop it replaced


def scalar_scan(lambdas, height, tol=RELATION_TOL):
    """The scalar relation scan: every (2h+1)^d box, shell by shell."""
    lam = np.asarray(lambdas, dtype=complex)
    d = lam.size
    log_mod = np.log(np.abs(lam))
    phase = np.angle(lam)
    for h in range(1, height + 1):
        for alpha in itertools.product(range(-h, h + 1), repeat=d):
            if max(abs(a) for a in alpha) != h:
                continue
            av = np.array(alpha, dtype=float)
            r = float(av @ log_mod)
            if abs(math.expm1(r)) > tol:
                continue
            ph = float(av @ phase)
            val = math.exp(r) * complex(math.cos(ph), math.sin(ph))
            if abs(val - 1) <= tol:
                return RelationResult(
                    RelationStatus.FOUND, alpha=alpha, height=h,
                    certificate=f"numeric: |lambda^alpha - 1| = {abs(val - 1):.3e} <= {tol:g}",
                )
    return RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=height)


def scalar_log(lam, alpha):
    """log lambda^alpha in the arithmetic of scalar_scan."""
    av = np.array(alpha, dtype=float)
    return complex(float(av @ np.log(np.abs(lam))), float(av @ np.angle(lam)))


def scalar_gap(lam, alpha):
    """|lambda^alpha - 1| in the arithmetic of scalar_scan."""
    z = scalar_log(lam, alpha)
    return abs(math.exp(z.real) * complex(math.cos(z.imag), math.sin(z.imag)) - 1)


def assert_scan_matches(lam, top=12):
    """numeric_relation_search equals scalar_scan at every height 1..top.

    scalar_scan runs once, at `top`: a first hit at shell s is the answer at
    every height >= s, and below s the answer is NONE_UP_TO_HEIGHT.
    """
    reference = scalar_scan(lam, top)
    for h in range(1, top + 1):
        if reference.status is RelationStatus.FOUND and reference.height <= h:
            expected = reference
        else:
            expected = RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=h)
        assert numeric_relation_search(lam, h) == expected, (lam, h)
    return reference


def random_lambdas(rng, d):
    modulus = rng.uniform(0.2, 1.2, d)
    modulus[rng.uniform(size=d) < 0.3] = 1.0
    return modulus * np.exp(2j * np.pi * rng.uniform(size=d))


def planted(rng, d, shell):
    """Random lambdas with lambda^alpha = 1 for a random alpha in `shell`."""
    alpha = rng.integers(-shell, shell + 1, d)
    alpha[rng.integers(d)] = shell * rng.choice([-1, 1])
    lam = random_lambdas(rng, d)
    nonzero = np.flatnonzero(alpha)
    k = int(nonzero[np.argmin(np.abs(alpha[nonzero]))])
    rest = np.prod([lam[j] ** alpha[j] for j in range(d) if j != k])
    root = np.exp(2j * np.pi * rng.integers(abs(alpha[k])) / alpha[k])
    lam[k] = root * rest ** (-1.0 / alpha[k])
    return lam, tuple(int(a) for a in alpha), k


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_scan_matches_scalar_loop_on_random_inputs(d):
    rng = np.random.default_rng(100 + d)
    # the scalar loop takes about 3 s to walk d=4 up to height 12
    for _ in range(8 if d < 4 else 1):
        assert_scan_matches(random_lambdas(rng, d))
    roots = np.exp(2j * np.pi * rng.integers(1, 12, d) / rng.integers(2, 13, d))
    assert assert_scan_matches(roots).status is RelationStatus.FOUND


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("shell", [1, 2, 3])
def test_scan_matches_scalar_loop_on_planted_relations(d, shell):
    rng = np.random.default_rng(10 * d + shell)
    for _ in range(4):
        result = assert_scan_matches(planted(rng, d, shell)[0])
        assert result.status is RelationStatus.FOUND and result.height <= shell


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("shell", [1, 2, 3])
def test_scan_matches_scalar_loop_at_the_tolerance(d, shell):
    # perturb a planted relation in modulus or in phase so that
    # |lambda^alpha - 1| sits within 1e-6 relative of tol, on either side
    rng = np.random.default_rng(1000 + 10 * d + shell)
    tol = RELATION_TOL
    for side, direction in itertools.product((1 - 5e-7, 1 + 5e-7), (1, -1, 1j, -1j)):
        gap = tol * side
        if direction in (1, -1):
            target = math.log1p(direction * gap)
        else:
            target = direction * 2 * math.asin(gap / 2)
        # lambda^alpha moves in steps of about |alpha_k| eps as lambda_k does,
        # so redraw until the rounded input lands where it should
        for _ in range(50):
            lam, alpha, k = planted(rng, d, shell)
            for _ in range(2):  # move log lambda^alpha onto target + 2 pi i n
                z = scalar_log(lam, alpha)
                turn = 2j * math.pi * round(z.imag / (2 * math.pi))
                lam[k] *= np.exp((target + turn - z) / alpha[k])
            achieved = scalar_gap(lam, alpha)
            if abs(achieved / tol - 1) <= 1e-6 and (achieved <= tol) == (side < 1):
                break
        else:
            pytest.fail(f"no input lands within 1e-6 of tol at {side}, {direction}")
        # above tol nothing hits, and the scalar loop walks every shell
        assert_scan_matches(lam, top=12 if d < 4 or achieved <= tol else 6)


@pytest.mark.parametrize("d, height", [(1, 5_000_000), (2, 1580), (3, 107), (4, 27), (5, 12), (6, 6)])
def test_scan_at_the_budget_edge(d, height):
    # about 10^7 candidates each, under 0.25 s per scan on a 2.1 GHz Xeon
    # core; a scan whose work grows as height^(d+1), as the scalar loop's
    # does, needs minutes (d = 3) to months (d = 1) here
    assert (2 * height + 1) ** d - 1 <= RELATION_CANDIDATE_BUDGET < (2 * height + 3) ** d - 1
    real = [0.5, 0.3, 0.7, 0.11, 0.13, 0.17][:d]
    unimodular = np.exp(2j * np.pi * np.sqrt([2, 3, 5, 7, 11, 13][:d]))
    # roots of unity hit in 21-159 of the scan's 91-215 pieces, in shells up to
    # height; the least hit, in shell `shell`, must win over earlier pieces' hits
    shell = {1: 7, 2: 5, 3: 3, 4: 3, 5: 2, 6: 2}[d]
    turns = [1 / 7] if d == 1 else [1 / 5, 2 / 7, 1 / 3, 1 / 4, 3 / 7, 1 / 2][:d]
    roots = np.exp(2j * np.pi * np.array(turns))
    first_hit = scalar_scan(roots, shell)
    assert first_hit.status is RelationStatus.FOUND and first_hit.height == shell
    for lam, expected in (
        (real, RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=height)),
        (unimodular, RelationResult(RelationStatus.NONE_UP_TO_HEIGHT, height=height)),
        (roots, first_hit),
    ):
        start = time.perf_counter()
        assert numeric_relation_search(lam, height) == expected
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# exact certificate search


def unimodular_spec(denominators):
    return tuple(
        PolarEigenvalue(Fraction(1), Fraction(1, q)) for q in denominators
    )


@pytest.mark.parametrize("d, alpha", [
    (3, (-3, -5, 0)),
    (4, (-3, -5, 0, 0)),
    (5, (-3, -5, 0, 0, 0)),
    # the box shrinks to |c| <= 4 at d = 6 and holds no relation
    (6, (6, 0, 0, 0, 0, 0)),
])
def test_certificate_search_on_unimodular_specs(d, alpha):
    result = exact_relation_decide(unimodular_spec([3, 5, 7, 11, 13, 17][:d]))
    assert result.status is RelationStatus.FOUND and result.alpha == alpha


def test_certificate_search_orders_by_height_then_weight():
    # moduli (1/4, 1/2, 1/2) and phases (0, pi, 0): the relations of height 2
    # include (-2, 2, 2), lexicographically first, and (-1, 0, 2), of
    # smaller sum |alpha|
    spec = (
        PolarEigenvalue(Fraction(1, 4), Fraction(0)),
        PolarEigenvalue(Fraction(1, 2), Fraction(1)),
        PolarEigenvalue(Fraction(1, 2), Fraction(0)),
    )
    assert exact_relation_decide(spec).alpha == (-1, 0, 2)


def test_certificate_verification_forms_no_large_power():
    # no coefficient in the box closes the phase, so the fallback scales the
    # kernel vector (1, -40, 0) by 2 (2^61 - 1); the product of the moduli
    # raised to those exponents ran past 4 GiB, their valuations cancel in
    # one integer dot product per element of the coprime base
    p = 2**61 - 1
    spec = (
        PolarEigenvalue(Fraction(1, 2**40), Fraction(3, p)),
        PolarEigenvalue(Fraction(1, 2), Fraction(-1, p)),
        PolarEigenvalue(Fraction(1, 3), Fraction(1, 5)),
    )
    start = time.perf_counter()
    result = exact_relation_decide(spec)
    assert time.perf_counter() - start < 1.0
    assert result.status is RelationStatus.FOUND and result.alpha == (2 * p, -80 * p, 0)


def test_certificate_search_beyond_int64():
    # phases in units of pi / (2^61 - 1) overflow int64 sums
    p = 2**61 - 1
    spec = (
        PolarEigenvalue(Fraction(1), Fraction(1, p)),
        PolarEigenvalue(Fraction(1), Fraction(-2, p)),
        PolarEigenvalue(Fraction(1), Fraction(1, 3)),
    )
    assert exact_relation_decide(spec).alpha == (-2, -1, 0)
    spec = (
        PolarEigenvalue(Fraction(1), Fraction(1, p)),
        PolarEigenvalue(Fraction(1), Fraction(1, 2**31 - 1)),
        PolarEigenvalue(Fraction(1), Fraction(1, 2)),
    )
    assert exact_relation_decide(spec).alpha == (0, 0, -4)


def test_wide_phases_leave_the_exponents_in_int64():
    # 14 eigenvalues 2^-1 e^{i pi / p}, p a 63-bit prime: every row of the 3^13 box closes
    # the phase, whose sums need Python ints; with the exponents on Python ints too the
    # search took 5.7 s, against 0.8 s
    p = 2**63 - 25
    spec = (PolarEigenvalue(Fraction(1, 2), Fraction(1, p)),) * 14
    start = time.perf_counter()
    result = exact_relation_decide(spec)
    assert time.perf_counter() - start < 3.0
    assert result.alpha == (-1,) + (0,) * 12 + (1,)


def test_exact_decision_reads_arguments_modulo_two():
    # theta / pi and theta / pi + 2k name one eigenvalue: shifting every
    # rational argument by an even integer leaves the decision as it was
    rng = random.Random(1)
    for _ in range(200):
        d = rng.randint(1, 4)
        eigs = [
            (Fraction(2 ** rng.randint(-3, 3) * 3 ** rng.randint(-2, 2)) if rng.random() < 0.8
             else f"r{rng.randint(0, 2)}",
             Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 7])) if rng.random() < 0.8
             else f"t{rng.randint(0, 2)}")
            for _ in range(d)
        ]
        spec = tuple(PolarEigenvalue(m, t) for m, t in eigs)
        shifted = tuple(
            PolarEigenvalue(m, t if isinstance(t, str) else t + 2 * rng.randint(-3, 3))
            for m, t in eigs
        )
        assert exact_relation_decide(shifted) == exact_relation_decide(spec)


def two_stage_free_basis(eigs: tuple) -> list:
    """The tag-free relation lattice built in two stages: the modulus kernel,
    then the integer kernel of the arg-tag rows in its coordinates, mapped
    back to exponents of the eigenvalues."""
    basis = modulus_kernel(eigs).kernel_basis
    tags = sorted({e.arg for e in eigs if isinstance(e.arg, str)})
    rows = [[sum(v for v, e in zip(vec, eigs) if e.arg == t) for vec in basis] for t in tags]
    if not basis or not rows:
        return list(basis)
    return [tuple(sum(c * vec[j] for c, vec in zip(coefs, basis)) for j in range(len(eigs)))
            for coefs in integer_kernel(rows, len(basis))]


def two_stage_decide(eigs: tuple) -> RelationResult:
    """The exact decision on the two-stage lattice, with the certificate box
    over the whole basis (bound from the basis size) and the same fallback."""
    if not modulus_kernel(eigs).kernel_basis:
        return RelationResult(RelationStatus.PROVEN_NONE, certificate="modulus kernel is trivial")
    free = two_stage_free_basis(eigs)
    if not free:
        return RelationResult(
            RelationStatus.PROVEN_NONE,
            certificate="every modulus-kernel vector carries a generic argument tag",
        )
    bound = min(6, max(1, int(round(10 ** (6 / len(free)) - 1)) // 2))
    alpha = _smallest_certificate(eigs, free, bound)
    if alpha is None:
        phase = sum((a * e.arg for e, a in zip(eigs, free[0]) if not isinstance(e.arg, str)),
                    Fraction(0))
        k = 2 * phase.denominator // math.gcd(phase.numerator, 2 * phase.denominator)
        alpha = tuple(k * v for v in free[0])
    return RelationResult(
        RelationStatus.FOUND, alpha=alpha,
        certificate="exact: moduli cancel and phase is an even multiple of pi",
    )


def random_polar_spec(rng: random.Random) -> tuple:
    """1-7 eigenvalues: moduli 1, 2^a 3^b 5^c or a log-tag, arguments small
    rationals or an arg-tag, tags drawn from a few names so that they repeat."""
    eigs = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.45:
            modulus = Fraction(1)
        elif kind < 0.55:
            modulus = f"r{rng.randint(0, 2)}"
        else:
            modulus = (Fraction(2) ** rng.randint(-3, 3) * Fraction(3) ** rng.randint(-2, 2)
                       * Fraction(5) ** rng.choice([0, 0, -1, 1]))
        arg = (f"t{rng.randint(0, 3)}" if rng.random() < 0.25
               else Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 7, 12])))
        eigs.append(PolarEigenvalue(modulus, arg))
    return tuple(eigs)


def test_one_kernel_gives_the_two_stage_lattice_and_decision():
    # the stacked rows' kernel is the two-stage basis, vector for vector; at
    # rank <= 13 the certificate box is the same, so is every result
    rng = random.Random(2)
    ranks = set()
    for _ in range(3000):
        spec = random_polar_spec(rng)
        free = two_stage_free_basis(spec)
        lattice = modulus_kernel(spec)
        if lattice.kernel_basis:
            stacked = lattice.matrix + tuple(
                tuple(int(e.arg == t) for e in spec)
                for t in sorted({e.arg for e in spec if isinstance(e.arg, str)}))
            assert integer_kernel(list(stacked), len(spec)) == free
        ranks.add(len(free))
        assert exact_relation_decide(spec) == two_stage_decide(spec)
    assert ranks == set(range(8))


def test_certificate_search_combines_at_most_thirteen_vectors(monkeypatch):
    # 16 unimodular eigenvalues e^{i pi / p} leave a rank-16 lattice, once
    # refused for its 3^16-row box; the search takes 3^13 rows of the first
    # 13 vectors, no sum of +-1/p closes the phase, and the fallback scales
    # the first vector
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    seen = []
    search = relations._smallest_certificate
    monkeypatch.setattr(relations, "_smallest_certificate",
                        lambda eigs, free, bound: seen.append((len(free), bound)) or search(eigs, free, bound))
    result = exact_relation_decide(unimodular_spec(primes))
    assert seen == [(13, 1)]
    assert result.status is RelationStatus.FOUND and result.alpha == (6,) + (0,) * 15


# ---------------------------------------------------------------------------
# coprime base of the moduli


def test_coprime_base_is_pairwise_coprime_and_generates_every_input():
    rng = random.Random(0)
    atoms = [2, 3, 5, 7, 11, 13, 2**31 - 1, 2**32 - 5, 2**61 - 1,
             3 * (2**31 - 1), 7 * 11**3, 1001, 12, 18]
    for _ in range(300):
        numbers = [
            math.prod(rng.choice(atoms) ** rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        base = coprime_base(numbers)
        assert base == sorted(set(base)) and all(q > 1 for q in base)
        assert all(math.gcd(p, q) == 1 for p, q in itertools.combinations(base, 2))
        assert all(any(n % q == 0 for n in numbers) for q in base)
        for n in numbers:
            for q in base:
                while n % q == 0:
                    n //= q
            assert n == 1
    assert coprime_base([12, 18]) == [2, 3]
    assert coprime_base([3 * (2**31 - 1), 7 * 11**3, 3]) == [3, 7 * 11**3, 2**31 - 1]


def trial_division_primes(numbers) -> list:
    """The prime factors of numbers, by trial division."""
    primes = set()
    for n in numbers:
        f = 2
        while f * f <= n:
            while n % f == 0:
                primes.add(f)
                n //= f
            f += 1
        if n > 1:
            primes.add(n)
    return sorted(primes)


def test_composite_coprime_base_matches_prime_valuations(monkeypatch):
    # 3 (2^31 - 1) and 7 * 11^3 enter the base whole: 9317 = 7 * 11^3 is
    # never split, as no other modulus separates 7 from 11
    p = 2**31 - 1
    spec = (
        PolarEigenvalue(Fraction(3 * p, 7 * 11**3), Fraction(1, 3)),
        PolarEigenvalue(Fraction(3 * p, 7 * 11**3), Fraction(1, 7)),
        PolarEigenvalue(Fraction(7 * 11**3), "t1"),
        PolarEigenvalue(Fraction(1, 3), Fraction(1, 2)),
    )
    assert len(modulus_kernel(spec).matrix) == 3
    result = exact_relation_decide(spec)
    monkeypatch.setattr(relations, "coprime_base", trial_division_primes)
    prime_lattice = modulus_kernel(spec)
    assert len(prime_lattice.matrix) == 4
    reference = exact_relation_decide(spec)
    assert result.status is reference.status is RelationStatus.FOUND
    assert result.alpha == reference.alpha == (-21, 21, 0, 0)
    _verify_certificate(spec, prime_lattice, result.alpha)
    moduli = [e.modulus ** a for e, a in zip(spec, result.alpha) if a]
    assert math.prod(moduli) == 1


def test_semiprime_modulus_is_one_base_element():
    # (2^31 - 1)(2^32 - 5) has 63 bits; no factor of it is ever searched for
    n = (2**31 - 1) * (2**32 - 5)
    assert n.bit_length() == 63
    spec = (
        PolarEigenvalue(Fraction(1, n), Fraction(1, 3)),
        rational_polar(1, 2),
    )
    assert modulus_kernel(spec).matrix == ((0, -1), (-1, 0))
    assert exact_relation_decide(spec).status is RelationStatus.PROVEN_NONE
