"""Cyclicity classification, cyclic-vector tests, convex obstructions."""

from fractions import Fraction

import numpy as np
import pytest

from fockdyn.classify import (
    CyclicityStatus,
    classify_cyclicity,
    convex_obstruction_value,
    cyclic_vector_test,
)
from fockdyn.errors import InvalidInputError
from fockdyn.fockmat.basis import multi_indices
from fockdyn.fockmat.projections import from_L_basis
from fockdyn.polymap import poly_eval
from fockdyn.relations import PolarEigenvalue
from fockdyn.spectral import linear_form_basis
from fockdyn.symbol import AffineSymbol, fixed_point

from matrices import conjugated, jordan_block


def tagged_diagonal(lam, b=None, tag_prefix="r"):
    """Diagonal symbol with independence-tagged moduli and argument zero."""
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    exact = tuple(
        PolarEigenvalue(f"{tag_prefix}{j}", Fraction(0))
        for j in range(d)
    )
    b = np.zeros(d) if b is None else np.asarray(b, dtype=complex)
    return AffineSymbol(np.diag(lam).astype(complex), b, exact=exact)


def rational_diagonal(fractions, b=None):
    lam = [float(q) for q in fractions]
    exact = tuple(
        PolarEigenvalue(Fraction(q), Fraction(0))
        for q in fractions
    )
    d = len(lam)
    b = np.zeros(d) if b is None else np.asarray(b, dtype=complex)
    return AffineSymbol(np.diag(lam).astype(complex), b, exact=exact)


def test_singular_linear_part_never_cyclic():
    sym = AffineSymbol([[0.5, 0.0], [0.0, 0.0]], [0.1, 0.1])
    verdict = classify_cyclicity(sym)
    assert verdict.status is CyclicityStatus.NOT_CYCLIC
    assert verdict.reasons[0].code == "NOT_INVERTIBLE"


def test_big_jordan_block_never_cyclic():
    a = 0.5 * np.eye(3) + np.diag([0.25, 0.25], 1)
    verdict = classify_cyclicity(AffineSymbol(a, np.zeros(3)))
    assert verdict.status is CyclicityStatus.NOT_CYCLIC
    assert verdict.reasons[0].code == "BAD_JORDAN"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugated_three_block_never_cyclic(seed):
    verdict = classify_cyclicity(AffineSymbol(conjugated(jordan_block(0.5, 3), seed), np.zeros(3)))
    assert verdict.status is CyclicityStatus.NOT_CYCLIC
    assert verdict.reasons[0].code == "BAD_JORDAN"


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_conjugated_close_pair_stays_undecided(seed):
    verdict = classify_cyclicity(AffineSymbol(conjugated(np.diag([0.5, 0.5 + 1e-5, 0.2]), seed), np.zeros(3)))
    assert verdict.status is CyclicityStatus.UNDECIDED
    assert verdict.reasons[0].code == "SEARCH_EXHAUSTED"


@pytest.mark.parametrize("scale", [1e-8, 0.1])
def test_merge_distance_is_relative_to_the_norm(scale):
    # an absolute merge distance of 1e-7 once read diag(1e-8, 2e-8) as one eigenvalue of
    # multiplicity 2 and named the relation lambda_1 / lambda_2 = 1, which does not hold;
    # at every scale the two stay apart, and two values 1e-9 apart relative to ||A|| merge
    sym = AffineSymbol(scale * np.diag([1.0, 2.0]), np.zeros(2))
    assert [e.value for e in sym.spectrum.eigenvalues] == pytest.approx([2 * scale, scale], rel=1e-15)
    verdict = classify_cyclicity(sym)
    assert verdict.status is CyclicityStatus.UNDECIDED
    assert verdict.reasons[0].code == "SEARCH_EXHAUSTED"
    close = AffineSymbol(scale * np.diag([1.0, 1.0 + 1e-9]), np.zeros(2))
    assert [e.algebraic_mult for e in close.spectrum.eigenvalues] == [2]
    assert classify_cyclicity(close).reasons[0].code == "RELATION_FOUND"


# distinct eigenvalues 1e-4 apart with 0.3 above the diagonal: A - mu I at
# each midpoint has a singular value near 4e-12, far above rounding, so the
# diagonal stays three simple eigenvalues and the verdict rests on the moduli
TRIANGULAR = [[0.5, 0.3, 0.0], [0.0, 0.5001, 0.3], [0.0, 0.0, 0.5002]]


def test_close_eigenvalues_of_a_triangular_matrix_stay_undecided():
    verdict = classify_cyclicity(AffineSymbol(TRIANGULAR, np.zeros(3)))
    assert verdict.status is CyclicityStatus.UNDECIDED
    assert verdict.reasons[0].code == "SEARCH_EXHAUSTED"


@pytest.mark.parametrize("a, moduli", [
    (TRIANGULAR, [Fraction(1, 2), Fraction(5001, 10000), Fraction(2501, 5000)]),
    ([[0.5, 0.3], [0.0, 0.500005]], [Fraction(1, 2), Fraction(100001, 200000)]),
])
def test_close_exact_eigenvalues_of_a_triangular_matrix_are_cyclic(a, moduli):
    exact = tuple(PolarEigenvalue(q, Fraction(0)) for q in moduli)
    verdict = classify_cyclicity(AffineSymbol(a, np.zeros(len(a)), exact=exact))
    assert verdict.status is CyclicityStatus.CYCLIC


def test_two_jordan_blocks_never_cyclic():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = a[1, 1] = 0.5
    a[0, 1] = 0.25
    a[2, 2] = a[3, 3] = 0.3
    a[2, 3] = 0.25
    verdict = classify_cyclicity(AffineSymbol(a, np.zeros(4)))
    assert verdict.status is CyclicityStatus.NOT_CYCLIC
    assert verdict.reasons[0].code == "BAD_JORDAN"


def test_single_two_block_is_acceptable():
    sym = AffineSymbol([[0.5, 0.25], [0.0, 0.5]], [0.0, 0.0])
    verdict = classify_cyclicity(sym)
    assert all(r.code != "BAD_JORDAN" for r in verdict.reasons)


def test_unbounded_symbol_rejected():
    with pytest.raises(InvalidInputError, match="only defined for bounded operators"):
        classify_cyclicity(AffineSymbol([[2.0]], [0.0]))
    # the height is checked first, whatever the symbol
    for a in ([[2.0]], [[0.0]], [[0.5]]):
        with pytest.raises(InvalidInputError, match="height must be >= 1, got 0"):
            classify_cyclicity(AffineSymbol(a, [0.0]), search_height=0)


def test_exact_relation_gives_not_cyclic():
    sym = rational_diagonal([Fraction(1, 2), Fraction(1, 4)])
    verdict = classify_cyclicity(sym)
    assert verdict.status is CyclicityStatus.NOT_CYCLIC
    reason = verdict.reasons[0]
    assert reason.code == "RELATION_FOUND"
    assert tuple(reason.alpha) in ((-2, 1), (2, -1))


def test_exact_independence_gives_cyclic():
    sym = rational_diagonal([Fraction(1, 2), Fraction(1, 3)])
    assert classify_cyclicity(sym).status is CyclicityStatus.CYCLIC


def test_tagged_moduli_give_cyclic():
    sym = tagged_diagonal([0.52, 0.71])
    assert classify_cyclicity(sym).status is CyclicityStatus.CYCLIC


def test_exact_data_must_match_matrix():
    exact = (PolarEigenvalue(Fraction(1, 2), Fraction(1, 3)),)
    sym = AffineSymbol([[0.5]], [0.0], exact=exact)
    with pytest.raises(InvalidInputError):
        classify_cyclicity(sym)


def test_numeric_path_detects_planted_relation():
    sym = AffineSymbol(np.diag([0.5, 0.25]).astype(complex), [0.1, 0.1])
    verdict = classify_cyclicity(sym, search_height=5)
    assert verdict.status is CyclicityStatus.NOT_CYCLIC
    assert verdict.reasons[0].code == "RELATION_FOUND"


def test_numeric_path_without_relation_is_undecided():
    sym = AffineSymbol(np.diag([0.5, 1 / 3]).astype(complex), np.zeros(2))
    verdict = classify_cyclicity(sym, search_height=6)
    assert verdict.status is CyclicityStatus.UNDECIDED
    assert verdict.search_height == 6


def test_cyclic_vector_full_support_passes():
    sym = tagged_diagonal([0.5, 0.3], b=[0.1, -0.2])
    basis = linear_form_basis(sym)
    lcoef = {a: 1.0 + 0.5j for a in multi_indices(2, 2)}
    f = from_L_basis(lcoef, basis)
    report = cyclic_vector_test(sym, f, 2)
    assert report.verdict
    assert report.failing_indices == ()


def test_cyclic_vector_missing_direction_fails():
    sym = tagged_diagonal([0.5, 0.3])
    basis = linear_form_basis(sym)
    lcoef = {a: 1.0 + 0j for a in multi_indices(2, 2)}
    del lcoef[(1, 1)]
    f = from_L_basis(lcoef, basis)
    report = cyclic_vector_test(sym, f, 2)
    assert not report.verdict
    assert (1, 1) in report.failing_indices


def test_cyclic_vector_missing_constant_fails():
    # the constant term sits alone in its degree level, so its absence must
    # be judged against the global coefficient scale
    sym = tagged_diagonal([0.5, 0.3])
    basis = linear_form_basis(sym)
    lcoef = {a: 1.0 + 0j for a in multi_indices(2, 2)}
    del lcoef[(0, 0)]
    f = from_L_basis(lcoef, basis)
    report = cyclic_vector_test(sym, f, 2)
    assert not report.verdict
    assert (0, 0) in report.failing_indices


def test_cyclic_vector_requires_cyclic_operator():
    sym = rational_diagonal([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(InvalidInputError, match="operator is not provably cyclic"):
        cyclic_vector_test(sym, {(0, 0): 1.0 + 0j}, 2)


def test_convex_obstruction_evaluates_at_fixed_point():
    rng = np.random.default_rng(7)
    sym = AffineSymbol([[0.5, 0.1], [0.0, 0.4]], [0.2, -0.3])
    f = {
        (0, 0): 1.2 + 0j,
        (1, 0): -0.7 + 0.2j,
        (0, 1): 0.4 + 0j,
        (1, 1): 0.9 - 0.5j,
    }
    weights = rng.uniform(size=4)
    weights /= weights.sum()
    powers = [0, 2, 5, 9]
    value = convex_obstruction_value(sym, f, weights, powers)
    xi = fixed_point(sym)
    assert abs(value - poly_eval(f, xi)) < 1e-10
