"""Multiplicative relation detection, exact and numeric."""

from fractions import Fraction

import numpy as np
import pytest

from fockdyn.errors import BudgetError, InvalidInputError, NumericalFailureError
from fockdyn.relations import (
    ExactPolarSpec,
    PolarEigenvalue,
    RelationStatus,
    _verify_certificate,
    exact_relation_decide,
    numeric_relation_search,
)


def rational_polar(num, den, arg_num=0, arg_den=1):
    return PolarEigenvalue(
        Fraction(num, den), None, Fraction(arg_num, arg_den), None
    )


def test_half_third_has_no_relation():
    spec = ExactPolarSpec((rational_polar(1, 2), rational_polar(1, 3)))
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.PROVEN_NONE


def test_half_quarter_relation_found():
    spec = ExactPolarSpec((rational_polar(1, 2), rational_polar(1, 4)))
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.FOUND
    assert result.alpha in ((-2, 1), (2, -1))


def test_wrong_certificate_raises():
    spec = ExactPolarSpec((rational_polar(1, 2), rational_polar(1, 4)))
    _verify_certificate(spec, (-2, 1))
    with pytest.raises(NumericalFailureError):
        _verify_certificate(spec, (1, 1))


def test_root_of_unity_is_a_relation():
    spec = ExactPolarSpec(
        (PolarEigenvalue(Fraction(1), None, Fraction(2, 7), None),)
    )
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.FOUND
    assert result.alpha is not None and result.alpha[0] % 7 == 0


def test_independent_log_tags_proven_none():
    spec = ExactPolarSpec(
        (
            PolarEigenvalue(None, "r1", Fraction(0), None),
            PolarEigenvalue(None, "r2", Fraction(0), None),
        )
    )
    assert exact_relation_decide(spec).status is RelationStatus.PROVEN_NONE


def test_matching_log_tags_cancel():
    # equal tags with opposite exponents give modulus one; phases must
    # still close, which they do at arguments zero
    spec = ExactPolarSpec(
        (
            PolarEigenvalue(None, "r1", Fraction(0), None),
            PolarEigenvalue(None, "r1", Fraction(0), None),
        )
    )
    result = exact_relation_decide(spec)
    assert result.status is RelationStatus.FOUND


def test_generic_phase_tag_blocks_relation():
    # moduli admit 2^-2 * 4 = 1 but the transcendence-tagged phase on the
    # second eigenvalue cannot participate in any rational phase identity
    spec = ExactPolarSpec(
        (
            rational_polar(1, 2),
            PolarEigenvalue(Fraction(1, 4), None, None, "t1"),
        )
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


def test_polar_eigenvalue_validates_slots():
    with pytest.raises(InvalidInputError):
        PolarEigenvalue(Fraction(1, 2), "r1", Fraction(0), None)
    with pytest.raises(InvalidInputError):
        PolarEigenvalue(Fraction(1, 2), None, None, None)
    with pytest.raises(InvalidInputError):
        PolarEigenvalue(None, "r1", Fraction(0), "t1")
    with pytest.raises(InvalidInputError):
        PolarEigenvalue(Fraction(-1, 2), None, Fraction(0), None)
