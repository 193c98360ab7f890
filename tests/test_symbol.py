"""Symbol validation, boundedness and compactness, fixed points."""

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError, NoFixedPointError
from fockdyn.symbol import AffineSymbol, check_boundedness, fixed_point


def test_symbol_validates_shapes():
    with pytest.raises(InvalidInputError):
        AffineSymbol([[0.5, 0.0]], [0.0])
    with pytest.raises(InvalidInputError):
        AffineSymbol([[0.5]], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        AffineSymbol([[float("inf")]], [0.0])


def test_symbol_arrays_are_read_only():
    sym = AffineSymbol([[0.5]], [0.1])
    with pytest.raises(ValueError):
        sym.a[0, 0] = 0.9


def test_contraction_is_bounded_and_compact():
    sym = AffineSymbol([[0.5, 0.1], [0.0, 0.3]], [1.0, -2.0])
    rep = check_boundedness(sym)
    assert rep.bounded and rep.compact
    assert rep.operator_norm_of_a < 1
    assert rep.violation_witness is None


def test_expansion_is_unbounded():
    rep = check_boundedness(AffineSymbol([[1.2]], [0.0]))
    assert not rep.bounded and not rep.compact


def test_unitary_with_shift_along_isometric_direction_unbounded():
    # rotation moves every direction isometrically, so any nonzero shift
    # pairs with some isometric image
    theta = 0.3
    a = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    rep = check_boundedness(AffineSymbol(a, [0.5, 0.0]))
    assert not rep.bounded
    assert rep.violation_witness is not None


def test_unitary_without_shift_bounded_not_compact():
    rep = check_boundedness(AffineSymbol([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0]))
    assert rep.bounded and not rep.compact
    assert rep.isometric_subspace_dim == 2


def test_partial_isometry_with_orthogonal_shift_is_bounded():
    # the isometric direction is e1; shifting along a direction orthogonal
    # to its image keeps the operator bounded
    a = np.diag([1.0, 0.5])
    rep = check_boundedness(AffineSymbol(a, [0.0, 0.7]))
    assert rep.bounded and not rep.compact
    rep2 = check_boundedness(AffineSymbol(a, [0.7, 0.0]))
    assert not rep2.bounded


def test_fixed_point_solves_affine_equation():
    sym = AffineSymbol([[0.5, 0.2], [0.0, 0.25]], [0.3, -0.1])
    xi = fixed_point(sym)
    assert np.allclose(sym.a @ xi + sym.b, xi, atol=1e-12)


def test_fixed_point_inconsistent_system_raises():
    with pytest.raises(NoFixedPointError):
        fixed_point(AffineSymbol([[1.0]], [1.0]))


def test_iterates_converge_to_fixed_point():
    sym = AffineSymbol([[0.6, 0.1], [0.0, 0.4]], [0.2, 0.5])
    xi = fixed_point(sym)
    z = np.array([3.0, -2.0], dtype=complex)
    for _ in range(80):
        z = sym.a @ z + sym.b
    assert np.allclose(z, xi, atol=1e-12)
