"""Symbol validation, boundedness and compactness, fixed points."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import fockdyn.spectral
import fockdyn.symbol
from fockdyn.classify import classify_cyclicity
from fockdyn.errors import InvalidInputError, NoFixedPointError
from fockdyn.fockmat.enumeration import approx_numbers
from fockdyn.fockmat.operator import truncated_spectrum
from fockdyn.relations import PolarEigenvalue
from fockdyn.spectral import linear_form_basis
from fockdyn.symbol import AffineSymbol, check_boundedness, fixed_point


def test_symbol_validates_shapes():
    with pytest.raises(InvalidInputError):
        AffineSymbol([[0.5, 0.0]], [0.0])
    with pytest.raises(InvalidInputError):
        AffineSymbol([[0.5]], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        AffineSymbol([[float("inf")]], [0.0])


def test_exact_data_lists_one_eigenvalue_per_dimension():
    # checked where the symbol is made, before any analysis reads the claims
    half = PolarEigenvalue(Fraction(1, 2), Fraction(0))
    with pytest.raises(InvalidInputError, match=r"^exact data lists 2 eigenvalues for dimension 1$"):
        AffineSymbol([[0.5]], [0.0], exact=(half, half))
    assert AffineSymbol([[0.5]], [0.0], exact=(half,)).exact == (half,)


def test_symbol_takes_arrays_in_any_memory_order():
    # a transposed matrix, the Fortran-ordered Schur factor and negative strides once
    # raised a bare ValueError from the finiteness check's float view
    m = np.arange(9.0).reshape(3, 3) / 20
    t = scipy.linalg.schur(m + 0.1j * m.T, output="complex")[0]
    assert t.flags.f_contiguous and not t.flags.c_contiguous
    b = np.array([0.3, 0.2, 0.1])
    for a, shift in ((m.T, b), (t, b), (np.asfortranarray(m), b), (m[::-1, ::-1], b[::-1])):
        sym = AffineSymbol(a, shift)
        assert np.array_equal(sym.a, a) and np.array_equal(sym.b, shift)
    bad = m.copy()
    bad[0, 1] = np.nan
    with pytest.raises(InvalidInputError, match="matrix entries must be finite"):
        AffineSymbol(bad.T, b)
    with pytest.raises(InvalidInputError, match="vector entries must be finite"):
        AffineSymbol(m, np.array([0.1, 0.2, np.inf])[::-1])


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


@pytest.mark.parametrize(
    "a, dim",
    [([[2.0]], 0), ([[1e200]], 0), ([[0.0, 1.0], [1.0, 0.0]], 2), (np.diag([1.0, 0.5]), 1)],
    ids=["expansion", "huge", "swap", "half-isometry"],
)
def test_isometric_subspace_counts_singular_values_at_one(a, dim):
    # expanding directions are not isometric
    assert check_boundedness(AffineSymbol(a, np.zeros(len(a)))).isometric_subspace_dim == dim


def test_partial_isometry_with_orthogonal_shift_is_bounded():
    # the isometric direction is e1; shifting along a direction orthogonal
    # to its image keeps the operator bounded
    a = np.diag([1.0, 0.5])
    rep = check_boundedness(AffineSymbol(a, [0.0, 0.7]))
    assert rep.bounded and not rep.compact
    rep2 = check_boundedness(AffineSymbol(a, [0.7, 0.0]))
    assert not rep2.bounded


@pytest.mark.parametrize("c, bounded", [(0.9e-10, False), (0.6e-10, True)])
def test_boundedness_verdict_is_the_same_in_every_unitary_frame(c, bounded):
    # b's projection on the image of the singular value 1 of diag(1, 1, 0.5) has norm sqrt(2) c,
    # against tol |b| = 1e-10; testing each singular vector on its own read c = 0.9e-10 as
    # bounded in these coordinates and as unbounded in 17 of the 20 frames below
    a, b = np.diag([1.0, 1.0, 0.5]), np.array([c, c, 1.0])
    frames = [np.eye(3)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        frames.append(np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0])
    for u in frames:
        sym = AffineSymbol(u @ a @ u.conj().T, u @ b)
        rep = check_boundedness(sym)
        assert rep.bounded is bounded and rep.isometric_subspace_dim == 2
        if not bounded:
            w = rep.violation_witness
            assert np.linalg.norm(w) == pytest.approx(1.0)
            assert abs(np.vdot(sym.b, sym.a @ w)) == pytest.approx(np.sqrt(2) * c, rel=1e-6)


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


def test_each_analysis_runs_once_per_symbol(monkeypatch):
    names = ("check_boundedness", "fixed_point", "eigen_decompose", "svd", "schur", "eigvals")
    calls = dict.fromkeys(names, 0)

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fockdyn.symbol, "check_boundedness")
    counted(fockdyn.symbol, "fixed_point")
    counted(fockdyn.spectral, "eigen_decompose")
    svd = np.linalg.svd

    def svd_of_a(m, *args, **kwargs):
        # the spectral staircase takes SVDs of other matrices
        calls["svd"] += any(m is s.a for s in (first, second))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_of_a)
    norm = np.linalg.norm

    def norm_of_a(m, *args, **kwargs):
        # a 2-norm of A is an SVD too: the spectrum reads s[0] from the symbol
        calls["svd"] += any(m is s.a for s in (first, second)) and args[:1] == (2,)
        return norm(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm_of_a)
    zgees, eigvals = scipy.linalg.lapack.zgees, np.linalg.eigvals

    def schur(*args, **kwargs):
        calls["schur"] += 1
        return zgees(*args, **kwargs)

    def no_eigvals(m, *args, **kwargs):
        calls["eigvals"] += 1  # the eigenvalues of A are read from its Schur form
        return eigvals(m, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zgees", schur)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    first = AffineSymbol([[0.5, 0.1], [0.0, 0.25]], [0.2, -0.1])
    second = AffineSymbol([[0.9, 0.0], [0.0, -0.5j]], [0.2, -0.1])
    for _ in range(3):
        reports = [(s.boundedness, s.xi, s.spectrum, s.svd) for s in (first, second)]
        # every reader of the singular values and of the Schur form takes them from the symbol
        classify_cyclicity(first, search_height=2)
        linear_form_basis(first)
        approx_numbers(first, 3, oracle="reduced")
        truncated_spectrum(first, 4)
        truncated_spectrum(second, 4)
    assert calls == dict(zip(names, (2, 2, 2, 2, 2, 0)))
    # two symbols share nothing
    (rep1, xi1, spec1, svd1), (rep2, xi2, spec2, svd2) = reports
    assert rep1.operator_norm_of_a != rep2.operator_norm_of_a
    assert not np.array_equal(xi1, xi2) and spec1 != spec2
    assert spec2.eigenvalues[0].value == pytest.approx(0.9)
    # what a symbol keeps is read-only
    assert not xi1.flags.writeable
    assert not any(x.flags.writeable for x in (*svd1, *svd2, *first.schur, *second.schur))
    t, q = first.schur
    assert np.allclose(q @ t @ q.conj().T, first.a) and not np.tril(t, -1).any()
    u, s, vh = svd1
    assert np.allclose(u * s @ vh, first.a) and rep1.operator_norm_of_a == s[0]
    unbounded = AffineSymbol([[1.0]], [0.5])
    assert not unbounded.boundedness.violation_witness.flags.writeable
    # a failure is kept nowhere: it raises again on every use
    no_fixed_point = AffineSymbol([[1.0, 0.0], [0.0, 0.5]], [1.0, 0.0])
    for _ in range(2):
        with pytest.raises(NoFixedPointError):
            no_fixed_point.xi
    assert calls["fixed_point"] == 4
