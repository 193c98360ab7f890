"""Cyclicity classification, cyclic-vector tests, convex obstructions."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fockdyn.classify import (
    CyclicityStatus,
    _placement,
    classify_cyclicity,
    convex_obstruction_value,
    cyclic_vector_test,
)
from fockdyn.errors import InvalidInputError
from fockdyn.fockmat.basis import multi_indices
from fockdyn.fockmat.experiments import orbit_krylov_rank
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


def test_equal_claims_are_packed_one_choice_at_a_time():
    # 300 claims of modulus 1/2 fit any of 300 simple clusters of that modulus, and a tagged pair
    # the double one: a search that stacked every choice at once would pass its budget here
    clusters = [SimpleNamespace(value=0.5 * np.exp(1j * np.pi * (j + 0.5) / 301), algebraic_mult=1,
                                block_sizes=(1,)) for j in range(301)]
    clusters[-1].algebraic_mult, clusters[-1].block_sizes = 2, (1, 1)
    exact = [PolarEigenvalue(Fraction(1, 2), f"t{j}") for j in range(300)]
    exact += [PolarEigenvalue("r", "t")] * 2
    assert _placement(tuple(exact), SimpleNamespace(eigenvalues=clusters))
    # a tagged triple fits no cluster even alone, which is seen before any choice is made
    with pytest.raises(InvalidInputError, match="no choice of clusters holds them all"):
        _placement(tuple(exact[1:] + exact[-1:]), SimpleNamespace(eigenvalues=clusters))


def clusters_at(moduli_args_mults):
    return [SimpleNamespace(value=r * np.exp(1j * np.pi * t), algebraic_mult=m, block_sizes=(1,) * m)
            for r, t, m in moduli_args_mults]


HALF_AT = [PolarEigenvalue(Fraction(1, 2), Fraction(j, 20)) for j in range(1, 15)]
HALF_GENERIC = [PolarEigenvalue(Fraction(1, 2), f"g{m}") for m in range(15)]
DOUBLES_AND_TWO_03 = clusters_at([(0.5, j / 20, 2) for j in range(1, 15)]
                                 + [(0.3, 0, 1), (0.3, 1 / 3, 1)])


@pytest.mark.parametrize("clusters, exact", [
    # no claim fits 0.3, so the first choice is a dead end; without that the pairs alone take
    # the search past its budget (each odd cluster wants a single)
    (clusters_at([(0.5, (j + 0.5) / 10, j + 1) for j in range(10)] + [(0.3, 0, 1)]),
     [PolarEigenvalue(Fraction(1, 2), f"p{c // 2}") for c in range(54)] + HALF_GENERIC[:2]),
    # 29 claims of modulus 1/2 on 28 eigenvalues of that modulus; each claim at its own argument
    # fits one double, and the tagged single the rest.  Once those 14 are placed, the doubles are
    # alike: a kind that kept their bits would try every subset of them
    (DOUBLES_AND_TWO_03, HALF_AT + HALF_GENERIC + [PolarEigenvalue("r", "t")]),
    # the same listed generic first: the claims that fit one double are placed first
    (DOUBLES_AND_TWO_03, HALF_GENERIC + HALF_AT + [PolarEigenvalue("r", "t")]),
])
def test_unpackable_claims_are_refused_by_the_search_alone(monkeypatch, clusters, exact):
    # past its budget the search asks a matching whether the entries fit at all; these inputs
    # must be refused before that
    monkeypatch.delattr("scipy.sparse.csgraph.maximum_bipartite_matching")
    with pytest.raises(InvalidInputError, match="no choice of clusters holds them all"):
        _placement(tuple(exact), SimpleNamespace(eigenvalues=clusters))


def test_one_descent_is_not_charged_to_the_search_budget():
    # 1001 tagged entries on 1001 simple clusters: placing each once writes 1001 tuples of 1001
    # rooms, past the budget, but no more rooms than A has entries
    clusters = [SimpleNamespace(value=0.5 * np.exp(1j * np.pi * (j + 0.5) / 1001), algebraic_mult=1,
                                block_sizes=(1,)) for j in range(1001)]
    exact = tuple(PolarEigenvalue(f"r{j}", f"t{j}") for j in range(1001))
    assert len(_placement(exact, SimpleNamespace(eigenvalues=clusters))) == 1001


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


def test_cyclic_vector_criterion_on_a_jordan_pair():
    # natural rows: the chain's eigenvector and top at 0.5, then 0.3; the criterion reads
    # them in the order (0.3, eigenvector, top) and exempts indices on the eigenvector
    half = PolarEigenvalue(Fraction(1, 2), Fraction(0))
    sym = AffineSymbol([[0.5, 0.25, 0], [0, 0.5, 0], [0, 0, 0.3]], [0.1, 0.2, 0],
                       exact=(half, half, PolarEigenvalue("r", Fraction(0))))
    assert classify_cyclicity(sym).status is CyclicityStatus.CYCLIC
    basis = linear_form_basis(sym)
    assert basis.chain_flags == (False, True, False)

    def report_without(index, degree):
        lcoef = {a: 1.0 + 0j for a in multi_indices(3, degree) if a != index}
        f = from_L_basis(lcoef, basis)
        return cyclic_vector_test(sym, f, degree), f

    report, f = report_without((1, 0, 0), 1)  # the chain eigenvector's coefficient
    assert report.verdict and report.failing_indices == ()
    assert report.basis_order_note == (
        "chain pair moved to the last two positions; row order (2, 0, 1) of the natural "
        "eigenvalue order")
    assert orbit_krylov_rank(sym, f, degree=1, steps=6) == 4  # C L_top = 0.5 L_top + L_eig
    report, f = report_without((0, 0, 0), 1)
    assert not report.verdict and report.failing_indices == ((0, 0, 0),)
    assert orbit_krylov_rank(sym, f, degree=1, steps=6) == 3  # no constant: C keeps L-span
    report, _ = report_without((0, 1, 1), 2)
    assert not report.verdict and report.failing_indices == ((1, 0, 1),)


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
