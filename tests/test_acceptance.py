"""Acceptance gate: every closed-form guarantee replayed against oracles.

Each test runs one criterion of the self-verification suite at seed 0 and
prints a single PASS/FAIL line with the measured deltas.  The same checks
back the `fockdyn suite` command.
"""

from fockdyn.suite import run_criterion


def check(slug, max_seconds=None):
    result = run_criterion(slug, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {slug} ({result.elapsed:.2f}s): {result.detail}")
    assert type(result.passed) is bool, f"{slug}: passed is {type(result.passed)}"
    assert result.passed, f"{slug}: {result.detail}"
    if max_seconds is not None:
        assert result.elapsed <= max_seconds, (
            f"{slug} took {result.elapsed:.1f}s, budget {max_seconds}s"
        )


def test_approximation_numbers_match_svd_oracle():
    check("approx-formula", max_seconds=60.0)


def test_approximation_number_sums_bound_the_tail():
    check("approx-sum")


def test_truncation_spectra_match_eigenvalue_powers():
    check("spectrum-oracle")


def test_cyclicity_classifier_on_landmark_cases():
    check("classifier-examples")


def test_projected_orbit_ranks_detect_jordan_defects():
    check("orbit-rank")


def test_coefficient_criterion_agrees_with_krylov_oracle():
    check("cyclic-vectors")


def test_homogeneous_projection_identities():
    check("projections")


def test_adjoint_pairing_identity():
    check("adjoint-pairing")


def test_relation_engine_finds_planted_relations():
    check("relation-engine")


def test_convex_combinations_pin_the_fixed_point():
    check("convex-obstruction")


def test_partitions_nodes_and_chain_bounds():
    check("combinatorics")
