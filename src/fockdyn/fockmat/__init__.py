"""Computational core: graded Fock basis, exact truncated matrices,
projections, lattice-power enumeration, closed-form approximation
numbers with SVD cross-checks, orbit experiments, and combinatorial tools.
"""

from .basis import (
    GradedBasis,
    graded_basis,
    monomial_norm,
    monomial_norm_sq_int,
    multi_indices,
)
from .combinatorics import dickson_partition, unimodular_nodes
from .enumeration import (
    ApproxReport,
    approx_numbers,
    auto_oracle_degree,
    enumerate_lambda_desc,
    reduced_oracle_singular_values,
    singular_data,
)
from .experiments import (
    adjoint_pairing_check,
    chain_stability_threshold,
    jordan_coefficient_bound_check,
    kronecker_density_demo,
    orbit_krylov_rank,
)
from .operator import (
    GridCompositionOperator,
    TruncatedOperator,
    assemble_truncated,
    top_singular_values,
    truncated_singular_values,
    truncated_spectrum,
)
from .projections import (
    expand_in_L_basis,
    from_L_basis,
    project_homogeneous,
)
