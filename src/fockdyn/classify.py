"""Cyclicity verdicts, cyclic-vector testing for the compact case, and the
convex-combination obstruction identity.

An operator in this family is cyclic exactly when the linear part is
invertible, its Jordan form is diagonal or has a single block of size
exactly two, and the eigenvalue list (repeated by geometric multiplicity)
admits no nonzero integer power combination equal to one.  The last
condition is number-theoretic: a definite positive answer requires exact
polar eigenvalue data, and purely numerical inputs can at best be
"undecided up to a search height".  Exact claims meet the spectrum once, in
`_placement`, which packs each class of equal entries into one cluster; a
cluster with a Jordan block is one eigenvalue, and one class fills it.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import math
import operator

import numpy as np

from .errors import BudgetError, InvalidInputError
from .fockmat.basis import BASIS_SIZE_BUDGET, multi_indices
from .fockmat.projections import expand_in_L_basis
from .polymap import compose_affine, poly_degree, poly_eval, validate_coeffs
from .relations import RelationStatus, exact_relation_decide, numeric_relation_search
from .spectral import (
    MERGE_DISTANCE,
    LinearFormBasis,
    SpectralData,
    geometric_eigenvalue_list,
    linear_form_basis,
)
from .symbol import AffineSymbol

DEFAULT_SEARCH_HEIGHT = 12
EXACT_MATCH_TOL = 1e-8
# Cap on the cluster rooms that the search packing equal exact entries into clusters writes, one
# tuple of rooms per state it tries, past those of one descent (a tuple per class, so no more
# rooms than A has entries): at most 8 MB of tuples more
CLASS_SEARCH_BUDGET = 1_000_000
UNPACKED = ("exact eigenvalue data mismatches the matrix spectrum (each class of equal entries "
            "needs one cluster, and no choice of clusters holds them all)")


class CyclicityStatus(enum.Enum):
    CYCLIC = "cyclic"
    NOT_CYCLIC = "not_cyclic"
    UNDECIDED = "undecided"


@dataclasses.dataclass(frozen=True)
class Reason:
    code: str  # NOT_INVERTIBLE | BAD_JORDAN | RELATION_FOUND | NO_RELATION | SEARCH_EXHAUSTED
    text: str
    alpha: tuple | None = None


@dataclasses.dataclass(frozen=True)
class CyclicityVerdict:
    status: CyclicityStatus
    reasons: tuple
    search_height: int | None = None

    def __post_init__(self):
        if self.status is CyclicityStatus.NOT_CYCLIC:
            blocking = [r for r in self.reasons if r.code in (
                "NOT_INVERTIBLE", "BAD_JORDAN", "RELATION_FOUND")]
            if len(blocking) != 1:
                raise InvalidInputError(
                    "a negative verdict carries exactly one blocking reason"
                )


def _not_cyclic(code: str, text: str, alpha=None, search_height=None) -> CyclicityVerdict:
    """A negative verdict with its one blocking reason."""
    return CyclicityVerdict(
        CyclicityStatus.NOT_CYCLIC, (Reason(code, text, alpha),), search_height
    )


def _equal_pair_alpha(values, same) -> tuple | None:
    """e_i - e_j, the relation lambda_i / lambda_j = 1, for the first i < j in lexicographic
    order with same(values[i], values[j]); None when there is no such pair."""
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if same(values[i], values[j]):
                return tuple(int(k == i) - int(k == j) for k in range(len(values)))
    return None


def _jordan_acceptable(spec: SpectralData) -> bool:
    """Diagonalizable, or exactly one Jordan block of size exactly two."""
    return [s for info in spec.eigenvalues for s in info.block_sizes if s >= 2] in ([], [2])


def _exact_residuals(e, values) -> list:
    """|e - w| if e is rational, ||e| - |w|| if its modulus is, else 0 (nothing numeric)."""
    if isinstance(e.modulus, str):
        return [0.0] * len(values)
    r = float(e.modulus)
    if isinstance(e.arg, str):
        return [abs(r - abs(w)) for w in values]
    z = complex(r * np.exp(1j * math.pi * float(e.arg)))
    return [abs(z - w) for w in values]


def _placement(exact, spec: SpectralData) -> list:
    """The one match of the exact entries to the clusters of the spectrum: (entry, cluster)
    for each class of equal entries.  A class lies inside one cluster it matches by
    `_exact_residuals`, no cluster holds more entries than its algebraic multiplicity, and a
    cluster with a Jordan block is one eigenvalue, which one class fills.  A depth-first
    search places rational moduli, larger classes and classes that fit fewer clusters first,
    each in the tightest cluster first, drops a (class, rooms left) state it has seen or that
    leaves a room no class still to place fits, and tries one cluster of each kind: clusters
    that the same classes still to place fit, with the same Jordan flag and room left, are
    interchangeable.  Raises InvalidInputError when no packing holds, also when the search
    passes its budget and a maximum matching shows that the entries do not fit the
    eigenvalues even one by one; else BudgetError."""
    infos = spec.eigenvalues
    values = [info.value for info in infos]
    room = [info.algebraic_mult for info in infos]
    jordan = [info.block_sizes[0] > 1 for info in infos]

    def holds(j, k):  # a Jordan cluster takes one class, all of it
        return k == room[j] if jordan[j] else k <= room[j]

    classes = []  # (entry, count, the clusters it fits alone)
    for e, k in collections.Counter(exact).items():
        residual = _exact_residuals(e, values)
        if min(residual) > EXACT_MATCH_TOL:
            raise InvalidInputError(
                f"exact eigenvalue data mismatches the matrix spectrum (the smallest residual "
                f"of exact.eigenvalues[{exact.index(e)}] is {min(residual):.3e})")
        classes.append((e, k, [j for j, r in enumerate(residual)
                               if r <= EXACT_MATCH_TOL and holds(j, k)]))
    classes.sort(key=lambda c: (isinstance(c[0].modulus, str), -c[1], len(c[2])))
    kind = [0] * len(infos)  # bit c set: class c fits the cluster
    for c, (_, _, fit) in enumerate(classes):
        for j in fit:
            kind[j] |= 1 << c

    def tries(i):  # one cluster of each kind that class i fits now, tightest first
        k = classes[i][1]
        kinds = {(kind[j] >> i, jordan[j], room[j]): j for j in classes[i][2] if holds(j, k)}
        return sorted(kinds.values(), key=room.__getitem__)

    if not all(fit for _, _, fit in classes):  # a class that fits no cluster even alone
        raise InvalidInputError(UNPACKED)
    placed, untried, seen, work = [], [iter(tries(0))], set(), -len(classes) * len(room)
    while untried:  # untried[i]: the clusters class i has yet to try, placed[i]: its cluster
        i, j = len(placed), next(untried[-1], None)
        if j is None:  # class i fits nowhere now: take class i - 1 out again
            untried.pop()
            if placed:
                room[placed.pop()] += classes[i - 1][1]
            continue
        if i + 1 == len(classes):
            return [(e, infos[p]) for (e, _, _), p in zip(classes, placed + [j])]
        room[j] -= classes[i][1]
        work += len(room)
        if work > CLASS_SEARCH_BUDGET:  # csgraph is loaded here only, not on every run
            from scipy.sparse import csgraph, csr_matrix
            slots = [np.isin(range(len(infos)), fit) for _, k, fit in classes for _ in range(k)]
            slots = np.repeat(slots, [info.algebraic_mult for info in infos], axis=1)
            if (csgraph.maximum_bipartite_matching(csr_matrix(slots)) < 0).any():
                raise InvalidInputError(UNPACKED)
            raise BudgetError(f"packing the classes of equal exact entries into the clusters "
                              f"of the spectrum writes over {CLASS_SEARCH_BUDGET:.0e} cluster rooms")
        # entries equal rooms, so a room that no class still to place fits is a dead end
        if (i, tuple(room)) in seen or not all(k >> i + 1 or not r for k, r in zip(kind, room)):
            room[j] += classes[i][1]
        else:
            seen.add((i, tuple(room)))
            placed.append(j)
            untried.append(iter(tries(i + 1)))
    raise InvalidInputError(UNPACKED)


def classify_cyclicity(
    sym: AffineSymbol, search_height: int = DEFAULT_SEARCH_HEIGHT
) -> CyclicityVerdict:
    """Full cyclicity decision for the composition operator of the symbol."""
    if search_height < 1:
        raise InvalidInputError(f"height must be >= 1, got {search_height}")
    if not sym.boundedness.bounded:
        raise InvalidInputError("cyclicity is only defined for bounded operators here")
    smallest = float(sym.svd[1][-1])
    if smallest <= sym.tol:
        return _not_cyclic(
            "NOT_INVERTIBLE", f"linear part is singular (smallest singular value {smallest:.3e})"
        )
    spec = sym.spectrum
    if not _jordan_acceptable(spec):
        profile = [
            (np.round(info.value, 6), info.block_sizes) for info in spec.eigenvalues
        ]
        return _not_cyclic(
            "BAD_JORDAN",
            f"Jordan profile {profile} has a block of size >= 3 "
            "or more than one block of size 2",
        )

    if sym.exact is not None:
        return _classify_exact(sym, spec)
    return _classify_numeric(sym, spec, search_height)


def _classify_exact(sym: AffineSymbol, spec: SpectralData) -> CyclicityVerdict:
    exact = list(sym.exact)
    for e, info in _placement(exact, spec):
        if info.block_sizes[0] > 1:  # a size-2 block is one eigenvalue: drop its second entry
            del exact[exact.index(e, exact.index(e) + 1)]
    alpha = _equal_pair_alpha(exact, operator.eq)
    if alpha is not None:
        return _not_cyclic("RELATION_FOUND", "two equal eigenvalues give the power relation "
                           "lambda_i / lambda_j = 1", alpha)
    result = exact_relation_decide(tuple(exact))
    if result.status is RelationStatus.FOUND:
        return _not_cyclic(
            "RELATION_FOUND",
            f"power relation lambda^alpha = 1 with alpha = {result.alpha} "
            f"({result.certificate})",
            result.alpha,
        )
    return CyclicityVerdict(
        CyclicityStatus.CYCLIC,
        (Reason(
            "NO_RELATION",
            f"exact decision: {result.certificate}; linear part invertible "
            "with admissible Jordan structure",
        ),),
    )


def _classify_numeric(
    sym: AffineSymbol, spec: SpectralData, search_height: int
) -> CyclicityVerdict:
    lam = geometric_eigenvalue_list(spec)
    # duplicates at cluster resolution
    near = 2 * MERGE_DISTANCE * float(sym.svd[1][0])
    alpha = _equal_pair_alpha(lam, lambda x, y: abs(x - y) <= near)
    if alpha is not None:
        return _not_cyclic("RELATION_FOUND", "two numerically equal eigenvalues give the power "
                           "relation lambda_i / lambda_j = 1", alpha)
    result = numeric_relation_search(lam, search_height)
    if result.status is RelationStatus.FOUND:
        return _not_cyclic(
            "RELATION_FOUND",
            f"power relation lambda^alpha = 1 with alpha = {result.alpha} "
            f"({result.certificate})",
            result.alpha,
            result.height,
        )
    return CyclicityVerdict(
        CyclicityStatus.UNDECIDED,
        (Reason(
            "SEARCH_EXHAUSTED",
            f"no power relation up to height {search_height}; a definite "
            "cyclic verdict needs exact eigenvalue data",
        ),),
        search_height=search_height,
    )


# ---------------------------------------------------------------------------
# cyclic vectors for compact operators


@dataclasses.dataclass(frozen=True)
class CyclicVectorReport:
    verdict: bool
    failing_indices: tuple
    basis_order_note: str
    degree_checked: int

    def __post_init__(self):
        if not self.verdict and not self.failing_indices:
            raise InvalidInputError("a negative report must carry failing indices")


def _reorder_chain_last(basis: LinearFormBasis) -> tuple:
    """Permute rows so a Jordan chain pair lands in the last two positions.

    Returns (reordered basis, note).  Identity when the basis has no chain row.
    """
    d = basis.rows.shape[0]
    flagged = [i for i, fl in enumerate(basis.chain_flags) if fl]
    if not flagged:
        return basis, "diagonalizable: natural eigenvalue order"
    p = flagged[0]
    others = [i for i in range(d) if i not in (p - 1, p)]
    perm = tuple(others + [p - 1, p])
    newbasis = LinearFormBasis(
        basis.rows[list(perm)],
        tuple(basis.chain_flags[i] for i in perm),
        basis.xi,
        tuple(basis.eigenvalues[i] for i in perm),
    )
    note = (
        f"chain pair moved to the last two positions; row order {perm} "
        "of the natural eigenvalue order"
    )
    return newbasis, note


def cyclic_vector_test(
    sym: AffineSymbol, f_coeffs, degree: int
) -> CyclicVectorReport:
    """Partial cyclic-vector check through the coefficient criterion.

    Expands f over monomials in the adapted degree-one forms and requires
    every coefficient up to the stated total degree to be nonzero -- except,
    when a Jordan chain is present, those whose index touches the chain's
    eigenvector slot (second-to-last position after reordering).  A finite
    degree can only ever refute or partially support cyclicity of f; the
    report records the degree actually checked.
    """
    if degree < 0:
        raise InvalidInputError(f"degree must be nonnegative, got {degree}")
    d = sym.dimension
    size = math.comb(degree + d, d)
    if size > BASIS_SIZE_BUDGET:
        raise BudgetError(
            f"degree {degree} checks {size} coefficients, over the basis budget {BASIS_SIZE_BUDGET}"
        )
    if not sym.boundedness.compact:
        raise InvalidInputError("cyclic vector testing covers compact operators only")
    if sym.exact is None:  # without exact data the verdict is never cyclic
        raise InvalidInputError(
            "operator is not provably cyclic without exact eigenvalue data; "
            "cyclic vectors exist only for cyclic operators"
        )
    verdict = classify_cyclicity(sym)
    if verdict.status is not CyclicityStatus.CYCLIC:
        raise InvalidInputError(
            f"operator is not provably cyclic (status {verdict.status.value}); "
            "cyclic vectors exist only for cyclic operators"
        )
    validate_coeffs(f_coeffs, d)
    if poly_degree(f_coeffs) > degree:
        raise InvalidInputError(
            f"function degree {poly_degree(f_coeffs)} exceeds stated degree {degree}"
        )
    basis = linear_form_basis(sym)
    basis, note = _reorder_chain_last(basis)
    has_chain = any(basis.chain_flags)
    g = expand_in_L_basis(f_coeffs, basis)
    tol = sym.tol
    mags = {alpha: abs(g.get(alpha, 0.0)) for alpha in multi_indices(d, degree)}
    level_max = {}
    for alpha, mag in mags.items():
        level_max[sum(alpha)] = max(level_max.get(sum(alpha), 0.0), mag)
    global_max = max(mags.values())
    failing = []
    for alpha, mag in mags.items():
        if has_chain and alpha[d - 2] != 0:
            continue  # criterion exempts indices touching the chain eigenvector
        # a level that is numerically zero relative to the whole expansion
        # cannot serve as its own reference scale
        scale = level_max[sum(alpha)]
        if scale <= tol * global_max:
            scale = global_max
        if mag <= tol * scale:
            failing.append(alpha)
    return CyclicVectorReport(
        verdict=not failing,
        failing_indices=tuple(failing),
        basis_order_note=note,
        degree_checked=degree,
    )


# ---------------------------------------------------------------------------
# convex-combination obstruction


def convex_obstruction_value(sym: AffineSymbol, f_coeffs, weights, powers) -> complex:
    """Value at the fixed point of a convex combination of orbit elements.

    Computes sum_k w_k (C^{p_k} f)(xi) through explicit iterated
    composition; the constant-term projection argument forces this to equal
    f(xi) for every valid convex combination.
    """
    weights = [float(w) for w in weights]
    powers = [int(p) for p in powers]
    if len(weights) != len(powers):
        raise InvalidInputError("weights and powers must have equal length")
    if any(w < 0 for w in weights):
        raise InvalidInputError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise InvalidInputError(f"weights sum to {sum(weights)!r}, not 1")
    if any(p < 0 for p in powers):
        raise InvalidInputError("powers must be nonnegative")
    d = sym.dimension
    validate_coeffs(f_coeffs, d)
    xi = sym.xi
    by_power = {}
    g = dict(f_coeffs)
    top = max(powers, default=0)
    for p in range(top + 1):
        if p in powers:
            by_power[p] = poly_eval(g, xi)
        if p < top:
            g = compose_affine(g, sym.a, sym.b)
    return complex(sum(w * by_power[p] for w, p in zip(weights, powers)))
