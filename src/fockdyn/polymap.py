"""Coefficient maps, and the one kernel that substitutes Az + b.

A polynomial in d complex variables is stored as a dict mapping exponent
tuples (length d, nonnegative ints) to complex coefficients.  The zero
polynomial is the empty dict.  These maps are what io reads and writes and
what the projection, cyclic-vector and experiment code passes around.

f o phi for phi(z) = Az + b is computed here once, by _compose_grid: an LU
sweep of single-variable substitutions on a dense coefficient box, with a
trailing axis over a batch of maps; z_i -> c z_i + e is one binomial-table
product, a form in other variables too a Horner sweep.  compose_batches runs
it on clusters of terms that share a small box, for compose_affine (one map)
and the quadrature projection (one map per node).  The only other builder of
f o phi is fockmat.operator._degree_columns, which makes the dense truncated
matrix, or its diagonal blocks, a degree at a time in orthonormal coordinates
(fockmat.enumeration._line_factor is its d = 1 case).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .errors import BudgetError, InvalidInputError

CoeffMap = dict

# Cap on the bytes one dense kernel holds at once, its live copies counted;
# it leaves room on an 8 GiB host for the LAPACK call that follows.
DENSE_BYTES_BUDGET = 2 * 2**30

# complex tensors alive at the peak of _compose_grid: the caller's grid, the stage input, and
# a Horner accumulator, next value and shifted product or a flat input, product and table
_GRID_COPIES = 5

# live bytes of a chunk of the batch: wider ones save no call overhead, leave the cache
_BATCH_BYTES = 2**20

# terms share a box of up to this many times the entries of their own boxes,
# or of up to _SMALL_BOX entries, below which the kernel's cost is overhead
_CLUSTER_SLACK = 2
_SMALL_BOX = 4096


def validate_coeffs(f: CoeffMap, d: int) -> None:
    """Check that every key is d nonnegative integer exponents."""
    dims = {len(a) for a in f}
    if dims - {d}:
        raise InvalidInputError(f"mixed exponent lengths {sorted(dims)}; expected {d}")
    exps = [k for a in f for k in a]  # each type is checked once; 1 and 1.0 stay two entries
    if all(issubclass(k, (int, np.integer)) for k in set(map(type, exps))):
        if min(exps, default=0) >= 0:
            return  # else name the first bad key
    for a in f:
        if any((not isinstance(k, (int, np.integer))) or k < 0 for k in a):
            raise InvalidInputError(f"exponents must be nonnegative integers, got {a}")


def poly_degree(f: CoeffMap) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(a) for a in f), default=-1)


def poly_add(*fs: CoeffMap) -> CoeffMap:
    out: CoeffMap = {}
    for f in fs:
        for a, c in f.items():
            out[a] = out.get(a, 0j) + c
    return out


def poly_mul(f: CoeffMap, g: CoeffMap) -> CoeffMap:
    """Product of two coefficient maps; unused here, perfbench traces it by name."""
    out: CoeffMap = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def poly_clean(f: CoeffMap, tol: float = 0.0) -> CoeffMap:
    """Drop coefficients of modulus <= tol (exact zeros by default)."""
    return {a: c for a, c in f.items() if abs(c) > tol}


def poly_eval(f: CoeffMap, point) -> complex:
    z = np.asarray(point, dtype=complex)
    total = 0j
    for a, c in f.items():
        term = complex(c)
        for zj, k in zip(z, a):
            if k:
                term *= zj ** k
        total += term
    return total


def max_coeff_diff(f: CoeffMap, g: CoeffMap) -> float:
    """Largest coefficient-wise difference; 0.0 between zero polynomials."""
    return max((abs(f.get(a, 0j) - g.get(a, 0j)) for a in set(f) | set(g)), default=0.0)


# ---------------------------------------------------------------------------
# the substitution kernel on dense coefficient boxes


def check_dense_bytes(nbytes: int, what: str) -> None:
    """Raise BudgetError before a dense kernel allocates over the budget."""
    if nbytes > DENSE_BYTES_BUDGET:
        raise BudgetError(
            f"{what} needs {math.ceil(100 * nbytes / 2**30) / 100:.2f} GiB, over the "
            f"{DENSE_BYTES_BUDGET / 2**30:.0f} GiB dense budget"
        )


def dense_grid(shape: tuple) -> np.ndarray:
    """A zero coefficient tensor, once the kernel's copies of it fit the budget."""
    nbytes = 16 * _GRID_COPIES * math.prod(shape)
    if nbytes > DENSE_BYTES_BUDGET:
        check_dense_bytes(nbytes, f"a {'x'.join(map(str, shape))} coefficient grid")
    return np.zeros(shape, dtype=complex)


def affine_stages(a: np.ndarray, b: np.ndarray) -> tuple:
    """Split z -> Az + b into single-variable substitutions.

    Factor A = P L U; then f(Az+b) = ((f o P) o (L . + P^T b)) o (U .),
    and each triangular stage is a chain of single-variable substitutions
    (ascending rows for L, descending for U) that matches the simultaneous
    substitution because already-replaced variables never reappear in a
    later row's affine form; an upper-triangular A is U, with b in its rows.
    Returns the axis permutation for P and the rows (axis, [(k, c_k) per
    nonzero c_k], const); rows z_i -> z_i are left out.
    """
    d = a.shape[0]
    if np.tril(a, -1).any():
        p, low, up = scipy.linalg.lu(a, p_indices=True)  # A = P L U, P[r, p[r]] = 1
        # g(w) = f(Pw): exponent of w_j in g comes from the slot i with P[i,j]=1
        perm = np.argsort(p)
        rows = [(i, low[i], c) for i, c in enumerate(b[perm].tolist())]
        rows += [(i, up[i], 0) for i in range(d - 1, -1, -1)]
    else:  # an upper-triangular A is its own U, and b joins its rows
        perm, rows = np.arange(d), [(i, a[i], b[i].item()) for i in range(d - 1, -1, -1)]
    stages = []
    for i, coeffs, const in rows:
        terms = [(k, c) for k, c in enumerate(coeffs.tolist()) if c != 0]
        if const != 0 or terms != [(i, 1)]:
            stages.append((i, terms, const))
    return tuple(perm.tolist()), stages


@functools.lru_cache(maxsize=16)
def _binomials(size: int) -> tuple:
    """C(m, j) at [j, m], rounded once from the exact integer, and m - j there (0 for j > m)."""
    gap = np.maximum(np.arange(size) - np.arange(size)[:, None], 0)
    return np.array([[math.comb(m, j) for m in range(size)] for j in range(size)], dtype=float), gap


def _substitute_axis(t: np.ndarray, axis: int, terms: list, const, n: int) -> np.ndarray:
    """Replace variable `axis` by the affine form sum_k c_k z_k + const.

    Each c_k and const is a scalar or an array over t's trailing batch axis.
    A form c z_axis + e (both scalars or both arrays) is one product along the
    axis with M[j, m] = C(m, j) c^j e^(m-j) if M has at most t's entries and
    no factor reaches 2^1000.  Other stages, extents 2 and 3 too (where one or
    two passes cost less than a table), are Horner sweeps, a whole-box pass per
    degree in z_axis, that grow the box along each other axis of the form by
    that degree, capped at the total degree n: no shift pushes a nonzero
    coefficient off the box, so the result is exact.
    """
    size = t.shape[axis]
    if size == 1:  # f does not hold the variable
        return t
    if size > 3 and [k for k, _ in terms] == [axis]:
        ce = np.array((terms[0][1], const))
        top = 2 ** (499 / (size - 1) - 0.5)  # C(m, j) max(1, |c|, |e|)^(2m) < 2^1000 below it
        if ce.size * size * size <= 2 * t.size and max(1.0, np.abs(ce).max()) < top:
            comb, gap = _binomials(size)
            pc, pe = np.power.outer(ce, gap[0])
            table = comb * pc[..., None] * pe.take(gap, axis=-1)
            # batch and axis to the front, one product, and back
            moved = t.transpose((-1, axis, *range(axis), *range(axis + 1, t.ndim - 1)))
            out = (table @ moved.reshape(moved.shape[:2] + (-1,))).reshape(moved.shape)
            return out.transpose((*range(2, axis + 2), 1, *range(axis + 2, t.ndim), 0))
    shape = list(t.shape)
    for k, _ in terms:
        if k != axis:
            shape[k] = min(n + 1, shape[k] + size - 1)
    whole, up, down = (slice(None),) * t.ndim, slice(1, None), slice(0, -1)
    shifts = [
        (whole[:k] + (up,) + whole[k + 1 :], whole[:k] + (down,) + whole[k + 1 :], c)
        for k, c in terms
    ]
    inner = tuple(slice(s) for s in t.shape)
    lead = inner[:axis] + (0,) + inner[axis + 1 :]
    res = dense_grid(tuple(shape))
    res[lead] = t[whole[:axis] + (-1,)]
    for m in range(size - 2, -1, -1):
        nxt = const * res
        for dst, src, c in shifts:
            nxt[dst] += c * res[src]
        res = nxt
        res[lead] += t[whole[:axis] + (m,)]
    return res


def _compose_grid(t: np.ndarray, stages: tuple, n: int) -> np.ndarray:
    """Coefficient tensor of f(Az + b) from the tensor t of f.

    stages is affine_stages(A, b) or its batch form; n bounds f's degree.
    """
    perm, rows = stages
    t = np.transpose(t, axes=(*perm, len(perm)))
    for axis, terms, const in rows:
        t = _substitute_axis(t, axis, terms, const, n)
    return t


def _clusters(keys) -> list:
    """Group exponent tuples so that each group's joint box stays small.

    The kernel's cost follows its box, so a full polynomial makes one group
    and far-apart sparse terms such as z_1^200 + z_2^200 get one each.  Keys
    that meet a group's bound on its joint box together are one group at once.
    """
    keys = list(keys)
    boxes = np.array(keys, dtype=float) + 1.0  # float: a product cannot wrap
    own = boxes.prod(axis=1)
    if boxes.max(axis=0).prod() <= max(_SMALL_BOX, _CLUSTER_SLACK * own.sum()):
        return [keys]
    groups = []  # [joint top exponents, summed own box sizes, keys]
    for key, size in sorted(zip(keys, own.tolist()), key=lambda pair: -pair[1]):
        for g in groups:
            top = tuple(map(max, g[0], key))
            if math.prod(k + 1 for k in top) <= max(_SMALL_BOX, _CLUSTER_SLACK * (g[1] + size)):
                g[0], g[1] = top, g[1] + size
                g[2].append(key)
                break
        else:
            groups.append([key, size, [key]])
    return [g[2] for g in groups]


def compose_batches(f: CoeffMap, stages, batch: int):
    """Yield (chunk, exponents, coefficients) for slices of a batch of maps:
    column j holds f o phi_(chunk.start + j), clusters summed and zeros kept,
    from the stages of those maps that stages(chunk) gives.  The kernel's copies
    of a chunk's boxes, which maps with a diagonal A keep, fit both byte caps."""
    if not f:
        return
    clusters = []
    for keys in _clusters(f):
        exps = np.array(keys)
        grid = dense_grid(tuple(exps.max(axis=0) + 1) + (1,))
        grid[tuple(exps.T) + (0,)] = [f[k] for k in keys]
        clusters.append((grid, int(exps.sum(axis=1).max())))
    node_bytes = 16 * _GRID_COPIES * sum(grid.size for grid, _ in clusters)
    width = max(1, min(batch, min(DENSE_BYTES_BUDGET, _BATCH_BYTES) // node_bytes))
    for lo in range(0, batch, width):
        chunk = slice(lo, min(batch, lo + width))
        rows, keys, vals = stages(chunk), [], []
        for grid, degree in clusters:
            grid = np.broadcast_to(grid, grid.shape[:-1] + (chunk.stop - lo,))
            out = _compose_grid(grid, rows, degree)
            index = np.nonzero(out.any(axis=-1))
            keys += zip(*(i.tolist() for i in index))
            vals.append(out[index])
        vals = np.concatenate(vals)
        if len(clusters) > 1:  # low-degree terms that several clusters reach
            slots = {}
            at = [slots.setdefault(k, len(slots)) for k in keys]
            keys, parts, vals = list(slots), vals, np.zeros((len(slots), vals.shape[1]), complex)
            np.add.at(vals, at, parts)  # in cluster order, as poly_add sums
        yield chunk, keys, vals


def compose_affine(f: CoeffMap, a, b) -> CoeffMap:
    """Coefficients of f(Az + b): substitute z_i -> sum_k A[i,k] z_k + b_i.

    Exact on polynomials; the total degree never increases.  Coefficients
    that come out exactly zero are left out.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise InvalidInputError(f"affine data shapes {a.shape}, {b.shape}")
    if not f:
        return {}
    validate_coeffs(f, a.shape[0])
    stages = affine_stages(a, b)
    ((_, keys, vals),) = compose_batches(f, lambda chunk: stages, 1)
    return {k: v for k, v in zip(keys, vals[:, 0].tolist()) if v != 0}
