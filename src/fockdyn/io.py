"""JSON schemas for symbols, exact eigenvalue data, coefficient maps, and
report emission.  Loaders raise InvalidInputError on malformed documents so
batch callers can map them to a uniform exit status.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat

import numpy as np

from .classify import CyclicityVerdict
from .errors import InvalidInputError
from .fockmat.enumeration import ApproxReport
from .relations import FRACTION_BITS, PolarEigenvalue
from .symbol import AffineSymbol, BoundednessReport


def load_real(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidInputError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # a JSON integer past 1.8e308
        raise InvalidInputError(
            f"{what} is an integer of {x.bit_length()} bits, beyond the float range") from None


def load_complex(x, what: str) -> complex:
    """Accept {"re": a, "im": b} or a bare real number."""
    if isinstance(x, dict):
        extra = set(x) - {"re", "im"}
        if extra:
            raise InvalidInputError(f"unexpected keys {sorted(extra)} in {what}")
        return complex(
            load_real(x.get("re", 0.0), f"{what}.re"),
            load_real(x.get("im", 0.0), f"{what}.im"),
        )
    return complex(load_real(x, what))


class Rows:
    """Records that share their fields, held as columns.  A float field is
    one column of plain floats; a tuple field is given as its slot columns
    of plain ints, record i holding (slot_0[i], slot_1[i], ...).  fields
    are kept sorted, widths holds their slot counts (None for a float
    field), and columns the leaf columns flat in that order, all of one
    length.  Anything else, a numpy scalar included, raises TypeError: the
    report writers of fockdyn.cli print a Rows as the list of its records
    from one format template, in which '%r' of a numpy float would print
    its repr.  Iterating gives the records as dicts."""

    __slots__ = ("fields", "widths", "columns")

    def __init__(self, fields, columns):
        fields, columns = tuple(fields), tuple(columns)
        if (
            not fields
            or len(fields) != len(columns)
            or len(set(fields)) != len(fields)
            or set(map(type, fields)) != {str}
        ):
            raise ValueError("Rows need distinct str fields, one column each")
        self.fields, columns = zip(*sorted(zip(fields, columns)))
        widths, self.columns = [], []
        for name, column in zip(self.fields, columns):
            kinds = set(map(type, column))
            if kinds <= {float}:
                widths.append(None)
                self.columns.append(column)
            elif kinds <= {tuple, list} and all(set(map(type, slot)) <= {int} for slot in column):
                widths.append(len(column))
                self.columns.extend(column)
            else:
                raise TypeError(
                    f"column {name!r} is neither plain floats nor slot columns of plain ints"
                )
        if len(set(map(len, self.columns))) != 1:
            raise ValueError("Rows columns differ in length")
        self.widths = tuple(widths)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        for leaves in zip(*self.columns):
            leaves = iter(leaves)
            yield {
                name: next(leaves) if width is None else tuple(islice(leaves, width))
                for name, width in zip(self.fields, self.widths)
            }


def dump_complex(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _load_fraction(x, what: str) -> Fraction:
    if not isinstance(x, dict) or set(x) - {"num", "den"}:
        raise InvalidInputError(f"{what} must be {{'num': p, 'den': q}}")
    num, den = x.get("num"), x.get("den", 1)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (num, den)):
        raise InvalidInputError(f"{what} numerator/denominator must be integers")
    if den == 0:
        raise InvalidInputError(f"{what} has zero denominator")
    if max(abs(num), abs(den)).bit_length() > FRACTION_BITS:
        raise InvalidInputError(f"{what} numerator/denominator exceed {FRACTION_BITS} bits")
    return Fraction(num, den)


def _load_tag(x, what: str) -> str:
    if not isinstance(x, str):
        raise InvalidInputError(f"{what} must be a string tag, got {x!r}")
    return x


def load_exact_spec(doc) -> tuple:
    """Parse {"eigenvalues": [...]} into a tuple of PolarEigenvalue."""
    if not isinstance(doc, dict) or not isinstance(doc.get("eigenvalues"), list):
        raise InvalidInputError('exact data must be {"eigenvalues": [...]}')
    eigs = []
    for i, e in enumerate(doc["eigenvalues"]):
        what = f"exact.eigenvalues[{i}]"
        if not isinstance(e, dict):
            raise InvalidInputError(f"{what} must be an object")
        mod = e.get("modulus")
        if isinstance(mod, dict) and "log_generic" in mod:
            modulus = _load_tag(mod["log_generic"], f"{what}.modulus.log_generic")
        else:
            modulus = _load_fraction(mod, f"{what}.modulus")
        arg = e.get("arg")
        if not isinstance(arg, dict):
            raise InvalidInputError(f"{what}.arg must be an object")
        if "pi_rational" in arg:
            arg = _load_fraction(arg["pi_rational"], f"{what}.arg.pi_rational")
        elif "generic" in arg:
            arg = _load_tag(arg["generic"], f"{what}.arg.generic")
        else:
            raise InvalidInputError(
                f"{what}.arg must carry 'pi_rational' or 'generic'"
            )
        eigs.append(PolarEigenvalue(modulus, arg))
    return tuple(eigs)


def _load_matrix(doc, d: int, what: str) -> np.ndarray:
    if (
        not isinstance(doc, list)
        or len(doc) != d
        or any(not isinstance(row, list) or len(row) != d for row in doc)
    ):
        raise InvalidInputError(f"{what} must be a row-major {d}x{d} array")
    out = np.empty((d, d), dtype=complex)
    for i, row in enumerate(doc):
        for j, entry in enumerate(row):
            out[i, j] = load_complex(entry, f"{what}[{i}][{j}]")
    return out


def _load_vector(doc, d: int, what: str) -> np.ndarray:
    if not isinstance(doc, list) or len(doc) != d:
        raise InvalidInputError(f"{what} must be an array of length {d}")
    return np.array(
        [load_complex(x, f"{what}[{i}]") for i, x in enumerate(doc)], dtype=complex
    )


def load_symbol(doc) -> AffineSymbol:
    """Parse {"dimension": d, "A": ..., "b": ..., "tol"?, "exact"?}."""
    if not isinstance(doc, dict):
        raise InvalidInputError("symbol document must be an object")
    d = doc.get("dimension")
    if isinstance(d, bool) or not isinstance(d, int):
        raise InvalidInputError('symbol document needs an integer "dimension"')
    if d < 1:
        raise InvalidInputError(f"dimension must be positive, got {d}")
    if "A" not in doc or "b" not in doc:
        raise InvalidInputError('symbol document needs "A" and "b"')
    a = _load_matrix(doc["A"], d, "A")
    b = _load_vector(doc["b"], d, "b")
    exact = None
    if doc.get("exact") is not None:
        exact = load_exact_spec(doc["exact"])
    kwargs = {}
    if "tol" in doc:
        kwargs["tol"] = load_real(doc["tol"], "tol")
    return AffineSymbol(a, b, exact=exact, **kwargs)


def _coefficient_columns(entries: list, dimension: int) -> dict | None:
    """load_function's result, each of its checks made on a whole column by one set, min or
    all; None when one fails."""
    if not set(map(type, entries)) <= {dict}:
        return None
    alphas, values = (list(map(dict.get, entries, repeat(k))) for k in ("alpha", "value"))
    exponents = list(chain.from_iterable(alphas)) if set(map(type, alphas)) <= {list} else [None]
    if set(map(type, exponents)) - {int} or set(map(len, alphas)) - {dimension}:
        return None
    parts = [values]  # the values, or their re and im parts
    if set(map(type, values)) <= {dict} and all(map({"re", "im"}.issuperset, values)):
        parts = [list(map(dict.get, values, repeat(k), repeat(0.0))) for k in ("re", "im")]
    keys, z = list(map(tuple, alphas)), np.zeros(len(alphas), dtype=complex)
    if min(exponents, default=0) < 0 or len(set(keys)) < len(keys) or set(
            map(type, chain(*parts))) - {int, float}:
        return None
    try:
        for view, part in zip((z.real, z.imag), parts):
            view[:] = part
    except OverflowError:  # an integer past the float range
        return None
    return dict(zip(keys, z.tolist()))


def load_function(doc, dimension: int) -> dict:
    """Parse {"coefficients": [{"alpha": [...], "value": ...}, ...]}."""
    if not isinstance(doc, dict) or not isinstance(doc.get("coefficients"), list):
        raise InvalidInputError('function document must be {"coefficients": [...]}')
    if (out := _coefficient_columns(doc["coefficients"], dimension)) is not None:
        return out
    out = {}  # a check failed: the entries one by one, for the message of the first bad one
    for i, entry in enumerate(doc["coefficients"]):
        what = f"coefficients[{i}]"
        if not isinstance(entry, dict) or "alpha" not in entry or "value" not in entry:
            raise InvalidInputError(f"{what} must carry 'alpha' and 'value'")
        alpha = entry["alpha"]
        if (
            not isinstance(alpha, list)
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in alpha)
        ):
            raise InvalidInputError(f"{what}.alpha must be nonnegative integers")
        if len(alpha) != dimension:
            raise InvalidInputError(
                f"{what}.alpha has length {len(alpha)}, expected {dimension}"
            )
        key = tuple(alpha)
        if key in out:
            raise InvalidInputError(f"duplicate multi-index {key}")
        out[key] = load_complex(entry["value"], f"{what}.value")
    return out


def dump_function(f_coeffs) -> dict:
    entries = sorted(f_coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {
        "coefficients": [
            {"alpha": list(a), "value": dump_complex(c)} for a, c in entries
        ]
    }


def dump_verdict(v: CyclicityVerdict) -> dict:
    out = {
        "status": v.status.value,
        "reasons": [
            {
                "code": r.code,
                "alpha": list(r.alpha) if r.alpha is not None else None,
                "text": r.text,
            }
            for r in v.reasons
        ],
    }
    if v.search_height is not None:
        out["search_height"] = v.search_height
    return out


def dump_boundedness(rep: BoundednessReport) -> dict:
    return {
        "bounded": rep.bounded,
        "compact": rep.compact,
        "operator_norm_of_A": rep.operator_norm_of_a,
        "isometric_subspace_dim": rep.isometric_subspace_dim,
        "violation_witness": (
            None
            if rep.violation_witness is None
            else [dump_complex(z) for z in rep.violation_witness]
        ),
    }


def dump_approx(rep: ApproxReport) -> dict:
    out = {
        "prefactor": rep.prefactor,
        "terms": Rows(("alpha", "value"), (rep.alphas, rep.values)),
        "closed_form_sum": rep.closed_form_sum,
    }
    if rep.oracle_values is not None:
        out["oracle"] = {
            "degree": rep.oracle_degree,
            "values": list(rep.oracle_values),
            "max_rel_delta": rep.max_rel_delta,
        }
    return out
