"""Command-line interface for the composition-operator toolkit.

One command per invocation, one JSON input file per command, one report on
stdout (or ``--output``).  Reports are JSON by default; ``--format text``
renders the same data as indented lines.  Exit codes are stable: 0 on
success, 1 on a usage error, 2 on invalid input or an input the numerics
cannot handle reliably, 3 on a blown resource budget.  Running the same
command on the same input with the same seed produces byte-identical JSON.

Handlers read the parsed argparse namespace directly.  BLAS threading
follows the standard ``OMP_NUM_THREADS`` / ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, suite
from .classify import DEFAULT_SEARCH_HEIGHT, classify_cyclicity, cyclic_vector_test
from .errors import BudgetError, InvalidInputError, NoFixedPointError, NumericalFailureError
from .fockmat.basis import check_basis_size, multi_indices
from .fockmat.enumeration import approx_numbers
from .fockmat.experiments import kronecker_density_demo, orbit_krylov_rank
from .fockmat.operator import truncated_spectrum
from .fockmat.projections import project_homogeneous
from .io import (
    Rows,
    dump_approx,
    dump_boundedness,
    dump_complex,
    dump_function,
    dump_verdict,
    load_complex,
    load_function,
    load_real,
    load_symbol,
)
from .polymap import poly_clean
from .symbol import AffineSymbol


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# one parser per process: parse_args reads it and never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockdyn",
        description=(
            "Analyze affine composition operators f -> f(Az + b) on "
            "d-dimensional Fock space: boundedness, cyclicity, spectra, "
            "approximation numbers, and a self-verification suite."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"fockdyn {__version__}"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar="COMMAND")

    def seed(text: str) -> int:  # argparse reports a ValueError as "invalid seed value: 'x'"
        value = int(text)
        if value < 0:  # numpy's generators take none
            raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
        return value

    def add_command(name, help_text, needs_input=True):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if needs_input:
            sp.add_argument("input", help="path to the JSON input file")
        sp.add_argument(
            "--seed", type=seed, default=0, help="nonnegative seed for any randomized step"
        )
        sp.add_argument(
            "--tol", type=float, default=None, help="override the symbol tolerance"
        )
        sp.add_argument("--output", default=None, help="write the report to this file")
        sp.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="report format (text renders the same data)",
        )
        return sp

    sp = add_command(
        "analyze",
        "boundedness, spectral structure, and the cyclicity verdict of a symbol",
    )
    sp.add_argument(
        "--height",
        type=int,
        default=DEFAULT_SEARCH_HEIGHT,
        help="lattice search height for numeric relation detection",
    )

    sp = add_command("spectrum", "eigenvalues of the degree-N truncation")
    sp.add_argument("--degree", type=int, required=True, help="truncation degree N")

    sp = add_command("approx", "closed-form approximation numbers of a compact symbol")
    sp.add_argument("--top", type=int, default=10, help="how many values to report")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against a truncated singular-value oracle",
    )
    sp.add_argument(
        "--oracle-degree",
        type=int,
        default=None,
        help="oracle truncation degree (implies --oracle; default auto)",
    )
    sp.add_argument(
        "--oracle-method",
        choices=("grid", "reduced"),
        default="reduced",
        help="truncation of the operator itself or unitarily reduced tensor oracle",
    )

    sp = add_command("orbit-rank", "Krylov rank of a projected operator orbit")
    sp.add_argument("--degree", type=int, required=True, help="working degree cap")
    sp.add_argument("--steps", type=int, default=40, help="orbit length")
    sp.add_argument(
        "--projector-degree",
        type=int,
        default=None,
        help="homogeneous component to project onto (default: --degree)",
    )

    sp = add_command(
        "cyclic-vector", "coefficient test for cyclic vectors of a compact symbol"
    )
    sp.add_argument(
        "--degree", type=int, required=True, help="expansion degree to check through"
    )

    sp = add_command(
        "project", "homogeneous component of a polynomial around the fixed point"
    )
    sp.add_argument("--degree", type=int, required=True, help="component degree n")
    sp.add_argument(
        "--mode",
        choices=("recentering", "quadrature"),
        default="recentering",
        help="projection algorithm",
    )

    sp = add_command(
        "demo-kronecker",
        "best simultaneous approximation of unimodular targets by powers",
    )
    sp.add_argument(
        "--n-max", type=int, default=None, help="largest power to scan (overrides file)"
    )

    sp = add_command(
        "suite", "run the self-verification suite", needs_input=False
    )
    sp.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="PREFIX",
        help="run only criteria whose slug starts with PREFIX (repeatable)",
    )

    return parser


# ---------------------------------------------------------------------------
# input loading


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _symbol_from_doc(doc, ns: argparse.Namespace):
    """Accept either a bare symbol document or a {"symbol": ...} wrapper."""
    if not isinstance(doc, dict):
        raise InvalidInputError("input document must be a JSON object")
    sym = load_symbol(doc["symbol"] if "symbol" in doc else doc)
    if ns.tol is not None:
        sym = AffineSymbol(sym.a, sym.b, exact=sym.exact, tol=ns.tol)
    return sym


def _load_symbol_input(ns: argparse.Namespace):
    return _symbol_from_doc(_read_json(ns.input), ns)


def _function_from_doc(doc, dimension: int):
    if isinstance(doc, dict) and "function" in doc:
        return load_function(doc["function"], dimension)
    return None


# ---------------------------------------------------------------------------
# command handlers (each returns payload dict + exit code)


def _cmd_analyze(ns: argparse.Namespace):
    if ns.height < 1:  # checked before any work: an unbounded symbol is never classified
        raise InvalidInputError(f"height must be >= 1, got {ns.height}")
    sym = _load_symbol_input(ns)
    rep, spec = sym.boundedness, sym.spectrum
    payload = {
        "boundedness": dump_boundedness(rep),
        "spectral": {
            "diagonalizable": spec.diagonalizable,
            "clustering_warning": spec.clustering_warning,
            "eigenvalues": [
                {
                    "value": dump_complex(info.value),
                    "algebraic_mult": info.algebraic_mult,
                    "geometric_mult": info.geometric_mult,
                    "block_sizes": list(info.block_sizes),
                }
                for info in spec.eigenvalues
            ],
        },
        "tolerance": sym.tol,
    }
    try:
        payload["fixed_point"] = [dump_complex(z) for z in sym.xi]
    except NoFixedPointError:
        payload["fixed_point"] = None
    if rep.bounded:
        verdict = classify_cyclicity(sym, search_height=ns.height)
        payload["cyclicity"] = dump_verdict(verdict)
    else:
        payload["cyclicity"] = None
    return payload, 0


def _cmd_spectrum(ns: argparse.Namespace):
    sym = _load_symbol_input(ns)
    eigenvalues = truncated_spectrum(sym, ns.degree)
    payload = {
        "degree": ns.degree,
        "basis_size": int(eigenvalues.size),
        "eigenvalues": Rows(("im", "re"), (eigenvalues.imag.tolist(), eigenvalues.real.tolist())),
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_approx(ns: argparse.Namespace):
    sym = _load_symbol_input(ns)
    oracle = ns.oracle_method if ns.oracle or ns.oracle_degree is not None else None
    rep = approx_numbers(sym, ns.top, oracle=oracle, oracle_degree=ns.oracle_degree)
    payload = dump_approx(rep)
    payload["tolerance"] = sym.tol
    return payload, 0


def _cmd_orbit_rank(ns: argparse.Namespace):
    doc = _read_json(ns.input)
    sym = _symbol_from_doc(doc, ns)
    f_coeffs = _function_from_doc(doc, sym.dimension)
    if f_coeffs is None:
        check_basis_size(sym.dimension, ns.degree)
        rng = np.random.default_rng(ns.seed)
        f_coeffs = {
            alpha: complex(rng.normal(), rng.normal())
            for alpha in multi_indices(sym.dimension, ns.degree)
        }
        source = "random"
    else:
        source = "file"
    projector = (
        ns.projector_degree if ns.projector_degree is not None else ns.degree
    )
    rank = orbit_krylov_rank(
        sym, f_coeffs, degree=ns.degree, steps=ns.steps, projector=projector
    )
    payload = {
        "rank": int(rank),
        "degree": ns.degree,
        "steps": ns.steps,
        "projector_degree": projector,
        "function_source": source,
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_cyclic_vector(ns: argparse.Namespace):
    doc = _read_json(ns.input)
    sym = _symbol_from_doc(doc, ns)
    f_coeffs = _function_from_doc(doc, sym.dimension)
    if f_coeffs is None:
        raise InvalidInputError('cyclic-vector requires a "function" entry')
    rep = cyclic_vector_test(sym, f_coeffs, ns.degree)
    payload = {
        "verdict": rep.verdict,
        "failing_indices": [list(a) for a in rep.failing_indices],
        "basis_order_note": rep.basis_order_note,
        "degree_checked": rep.degree_checked,
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_project(ns: argparse.Namespace):
    doc = _read_json(ns.input)
    sym = _symbol_from_doc(doc, ns)
    f_coeffs = _function_from_doc(doc, sym.dimension)
    if f_coeffs is None:
        raise InvalidInputError('project requires a "function" entry')
    xi = sym.xi
    component = project_homogeneous(f_coeffs, xi, ns.degree, mode=ns.mode)
    scale = max([1.0, *(abs(c) for c in f_coeffs.values())])
    component = poly_clean(component, tol=sym.tol * scale)
    payload = {
        "component_degree": ns.degree,
        "mode": ns.mode,
        "expansion_point": [dump_complex(z) for z in xi],
        "coefficients": dump_function(component)["coefficients"],
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_demo_kronecker(ns: argparse.Namespace):
    doc = _read_json(ns.input)
    if not isinstance(doc, dict) or not all(type(doc.get(k)) is list for k in ("thetas", "target")):
        raise InvalidInputError(
            'demo-kronecker input needs "thetas" and "target" lists'
        )
    if not all(type(t) in (int, float) for t in doc["thetas"]):
        raise InvalidInputError("thetas must be real numbers")
    thetas = [load_real(t, f"thetas[{i}]") for i, t in enumerate(doc["thetas"])]
    target = [load_complex(t, "target entry") for t in doc["target"]]
    n_max = ns.n_max if ns.n_max is not None else doc.get("n_max")
    if n_max is None:
        raise InvalidInputError("n_max is required (flag --n-max or input field)")
    best_n, best_err = kronecker_density_demo(thetas, target, n_max)
    payload = {
        "best_n": best_n,
        "best_error": best_err,
        "n_max": n_max,
        "num_angles": len(thetas),
    }
    return payload, 0


def _cmd_suite(ns: argparse.Namespace):
    results = suite.run_suite(only=ns.only, seed=ns.seed)
    n_pass = sum(1 for r in results if r.passed)
    payload = {
        "criteria": [
            {"slug": r.slug, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed_count": n_pass,
        "total": len(results),
        "seed": ns.seed,
    }
    return payload, 0 if n_pass == len(results) else 1


_HANDLERS = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "approx": _cmd_approx,
    "orbit-rank": _cmd_orbit_rank,
    "cyclic-vector": _cmd_cyclic_vector,
    "project": _cmd_project,
    "demo-kronecker": _cmd_demo_kronecker,
    "suite": _cmd_suite,
}


# ---------------------------------------------------------------------------
# rendering


def _provenance(ns: argparse.Namespace) -> dict:
    out = {
        "tool": "fockdyn",
        "version": __version__,
        "command": ns.command,
        "seed": ns.seed,
    }
    for key in ("degree", "top", "height", "steps", "mode", "n_max"):
        value = getattr(ns, key, None)
        if value is not None:
            out[key] = value
    if ns.command == "suite" and ns.only:
        out["only"] = ns.only
    return out


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# the separator and the openings and closings of a dict and of a list that
# json.dumps(..., indent=2) writes around the items of a container, by depth;
# reports nest a handful of levels, far below the 32 of this table
_JSON_LAYOUT = [
    (",\n" + pad, "{\n" + pad, close + "}", "[\n" + pad, close + "]")
    for pad, close in (("  " * (n + 1), "\n" + "  " * n) for n in range(32))
]


def _json_text(value, depth: int) -> str:
    """json.dumps(value, sort_keys=True, indent=2) of value at nesting depth
    depth, byte for byte, without the pure-Python encoder json falls back to
    under indent.  A Rows prints as the list of its records.  Types other
    than dict (str keys), list, tuple, Rows, str, int, float, bool and None,
    numpy scalars included, raise TypeError."""
    kind = type(value)
    leaf = _JSON_LEAVES.get(kind)
    if leaf is not None:
        return leaf(value)
    sep, open_dict, close_dict, open_list, close_list = _JSON_LAYOUT[depth]
    # leaves are encoded in the loops, not by a call each
    items = []
    if kind is dict:
        for key in sorted(value):
            v = value[key]
            leaf = _JSON_LEAVES.get(type(v))
            text = leaf(v) if leaf is not None else _json_text(v, depth + 1)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return open_dict + sep.join(items) + close_dict if items else "{}"
    if kind is list or kind is tuple:
        for v in value:
            leaf = _JSON_LEAVES.get(type(v))
            items.append(leaf(v) if leaf is not None else _json_text(v, depth + 1))
        return open_list + sep.join(items) + close_list if items else "[]"
    if kind is Rows:
        return _json_rows(value, depth)
    raise TypeError(f"cannot serialize {kind.__name__}")


def _json_rows(rows: Rows, depth: int) -> str:
    """_json_text of the list of rows' records, from one % template: '%d'
    per int and '%r' per float in each record's layout, repeated len(rows)
    times, whose arguments are the leaf columns interleaved.  JSON spells a
    non-finite float NaN or Infinity where %r gives nan or inf, so rows with
    one (or with floats that sum past the float range) take the per-item
    path.  A 4,000-term d=3 approx report takes 7-10 ms from dump_approx
    to JSON text, its float reprs 3-5 ms of that (one core of a 2-vCPU
    Xeon)."""
    if not len(rows):
        return "[]"
    if not all(math.isfinite(sum(c)) for c in rows.columns if type(c[0]) is float):
        return _json_text(list(rows), depth)
    sep, _, _, open_list, close_list = _JSON_LAYOUT[depth]
    record_sep, open_record, close_record, _, _ = _JSON_LAYOUT[depth + 1]
    slot_sep, _, _, open_slots, close_slots = _JSON_LAYOUT[depth + 2]
    items = []
    for name, width in zip(rows.fields, rows.widths):
        leaf = "%r" if width is None else open_slots + slot_sep.join(["%d"] * width) + close_slots
        items.append(encode_basestring_ascii(name).replace("%", "%%") + ": " + leaf)
    record = open_record + record_sep.join(items) + close_record
    args = tuple(chain.from_iterable(zip(*rows.columns)))
    return open_list + sep.join([record] * len(rows)) % args + close_list


_TEXT_LEAVES = _JSON_LEAVES | {str: str, int: int.__repr__, float: float.__repr__}


def _text(value, pad: str) -> str:
    """The text report of a dict, list or Rows value, each line indented by
    pad: "key: leaf" per dict item in key order, "- leaf" per list item, and
    a container item's key or dash on a line of its own above the container,
    two spaces deeper.  {"re", "im"} items print as complex numbers.  Leaves
    are encoded in the loop, as in _json_text; other types raise TypeError."""
    kind = type(value)
    if kind is dict:
        heads = ((pad + key + ":", value[key]) for key in sorted(value))
    elif kind is list or kind is tuple:
        dash = pad + "-"
        heads = ((dash, v) for v in value)
    elif kind is Rows:
        return _text_rows(value, pad)
    else:
        raise TypeError(f"cannot render {kind.__name__}")
    lines = []
    for head, v in heads:
        leaf = _TEXT_LEAVES.get(type(v))
        if leaf is not None:
            lines.append(head + " " + leaf(v))
        elif type(v) is dict and v.keys() == {"re", "im"}:
            lines.append(head + " " + str(complex(v["re"], v["im"])))
        else:
            lines.append(head)
            body = _text(v, pad + "  ")
            if body:
                lines.append(body)
    return "\n".join(lines)


def _text_rows(rows: Rows, pad: str) -> str:
    """_text of the list of rows' records, from one % template as in
    _json_rows; records of two float fields re and im print as complex
    numbers."""
    n = len(rows)
    if not n:
        return ""
    if rows.fields == ("im", "re") and rows.widths == (None, None):
        im, re = rows.columns
        return "\n".join([pad + "- %s"] * n) % tuple(map(complex, re, im))
    items = [pad + "-"]
    for name, width in zip(rows.fields, rows.widths):
        head = pad + "  " + name.replace("%", "%%") + ":"
        items.append(head + " %r" if width is None else head + ("\n" + pad + "    - %d") * width)
    return "\n".join(["\n".join(items)] * n) % tuple(chain.from_iterable(zip(*rows.columns)))


def render_report(payload: dict, ns: argparse.Namespace) -> str:
    if ns.format == "json":
        return _json_text(payload, 0) + "\n"
    return _text(payload, "") + "\n"


def _write_output(rendered: str, path: str | None) -> None:
    """Write to stdout, or over path in place, cut to length if a regular
    file: ext4 flushes a truncated file on close (O_TRUNC cost 120-160 us a
    rewrite, as would a renamed temp file).  Neither is atomic: a write
    killed midway leaves old bytes after the new, O_TRUNC a short file."""
    if path is None:
        sys.stdout.write(rendered)
        return
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(rendered.encode())
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point


def run(ns: argparse.Namespace) -> int:
    """Execute one parsed command and emit its report."""
    payload, exit_code = _HANDLERS[ns.command](ns)
    payload["provenance"] = _provenance(ns)
    _write_output(render_report(payload, ns), ns.output)
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        print("fockdyn: error: a command is required", file=sys.stderr)
        return 1
    try:
        return run(ns)
    except InvalidInputError as exc:
        print(f"fockdyn: invalid input: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"fockdyn: unsupported input: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"fockdyn: budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
