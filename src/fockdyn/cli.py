"""Command-line interface for the composition-operator toolkit.

One command per invocation, one JSON input file per command, one report on
stdout (or ``--output``).  Reports are JSON by default; ``--format text``
renders the same data as indented lines.  Exit codes are stable: 0 on
success, 1 on a usage error, 2 on invalid input or an input the numerics
cannot handle reliably, 3 on a blown resource budget.  Running the same
command on the same input with the same seed produces byte-identical JSON.

The environment variable ``FOCK_DYNAMICS_THREADS`` caps BLAS parallelism
(0 or unset means automatic); it is applied before numpy is imported, so
this module keeps every numerical import inside the command handlers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _configure_threads() -> None:
    """Propagate FOCK_DYNAMICS_THREADS to the BLAS layers before they load."""
    raw = os.environ.get("FOCK_DYNAMICS_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        print(
            f"fockdyn: ignoring non-integer FOCK_DYNAMICS_THREADS={raw!r}",
            file=sys.stderr,
        )
        return
    if n > 0:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(n)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One validated invocation: the command plus every knob it honors."""

    command: str
    input_path: str | None = None
    degree: int | None = None
    top: int | None = None
    height: int | None = None
    tol: float | None = None
    seed: int = 0
    output: str | None = None
    format: str = "json"
    steps: int | None = None
    projector_degree: int | None = None
    mode: str | None = None
    oracle: bool = False
    oracle_degree: int | None = None
    oracle_method: str = "reduced"
    n_max: int | None = None
    only: tuple = ()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

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

    def add_command(name, help_text, needs_input=True):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if needs_input:
            sp.add_argument("input", help="path to the JSON input file")
        sp.add_argument(
            "--seed", type=int, default=0, help="seed for any randomized step"
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
        default=12,
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
        help="matrix-free grid oracle or unitarily reduced tensor oracle",
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


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {}
    for key, value in vars(ns).items():
        if key == "input":
            values["input_path"] = value
        elif key == "only":
            values["only"] = tuple(value or ())
        elif key in fields:
            values[key] = value
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# input loading


def _read_json(path: str):
    from .errors import InvalidInputError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _symbol_from_doc(doc, cfg: RunConfig):
    """Accept either a bare symbol document or a {"symbol": ...} wrapper."""
    from .errors import InvalidInputError
    from .io import load_symbol
    from .symbol import AffineSymbol

    if not isinstance(doc, dict):
        raise InvalidInputError("input document must be a JSON object")
    sym = load_symbol(doc["symbol"] if "symbol" in doc else doc)
    if cfg.tol is not None:
        sym = AffineSymbol(sym.a, sym.b, exact=sym.exact, tol=cfg.tol)
    return sym


def _load_symbol_input(cfg: RunConfig):
    return _symbol_from_doc(_read_json(cfg.input_path), cfg)


def _function_from_doc(doc, dimension: int):
    from .io import load_function

    if isinstance(doc, dict) and "function" in doc:
        return load_function(doc["function"], dimension=dimension)
    return None


# ---------------------------------------------------------------------------
# command handlers (each returns payload dict + exit code)


def _cmd_analyze(cfg: RunConfig):
    from .classify import classify_cyclicity
    from .errors import NoFixedPointError
    from .io import dump_boundedness, dump_complex, dump_verdict
    from .spectral import eigen_decompose
    from .symbol import check_boundedness, fixed_point

    sym = _load_symbol_input(cfg)
    rep = check_boundedness(sym)
    spec = eigen_decompose(sym.a)
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
        payload["fixed_point"] = [dump_complex(z) for z in fixed_point(sym)]
    except NoFixedPointError:
        payload["fixed_point"] = None
    if rep.bounded:
        verdict = classify_cyclicity(sym, search_height=cfg.height)
        payload["cyclicity"] = dump_verdict(verdict)
    else:
        payload["cyclicity"] = None
    return payload, 0


def _cmd_spectrum(cfg: RunConfig):
    from .fockmat import assemble_truncated, truncated_spectrum
    from .io import dump_complex

    sym = _load_symbol_input(cfg)
    op = assemble_truncated(sym, cfg.degree)
    payload = {
        "degree": cfg.degree,
        "basis_size": int(op.matrix.shape[0]),
        "eigenvalues": [dump_complex(z) for z in truncated_spectrum(op)],
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_approx(cfg: RunConfig):
    from .fockmat import approx_numbers
    from .io import dump_approx

    sym = _load_symbol_input(cfg)
    with_oracle = cfg.oracle or cfg.oracle_degree is not None
    rep = approx_numbers(
        sym,
        cfg.top,
        with_oracle=with_oracle,
        oracle_degree=cfg.oracle_degree,
        oracle_method=cfg.oracle_method,
    )
    payload = dump_approx(rep)
    payload["tolerance"] = sym.tol
    return payload, 0


def _cmd_orbit_rank(cfg: RunConfig):
    import numpy as np

    from .fockmat import multi_indices, orbit_krylov_rank

    doc = _read_json(cfg.input_path)
    sym = _symbol_from_doc(doc, cfg)
    f_coeffs = _function_from_doc(doc, sym.dimension)
    if f_coeffs is None:
        rng = np.random.default_rng(cfg.seed)
        f_coeffs = {
            alpha: complex(rng.normal(), rng.normal())
            for alpha in multi_indices(sym.dimension, cfg.degree)
        }
        source = "random"
    else:
        source = "file"
    projector = (
        cfg.projector_degree if cfg.projector_degree is not None else cfg.degree
    )
    rank = orbit_krylov_rank(
        sym, f_coeffs, degree=cfg.degree, steps=cfg.steps, projector=projector
    )
    payload = {
        "rank": int(rank),
        "degree": cfg.degree,
        "steps": cfg.steps,
        "projector_degree": projector,
        "function_source": source,
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_cyclic_vector(cfg: RunConfig):
    from .classify import cyclic_vector_test
    from .errors import InvalidInputError

    doc = _read_json(cfg.input_path)
    sym = _symbol_from_doc(doc, cfg)
    f_coeffs = _function_from_doc(doc, sym.dimension)
    if f_coeffs is None:
        raise InvalidInputError('cyclic-vector requires a "function" entry')
    rep = cyclic_vector_test(sym, f_coeffs, cfg.degree)
    payload = {
        "verdict": rep.verdict,
        "failing_indices": [list(a) for a in rep.failing_indices],
        "basis_order_note": rep.basis_order_note,
        "degree_checked": rep.degree_checked,
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_project(cfg: RunConfig):
    from .errors import InvalidInputError
    from .fockmat import project_homogeneous
    from .io import dump_complex, dump_function
    from .polymap import poly_clean
    from .symbol import fixed_point

    doc = _read_json(cfg.input_path)
    sym = _symbol_from_doc(doc, cfg)
    f_coeffs = _function_from_doc(doc, sym.dimension)
    if f_coeffs is None:
        raise InvalidInputError('project requires a "function" entry')
    xi = fixed_point(sym)
    component = project_homogeneous(f_coeffs, xi, cfg.degree, mode=cfg.mode)
    scale = max([1.0, *(abs(c) for c in f_coeffs.values())])
    component = poly_clean(component, tol=sym.tol * scale)
    payload = {
        "component_degree": cfg.degree,
        "mode": cfg.mode,
        "expansion_point": [dump_complex(z) for z in xi],
        "coefficients": dump_function(component)["coefficients"],
        "tolerance": sym.tol,
    }
    return payload, 0


def _cmd_demo_kronecker(cfg: RunConfig):
    from .errors import InvalidInputError
    from .fockmat import kronecker_density_demo
    from .io import load_complex

    doc = _read_json(cfg.input_path)
    if not isinstance(doc, dict) or "thetas" not in doc or "target" not in doc:
        raise InvalidInputError(
            'demo-kronecker input needs "thetas" and "target" lists'
        )
    try:
        thetas = [float(t) for t in doc["thetas"]]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"thetas must be real numbers: {exc}") from exc
    target = [load_complex(t, "target entry") for t in doc["target"]]
    n_max = cfg.n_max if cfg.n_max is not None else doc.get("n_max")
    if n_max is None:
        raise InvalidInputError("n_max is required (flag --n-max or input field)")
    best_n, best_err = kronecker_density_demo(thetas, target, int(n_max))
    payload = {
        "best_n": best_n,
        "best_error": best_err,
        "n_max": int(n_max),
        "num_angles": len(thetas),
    }
    return payload, 0


def _cmd_suite(cfg: RunConfig):
    from .suite import run_suite

    results = run_suite(only=list(cfg.only) or None, seed=cfg.seed)
    n_pass = sum(1 for r in results if r.passed)
    payload = {
        "criteria": [
            {"slug": r.slug, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed_count": n_pass,
        "total": len(results),
        "seed": cfg.seed,
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


def _provenance(cfg: RunConfig) -> dict:
    from . import __version__

    out = {
        "tool": "fockdyn",
        "version": __version__,
        "command": cfg.command,
        "seed": cfg.seed,
    }
    for key in ("degree", "top", "height", "steps", "mode", "n_max"):
        value = getattr(cfg, key)
        if value is not None:
            out[key] = value
    if cfg.command == "suite" and cfg.only:
        out["only"] = list(cfg.only)
    return out


def _plain(value):
    """Reduce numpy scalars so json.dumps sees only builtin types."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):
        return _plain(value.item())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_complex_doc(value) -> bool:
    return isinstance(value, dict) and set(value) == {"re", "im"}


def _text_lines(value, indent: str) -> list:
    if _is_complex_doc(value):
        return [f"{indent}{complex(value['re'], value['im'])}"]
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            v = value[key]
            if _is_complex_doc(v):
                lines.append(f"{indent}{key}: {complex(v['re'], v['im'])}")
            elif isinstance(v, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar_text(v)}")
        return lines
    if isinstance(value, list):
        lines = []
        for v in value:
            if _is_complex_doc(v):
                lines.append(f"{indent}- {complex(v['re'], v['im'])}")
            elif isinstance(v, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar_text(v)}")
        return lines
    return [f"{indent}{_scalar_text(value)}"]


def _render_suite_text(payload: dict) -> str:
    lines = []
    for entry in payload["criteria"]:
        status = "PASS" if entry["passed"] else "FAIL"
        lines.append(f"{status} {entry['slug']}: {entry['detail']}")
    lines.append(f"{payload['passed_count']}/{payload['total']} criteria passed")
    return "\n".join(lines) + "\n"


def render_report(payload: dict, cfg: RunConfig) -> str:
    payload = _plain(payload)
    if cfg.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.command == "suite":
        return _render_suite_text(payload)
    return "\n".join(_text_lines(payload, "")) + "\n"


def _write_output(rendered: str, path: str | None) -> None:
    from .errors import InvalidInputError

    if path is None:
        sys.stdout.write(rendered)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rendered)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point


def run(cfg: RunConfig) -> int:
    """Execute one configured command and emit its report."""
    payload, exit_code = _HANDLERS[cfg.command](cfg)
    payload["provenance"] = _provenance(cfg)
    _write_output(render_report(payload, cfg), cfg.output)
    return exit_code


def main(argv=None) -> int:
    _configure_threads()
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        print("fockdyn: error: a command is required", file=sys.stderr)
        return 1
    from .errors import (
        BudgetError,
        ConditioningError,
        InvalidInputError,
        NodeSearchError,
        NumericalFailureError,
    )

    cfg = config_from_args(ns)
    try:
        return run(cfg)
    except InvalidInputError as exc:
        print(f"fockdyn: invalid input: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, ConditioningError, NodeSearchError) as exc:
        print(f"fockdyn: unsupported input: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"fockdyn: budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
