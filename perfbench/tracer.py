"""Spans around fockdyn's public functions, installed from outside the program.

install() replaces each traced function, in every loaded fockdyn module
that holds it, by a wrapper (uninstall() puts the originals back) that records a span (name, start, end, parent,
request) and adds its self time: its duration minus the time of the spans
it encloses.  Work counts are computed by the benchmark from each call's
arguments and result, after the span has closed, and their cost is kept
out of every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import time

# <layer>.<function>: the public functions whose spans are recorded
TRACED = (
    "cli.run",
    "io.load_symbol",
    "io.load_function",
    "symbol.check_boundedness",
    "symbol.fixed_point",
    "fockmat.basis.graded_basis",
    "fockmat.operator.assemble_truncated",
    "fockmat.operator.truncated_spectrum",
    "fockmat.operator.truncated_singular_values",
    "fockmat.operator.top_singular_values",
    "fockmat.experiments.orbit_krylov_rank",
    "relations.numeric_relation_search",
    "relations.exact_relation_decide",
    "fockmat.enumeration.enumerate_lambda_desc",
    "fockmat.enumeration.reduced_oracle_singular_values",
    "fockmat.enumeration.approx_numbers",
    "spectral.eigen_decompose",
    "polymap.compose_affine",
    "polymap.poly_mul",
    "fockmat.projections.project_homogeneous",
    "fockmat.projections.expand_in_L_basis",
    "spectral.linear_form_basis",
    "classify.classify_cyclicity",
    "classify.cyclic_vector_test",
)

COUNTS = (
    ("fockmat.basis.size", "count"),
    ("fockmat.operator.dense_bytes", "B"),
    ("relations.candidates", "count"),
    ("polymap.terms_out", "count"),
)


def _basis_size(d: int, n: int) -> int:
    return math.comb(n + d, d)


def _shell_rank(alpha, d: int) -> int:
    """Shell members the scan tests up to and including alpha (lexicographic)."""
    h = max(abs(a) for a in alpha)
    tested = (2 * h - 1) ** d - 1
    for cand in itertools.product(range(-h, h + 1), repeat=d):
        if max(abs(a) for a in cand) == h:
            tested += 1
            if cand == tuple(alpha):
                return tested
    raise ValueError(f"{alpha} is not in its shell")


def _count_graded_basis(counts, bound, result):
    counts["fockmat.basis.size"] += _basis_size(bound["d"], bound["max_degree"])


def _count_dense(counts, bound, result):
    sym = bound["sym"]
    n = bound["n"] if "n" in bound else bound["degree"]
    counts["fockmat.operator.dense_bytes"] += 16 * _basis_size(sym.dimension, n) ** 2


def _count_relation_search(counts, bound, result):
    d = len(bound["lambdas"])
    if result.alpha is None:
        counts["relations.candidates"] += (2 * bound["height"] + 1) ** d - 1
    else:
        counts["relations.candidates"] += _shell_rank(result.alpha, d)


def _count_terms(counts, bound, result):
    counts["polymap.terms_out"] += len(result)


def _count_values(counts, bound, result):
    counts["fockmat.enumeration.values"] += bound["k"]


_COUNTERS = {
    "fockmat.basis.graded_basis": _count_graded_basis,
    "fockmat.operator.assemble_truncated": _count_dense,
    "fockmat.experiments.orbit_krylov_rank": _count_dense,
    "relations.numeric_relation_search": _count_relation_search,
    "polymap.compose_affine": _count_terms,
    "fockmat.enumeration.enumerate_lambda_desc": _count_values,
}


class Tracer:
    """Per-function call counts, self times and work counts, plus the spans
    of the rounds marked for recording."""

    def __init__(self):
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        # fockmat.enumeration.values is kept for values_per_s, not reported
        self.counts = {name: 0 for name, _ in COUNTS} | {"fockmat.enumeration.values": 0}
        self.spans = []
        self.record = False
        self.request = None
        self._stack = []  # [child_time, span_id] per open span
        self._ids = itertools.count()
        self._swaps = []  # (module, attribute, original, wrapper)
        for name in TRACED:
            layer, func = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"fockdyn.{layer}"), func)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("fockdyn"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._swaps.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._swaps:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._swaps:
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next(self._ids)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
            finally:
                stack.pop()
                if stack:
                    stack[-1][0] += time.perf_counter() - start
            calls[name] += 1
            self_s[name] += end - start - frame[0]
            if self.record:
                self.spans.append((frame[1], parent, self.request, name, start, end))
            if counter is not None:
                count_start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
                if stack:
                    # the parent's self time excludes the counting as well
                    stack[-1][0] += time.perf_counter() - count_start
            return result

        return traced
