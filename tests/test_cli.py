"""Command-line behavior: reports, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import fockdyn
import fockdyn.fockmat.operator
import fockdyn.spectral
import fockdyn.suite
import fockdyn.symbol
from fockdyn.cli import main, render_report
from fockdyn.fockmat.enumeration import ZERO_SINGULAR_TOL, _best_first, approx_numbers, singular_data
from fockdyn.io import Rows, dump_approx, dump_complex
from fockdyn.suite import CriterionResult
from fockdyn.symbol import AffineSymbol


SYMBOL_HALF = {
    "dimension": 1,
    "A": [[{"re": 0.5, "im": 0.0}]],
    "b": [{"re": 0.0, "im": 0.0}],
}

SYMBOL_CYCLIC = {
    "symbol": {
        "dimension": 2,
        "A": [[{"re": 0.5}, {"re": 0.0}], [{"re": 0.0}, {"re": 0.3333333333333333}]],
        "b": [{"re": 0.3}, {"re": -0.1, "im": 0.2}],
        "exact": {
            "eigenvalues": [
                {
                    "modulus": {"num": 1, "den": 2},
                    "arg": {"pi_rational": {"num": 0, "den": 1}},
                },
                {
                    "modulus": {"num": 1, "den": 3},
                    "arg": {"pi_rational": {"num": 0, "den": 1}},
                },
            ]
        },
    }
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = main([*args, "--output", str(out)])
    return code, json.loads(out.read_text())


def test_approx_dilation_report(tmp_path):
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    code, doc = run_json(tmp_path, ["approx", path, "--top", "5"])
    assert code == 0
    values = [t["value"] for t in doc["terms"]]
    assert values == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert doc["prefactor"] == pytest.approx(1.0)
    assert doc["provenance"]["tool"] == "fockdyn"
    assert doc["provenance"]["seed"] == 0


def test_analyze_reports_cyclic(tmp_path):
    path = write_json(tmp_path / "sym.json", SYMBOL_CYCLIC)
    code, doc = run_json(tmp_path, ["analyze", path])
    assert code == 0
    assert doc["boundedness"]["bounded"] and doc["boundedness"]["compact"]
    assert doc["cyclicity"]["status"] == "cyclic"
    assert doc["spectral"]["diagonalizable"] is True
    assert doc["fixed_point"][0]["re"] == pytest.approx(0.6)


def test_spectrum_report(tmp_path):
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    code, doc = run_json(tmp_path, ["spectrum", path, "--degree", "4"])
    assert code == 0
    values = sorted((e["re"] for e in doc["eigenvalues"]), reverse=True)
    assert values == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert doc["basis_size"] == 5


def test_orbit_rank_report(tmp_path):
    doc_in = {
        "dimension": 3,
        "A": [
            [{"re": 0.5}, {"re": 0.25}, {"re": 0.0}],
            [{"re": 0.0}, {"re": 0.5}, {"re": 0.25}],
            [{"re": 0.0}, {"re": 0.0}, {"re": 0.5}],
        ],
        "b": [{"re": 0.0}, {"re": 0.0}, {"re": 0.0}],
    }
    path = write_json(tmp_path / "chain.json", doc_in)
    code, doc = run_json(
        tmp_path, ["orbit-rank", path, "--degree", "4", "--steps", "40"]
    )
    assert code == 0
    assert doc["rank"] <= 9
    assert doc["function_source"] == "random"


def test_cyclic_vector_and_project_need_function(tmp_path):
    path = write_json(tmp_path / "sym.json", SYMBOL_CYCLIC)
    assert main(["cyclic-vector", path, "--degree", "2"]) == 2
    assert main(["project", path, "--degree", "1"]) == 2


def test_project_report(tmp_path):
    doc_in = dict(SYMBOL_CYCLIC)
    doc_in["function"] = {
        "coefficients": [
            {"alpha": [0, 0], "value": {"re": 1.0}},
            {"alpha": [1, 0], "value": {"re": 2.0}},
            {"alpha": [0, 1], "value": {"re": -1.0}},
        ]
    }
    path = write_json(tmp_path / "fn.json", doc_in)
    code, doc = run_json(tmp_path, ["project", path, "--degree", "1"])
    assert code == 0
    # the degree-1 component around the fixed point xi = (0.6, -0.15+0.3i)
    # is 2(z1 - xi1) - (z2 - xi2), whose monomial expansion has a constant
    coeffs = {
        tuple(e["alpha"]): complex(e["value"]["re"], e["value"]["im"])
        for e in doc["coefficients"]
    }
    assert coeffs[(1, 0)] == pytest.approx(2.0)
    assert coeffs[(0, 1)] == pytest.approx(-1.0)
    assert coeffs[(0, 0)] == pytest.approx(-1.35 + 0.3j)


def test_demo_kronecker_report(tmp_path):
    doc_in = {
        "thetas": [0.7853981633974483],
        "target": [{"re": -1.0, "im": 0.0}],
        "n_max": 16,
    }
    path = write_json(tmp_path / "kron.json", doc_in)
    code, doc = run_json(tmp_path, ["demo-kronecker", path])
    assert code == 0
    assert doc["best_n"] in (4, 12)  # odd multiples of pi land on -1
    assert doc["best_error"] < 1e-12


@pytest.mark.parametrize("n_max", ['"abc"', "1e400", "1.5", "true", "0", "-2", '[3]'])
def test_demo_kronecker_refuses_bad_n_max(tmp_path, capsys, n_max):
    path = tmp_path / "kron.json"
    path.write_text('{"thetas": [0.5, 1.5], "target": [1, -1], "n_max": %s}' % n_max)
    assert main(["demo-kronecker", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("fockdyn: invalid input: n_max must be") and err.count("\n") == 1


@pytest.mark.parametrize("thetas", ['["1.5"]', "[true]", "[Infinity]", "[]", "0.5"])
def test_demo_kronecker_refuses_bad_angles(tmp_path, capsys, thetas):
    path = tmp_path / "kron.json"
    path.write_text('{"thetas": %s, "target": [1], "n_max": 5}' % thetas)
    assert main(["demo-kronecker", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("fockdyn: invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ('{"thetas": [0.5, true], "target": [1, -1], "n_max": 5}', "thetas[1] must be a number, got True"),
    ('{"thetas": [0.5, 1.5], "target": [1, "x"], "n_max": 5}', "target[1] must be a number, got 'x'"),
])
def test_demo_kronecker_names_the_bad_entry(tmp_path, capsys, text, message):
    path = tmp_path / "kron.json"
    path.write_text(text)
    assert main(["demo-kronecker", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"fockdyn: invalid input: {message}\n"


def test_demo_kronecker_budget_exits_three_at_once(tmp_path, capsys):
    doc = {"thetas": [0.5, 1.5], "target": [1, -1], "n_max": 10**12}
    path = write_json(tmp_path / "kron.json", doc)
    start = time.perf_counter()
    assert main(["demo-kronecker", path]) == 3
    assert main(["demo-kronecker", path, "--n-max", str(10**8)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("fockdyn: budget exceeded: ") == 2 and err.count("\n") == 2


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["spectrum"])  # missing required input and degree
    assert err.value.code == 1
    capsys.readouterr()
    # numpy's generators refuse negative seeds; the parser refuses them first
    path = write_json(tmp_path / "diag.json", {"dimension": 1, "A": [[0.5]], "b": [0]})
    for args in (["orbit-rank", path, "--degree", "2"], ["suite"]):
        with pytest.raises(SystemExit) as err:
            main(args + ["--seed", "-1"])
        assert err.value.code == 1
        out, text = capsys.readouterr()
        assert out == "" and "Traceback" not in text
        assert [line for line in text.splitlines() if "error" in line] == [
            f"fockdyn {args[0]}: error: argument --seed: seed must be nonnegative, got -1"
        ]
        assert text.endswith("got -1\n")


def test_invalid_input_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    short = write_json(
        tmp_path / "short.json", {"dimension": 2, "A": [[1, 0], [0, 1]], "b": [0]}
    )
    assert main(["analyze", short]) == 2
    # an orbit with no function draws nothing for a negative degree
    diag = write_json(tmp_path / "diag.json", {"dimension": 1, "A": [[0.5]], "b": [0]})
    capsys.readouterr()
    assert main(["orbit-rank", diag, "--degree", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: invalid input: invalid basis parameters") and err.count("\n") == 1


def test_budget_exits_three(tmp_path):
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    assert main(["spectrum", path, "--degree", "100000000"]) == 3


def test_relation_search_budget_exits_three(tmp_path, capsys):
    # 501^3 - 1 candidates exceed the relation-search budget; the relation
    # 0.5^-2 * 0.25 = 1 lies in shell 2, so a missing check ends at once
    doc = {"dimension": 3, "A": np.diag([0.5, 0.25, 0.3]).tolist(), "b": [0, 0, 0]}
    path = write_json(tmp_path / "diag.json", doc)
    assert main(["analyze", path, "--height", "250"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: budget exceeded: ") and err.count("\n") == 1


def test_orbit_budget_exits_three(tmp_path, capsys):
    # 2e8 steps on the 3-row block of degree 2 exceed the orbit budget and
    # are refused before the first step
    doc = {"dimension": 2, "A": np.diag([0.5, 0.4]).tolist(), "b": [0, 0]}
    path = write_json(tmp_path / "diag.json", doc)
    assert main(["orbit-rank", path, "--degree", "2", "--steps", "200000000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: budget exceeded: ") and "orbit budget" in err
    assert err.count("\n") == 1


def test_large_search_height_is_undecided(tmp_path):
    # 3001^2 - 1 candidates fit the budget; alpha . log|lambda| passes 709
    # (0.5^-1024 overflows a float) and must count as a miss
    doc = {"dimension": 2, "A": [[0.5, 0], [0, 0.3]], "b": [0.1, 0]}
    path = write_json(tmp_path / "diag.json", doc)
    code, report = run_json(tmp_path, ["analyze", path, "--height", "1500"])
    assert code == 0
    assert report["cyclicity"]["status"] == "undecided"
    assert report["cyclicity"]["search_height"] == 1500


def test_dense_byte_budgets_exit_three_before_allocating(tmp_path, capsys):
    # a spectrum of degree 65 in three variables (50,116 rows) is over the row
    # budget, where degree 60 (39,711 rows, a dense matrix of 23.5 GiB) runs
    # from the eigenvalues of A within the same memory bound; the grid
    # oracle's 24,310-row truncation in eight variables would take 4.4 GiB,
    # and Lanczos on it 3.5e10 operations, which the SVD budget refuses before
    # the matrix's byte check is reached; one orbit step on the 11,628-row block
    # of degree 14 in six variables is within the orbit budget, but its build
    # would hold 11 GiB; an orbit with no function at degree 10^5 in two
    # variables would draw 5e9 random coefficients before its basis was refused;
    # the real twin of the line at degree 10,362 (10,363 rows) needs 2.0002 GiB,
    # the tightest refusal of the 2 GiB budget, and must not print a need of 2.0
    sym3 = {"dimension": 3, "A": [[0.5, 0, 0], [0, 0.4, 0], [0, 0, 0.3]], "b": [0, 0, 0]}
    spectrum = write_json(tmp_path / "sym3.json", sym3)
    sym8 = {"dimension": 8, "A": (0.5 * np.eye(8)).tolist(), "b": [0] * 8}
    approx = write_json(tmp_path / "sym8.json", sym8)
    sym6 = {"dimension": 6, "A": (0.5 * np.eye(6)).tolist(), "b": [0] * 6}
    orbit = write_json(tmp_path / "sym6.json", sym6)
    sym2 = {"dimension": 2, "A": [[0.5, 0], [0, 0.3]], "b": [0, 0]}
    random_orbit = write_json(tmp_path / "sym2.json", sym2)
    line = write_json(tmp_path / "line.json", SYMBOL_LINE)
    for args, budget in (
        (["spectrum", spectrum, "--degree", "65"], "exceeds budget 50000"),
        (
            ["approx", approx, "--top", "3", "--oracle-degree", "9", "--oracle-method", "grid"],
            "SVD budget",
        ),
        (["orbit-rank", orbit, "--degree", "14", "--steps", "1"], "dense budget"),
        (["orbit-rank", random_orbit, "--degree", "100000"], "exceeds budget 50000"),
        (
            ["approx", line, "--top", "1", "--oracle-degree", "10362", "--oracle-method", "grid"],
            "dense budget",
        ),
    ):
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 200 * 2**20
        err = capsys.readouterr().err
        assert budget in err and err.count("\n") == 1
        if "GiB" in err:
            assert float(err.split(" needs ")[1].split()[0]) > 2
    tracemalloc.start()
    try:
        code = main(["spectrum", spectrum, "--degree", "60", "--output", str(tmp_path / "out.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 200 * 2**20


def test_oracle_with_fewer_values_than_terms_exits_two(tmp_path, capsys):
    # at degree 1 the grid oracle's 3-row truncation has 3 singular values, and the
    # reduced oracle's 2 per axis give 4 products: neither covers 10 terms
    path = write_json(tmp_path / "plane.json", {"dimension": 2, "A": [[0.5, 0], [0, 0.3]], "b": [0.1, 0.2]})
    for method, count in (("grid", 3), ("reduced", 4)):
        assert main(["approx", path, "--top", "10", "--oracle-degree", "1", "--oracle-method", method]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockdyn: invalid input: ") and err.count("\n") == 1
        assert f"degree 1 gives {count} singular values, fewer than the 10 terms" in err


def test_grid_action_byte_budget_exits_three_before_allocating(tmp_path, capsys, monkeypatch):
    # past the SVD budget, the 24,310-row truncation of eight variables at degree 9 is refused
    # by the byte check of its build (4.4 GiB for the matrix alone)
    monkeypatch.setattr(fockdyn.fockmat.operator, "SVD_OPERATIONS_BUDGET", float("inf"))
    sym8 = {"dimension": 8, "A": (0.5 * np.eye(8)).tolist(), "b": [0] * 8}
    path = write_json(tmp_path / "sym8.json", sym8)
    tracemalloc.start()
    try:
        code = main(["approx", path, "--top", "3", "--oracle-degree", "9", "--oracle-method", "grid"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 200 * 2**20
    err = capsys.readouterr().err
    assert "truncated matrix" in err and "dense budget" in err and err.count("\n") == 1


def test_reduced_oracle_svd_budget_exits_three_before_allocating(tmp_path, capsys):
    # the dense SVDs of degree-3,200 factors would take 3.3e10 operations at d = 1 (and
    # 4e4 would hold 24 GiB a factor); two axes at degree 2,500 take 3.1e10 together
    line = write_json(tmp_path / "line.json", SYMBOL_LINE)
    plane = write_json(tmp_path / "plane.json", {"dimension": 2, "A": [[0.5, 0], [0, 0.3]], "b": [0.1, 0.2]})
    for path, degree in ((line, "40000"), (line, "3200"), (plane, "2500")):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["approx", path, "--top", "3", "--oracle-degree", degree, "--oracle-method", "reduced"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 20 * 2**20 and time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"fockdyn: budget exceeded: line factors of degree {degree}: ")
        assert "SVD budget" in err and err.count("\n") == 1


def test_approx_report_budget_exits_three_before_enumerating(tmp_path, capsys):
    # 10^6 terms of three exponents each are the budget's 4e6 numbers; one
    # term more, or 444,445 terms of eight exponents, is refused before the
    # enumeration allocates anything
    sym3 = {"dimension": 3, "A": np.diag([0.9, 0.8, 0.7]).tolist(), "b": [0, 0, 0]}
    sym8 = {"dimension": 8, "A": (0.9 * np.eye(8)).tolist(), "b": [0] * 8}
    for doc, top in ((sym3, "1000001"), (sym8, "444445")):
        path = write_json(tmp_path / "sym.json", doc)
        tracemalloc.start()
        try:
            code = main(["approx", path, "--top", top])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 20 * 2**20
        err = capsys.readouterr().err
        assert "enumeration budget" in err and err.count("\n") == 1


def test_approx_near_one_singular_values_stay_small(tmp_path, capsys):
    # w = -log(1 - 1e-13) is far below any fixed rounding margin; the
    # threshold enumeration must not expand its lattice by margin / w shells
    doc = {"dimension": 3, "A": ((1 - 1e-13) * np.eye(3)).tolist(), "b": [0, 0, 0]}
    path = write_json(tmp_path / "sym.json", doc)
    tracemalloc.start()
    try:
        code = main(["approx", path, "--top", "1", "--tol", "1e-15"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 20 * 2**20
    report = json.loads(capsys.readouterr().out)
    assert report["terms"] == [{"alpha": [0, 0, 0], "value": 1.0}]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_approx_float_range_exits_three(tmp_path, capsys, fmt):
    # b = 50 puts the prefactor at exp(833), past the largest float: refused
    # before exp overflows, with no warning and no report
    doc = {"dimension": 1, "A": [[0.5]], "b": [50]}
    path = write_json(tmp_path / "far.json", doc)
    for oracle in ([], ["--oracle"]):
        assert main(["approx", path, "--top", "3", "--format", fmt, *oracle]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fockdyn: budget exceeded: closed-form sum exp(")
        assert err.count("\n") == 1


@pytest.mark.parametrize("b0", [1e160, 1.5e308])
def test_huge_translation_ends_in_one_line(tmp_path, capsys, b0):
    # |b|^2 is past the float range: norms and pairings of b are taken on b
    # scaled by a power of two, with no overflow warning
    doc = {"dimension": 2, "A": [[0.5, 0], [0, 0.4]], "b": [b0, 0]}
    path = write_json(tmp_path / "far.json", doc)
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, *flags in (["analyze"], ["spectrum", "--degree", "4"], ["approx"]):
            code = codes[command] = main([command, path, *flags])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (command, err)
            if code == 0:
                assert err == "" and json.loads(out)
            else:
                assert out == "" and err.startswith("fockdyn: ") and err.count("\n") == 1
    # the fixed point 2 b0 is a float at 1e160 and past the range at 1.5e308
    assert codes == {"analyze": 0 if b0 == 1e160 else 2, "spectrum": 0, "approx": 3}


def unimodular_exact_symbol(denominators):
    """diag(exp(i pi / q)) with its exact polar data: moduli 1, arguments pi / q."""
    values = [np.exp(1j * np.pi / q) for q in denominators]
    return {
        "dimension": len(values),
        "A": [
            [{"re": z.real, "im": z.imag} if i == j else 0 for j, z in enumerate(values)]
            for i in range(len(values))
        ],
        "b": [0] * len(values),
        "exact": {
            "eigenvalues": [
                {"modulus": {"num": 1, "den": 1}, "arg": {"pi_rational": {"num": 1, "den": q}}}
                for q in denominators
            ]
        },
    }


def assert_exact_relation(doc, verdict):
    """The verdict is one RELATION_FOUND whose alpha gives lambda^alpha = 1 on
    the document's exact polar data, in Fraction arithmetic."""
    assert verdict["status"] == "not_cyclic"
    [reason] = verdict["reasons"]
    alpha = reason["alpha"]
    assert reason["code"] == "RELATION_FOUND" and any(alpha)
    eigs = doc["exact"]["eigenvalues"]
    modulus = math.prod(Fraction(e["modulus"]["num"], e["modulus"]["den"]) ** a for e, a in zip(eigs, alpha))
    phase = sum(a * Fraction(e["arg"]["pi_rational"]["num"], e["arg"]["pi_rational"]["den"])
                for e, a in zip(eigs, alpha))
    assert modulus == 1 and phase.denominator == 1 and phase.numerator % 2 == 0


def test_certificate_search_on_a_rank_20_lattice_ends_at_once(tmp_path):
    # 20 unimodular eigenvalues leave a rank-20 relation lattice; the search
    # combines its first 13 basis vectors (3^13 rows), not all 20 (3^20 = 3.5e9)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73]
    doc = unimodular_exact_symbol(primes)
    start = time.perf_counter()
    code, report = run_json(tmp_path, ["analyze", write_json(tmp_path / "unimodular.json", doc)])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert_exact_relation(doc, report["cyclicity"])


def test_powers_of_two_at_d16_report_a_relation(tmp_path):
    # moduli 2^-1, ..., 2^-16 leave a rank-15 lattice, whose certificate box
    # of 3^15 rows was refused with exit 3
    doc = {"dimension": 16, "A": diagonal([2.0 ** -j for j in range(1, 17)]), "b": [0] * 16,
           "exact": {"eigenvalues": [{"modulus": {"num": 1, "den": 2**j}, "arg": ZERO_ARG}
                                     for j in range(1, 17)]}}
    start = time.perf_counter()
    code, report = run_json(tmp_path, ["analyze", write_json(tmp_path / "powers.json", doc)])
    assert time.perf_counter() - start < 5.0  # every row of the 3^13 box closes the phase
    assert code == 0
    assert_exact_relation(doc, report["cyclicity"])
    assert report["cyclicity"]["reasons"][0]["alpha"] == [-1, -1, 1] + [0] * 13


def test_exact_input_bit_cap_exits_two(tmp_path, capsys):
    doc = unimodular_exact_symbol([3, 5])
    doc["exact"]["eigenvalues"][1]["arg"]["pi_rational"] = {"num": 1, "den": 2**63 + 1}
    assert main(["analyze", write_json(tmp_path / "wide.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "exceed 63 bits" in err and err.count("\n") == 1


@pytest.mark.parametrize("field", ["modulus", "pi_rational"])
def test_boolean_denominator_exits_two(tmp_path, capsys, field):
    # a JSON true is a Python int; as a denominator it once loaded as 1
    doc = unimodular_exact_symbol([1, 3])
    eig = doc["exact"]["eigenvalues"][0]
    (eig if field == "modulus" else eig["arg"])[field] = {"num": 1, "den": True}
    assert main(["analyze", write_json(tmp_path / "bool.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "must be integers" in err and err.count("\n") == 1


@pytest.mark.parametrize("eigenvalues", [5, None], ids=["int", "null"])
def test_exact_eigenvalues_must_be_a_list(tmp_path, capsys, eigenvalues):
    # once a TypeError traceback: "'int' object is not iterable"
    doc = dict(SYMBOL_HALF, exact={"eigenvalues": eigenvalues})
    assert main(["analyze", write_json(tmp_path / "sym.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == 'fockdyn: invalid input: exact data must be {"eigenvalues": [...]}\n'


@pytest.mark.parametrize("coefficients", [5, None, {"a": 1}], ids=["int", "null", "object"])
def test_function_coefficients_must_be_a_list(tmp_path, capsys, coefficients):
    # a number or null once ended in a TypeError traceback, and an object's
    # keys were read as its entries
    doc = {"symbol": SYMBOL_HALF, "function": {"coefficients": coefficients}}
    assert main(["project", write_json(tmp_path / "fn.json", doc), "--degree", "1"]) == 2
    err = capsys.readouterr().err
    assert err == 'fockdyn: invalid input: function document must be {"coefficients": [...]}\n'


def diagonal(values) -> list:
    return [[dump_complex(z) if i == j else 0 for j, z in enumerate(values)] for i in range(len(values))]


def exact_analyze(tmp_path, values, eigenvalues) -> dict:
    """The cyclicity verdict of analyze on A = diag(values), b = 0, with the
    given exact entries."""
    doc = {
        "dimension": len(values),
        "A": diagonal(values),
        "b": [0] * len(values),
        "exact": {"eigenvalues": eigenvalues},
    }
    code, report = run_json(tmp_path, ["analyze", write_json(tmp_path / "sym.json", doc)])
    assert code == 0
    return report["cyclicity"]


ZERO_ARG = {"pi_rational": {"num": 0, "den": 1}}


def test_empty_modulus_tag_is_a_tag(tmp_path):
    # the tag "" once dropped out of the modulus constraints, and the
    # verdict named the false relation alpha = (-1, 0)
    verdict = exact_analyze(tmp_path, [0.5, 0.3], [
        {"modulus": {"log_generic": ""}, "arg": ZERO_ARG},
        {"modulus": {"log_generic": "r1"}, "arg": {"generic": "t1"}},
    ])
    assert verdict["status"] == "cyclic"
    assert [r["code"] for r in verdict["reasons"]] == ["NO_RELATION"]


def test_empty_argument_tag_is_a_tag(tmp_path):
    # the tag "" once dropped out of the phase constraints, and the verdict
    # named the false relation alpha = (-2, 1) of the moduli 1/2 and 1/4
    verdict = exact_analyze(tmp_path, [0.5 * np.exp(0.7j), 0.25], [
        {"modulus": {"num": 1, "den": 2}, "arg": {"generic": ""}},
        {"modulus": {"num": 1, "den": 4}, "arg": ZERO_ARG},
    ])
    assert verdict["status"] == "cyclic"
    assert [r["code"] for r in verdict["reasons"]] == ["NO_RELATION"]


def test_cyclic_vector_without_exact_data_is_refused_before_the_search(tmp_path, capsys):
    # without exact data the verdict is never cyclic; at d=6 the relation
    # search once ran first and exceeded its budget (exit 3)
    doc = {
        "symbol": {"dimension": 6, "A": np.diag(np.linspace(0.3, 0.6, 6)).tolist(), "b": [0] * 6},
        "function": {"coefficients": [{"alpha": [0] * 6, "value": 1.0}]},
    }
    assert main(["cyclic-vector", write_json(tmp_path / "fn.json", doc), "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: invalid input: operator is not provably cyclic")
    assert err.count("\n") == 1


def write_sparse_degree_200(tmp_path):
    """z1^200 + ... + z4^200 under A = I/2, b = (1/2, 0, 0, 0): xi = (1, 0, 0, 0)."""
    doc = {"dimension": 4, "A": (0.5 * np.eye(4)).tolist(), "b": [0.5, 0, 0, 0]}
    doc["function"] = {
        "coefficients": [
            {"alpha": [200 * (i == j) for i in range(4)], "value": 1.0} for j in range(4)
        ]
    }
    return write_json(tmp_path / "fn4.json", doc)


def test_sparse_degree_200_project(tmp_path):
    # far-apart terms at the projection degree cap each get a small box of
    # their own; around xi = (1, 0, 0, 0) only z1^200 has a degree-2 part,
    # C(200, 2) (z1 - 1)^2
    path = write_sparse_degree_200(tmp_path)
    code, rep = run_json(tmp_path, ["project", path, "--degree", "2"])
    assert code == 0
    coeffs = {
        tuple(e["alpha"]): complex(e["value"]["re"], e["value"]["im"])
        for e in rep["coefficients"]
    }
    assert coeffs == pytest.approx(
        {(2, 0, 0, 0): 19900, (1, 0, 0, 0): -39800, (0, 0, 0, 0): 19900}, rel=1e-12
    )


def test_sparse_degree_200_quadrature_refuses(tmp_path, capsys):
    # rotating z1^200 about xi = (1, 0, 0, 0) gives node coefficients near
    # C(200, 100) ~ 1e59, whose node average cancels to garbage
    path = write_sparse_degree_200(tmp_path)
    assert main(["project", path, "--degree", "2", "--mode", "quadrature"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: unsupported input: ") and err.count("\n") == 1


def test_project_above_the_function_degree_is_zero_in_both_modes(tmp_path, capsys):
    # f = z1 + 0.5 z2^2 has no part of degree 10^9 around any center; the
    # quadrature would take deg f + n + 1 nodes and ask for 7.45 GiB
    doc = {"dimension": 2, "A": [[0.5, 0], [0, 0.4]], "b": [0.1, 0.2]}
    doc["function"] = {
        "coefficients": [{"alpha": [1, 0], "value": 1.0}, {"alpha": [0, 2], "value": 0.5}]
    }
    path = write_json(tmp_path / "fn.json", doc)
    reports = {}
    for mode in ("recentering", "quadrature"):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, reports[mode] = run_json(
                tmp_path, ["project", path, "--degree", "1000000000", "--mode", mode]
            )
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 20 * 2**20 and elapsed < 10.0
        assert reports[mode]["coefficients"] == []
        del reports[mode]["mode"], reports[mode]["provenance"]["mode"]
    assert reports["recentering"] == reports["quadrature"]


def test_grid_oracle_over_the_basis_budget_exits_three_at_once(tmp_path, capsys):
    # degree 10^5 in two variables is a 5e9-row basis: refused by the basis
    # budget before anything is built, as the reduced oracle is
    doc = {"dimension": 2, "A": [[0.5, 0], [0, 0.4]], "b": [0.1, 0.2]}
    path = write_json(tmp_path / "sym.json", doc)
    for method in ("grid", "reduced"):
        tracemalloc.start()
        try:
            code = main([
                "approx", path, "--top", "3", "--oracle", "--oracle-method", method,
                "--oracle-degree", "100000",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 20 * 2**20
        err = capsys.readouterr().err
        assert err.startswith("fockdyn: budget exceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize("exact", [False, True])
def test_cyclic_vector_negative_degree_is_named(tmp_path, capsys, exact):
    # the degree is checked before the verdict: without exact data the
    # verdict is undecided, which once hid the degree behind "not provably cyclic"
    sym = {"dimension": 1, "A": [[0.5]], "b": [0]}
    if exact:
        sym["exact"] = {"eigenvalues": [
            {"modulus": {"num": 1, "den": 2}, "arg": {"pi_rational": {"num": 0, "den": 1}}}]}
    doc = {"symbol": sym, "function": {"coefficients": [{"alpha": [1], "value": 1.0}]}}
    path = write_json(tmp_path / "fn.json", doc)
    assert main(["cyclic-vector", path, "--degree", "-1"]) == 2
    err = capsys.readouterr().err
    assert "degree must be nonnegative" in err and err.count("\n") == 1


@pytest.mark.parametrize("sym", [
    {"dimension": 1, "A": [[1.0]], "b": [0.5]},  # unbounded: never classified
    {"dimension": 2, "A": [[0.5, 0.0], [0.0, 0.0]], "b": [0, 0]},  # singular A
    SYMBOL_CYCLIC,  # exact data
    {"dimension": 2, "A": [[0.5, 0.0], [0.0, 0.3]], "b": [0.1, 0]},  # numeric, invertible
], ids=["unbounded", "singular", "exact", "numeric"])
def test_analyze_height_zero_is_refused_for_every_symbol(tmp_path, capsys, sym):
    # once refused only where the relation search ran; the others exited 0
    # and recorded the height in their provenance
    path = write_json(tmp_path / "sym.json", sym)
    assert main(["analyze", path, "--height", "0"]) == 2
    err = capsys.readouterr().err
    assert "height must be >= 1, got 0" in err and err.count("\n") == 1


def test_cyclic_vector_over_the_basis_budget_exits_three_at_once(tmp_path, capsys):
    # degree 315 checks C(317, 2) = 50,086 coefficients, over the 50,000 of
    # BASIS_SIZE_BUDGET (degree 314 checks 49,770); degree 10^5 once ended
    # in a MemoryError
    doc = dict(SYMBOL_CYCLIC, function={"coefficients": [{"alpha": [0, 0], "value": 1.0}]})
    path = write_json(tmp_path / "fn.json", doc)
    for degree in ("315", "100000"):
        tracemalloc.start()
        try:
            code = main(["cyclic-vector", path, "--degree", degree])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 20 * 2**20
        err = capsys.readouterr().err
        assert "basis budget" in err and err.count("\n") == 1


def test_numerical_failure_exits_two(tmp_path, capsys):
    # near-defective: the Jordan profile of A cannot be read off reliably
    doc = {"dimension": 3, "A": [[0.5, 1e-9, 0], [0, 0.5, 1e-9], [0, 0, 0.5]], "b": [0, 0, 0]}
    assert main(["analyze", write_json(tmp_path / "near.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: ") and err.count("\n") == 1


def test_reports_are_byte_identical(tmp_path):
    path = write_json(tmp_path / "sym.json", SYMBOL_CYCLIC)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", path, "--output", str(out1)]) == 0
    assert main(["analyze", path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seeded_commands_are_byte_identical(tmp_path):
    doc_in = {
        "dimension": 2,
        "A": [[{"re": 0.5}, {"re": 0.1}], [{"re": 0.0}, {"re": 0.4}]],
        "b": [{"re": 0.1}, {"re": 0.2}],
    }
    path = write_json(tmp_path / "sym.json", doc_in)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["orbit-rank", path, "--degree", "3", "--seed", "11"]
    assert main([*args, "--output", str(out1)]) == 0
    assert main([*args, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_text_format_renders_same_data(tmp_path, capsys):
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    assert main(["approx", path, "--top", "3", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "prefactor: 1.0" in text
    assert "closed_form_sum: 2.0" in text


def test_suite_filter_runs_matching_criteria(tmp_path):
    code, doc = run_json(tmp_path, ["suite", "--only", "adjoint"])
    assert code == 0
    assert [c["slug"] for c in doc["criteria"]] == ["adjoint-pairing"]
    assert doc["criteria"][0]["passed"] is True


def test_suite_text_report_uses_the_report_renderer(capsys):
    assert main(["suite", "--only", "adjoint", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["criteria:", "  -"]
    assert "    slug: adjoint-pairing" in lines and "    passed: true" in lines
    assert "passed_count: 1" in lines and "total: 1" in lines


def test_suite_unknown_filter_exits_two():
    assert main(["suite", "--only", "nosuch"]) == 2


def test_suite_failure_gives_nonzero_exit(tmp_path, monkeypatch):
    def fake_run_suite(only=None, seed=0):
        return [CriterionResult("stub", False, "forced failure", 0.0)]

    monkeypatch.setattr(fockdyn.suite, "run_suite", fake_run_suite)
    out = tmp_path / "r.json"
    code = main(["suite", "--output", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["criteria"][0]["passed"] is False


def random_json(rng, depth):
    """A random nested payload of every type reports may hold."""
    alphabet = list("az09 _-") + ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "π", "\u2028", "𝄞"]

    def text():
        return "".join(rng.choice(alphabet, size=int(rng.integers(0, 6))))

    kind = int(rng.integers(0, 10 if depth < 4 else 6))
    if kind == 0:
        return text()
    if kind == 1:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.choice([1, 2**70]))
    if kind == 2:
        return float(rng.choice([rng.normal(), rng.normal() * 1e300, rng.normal() * 1e-300]))
    if kind == 3:
        return [True, False, None][int(rng.integers(0, 3))]
    if kind == 4:
        return float(rng.choice([0.0, -0.0, 1e16, 1e-7, 5e-324, np.nan, np.inf, -np.inf]))
    if kind == 5:
        return int(rng.integers(-3, 300))
    size = int(rng.integers(0, 5))
    if kind == 6:
        return {text(): random_json(rng, depth + 1) for _ in range(size)}
    items = [random_json(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 7 else items


def test_json_writer_matches_json_dumps():
    ns = argparse.Namespace(format="json", command="approx")
    fixed = {
        "empty": [{}, [], (), {"": {}}, [[], [{}]]],
        "strings": ["", 'quote " back \\ slash', "\n\r\t\b\f\x00", "é ∑ 𝄞 \u2028"],
        "floats": [-0.0, 0.0, 1e16, 1.5e-320, 2.0**-1074, 0.1, np.nan, np.inf, -np.inf],
        "ints": [0, -1, 2**64, -(2**100), 10**30],
        "constants": (True, False, None),
    }
    rng = np.random.default_rng(3)
    payloads = [fixed] + [{"report": random_json(rng, 0)} for _ in range(300)]
    for payload in payloads:
        assert render_report(payload, ns) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_scalar_text(value) -> str:
    kind = type(value)
    if kind is str or kind is int or kind is float:
        return str(value)
    if kind is bool or value is None:
        return {True: "true", False: "false", None: "null"}[value]
    raise TypeError(f"cannot render {kind.__name__}")


def is_complex_doc(value) -> bool:
    return isinstance(value, dict) and set(value) == {"re", "im"}


def reference_text_lines(value, indent: str) -> list:
    """The text format as a plain line builder, one string per line: the
    reference for the text writer, as json.dumps is for the JSON writer."""
    if is_complex_doc(value):
        return [f"{indent}{complex(value['re'], value['im'])}"]
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            v = value[key]
            if is_complex_doc(v):
                lines.append(f"{indent}{key}: {complex(v['re'], v['im'])}")
            elif isinstance(v, (dict, list, tuple)):
                lines.append(f"{indent}{key}:")
                lines.extend(reference_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {reference_scalar_text(v)}")
        return lines
    if isinstance(value, (list, tuple)):
        lines = []
        for v in value:
            if is_complex_doc(v):
                lines.append(f"{indent}- {complex(v['re'], v['im'])}")
            elif isinstance(v, (dict, list, tuple)):
                lines.append(f"{indent}-")
                lines.extend(reference_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {reference_scalar_text(v)}")
        return lines
    return [f"{indent}{reference_scalar_text(value)}"]


def test_text_writer_matches_reference_lines():
    ns = argparse.Namespace(format="text", command="approx")
    fixed = {
        "complex": [{"re": 0.5, "im": -0.0}, {"re": 1, "im": 2}, {"re": -1e300, "im": np.inf}],
        "in_dict": {"z": {"im": 0.25, "re": -3.0}, "not_complex": {"re": 1.0}},
        "empty": [{}, [], (), {"": {}}, [[], [{}]]],
        "tuples": ((1, "a"), ((), (None,)), [(True, False)]),
        "strings": ["", 'quote " back \\ slash', "line\nbreak", "é ∑ 𝄞 \u2028"],
        "floats": [-0.0, 1e16, 2.0**-1074, 0.1, np.nan, np.inf, -np.inf],
        "ints": [0, -1, 2**64, -(2**100)],
    }
    rng = np.random.default_rng(3)
    payloads = [fixed, {}] + [{"report": random_json(rng, 0)} for _ in range(300)]
    for payload in payloads:
        expected = "\n".join(reference_text_lines(payload, "")) + "\n"
        assert render_report(payload, ns) == expected


def expanded(value):
    """value with every Rows replaced by the list of its records."""
    if type(value) is Rows:
        return [expanded(r) for r in value]
    if type(value) is dict:
        return {k: expanded(v) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [expanded(v) for v in value]
    return value


ROW_FLOATS = [-0.0, 0.0, 5e-324, 2.0**-1074, 1e16, 1e-7, 0.1, 1e308, -1e-300]


def random_rows(rng, nonfinite: bool):
    """Rows of 1 to 3 fields, 0 to 50 records, each field floats or int
    tuples of width 1 to 6 (given as 1 to 6 slot columns); with nonfinite, a
    float column may hold nan or inf."""
    alphabet = list("az_%") + ['"', "\\", "é", "𝄞"]
    names = {"".join(rng.choice(alphabet, size=int(rng.integers(0, 5)))) for _ in range(3)}
    names = sorted(names)[: int(rng.integers(1, len(names) + 1))]
    n = int(rng.integers(0, 51))
    columns = []
    for _ in names:
        if rng.uniform() < 0.5:
            pool = ROW_FLOATS + [np.nan, np.inf, -np.inf] * nonfinite
            columns.append([
                float(rng.choice(pool)) if rng.uniform() < 0.5 else float(rng.normal() * 10.0 ** rng.integers(-20, 20))
                for _ in range(n)
            ])
        else:
            width = int(rng.integers(1, 7))
            big = [0, 1, -1, 2**64, -(2**100), 10**30]
            columns.append([
                tuple(int(rng.choice(big)) if rng.uniform() < 0.2 else int(rng.integers(-5, 300)) for _ in range(n))
                for _ in range(width)
            ])  # one column per tuple slot
    return Rows(names, columns)


def test_rows_write_as_their_records():
    # both writers print a Rows, alone or nested in lists and dicts, as they
    # print the list of its records
    rng = np.random.default_rng(7)
    payloads = [{"empty": Rows(("alpha",), [()]), "one": Rows(("x",), [(0.5,)])}]
    for i in range(120):
        rows = [random_rows(rng, nonfinite=i % 4 == 0) for _ in range(3)]
        payloads.append({"a": rows[0], "nested": [rows[1], {"deeper": [rows[2]]}], "z": 1.5})
    for payload in payloads:
        plain = expanded(payload)
        out = render_report(payload, argparse.Namespace(format="json"))
        assert out == json.dumps(plain, sort_keys=True, indent=2) + "\n"
        out = render_report(payload, argparse.Namespace(format="text"))
        assert out == "\n".join(reference_text_lines(plain, "")) + "\n"


def test_rows_nonfinite_floats_write_as_json_constants():
    rows = Rows(("value", "alpha"), [(1.0, np.nan, np.inf, -np.inf), ((0, 1, 2, 3),)])
    out = render_report({"terms": rows}, argparse.Namespace(format="json"))
    assert [line.strip() for line in out.splitlines() if "value" in line] == [
        '"value": 1.0', '"value": NaN', '"value": Infinity', '"value": -Infinity'
    ]
    assert json.loads(out)["terms"][3] == {"alpha": [3], "value": -np.inf}


def test_rows_print_complex_records_as_numbers():
    rows = Rows(("re", "im"), [(0.5, -0.0, 1e16), (0.0, 1.0, np.nan)])
    out = render_report({"eigenvalues": rows}, argparse.Namespace(format="text"))
    assert out == "eigenvalues:\n  - (0.5+0j)\n  - (-0+1j)\n  - (1e+16+nanj)\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_rows_refuse_numpy_scalars(fmt):
    ns = argparse.Namespace(format=fmt, command="approx")
    for column in ([np.float64(0.5)], [(np.int64(3),)], [(1, True)], [0.5, 1], [[[1, 2]]]):
        with pytest.raises(TypeError):
            render_report({"terms": Rows(("value",), [column])}, ns)


@pytest.mark.parametrize("a, b, k", [
    ([[0.6]], [0.3], 50),
    ([[0.5, 0.2], [0.0, 0.4]], [0.25, 0.15j], 400),
    ([[0.5, 0.0, 0.1], [0.0, 0.0, 0.0], [0.2, 0.0, 0.3]], [0.1, 0.2, 0.0], 1000),  # rank 2
    ((0.6 * np.eye(4) + 0.05 * np.ones((4, 4))).tolist(), [0.1, 0.0, -0.2, 0.3j], 3000),
])
def test_approx_report_matches_heap_records(a, b, k):
    # the columns from the enumeration to the writers print the records of
    # the best-first heap over the nonzero singular values, times the
    # prefactor, with zero exponents on the axes of zero singular values
    sym = AffineSymbol(a, b)
    lam, _, prefactor = singular_data(sym)
    keep = [float(x) for x in lam if x > ZERO_SINGULAR_TOL]
    pairs = _best_first(lambda alpha: math.prod(x**a for x, a in zip(keep, alpha)), (k,) * len(keep), k)
    zeros = [0] * (len(lam) - len(keep))
    rep = approx_numbers(sym, k)
    plain = {
        "prefactor": prefactor,
        "terms": [{"alpha": [*alpha, *zeros], "value": prefactor * v} for alpha, v in pairs],
        "closed_form_sum": rep.closed_form_sum,
    }
    assert len(keep) == (2 if len(lam) == 3 else len(lam))
    payload = dump_approx(rep)
    out = render_report(payload, argparse.Namespace(format="json"))
    assert out == json.dumps(plain, sort_keys=True, indent=2) + "\n"
    out = render_report(payload, argparse.Namespace(format="text"))
    assert out == "\n".join(reference_text_lines(plain, "")) + "\n"


def test_text_report_peaks_no_higher_than_json():
    # the text writer holds one string per container, not one per line: a
    # 20,000-term d=3 approx report peaks below its JSON rendering
    sym = AffineSymbol(np.diag([0.9, 0.8, 0.7]), np.array([0.1, 0.0, 0.2]))
    payload = dump_approx(approx_numbers(sym, 20_000))
    peaks = {}
    for fmt in ("json", "text"):
        ns = argparse.Namespace(format=fmt, command="approx")
        tracemalloc.start()
        try:
            render_report(payload, ns)
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["text"] <= peaks["json"], peaks


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_reports_refuse_numpy_scalars(fmt):
    ns = argparse.Namespace(format=fmt, command="approx")
    for value in (np.float64(0.5), np.int64(3), np.bool_(True)):
        with pytest.raises(TypeError):
            render_report({"terms": [{"value": value}]}, ns)


def test_main_is_reentrant(tmp_path, capsys):
    # one parser serves every call: flags, defaults and errors of one call
    # must not reach the next
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    code, doc = run_json(tmp_path, ["approx", path, "--top", "3", "--seed", "5"])
    assert code == 0 and len(doc["terms"]) == 3 and doc["provenance"]["seed"] == 5
    code, doc = run_json(tmp_path, ["approx", path])
    assert code == 0 and len(doc["terms"]) == 10 and doc["provenance"]["seed"] == 0
    assert main(["spectrum", path, "--degree", "4", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("basis_size: 5\n")
    code, doc = run_json(tmp_path, ["spectrum", path, "--degree", "2"])
    assert code == 0 and doc["degree"] == 2 and doc["provenance"]["command"] == "spectrum"
    assert "top" not in doc["provenance"]
    for _ in range(2):
        code, doc = run_json(tmp_path, ["suite", "--only", "adjoint"])
        assert code == 0 and doc["provenance"]["only"] == ["adjoint"]
    with pytest.raises(SystemExit) as err:
        main(["spectrum", path])  # --degree is missing
    assert err.value.code == 1
    assert main([]) == 1
    code, doc = run_json(tmp_path, ["spectrum", path, "--degree", "1"])
    assert code == 0 and doc["basis_size"] == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_module_entry_point_writes_the_same_report(tmp_path, capsys, fmt):
    # under python -m the command module runs as __main__, a second copy of
    # fockdyn.cli; the writers must still recognise fockdyn.io's Rows
    doc = {"dimension": 3, "A": np.diag([0.9, 0.8, 0.7]).tolist(), "b": [0.1, 0.0, 0.2]}
    path = write_json(tmp_path / "d3.json", doc)
    args = ["approx", path, "--top", "2000", "--format", fmt]
    src = str(Path(fockdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fockdyn.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out
    if fmt == "json":
        assert proc.stdout == json.dumps(json.loads(proc.stdout), sort_keys=True, indent=2) + "\n"
    else:
        assert proc.stdout.count("\n  -\n") == 2000


def test_each_command_analyzes_its_symbol_once(tmp_path, monkeypatch):
    calls = {"check_boundedness": 0, "eigen_decompose": 0}
    for module, name in ((fockdyn.symbol, "check_boundedness"), (fockdyn.spectral, "eigen_decompose")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    function = {"coefficients": [{"alpha": [0, 0], "value": 1.0}, {"alpha": [1, 1], "value": 2.0}]}
    cyclic = write_json(tmp_path / "cyclic.json", dict(SYMBOL_CYCLIC, function=function))
    d3 = write_json(tmp_path / "d3.json", {
        "dimension": 3, "A": [[0.5, 0.1, 0], [0, 0.4, 0.1], [0.1, 0, 0.3]], "b": [0.1, 0.2, 0.3],
    })
    for args in (
        ["analyze", cyclic],
        ["cyclic-vector", cyclic, "--degree", "3"],
        ["approx", d3, "--top", "10", "--oracle", "--oracle-method", "reduced"],
    ):
        calls.update(dict.fromkeys(calls, 0))
        assert main([*args, "--output", str(tmp_path / "out.json")]) == 0
        assert calls["check_boundedness"] == 1 and calls["eigen_decompose"] <= 1, (args, calls)


def test_grid_oracle_takes_the_cheaper_svd_route(tmp_path, monkeypatch):
    # the cutoff moved below m = 861 (d = 2, degree 40): 150 values make the dense
    # SVD the cheaper route (m^3 <= LANCZOS_COST 150 m^2), 5 leave Lanczos; both
    # take the real matrix of the twin of this complex symbol.  numpy's SVD also runs on
    # the 2 x 2 linear part, which is not the truncation
    doc = {"dimension": 2, "A": [[0.5, 0], [0, {"re": 0, "im": 0.3}]], "b": [0.1, 0.2]}
    path = write_json(tmp_path / "sym.json", doc)
    monkeypatch.setattr(fockdyn.fockmat.operator, "DENSE_SVD_CUTOFF", 0)
    routes = []
    for module, name in ((np.linalg, "svd"), (scipy.sparse.linalg, "svds")):
        def spy(matrix, *args, _original=getattr(module, name), _name=name, **kwargs):
            if np.shape(matrix) != (2, 2):
                routes.append((_name, type(matrix), matrix.dtype, matrix.shape))
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    for top, route in (("150", "svd"), ("5", "svds")):
        routes.clear()
        code, doc = run_json(tmp_path, [
            "approx", path, "--top", top, "--oracle", "--oracle-method", "grid", "--oracle-degree", "40",
        ])
        assert code == 0 and routes == [(route, np.ndarray, np.float64, (861, 861))]
        assert doc["oracle"]["max_rel_delta"] < 1e-10


def test_svd_over_the_operations_budget_exits_three_at_once(tmp_path, capsys):
    # --top 2000 needs degree 95 (m = 4,656): the dense SVD, the cheaper route,
    # would take about a minute and a half, and Lanczos longer.  At degree 140
    # (m = 10,011) the dense SVD and Lanczos for 1,000 values are both over the
    # operations budget.
    path = write_json(tmp_path / "sym.json", {"dimension": 2, "A": [[0.5, 0], [0, 0.3]], "b": [0.1, 0.2]})
    for flags in (["--top", "2000"], ["--top", "1000", "--oracle-degree", "140"]):
        start = time.perf_counter()
        code = main(["approx", path, *flags, "--oracle", "--oracle-method", "grid"])
        assert code == 3 and time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("fockdyn: budget exceeded: ") and "SVD budget" in err
        assert err.count("\n") == 1



def test_negative_truncation_degree_exits_two(tmp_path, capsys):
    path = write_json(tmp_path / "sym.json", {"dimension": 2, "A": [[0.5, 0], [0, 0.3]], "b": [0.1, 0.2]})
    for args in (
        ["spectrum", path, "--degree", "-1"],
        ["approx", path, "--top", "3", "--oracle-degree", "-1", "--oracle-method", "grid"],
        ["approx", path, "--top", "3", "--oracle-degree", "-1", "--oracle-method", "reduced"],
    ):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("fockdyn: invalid input: invalid basis parameters") and err.count("\n") == 1
    assert main(["spectrum", path, "--degree", "0"]) == 0


# at d = 1 the truncations reach past degree 149, where 2^N N! leaves the float range
SYMBOL_LINE = {"dimension": 1, "A": [[0.5]], "b": [0.1]}


def test_line_truncations_past_degree_149(tmp_path):
    path = write_json(tmp_path / "line.json", SYMBOL_LINE)
    code, doc = run_json(tmp_path, ["spectrum", path, "--degree", "300"])
    assert code == 0 and doc["basis_size"] == 301
    got = [complex(e["re"], e["im"]) for e in doc["eigenvalues"]]
    assert np.abs(np.array(got) - 0.5 ** np.arange(301)).max() <= 1e-15
    # the auto degree of 138 values is 150 for the grid oracle, 153 for the reduced one
    for method, degree in (("grid", 150), ("reduced", 153)):
        code, doc = run_json(tmp_path, ["approx", path, "--top", "138", "--oracle", "--oracle-method", method])
        assert code == 0 and doc["oracle"]["degree"] == degree
        assert doc["oracle"]["max_rel_delta"] < 1e-10


def test_line_spectrum_at_the_basis_budget(tmp_path):
    # 50,000 values, 0.5^j down to the last subnormal 2^-1074 and exactly 0 after it
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(tmp_path, ["spectrum", path, "--degree", "49999"])
    assert code == 0 and doc["basis_size"] == 50_000
    assert [e["re"] for e in doc["eigenvalues"]] == np.ldexp(1.0, -np.arange(50_000)).tolist()
    assert not any(e["im"] for e in doc["eigenvalues"])


def test_grid_route_runs_past_degree_149_where_the_orbit_refuses(tmp_path, capsys):
    # Lanczos takes the truncated matrix, built with no monomial norm: degree 2500 (m = 2,501,
    # where Lanczos for one value is charged less than the dense SVD) runs
    path = write_json(tmp_path / "line.json", SYMBOL_LINE)
    code, doc = run_json(tmp_path, ["approx", path, "--top", "1", "--oracle-degree", "2500", "--oracle-method", "grid"])
    assert code == 0 and doc["oracle"]["degree"] == 2500 and doc["oracle"]["max_rel_delta"] < 1e-10
    # an orbit of a file function converts the function's own monomials: degree 3 runs in a
    # degree-200 truncation, a degree-160 function is refused
    for top, code in ((3, 0), (160, 3)):
        terms = [{"alpha": [0], "value": 1.0}, {"alpha": [top], "value": 0.5}]
        fn = write_json(tmp_path / "fn.json", {"symbol": SYMBOL_LINE, "function": {"coefficients": terms}})
        assert main(["orbit-rank", fn, "--degree", "200", "--steps", "5", "--projector-degree", "0"]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "fockdyn: budget exceeded: monomial norms of degree 160 exceed float range (degree 149 is the last)\n"


def test_grid_oracle_lanczos_budget_counts_the_grid(tmp_path, capsys):
    # d = 3, auto degree 58: Lanczos on the 59^3 grid for 30 values ran for 165 s when the
    # budget counted 1.04e9 operations on m = 35,990 rows; charged per value and m^2, it is
    # refused at once, before the matrix is built
    z = [[0.28 - 0.15j, 0.26, -0.29j], [-0.24 + 0.30j, -0.12 + 0.25j, 0.31 - 0.19j], [-0.42j, -0.28 + 0.03j, 0.21 + 0.05j]]
    b = [-1.92 + 0.58j, -0.29 - 0.32j, -0.84 + 1.88j]
    doc = {
        "dimension": 3,
        "A": [[{"re": x.real, "im": x.imag} for x in map(complex, row)] for row in z],
        "b": [{"re": x.real, "im": x.imag} for x in b],
    }
    path = write_json(tmp_path / "sym.json", doc)
    start = time.perf_counter()
    assert main(["approx", path, "--top", "30", "--oracle", "--oracle-method", "grid"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("fockdyn: budget exceeded: 30 of 35990 singular values") and "SVD budget" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("first, second", [(400, 3), (3, 400)])
def test_rewritten_report_equals_a_fresh_write(tmp_path, first, second):
    # reports are written in place and cut to length: a shorter report over a
    # longer one leaves none of the old bytes behind
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    out, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
    assert main(["approx", path, "--top", str(first), "--output", str(out)]) == 0
    assert main(["approx", path, "--top", str(second), "--output", str(out)]) == 0
    assert main(["approx", path, "--top", str(second), "--output", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert len(json.loads(out.read_text())["terms"]) == second


def test_text_report_over_a_json_report(tmp_path):
    path = write_json(tmp_path / "sym.json", SYMBOL_CYCLIC)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["analyze", path, "--output", str(out)]) == 0
    for target in (out, fresh):
        assert main(["analyze", path, "--format", "text", "--output", str(target)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_output_to_the_null_device_exits_zero(tmp_path, capsys):
    # /dev/null is not a regular file and is not cut to length
    path = write_json(tmp_path / "sym.json", SYMBOL_CYCLIC)
    assert main(["analyze", path, "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("target", [".", "missing/out.json"])
def test_unwritable_output_exits_two_in_one_line(tmp_path, capsys, target):
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    dest = tmp_path / target
    assert main(["approx", path, "--output", str(dest)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"fockdyn: invalid input: cannot write {dest}: [Errno ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("a, b", [
    ([[1e200]], [0]), ([[1e155]], [1e155]), ([[1e300, 1e300], [1e300, 1e300]], [0, 0]),
    ([[1e308, 1e308], [1e308, 1e308]], [0, 0]),  # ||A|| = 2e308 exits 2
])
def test_analyze_huge_eigenvalues_ends_in_one_line(tmp_path, capsys, a, b):
    # the midpoint test runs on T / ||A|| and the boundedness pairing takes no
    # square of a singular value, so |lambda|^2 past the float range raises nothing
    path = write_json(tmp_path / "huge.json", {"dimension": len(a), "A": a, "b": b})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", path])
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    if code == 0:
        assert err == "" and json.loads(out)["boundedness"]["bounded"] is False
    else:
        assert out == "" and err.startswith("fockdyn: ") and err.count("\n") == 1


@pytest.mark.parametrize("a, flags", [(1e30, ["--degree", "14", "--steps", "5"]), (1e200, ["--degree", "3"])])
@pytest.mark.parametrize("projector", [[], ["--projector-degree", "0"]])
def test_orbit_rank_overflowing_truncation_exits_two(tmp_path, capsys, a, flags, projector):
    path = write_json(tmp_path / "big.json", {"dimension": 1, "A": [[a]], "b": [0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["orbit-rank", path, *flags, *projector]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"fockdyn: unsupported input: the degree-{flags[1]} truncation of C overflows\n"


HUGE = "1" + "0" * 400  # 10^400, a JSON integer past the float range


@pytest.mark.parametrize("command, text, field", [
    ("analyze", '{"dimension": 1, "A": [[%s]], "b": [0]}', "A[0][0]"),
    ("analyze", '{"dimension": 1, "A": [[0.5]], "b": [{"re": 0, "im": %s}]}', "b[0].im"),
    ("analyze", '{"dimension": 1, "A": [[0.5]], "b": [0], "tol": %s}', "tol"),
    ("orbit-rank", '{"symbol": {"dimension": 1, "A": [[0.5]], "b": [0]}, "function": {"coefficients":'
     ' [{"alpha": [1], "value": 1.0}, {"alpha": [2], "value": %s}]}}', "coefficients[1].value"),
    ("demo-kronecker", '{"thetas": [1.0, %s], "target": [1, 1], "n_max": 10}', "thetas[1]"),
])
def test_integers_past_the_float_range_are_refused(tmp_path, capsys, command, text, field):
    # float() of such an integer once raised OverflowError: a traceback and exit 1
    path = tmp_path / "huge.json"
    path.write_text(text % HUGE)
    args = [command, str(path)] + (["--degree", "3"] if command == "orbit-rank" else [])
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == f"fockdyn: invalid input: {field} is an integer of 1329 bits, beyond the float range\n"


TAGGED = {"modulus": {"log_generic": "r"}, "arg": {"generic": "t"}}
OTHER = {"modulus": {"log_generic": "s"}, "arg": {"generic": "t"}}
HALF = {"modulus": {"num": 1, "den": 2}, "arg": ZERO_ARG}
TENTH3 = {"modulus": {"num": 3, "den": 10}, "arg": ZERO_ARG}
DIAG = [[0.5, 0], [0, 0.3]]
JORDAN_AND_DOUBLE = [[0.5, 0.25, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.3, 0], [0, 0, 0, 0.3]]
ARC16 = [0.5 * np.exp(1j * np.pi * (j + 0.5) / 17) for j in range(16)]


def half_with_arg(j: int) -> dict:
    return {"modulus": {"num": 1, "den": 2}, "arg": {"generic": f"t{j}"}}


UNPACKED = ("exact eigenvalue data mismatches the matrix spectrum (each class of equal entries "
            "needs one cluster, and no choice of clusters holds them all)")


@pytest.mark.parametrize("a, eigenvalues, message", [
    # two equal tagged claims on two distinct eigenvalues once gave the false relation (1, -1)
    (DIAG, [TAGGED, TAGGED], UNPACKED),
    # the pair fits the Jordan block, and 1/2 needs it too: once a false cyclic (0.25 = 0.5^2)
    ([[0.5, 0.5, 0], [0, 0.5, 0], [0, 0, 0.25]], [TAGGED, TAGGED, HALF], UNPACKED),
    # either pair fits the Jordan block, but not both: once a false relation of the second pair
    ([[0.5, 0.5, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.3, 0], [0, 0, 0, 0.2]],
     [TAGGED, TAGGED, OTHER, OTHER], UNPACKED),
    # a null tag was read by str() as the tag "None"
    (DIAG, [{"modulus": {"log_generic": None}, "arg": {"generic": "t"}},
            {"modulus": {"log_generic": "None"}, "arg": {"generic": "t"}}],
     "exact.eigenvalues[0].modulus.log_generic must be a string tag, got None"),
    (DIAG, [TAGGED, {"modulus": {"log_generic": "s"}, "arg": {"generic": 1}}],
     "exact.eigenvalues[1].arg.generic must be a string tag, got 1"),
    # a Jordan block is one eigenvalue, which two distinct tagged entries do not claim
    ([[0.5, 0.25], [0, 0.5]], [TAGGED, OTHER], UNPACKED),
    # the same with a pair 3/10 on a double 0.3: once the pair was collapsed instead, a false
    # cyclic where the numeric path says not_cyclic
    (JORDAN_AND_DOUBLE, [TAGGED, OTHER, TENTH3, TENTH3], UNPACKED),
    # 17 claims of modulus 1/2 on 16 eigenvalues of that modulus and 0.3: no claim fits 0.3,
    # so the first choice is a dead end
    (diagonal(ARC16 + [0.3]), [half_with_arg(j) for j in range(17)], UNPACKED),
    # the same on 14 double eigenvalues of modulus 1/2, 14 claims at their arguments first: once
    # exit 3 at the search budget, as the doubles stayed apart by the claims already placed
    (diagonal([0.5 * np.exp(1j * np.pi * j / 20) for j in range(1, 15) for _ in range(2)] + [0.3]),
     [{"modulus": {"num": 1, "den": 2}, "arg": {"pi_rational": {"num": j, "den": 20}}}
      for j in range(1, 15)] + [half_with_arg(j) for j in range(15)], UNPACKED),
    # 27 pairs and 2 singles of modulus 1/2 on eigenvalues of multiplicities 1 to 10 of that
    # modulus, and 3/10 on a double 0.3: the search passes its budget, and a matching of the
    # entries to the eigenvalues finds no place for one of the 56 entries of modulus 1/2
    (diagonal([0.5 * np.exp(1j * np.pi * (j + 0.5) / 10) for j in range(10) for _ in range(j + 1)]
              + [0.3, 0.3]),
     [half_with_arg(f"p{c // 2}") for c in range(54)] + [half_with_arg("s"), half_with_arg("u"),
                                                         {**TENTH3, "arg": {"generic": "q"}}],
     UNPACKED),
    # 15 such claims, 3/10 on a double 0.3 and a tagged pair, which fits nowhere (once exit 3
    # at the search budget)
    (diagonal(ARC16 + [0.3, 0.3]),
     [half_with_arg(j) for j in range(15)] + [{**TENTH3, "arg": {"generic": "q"}}, TAGGED, TAGGED],
     UNPACKED),
    # a claim that fits no eigenvalue is named with its smallest residual
    (DIAG, [HALF, {"modulus": {"num": 1, "den": 10}, "arg": ZERO_ARG}],
     "exact eigenvalue data mismatches the matrix spectrum (the smallest residual of "
     "exact.eigenvalues[1] is 2.000e-01)"),
])
def test_unfounded_exact_claims_are_refused(tmp_path, capsys, a, eigenvalues, message):
    doc = {"dimension": len(a), "A": a, "b": [0] * len(a), "exact": {"eigenvalues": eigenvalues}}
    start = time.perf_counter()
    assert main(["analyze", write_json(tmp_path / "sym.json", doc)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == f"fockdyn: invalid input: {message}\n"


def test_exact_data_of_the_wrong_length_is_refused(tmp_path, capsys):
    doc = {"dimension": 2, "A": DIAG, "b": [0, 0], "exact": {"eigenvalues": [HALF]}}
    assert main(["analyze", write_json(tmp_path / "sym.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "fockdyn: invalid input: exact data lists 1 eigenvalues for dimension 2\n"


def test_claims_are_matched_by_their_worst_residual(tmp_path):
    # each claim lies within 1e-8 of its own eigenvalue, 0.95e-8 and 0.5e-8; a match that
    # minimized the sum of the residuals put the first on the second eigenvalue, the second
    # 1.07e-8 from the first, and refused the claims
    modulus = {"num": 100000019, "den": 2000000000}
    verdict = exact_analyze(tmp_path, [0.05, 0.0500000095], [
        {"modulus": modulus, "arg": ZERO_ARG},
        {"modulus": modulus, "arg": {"pi_rational": {"num": 1, "den": 31415927}}},
    ])
    assert verdict["status"] == "not_cyclic"


def test_the_jordan_pair_is_the_class_on_the_block(tmp_path):
    # the entries 1/2 fill the Jordan block and count once; the pair 3/10 is the double 0.3
    doc = {"dimension": 4, "A": JORDAN_AND_DOUBLE, "b": [0] * 4,
           "exact": {"eigenvalues": [TENTH3, TENTH3, HALF, HALF]}}
    code, report = run_json(tmp_path, ["analyze", write_json(tmp_path / "sym.json", doc)])
    assert code == 0 and report["cyclicity"]["status"] == "not_cyclic"
    assert [r["alpha"] for r in report["cyclicity"]["reasons"]] == [[1, -1, 0]]


def test_packing_equal_claims_has_a_budget(tmp_path, capsys):
    # clusters of multiplicities 1 to 10 cannot hold 27 tagged pairs and one tagged entry: each
    # of the five clusters of odd multiplicity needs a single entry, which the search sees only
    # after its budget; the entries fit the eigenvalues one by one, so no matching refuses them
    values = [0.5 * np.exp(1j * np.pi * (j + 0.5) / 10) for j in range(10) for _ in range(j + 1)]
    claims = [{"modulus": {"log_generic": f"r{c // 2}"}, "arg": {"generic": "t"}} for c in range(55)]
    doc = {"dimension": 55, "A": diagonal(values), "b": [0] * 55, "exact": {"eigenvalues": claims}}
    assert main(["analyze", write_json(tmp_path / "sym.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "fockdyn: budget exceeded: packing the classes of equal exact entries into the clusters "
        "of the spectrum writes over 1e+06 cluster rooms\n")


def test_equal_tagged_claims_on_one_cluster_are_kept(tmp_path):
    # a double eigenvalue holds both claims: diagonal, the relation of the pair; one
    # block of size two, a single eigenvalue after the pair is collapsed
    verdict = exact_analyze(tmp_path, [0.5, 0.5], [TAGGED, TAGGED])
    assert verdict["status"] == "not_cyclic"
    assert [r["alpha"] for r in verdict["reasons"]] == [[1, -1]]
    doc = {"dimension": 2, "A": [[0.5, 0.25], [0, 0.5]], "b": [0, 0],
           "exact": {"eigenvalues": [TAGGED, TAGGED]}}
    code, report = run_json(tmp_path, ["analyze", write_json(tmp_path / "block.json", doc)])
    assert code == 0 and report["cyclicity"]["status"] == "cyclic"
