"""Command-line behavior: reports, exit codes, determinism."""

import json
import tracemalloc

import numpy as np
import pytest

import fockdyn.suite
from fockdyn.cli import main
from fockdyn.suite import CriterionResult


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


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["spectrum"])  # missing required input and degree
    assert err.value.code == 1
    capsys.readouterr()


def test_invalid_input_exits_two(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    short = write_json(
        tmp_path / "short.json", {"dimension": 2, "A": [[1, 0], [0, 1]], "b": [0]}
    )
    assert main(["analyze", short]) == 2


def test_budget_exits_three(tmp_path):
    path = write_json(tmp_path / "half.json", SYMBOL_HALF)
    assert main(["spectrum", path, "--degree", "100000000"]) == 3


def test_dense_byte_budgets_exit_three_before_allocating(tmp_path, capsys):
    # a 39,711-row basis passes the row budget, but its dense matrix would
    # take 23.5 GiB; the grid oracle's 10^8-entry grid in eight variables
    # would take 1.5 GiB a copy
    sym3 = {"dimension": 3, "A": [[0.5, 0, 0], [0, 0.4, 0], [0, 0, 0.3]], "b": [0, 0, 0]}
    spectrum = write_json(tmp_path / "sym3.json", sym3)
    sym8 = {"dimension": 8, "A": (0.5 * np.eye(8)).tolist(), "b": [0] * 8}
    approx = write_json(tmp_path / "sym8.json", sym8)
    for args in (
        ["spectrum", spectrum, "--degree", "60"],
        ["approx", approx, "--top", "3", "--oracle-degree", "9", "--oracle-method", "grid"],
    ):
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 200 * 2**20
        assert "dense budget" in capsys.readouterr().err


def test_sparse_degree_200_project(tmp_path):
    # far-apart terms at the projection degree cap each get a small box of
    # their own; around xi = (1, 0, 0, 0) only z1^200 has a degree-2 part,
    # C(200, 2) (z1 - 1)^2
    doc = {"dimension": 4, "A": (0.5 * np.eye(4)).tolist(), "b": [0.5, 0, 0, 0]}
    doc["function"] = {
        "coefficients": [
            {"alpha": [200 * (i == j) for i in range(4)], "value": 1.0} for j in range(4)
        ]
    }
    path = write_json(tmp_path / "fn4.json", doc)
    code, rep = run_json(tmp_path, ["project", path, "--degree", "2"])
    assert code == 0
    coeffs = {
        tuple(e["alpha"]): complex(e["value"]["re"], e["value"]["im"])
        for e in rep["coefficients"]
    }
    assert coeffs == pytest.approx(
        {(2, 0, 0, 0): 19900, (1, 0, 0, 0): -39800, (0, 0, 0, 0): 19900}, rel=1e-12
    )


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
