"""Seeded fuzz of the commands: every input ends in exit 0, 2 or 3.

`project` (both modes) and `cyclic-vector` run through fockdyn.cli.main on
random symbols (d <= 4, unbounded linear parts up to norm 1.3, |b| up to 50)
and sparse random polynomials (degree up to 60, coefficients from 1e-12 to
1e12); `analyze`, `spectrum`, `approx` and `orbit-rank` run on the same
symbols at small degrees, half of them with `--format text`.  `analyze`
also runs on symbols with exact eigenvalue data (d <= 6, rational moduli,
arguments pi p / q, denominators up to 62 bits, repeated eigenvalues).  A
failure must be one line on stderr; a success writes nothing there.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from fockdyn.cli import main

from matrices import conjugated, jordan_block

CASES = 100
EXACT_CASES = 40


def complex_doc(z) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def random_case(rng) -> tuple:
    d = int(rng.integers(1, 5))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a *= rng.uniform(0.05, 1.3) / np.linalg.norm(a, 2)
    if rng.uniform() < 0.3:
        a = np.triu(a)  # repeated and defective eigenvalues come easier
        if rng.uniform() < 0.3:
            a[0, 0] = 1  # eigenvalue 1: no fixed point for almost every b
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    b *= 10 ** rng.uniform(-3, np.log10(50)) / np.linalg.norm(b)
    # degree up to 60, or 20 at d = 4, where a (deg + 1)^4 grid of the
    # cyclic-vector substitution would reach 1 GiB; mostly small
    degree = int((60 if d < 4 else 20) * rng.uniform() ** 2)
    scale = 10 ** rng.uniform(-12, 12)
    coeffs = []
    for _ in range(int(rng.integers(1, 9))):
        alpha = rng.multinomial(int(rng.integers(0, degree + 1)), np.ones(d) / d)
        value = scale * complex(rng.normal(), rng.normal())
        coeffs.append({"alpha": [int(k) for k in alpha], "value": complex_doc(value)})
    coeffs = list({tuple(c["alpha"]): c for c in coeffs}.values())
    symbol = {
        "dimension": d,
        "A": [[complex_doc(z) for z in row] for row in a],
        "b": [complex_doc(z) for z in b],
    }
    if rng.uniform() < 0.7:  # independence tags: a provably cyclic spectrum
        symbol["exact"] = {
            "eigenvalues": [
                {"modulus": {"log_generic": f"r{j}"}, "arg": {"generic": f"t{j}"}}
                for j in range(d)
            ]
        }
    doc = {"symbol": symbol, "function": {"coefficients": coeffs}}
    top = max(sum(c["alpha"]) for c in coeffs)
    n = int(rng.integers(0, top + 3))
    return doc, [
        ["project", "--degree", str(n), "--mode", "recentering"],
        ["project", "--degree", str(n), "--mode", "quadrature"],
        ["cyclic-vector", "--degree", str(top + int(rng.integers(0, 3)))],
    ]


def symbol_commands(rng, d: int) -> list:
    """analyze, spectrum, approx and orbit-rank at small degrees, each in
    text format with probability 1/2."""
    commands = [
        ["analyze", "--height", str(int(rng.integers(1, 13)))],
        ["spectrum", "--degree", str(int(rng.integers(0, 9 - d)))],
        ["approx", "--top", str(int(rng.integers(1, 40)))] + ["--oracle"] * (rng.uniform() < 0.3),
        ["orbit-rank", "--degree", str(int(rng.integers(0, 9 - d))), "--steps",
         str(int(rng.integers(1, 20)))],
    ]
    return [c + ["--format", "text"] * (rng.uniform() < 0.5) for c in commands]


# a numpy warning is an extra stderr line from the command line; here it fails the test
@pytest.mark.filterwarnings("error")
def test_polynomial_commands_end_in_a_known_exit(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    flags_rng = np.random.default_rng(2025)
    codes = {}
    for i in range(CASES):
        doc, commands = random_case(rng)
        commands += symbol_commands(flags_rng, doc["symbol"]["dimension"])
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        for command, *flags in commands:
            args = [command, str(path), *flags, "--output", str(tmp_path / "out.json")]
            code = main(args)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (args, code, err)
            if code == 0:
                assert err == "", (args, err)
            else:
                assert err.startswith("fockdyn: ") and err.count("\n") == 1, (args, err)
            key = " ".join(flags[2:]) if command == "project" else command
            codes.setdefault(key, set()).add(code)
    # every command succeeds somewhere in the sample, and every command but
    # analyze, which reports an unbounded symbol instead of refusing it,
    # also refuses somewhere
    assert len(codes) == 7 and codes.pop("analyze") == {0}, codes
    assert all(seen >= {0, 2} for seen in codes.values()), codes


def random_fraction(rng, low: int, high_factor: int) -> Fraction:
    """p / q with q drawn below 2^bits, bits uniform in 1..62, and p in
    [low, high_factor q]."""
    q = int(rng.integers(1, 2 ** int(rng.integers(1, 63))))
    return Fraction(int(rng.integers(low, high_factor * q + 1)), q)


def exact_symbol(rng) -> dict:
    """A symbol whose eigenvalues r exp(i pi t) carry exact polar data:
    r in (0, 1] and t in [0, 2] rational, about 30% of them a repeat of an
    earlier one.  A is diagonal, or conjugated by a random unitary."""
    d = int(rng.integers(1, 7))
    polar = []
    for j in range(d):
        if j and rng.uniform() < 0.3:
            polar.append(polar[int(rng.integers(0, j))])
        else:
            polar.append((random_fraction(rng, 1, 1), random_fraction(rng, 0, 2)))
    a = np.diag([float(r) * np.exp(1j * np.pi * float(t)) for r, t in polar])
    if rng.uniform() < 0.5:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a = q @ a @ q.conj().T
    b = (rng.normal(size=d) + 1j * rng.normal(size=d)) * (rng.uniform() < 0.5)
    return {
        "dimension": d,
        "A": [[complex_doc(z) for z in row] for row in a],
        "b": [complex_doc(z) for z in b],
        "exact": {
            "eigenvalues": [
                {
                    "modulus": {"num": r.numerator, "den": r.denominator},
                    "arg": {"pi_rational": {"num": t.numerator, "den": t.denominator}},
                }
                for r, t in polar
            ]
        },
    }


@pytest.mark.filterwarnings("error")
def test_exact_symbols_end_in_a_known_exit(tmp_path, capsys):
    # a generator of its own, so the cases above stay as they are
    rng = np.random.default_rng(2026)
    for i in range(EXACT_CASES):
        path = tmp_path / f"exact{i}.json"
        path.write_text(json.dumps({"symbol": exact_symbol(rng)}))
        args = ["analyze", str(path), "--height", str(int(rng.integers(1, 13)))]
        args += ["--format", "text"] * (rng.uniform() < 0.5) + ["--output", str(tmp_path / "out")]
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (args, code, err)
        if code == 0:
            assert err == "", (args, err)
        else:
            assert err.startswith("fockdyn: ") and err.count("\n") == 1, (args, err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugated_three_block_with_exact_data_is_bad_jordan(tmp_path, seed):
    # a size-3 Jordan block at 0.5 conjugated by a Gaussian matrix and scaled
    # to norm 0.9, with the triple eigenvalue given exactly: the Jordan
    # structure alone decides, before any relation
    a = conjugated(jordan_block(0.5, 3), seed)
    r = Fraction(float(np.trace(a).real) / 3)
    polar = {"modulus": {"num": r.numerator, "den": r.denominator}, "arg": {"pi_rational": {"num": 0, "den": 1}}}
    symbol = {
        "dimension": 3,
        "A": [[complex_doc(z) for z in row] for row in a],
        "b": [complex_doc(0j)] * 3,
        "exact": {"eigenvalues": [polar] * 3},
    }
    path = tmp_path / "block.json"
    path.write_text(json.dumps({"symbol": symbol}))
    out = tmp_path / "out.json"
    assert main(["analyze", str(path), "--output", str(out)]) == 0
    verdict = json.loads(out.read_text())["cyclicity"]
    assert verdict["status"] == "not_cyclic"
    assert [r["code"] for r in verdict["reasons"]] == ["BAD_JORDAN"]
