"""Seeded fuzz of the polynomial commands: every input ends in exit 0, 2 or 3.

`project` (both modes) and `cyclic-vector` run through fockdyn.cli.main on
random symbols (d <= 4, unbounded linear parts up to norm 1.3, |b| up to 50)
and sparse random polynomials (degree up to 60, coefficients from 1e-12 to
1e12).  A failure must be one line on stderr; a success writes nothing there.
"""

import json

import numpy as np

from fockdyn.cli import main

CASES = 100


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


def test_polynomial_commands_end_in_a_known_exit(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    codes = {}
    for i in range(CASES):
        doc, commands = random_case(rng)
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
            codes.setdefault(" ".join(flags[2:]) or command, set()).add(code)
    # every command both succeeds and refuses somewhere in the sample
    assert len(codes) == 3 and all(seen >= {0, 2} for seen in codes.values()), codes
