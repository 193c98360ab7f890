"""The benchmark's tracer finds every traced function and binds its counters.

perfbench/tracer.py looks fockdyn's functions up by name and binds the
arguments of some by parameter name, so a renamed or deleted function or
parameter breaks the traced benchmark mode.  This test loads the tracer from
its file, installs it, runs one command per counted layer through the CLI,
and uninstalls it.
"""

import importlib.util
import json
from pathlib import Path

import fockdyn.cli
from fockdyn.cli import main

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

SYMBOL = {
    "dimension": 2,
    "A": [[0.5, 0.1], [0.0, 0.3]],
    "b": [0.2, -0.1],
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_and_binds_every_traced_name(tmp_path):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()  # raises if a TRACED name is gone
    symbol = tmp_path / "symbol.json"
    symbol.write_text(json.dumps(SYMBOL))
    function = tmp_path / "function.json"
    function.write_text(json.dumps({
        "symbol": SYMBOL,
        "function": {"coefficients": [{"alpha": [2, 1], "value": 1.0}]},
    }))
    commands = [
        ["spectrum", str(symbol), "--degree", "3"],
        ["orbit-rank", str(symbol), "--degree", "3", "--steps", "4"],
        ["analyze", str(symbol), "--height", "3"],
        ["approx", str(symbol), "--top", "4", "--oracle", "--oracle-method", "grid"],
        ["project", str(function), "--degree", "2"],
    ]
    original_run = fockdyn.cli.run
    tracer.install()
    try:
        assert fockdyn.cli.run is not original_run
        codes = [main([*argv, "--output", str(tmp_path / "out.json")]) for argv in commands]
    finally:
        tracer.uninstall()
    assert fockdyn.cli.run is original_run
    assert codes == [0] * len(commands)
    assert tracer.calls["cli.run"] == len(commands)
    for name in tracer_module._COUNTERS:
        assert tracer.calls[name] > 0, name
    assert all(tracer.counts[name] > 0 for name, _ in tracer_module.COUNTS), tracer.counts
