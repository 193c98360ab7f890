"""Every name a module of fockdyn imports is used in that module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockdyn

PACKAGE = Path(fockdyn.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by import statements that no expression of the module reads.
    A dotted name counts as used when an attribute chain starts with it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detector_sees_an_unused_import():
    source = "import math\nimport os.path\nfrom .relations import A, B as C\nos.path.join(A)\n"
    assert unused_imports(ast.parse(source)) == [(1, "math"), (3, "C")]


def test_cli_leaves_the_suite_unloaded():
    # the suite's scipy.optimize took 0.2 s and 17 MiB of every command's start
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                    os.environ.get("PYTHONPATH")])))
    code = "import sys, fockdyn.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, timeout=60).returncode == 0
