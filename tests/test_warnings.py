"""Numerical warnings are not silenced, quad is not used, and no warnings arise."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from heatrates import kernels as kn
from heatrates import potential as pt

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heatrates"
#: modules allowed to import scipy.integrate or silence warnings: every
#: integral, the classifier's blocks included, runs on the shared
#: Gauss-Legendre rule of integral_tests
ALLOWED = set()


def _offences(path: Path) -> list[str]:
    """Imports of scipy.integrate and warnings.simplefilter("ignore", ...) calls."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.integrate")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.integrate"):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names if a.name == "integrate"]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "simplefilter"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "ignore"
        ):
            found.append(f"simplefilter('ignore') at line {node.lineno}")
    return found


def test_no_module_uses_quad_or_silences_warnings():
    offences = {p.stem: _offences(p) for p in PACKAGE.glob("*.py")}
    assert {name for name, found in offences.items() if found} == ALLOWED, offences


def test_importing_the_package_does_not_load_scipy_integrate():
    # a fresh interpreter, so that no other test's imports count
    code = (
        "import importlib, pkgutil, sys, heatrates\n"
        "for m in pkgutil.iter_modules(heatrates.__path__):\n"
        "    importlib.import_module('heatrates.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.startswith('scipy.integrate')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("spec", ["stable:1.5,3", "stable:0.5,1", "stable:1.9,2", "gaussian:3"])
def test_green_function_raises_no_warnings(spec):
    m = kn.from_id(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (0.5, 2.0, 8.0):
            pt.green_function(m, d)
            pt.green_function(m, d, pt.QUADRATURE)


def test_envelope_only_tail_raises_no_warnings():
    m = kn.from_id("stablelike:3,1.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, 4.0, 100.0):
            for r in (0.5, 3.0, 64.0):
                kn.tail_probability(m, t, r)
