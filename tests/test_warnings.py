"""Numerical warnings are not silenced outside the classifier, and none arise."""

import ast
import warnings
from pathlib import Path

import pytest

from heatrates import kernels as kn
from heatrates import potential as pt

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heatrates"
#: the block quadrature of integral_tests still runs on adaptive quad and
#: silences its IntegrationWarning
ALLOWED = {"integral_tests"}


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


def test_only_the_classifier_uses_quad_or_silences_warnings():
    offences = {p.stem: _offences(p) for p in PACKAGE.glob("*.py")}
    assert {name for name, found in offences.items() if found} == ALLOWED, offences


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
