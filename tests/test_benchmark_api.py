"""The package names the benchmark in ``heatbench/`` uses still exist.

The benchmark is run on old and new commits alike, so a package change
that drops or renames a name it uses breaks the comparison; its own tests
are not part of this suite, so this one scans its files by AST.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from heatrates import scaling as sc

BENCH = Path(__file__).resolve().parents[1] / "heatbench"


def _package_attributes() -> dict[str, set[str]]:
    """{module: attribute names} over ``alias.name`` uses in heatbench/*.py,
    for every ``from heatrates import module as alias``."""
    used: dict[str, set[str]] = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "heatrates"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.setdefault(aliases[node.value.id], set()).add(node.attr)
    return used


def test_benchmark_names_exist():
    used = _package_attributes()
    assert set(used) == {"integral_tests", "kernels", "potential", "scaling", "simulate"}
    missing = sorted(
        f"{module}.{name}"
        for module, names in used.items()
        for name in names
        if not hasattr(importlib.import_module(f"heatrates.{module}"), name)
    )
    assert missing == []


def test_scaling_function_positional_fields():
    # heatbench builds ScalingFunction(evaluator, monotonicity, envelope, domain_floor)
    names = [f.name for f in dataclasses.fields(sc.ScalingFunction) if f.init]
    assert names[:4] == ["evaluator", "monotonicity", "envelope", "domain_floor"]
