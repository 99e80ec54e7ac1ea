"""Every package module is imported by another package module or a test."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatrates"


def _imported_modules(path: Path, in_package: bool) -> set[str]:
    """Names of heatrates modules that the file at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "heatrates" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and in_package:
                base = node.module
            elif node.level == 0 and node.module and node.module.startswith("heatrates"):
                base = node.module.partition(".")[2]
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:  # from heatrates import x / from . import x
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_reachable():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    reached = set()
    for path in PACKAGE.glob("*.py"):
        reached |= _imported_modules(path, in_package=True) - {path.stem}
    for path in (ROOT / "tests").rglob("*.py"):
        reached |= _imported_modules(path, in_package=False)
    assert sorted(modules - reached) == []
