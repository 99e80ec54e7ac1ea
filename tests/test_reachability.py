"""Every package module is imported by another package module or a test, and
every public top-level name is used by the package or the benchmark, or is a
documented entry point."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatrates"

#: public names that nothing in the package or the benchmark calls, kept as
#: entry points for a caller, each with its reason
ENTRY_POINTS = {
    "tail_profile": "the (h, rho) pair of the tail bound, for a caller who evaluates h itself",
    "tail_constant": "the annulus constant c1 of the tail bound P(d(X_t, x) >= r) <= c1 h(r/rho(t))",
    "replica_rng": "regenerates one replica's random stream from its seed and index",
    "scheme_from_id": "reads a path's scheme_label back into its sampling scheme",
}


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


def _used_names(node: ast.AST) -> set[str]:
    """The names that node reads as an ast.Name, an ast.Attribute or an ast.alias."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The public names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def test_every_public_name_is_used_or_an_entry_point():
    # a name counts as used when a top-level statement other than its own
    # definition reads it, in any package module, or any benchmark file does
    statements = [
        (path.stem, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    uses = [_used_names(stmt) for _, stmt in statements]
    bench = set()
    for path in (ROOT / "heatbench").glob("*.py"):
        bench |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    defined, unused = set(), []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            defined.add(name)
            if name not in ENTRY_POINTS and name not in bench and not any(
                name in used for j, used in enumerate(uses) if j != i
            ):
                unused.append(f"{module}.{name}")
    assert sorted(unused) == []
    assert sorted(set(ENTRY_POINTS) - defined) == []  # no entry point is advertised that does not exist
