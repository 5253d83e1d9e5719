"""The package exports only what the analysis runs, and holds no dead name.

Every name in nulgi.__all__ must be used by a module of the package other
than the one that defines it (the package's __init__ does not count), or
by one of the scripts. A type or function that only tests use belongs in
tests/oracles.py, and matter code belongs in its script. Every other name
a module of the package defines at its top level must be read somewhere in
the package or the scripts, outside its own definition.
"""

import ast
from pathlib import Path

import nulgi

ROOT = Path(__file__).resolve().parents[1]

# The two-level quantum maximum n cos(pi / n) has no caller: the analysis
# compares K with the classical bound only. It stays public as the bound
# the paper's claim is stated against. curve_table's only caller is
# curve_columns in its own module, which builds the columns of `nulgi curve`
# and curve.csv; it stays public as the model curve as arrays.
NO_CALLER_NEEDED = {"curve_table", "quantum_bound"}


def statements(path):
    """Per top-level statement of a file: the names it defines and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        defined = set()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        yield defined, read


def defined_and_used(path):
    """The names a file defines at its top level, and the names it reads."""
    defined, used = set(), set()
    for names, read in statements(path):
        defined |= names
        used |= read
    return defined, used


def test_every_export_has_a_caller_outside_its_module():
    modules = {
        path: defined_and_used(path)
        for path in sorted((ROOT / "src" / "nulgi").glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = [defined_and_used(path)[1] for path in sorted((ROOT / "scripts").glob("*.py"))]
    uncalled = []
    for name in sorted(set(nulgi.__all__) - NO_CALLER_NEEDED):
        owners = [path for path, (defined, _) in modules.items() if name in defined]
        assert len(owners) == 1, (name, owners)
        callers = [
            path.name for path, (_, used) in modules.items()
            if path != owners[0] and name in used
        ]
        if not callers and not any(name in used for used in scripts):
            uncalled.append(name)
    assert uncalled == []
    assert NO_CALLER_NEEDED <= set(nulgi.__all__)


def test_every_top_level_name_is_read_outside_its_definition():
    package = sorted((ROOT / "src" / "nulgi").glob("*.py"))
    found = {
        path: list(statements(path))
        for path in package + sorted((ROOT / "scripts").glob("*.py"))
    }
    unread = []
    for path in package:
        for defined, _ in found[path]:
            for name in sorted(defined - set(nulgi.__all__)):
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(
                    name in read
                    for statements_of_file in found.values()
                    for other, read in statements_of_file
                    if name not in other
                ):
                    unread.append(f"{path.name}: {name}")
    assert unread == []
