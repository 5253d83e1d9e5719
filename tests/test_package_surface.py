"""The package exports only what the analysis runs.

Every name in nulgi.__all__ must be used by a module of the package other
than the one that defines it (the package's __init__ does not count), or
by one of the scripts. A type or function that only tests use belongs in
tests/oracles.py, and matter code belongs in its script.
"""

import ast
from pathlib import Path

import nulgi

ROOT = Path(__file__).resolve().parents[1]

# The two-level quantum maximum n cos(pi / n) has no caller: the analysis
# compares K with the classical bound only. It stays public as the bound
# the paper's claim is stated against. curve_table's only caller is
# curve_rows in its own module, which builds the rows of `nulgi curve` and
# curve.csv; it stays public as the model curve as arrays.
NO_CALLER_NEEDED = {"curve_table", "quantum_bound"}


def defined_and_used(path):
    """The names a file defines at its top level, and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
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
