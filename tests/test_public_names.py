"""Every public top-level function and class in the library has a caller.

A name counts as reached when library code outside its own definition
(``__init__.py`` aside: re-exporting is not use), the benchmark package or
the acceptance suite names it. Anything else is surface only its own tests
keep alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bicacomp"

# module.name -> why it stays without a caller
ALLOWED = {
    "bounds.expected_order_statistic": "a closed form the paper states",
}


def _named(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_is_reached():
    outside = set()
    for path in [*sorted((ROOT / "pipebench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _named(_parse(path))
    # (module, public name defined or None, names used) per top-level statement
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            public = (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
            statements.append((path.stem, node.name if public else None, _named(node)))
    unreached = []
    for i, (mod, name, _) in enumerate(statements):
        if name is None or name in outside:
            continue
        if not any(name in used for j, (_, _, used) in enumerate(statements) if j != i):
            unreached.append(f"{mod}.{name}")
    assert sorted(set(unreached) - ALLOWED.keys()) == []
    # an entry that gains a caller, or whose name is gone, leaves the list
    assert sorted(ALLOWED.keys() - set(unreached)) == []
