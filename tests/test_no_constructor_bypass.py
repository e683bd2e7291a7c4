"""Library objects are built through their constructors, which enforce their
invariants: a prefix code's prefix freedom, a codebook's lengths, a
permutation's bijection. An ``object.__new__`` call skips that check, so
an object it builds holds whatever its caller put in it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bicacomp"

# file:top-level definition -> why it may build an object without its constructor
ALLOWED = {
    "distributions.py:_bijection": "maps that are bijections by construction (an inverted "
                                   "argsort, or one XORed with a mask): the skipped "
                                   "inverse_permutation proof costs ~0.4 ms per order "
                                   "search at 2^16 symbols",
}


def _enclosing(tree, lineno):
    """The top-level definition of ``tree`` spanning ``lineno``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.lineno <= lineno <= node.end_lineno:
            return node.name
    return "<module>"


def test_object_new_only_where_allowed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.add(f"{path.name}:{_enclosing(tree, node.lineno)}")
    assert sorted(found - ALLOWED.keys()) == []
    # an entry whose call is gone leaves the list
    assert sorted(ALLOWED.keys() - found) == []
