"""Samples are grouped into distinct symbols through ``coding._group``, which
counts instead of sorting when the alphabet is not far larger than the
sample. An ``np.unique`` call with ``return_inverse`` anywhere else would
bring back a sort of every sample on each call."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bicacomp"

# file:top-level definition -> why it may call np.unique with return_inverse
ALLOWED = {
    "coding.py:_group": "the grouping helper; it sorts when 2^d is far above n",
}


def _enclosing(tree, lineno):
    """The top-level definition of ``tree`` spanning ``lineno``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.lineno <= lineno <= node.end_lineno:
            return node.name
    return "<module>"


def test_np_unique_with_an_inverse_only_where_allowed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and any(kw.arg == "return_inverse" for kw in node.keywords)):
                found.add(f"{path.name}:{_enclosing(tree, node.lineno)}")
    assert sorted(found - ALLOWED.keys()) == []
    # an entry whose call is gone leaves the list
    assert sorted(ALLOWED.keys() - found) == []
