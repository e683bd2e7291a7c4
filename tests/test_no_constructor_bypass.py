"""Library objects are built through their constructors, which enforce their
invariants: a prefix code's prefix freedom, a codebook's lengths, a
permutation's bijection. An ``object.__new__`` call skips that check, so
an object it builds holds whatever its caller put in it; an
``object.__setattr__`` anywhere but the ``__init__`` or ``__post_init__``
of the object's own class writes a frozen object's field past it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bicacomp"

# file:top-level definition -> why it may build an object without its constructor
ALLOWED = {}


def _uses(attr):
    """(file, tree, use, parent of each node) of every ``object.<attr>`` in
    the package, called or not."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                yield path.name, tree, node, parent


def _enclosing(tree, lineno):
    """The top-level definition of ``tree`` spanning ``lineno``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.lineno <= lineno <= node.end_lineno:
            return node.name
    return "<module>"


def _in_own_constructor(use, parent):
    """Whether ``use`` is called on the first parameter of the innermost
    function around it, an ``__init__`` or ``__post_init__`` defined in a
    class body."""
    call = parent.get(use)
    func = call
    while func is not None and not isinstance(func, (ast.FunctionDef, ast.Lambda)):
        func = parent.get(func)
    return (isinstance(call, ast.Call) and call.func is use and call.args
            and isinstance(func, ast.FunctionDef)
            and func.name in ("__init__", "__post_init__")
            and isinstance(parent.get(func), ast.ClassDef) and func.args.args
            and isinstance(call.args[0], ast.Name) and call.args[0].id == func.args.args[0].arg)


def test_object_new_only_where_allowed():
    found = {f"{name}:{_enclosing(tree, use.lineno)}" for name, tree, use, _ in _uses("__new__")}
    assert sorted(found - ALLOWED.keys()) == []
    # an entry whose call is gone leaves the list
    assert sorted(ALLOWED.keys() - found) == []


def test_object_setattr_only_on_self_in_its_own_constructor():
    outside = [f"{name}:{use.lineno}" for name, _, use, parent in _uses("__setattr__")
               if not _in_own_constructor(use, parent)]
    assert outside == []
