"""Every public top-level function and class in the library has a caller,
every public method, property and field of a library class has a reader,
and every defaulted parameter or dataclass field has a caller that sets it.

A name counts as reached when library code outside its own definition
(``__init__.py`` aside: re-exporting is not use), the benchmark package or
the acceptance suite names it; a method or property, when such code names
it as an attribute; a field, when such code reads it from an object of
its class or of a class it cannot tell; a public function, when a program
reaches it through a chain of such uses. Anything else is surface only its
own tests keep alive. Likewise a default that no such caller overrides is
a constant written as an option.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bicacomp"

# module.name -> why it stays without a caller
ALLOWED = {}


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


def test_every_public_function_is_reached():
    # the module-level twin of test_every_public_method_is_reached, and
    # transitive: a function is reached from a program (the benchmark
    # package, the acceptance suite, the console script's cli.main, or code
    # that runs at import), directly or through functions and classes that
    # are, so one that only unreached code calls is unreached too
    roots = {"main"}
    for path in [*sorted((ROOT / "pipebench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        roots |= _named(_parse(path))
    library = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    defs = {}  # name -> the top-level functions and classes of that name
    for tree in library.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _named(node)
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [used for node in defs[name] for used in _named(node) if used in defs]
    unreached = [f"{mod}.{node.name}" for mod, tree in library.items() for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                 and node.name not in reached]
    assert unreached == []


# module.Class.method -> why it stays without a reader
ALLOWED_METHODS = {
    "search.PiecewiseLinearEnvelope.value":
        "the envelope's definition that test_search checks against h_b",
}


def _attributes(tree):
    """The attribute names in ``tree``, ``y`` of ``x.y``, once per use."""
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _attribute_uses():
    """(attribute names that the benchmark package and the acceptance suite
    use, the parsed library modules by name, and how often the library
    names each attribute)."""
    outside = set()
    for path in [*sorted((ROOT / "pipebench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside.update(_attributes(_parse(path)))
    library = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    named = Counter(attr for tree in library.values() for attr in _attributes(tree))
    return outside, library, named


def test_every_public_method_is_reached():
    outside, library, named = _attribute_uses()
    unreached = []
    for mod, tree in library.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                # a method's uses of its own name inside its body read nothing
                own = _attributes(fn).count(fn.name)
                if fn.name not in outside and named[fn.name] == own:
                    unreached.append(f"{mod}.{cls.name}.{fn.name}")
    assert sorted(set(unreached) - ALLOWED_METHODS.keys()) == []
    # an entry that gains a reader, or whose name is gone, leaves the list
    assert sorted(ALLOWED_METHODS.keys() - set(unreached)) == []


# module.Class.field -> why it stays without a reader
ALLOWED_FIELDS = {
    "vq.QuantizerState.centroids":
        "the designed codebook, which test_vq_pinned digests",
    "vq.QuantizerState.lengths":
        "the per-cluster codeword lengths, which test_vq_pinned digests with the centroids",
    "coding.ParsedContainer.sections":
        "the declared layout as parsed, which the container tests join back into the blob",
}


def _class_of(node, classes):
    """The library class an annotation names (``C``, ``mod.C`` or ``"C"``), else None."""
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant) else None)
    return name if name in classes else None


def _typing(library):
    """(library class names, function or method name -> the class its
    return annotation names, for names that annotate one class throughout)."""
    classes = {node.name for tree in library.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    returns = {}
    for tree in library.values():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                cls = _class_of(fn.returns, classes) if fn.returns else None
                returns[fn.name] = cls if returns.get(fn.name, cls) == cls else None
    return classes, returns


def _bound_types(fn, classes, returns, method_of):
    """Name -> the class it holds throughout ``fn`` (None when unknown): an
    annotated parameter, ``self`` of a method, or a name only ever assigned
    a call of a class or of a function annotated to return one."""
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    types = {a.arg: _class_of(a.annotation, classes) if a.annotation else None
             for a in params if a is not None}
    if method_of and params and params[0] is not None and params[0].arg == "self":
        types["self"] = method_of
    assigned = {}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)):
            called = _called_name(node.value)
            assigned[node.targets[0]] = called if called in classes else returns.get(called)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            cls = assigned.get(node)
            types[node.id] = cls if types.get(node.id, cls) == cls else None
    return types


def _keyed_reads(tree, classes, returns):
    """How often ``tree`` reads each attribute, keyed (owning class, name):
    the class is the receiver's when ``_bound_types`` knows it, None when
    not. A class's reads of its own fields in ``__post_init__`` are left
    out: construction checks its own fields, which reads nothing for a
    program."""
    reads = Counter()

    def visit(node, types, cls, checking):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                method_of = cls if isinstance(node, ast.ClassDef) else None
                inner = {**types, **_bound_types(child, classes, returns, method_of)}
                own = method_of if getattr(child, "name", None) == "__post_init__" else None
                visit(child, inner, None, own)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                owner = types.get(child.value.id) if isinstance(child.value, ast.Name) else None
                if owner is None or owner != checking:
                    reads[owner, child.attr] += 1
            visit(child, types, child.name if isinstance(child, ast.ClassDef) else cls, checking)

    visit(tree, {}, None, None)
    return reads


def test_every_public_field_is_read():
    library = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    classes, returns = _typing(library)
    reads = Counter()
    for tree in [*library.values(), *(_parse(path) for path in [
            *sorted((ROOT / "pipebench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"])]:
        reads.update(_keyed_reads(tree, classes, returns))
    unread = []
    for mod, tree in library.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
                    continue
                name = node.target.id
                # a read of this class's field, or of a receiver of unknown class
                if not name.startswith("_") and not reads[cls.name, name] + reads[None, name]:
                    unread.append(f"{mod}.{cls.name}.{name}")
    assert sorted(set(unread) - ALLOWED_FIELDS.keys()) == []
    # an entry that gains a reader, or whose name is gone, leaves the list
    assert sorted(ALLOWED_FIELDS.keys() - set(unread)) == []


# module.function or module.Class -> (parameters or dataclass fields whose
# defaults stay without a caller that sets them, why)
ALLOWED_DEFAULTS = {
    "universal.descend": (("init_shuffles",), "the benchmark reads its default through inspect"),
    "bounds.RedundancyRegime.linear": (("alpha", "l"), "the paper's linear regime, m = alpha n + l"),
    "cli.main": (("argv",), "the entry point's test seam"),
}


def _defaulted(fn):
    """(position among the call's positional arguments or None, name) of
    every parameter of ``fn`` with a default; self and cls take no slot."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = [(i - skip, arg.arg)
           for i, arg in enumerate(positional) if i >= len(positional) - len(a.defaults)]
    out += [(None, arg.arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None]
    return out


def _dataclass_fields(cls):
    """(position among the constructor's positional arguments, name) of
    every field of a dataclass ``cls`` with a default; none when ``cls`` is
    not a dataclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
        return []
    fields = [node for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return [(i, f.target.id) for i, f in enumerate(fields) if _field_default(f.value)]


def _field_default(value):
    """Whether a dataclass field's right-hand side gives it a default:
    ``field(...)`` does only with ``default`` or ``default_factory``."""
    if isinstance(value, ast.Call) and _called_name(value) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


def _called_name(call):
    """The name a call is matched by: ``f`` in ``f(...)`` and ``x.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _sets(call, position, name):
    """Whether ``call`` sets the parameter: by keyword, by position, or
    possibly through ``*args`` or ``**kwargs``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return position is not None
    return position is not None and len(call.args) > position


def test_every_default_is_set_by_a_program():
    library = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    outside = [_parse(path) for path in [*sorted((ROOT / "pipebench").glob("*.py")),
                                         ROOT / "tests" / "test_acceptance.py"]]
    calls = {}
    for tree in [*library.values(), *outside]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    unset = []
    for mod, tree in library.items():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = parents.get(node)
                qual = f"{owner.name}.{node.name}" if isinstance(owner, ast.ClassDef) else node.name
                own = set(ast.walk(node))  # a function's calls to itself set nothing
                callers = [call for call in calls.get(node.name, []) if call not in own]
                defaults = _defaulted(node)
            elif isinstance(node, ast.ClassDef):
                qual = node.name
                # a class is built by calls to its name, and by cls(...) in its own methods
                callers = calls.get(node.name, []) + [
                    call for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _called_name(call) == "cls"]
                defaults = _dataclass_fields(node)
            else:
                continue
            for position, param in defaults:
                if not any(_sets(call, position, param) for call in callers):
                    unset.append(f"{mod}.{qual}.{param}")
    allowed = {f"{fn}.{param}" for fn, (params, _) in ALLOWED_DEFAULTS.items()
               for param in params}
    assert sorted(set(unset) - allowed) == []
    # a parameter that gains a caller, or is gone, leaves the list
    assert sorted(allowed - set(unset)) == []
