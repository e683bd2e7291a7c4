"""Keys are sorted stably through ``stable_argsort``, which runs NumPy's
stable argsort up to 2^10 keys, where that timsort is as fast or faster,
and above that builds the stable order from one SIMD sort of packed keys.
A stable ``sort`` or ``argsort`` call elsewhere runs as timsort on floats
and int64: 6-7 ms on 2^16 float keys and ~2 ms on 2^16 int64 lengths,
against 0.7 ms and 0.2 ms (timings: best of 200 on a 2-core x86-64 machine
with AVX-512, NumPy 2.4). Two more sites keep their own: codeword lengths
sorted as uint8, and keys that are two sorted runs, which timsort merges
in one linear pass: each round of ``huffman_build`` (timings: best of 30
builds at m = 2^16 on the same machine)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bicacomp"

# file:top-level definition -> why it may call a stable sort
ALLOWED = {
    "distributions.py:stable_argsort": "its size rule: up to 2^10 keys timsort, 2 us against "
                                       "12-18 us packed at 64 keys, 13-19 us against 15-48 us "
                                       "at 1024 (keys one ulp apart leave the packed sort)",
    "coding.py:_length_order": "uint8 codeword lengths, which NumPy radix-sorts: "
                               "0.2 ms on 2^16 against 2 ms as int64",
    "coding.py:huffman_build": "each round's live leaves then live merges, two sorted runs "
                               "that timsort merges in one pass: a build at m = 2^16, "
                               "skews 0.4-2.8, takes 3.2-3.9 ms against 4.7-5.0 ms ordering "
                               "each round by stable_argsort (and 5.1-5.7 ms merging by "
                               "searchsorted, measured before its packed sort)",
}


def _enclosing(tree, lineno):
    """The top-level definition of ``tree`` spanning ``lineno``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.lineno <= lineno <= node.end_lineno:
            return node.name
    return "<module>"


def _is_stable_sort(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sort", "argsort")
            and any(kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                    and kw.value.value in ("stable", "mergesort") for kw in node.keywords))


def test_stable_sorts_only_where_allowed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if _is_stable_sort(node):
                found.add(f"{path.name}:{_enclosing(tree, node.lineno)}")
    assert sorted(found - ALLOWED.keys()) == []
    # an entry whose call is gone leaves the list
    assert sorted(ALLOWED.keys() - found) == []
