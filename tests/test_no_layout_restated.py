"""The container's layout is declared once, in ``coding``: ``SECTIONS``
lists its sections in order, ``write_container`` writes them and
``parse_container`` hands them back with their checked fields. Code that
names the magic, the header's struct layout or its dtype anywhere else
walks byte offsets that the next format change would have to find again,
so it reads the parsed sections instead. The exceptions are tests that
pack hostile containers by hand, which pin the format independently of
the parser."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER_LAYOUT = "<4sBBBBQI"  # magic, version, d, n_blocks, flags, n, n_steps
MAGIC = b"BAC4"
NAMES = {"CONTAINER_MAGIC", "_HEADER"}

# file:top-level definition -> why it may spell out the header
ALLOWED = {
    "test_containers.py:<module>":
        "_HEAD, the header's length, which the pinned-byte edits count from",
    "test_containers.py:test_a_map_longer_than_the_container_raises_before_allocating":
        "a hand-packed header that announces a 2^30-byte map",
    "test_containers.py:test_a_step_count_past_the_bytes_left_raises_at_once":
        "a hand-packed d = 0 header with 2^32 - 1 steps",
    "test_containers.py:test_symbols_wider_than_int64_raise_container_error":
        "a hand-packed container of 70-bit symbols",
}


def _enclosing(tree, lineno):
    """The top-level definition of ``tree`` spanning ``lineno``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.lineno <= lineno <= node.end_lineno:
            return node.name
    return "<module>"


def _restates_layout(node):
    if isinstance(node, ast.Constant):
        value = node.value
        return (isinstance(value, str) and value.startswith(HEADER_LAYOUT)) or value == MAGIC
    if isinstance(node, ast.Name):
        return node.id in NAMES
    return isinstance(node, ast.Attribute) and node.attr in NAMES


def _found():
    paths = [p for p in sorted((ROOT / "src" / "bicacomp").glob("*.py")) if p.name != "coding.py"]
    paths += [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != Path(__file__).name]
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.name}:{_enclosing(tree, node.lineno)}"
                  for node in ast.walk(tree) if _restates_layout(node)}
    return found


def test_the_container_layout_is_spelled_out_only_in_coding():
    found = _found()
    assert sorted(found - ALLOWED.keys()) == []
    # an entry whose hand-packed case is gone leaves the list
    assert sorted(ALLOWED.keys() - found) == []
