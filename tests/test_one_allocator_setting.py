"""The allocator is set up in one place, ``kernels._keep_freed_heap_mapped``.
A ``mallopt`` call or a ``ctypes`` use anywhere else in the library would
be a second setting that the first one's deference to glibc's environment
does not cover."""

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bicacomp"

# the one module allowed to name them
ALLOWED = {"kernels.py"}


def test_mallopt_and_ctypes_named_only_in_kernels():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME and tok.string in ("mallopt", "ctypes"):
                found.add(path.name)
    assert sorted(found - ALLOWED) == []
    # the allowed module still holds the setting
    assert sorted(ALLOWED - found) == []
