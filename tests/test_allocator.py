"""Importing bicacomp sets glibc's malloc thresholds once, so that the NumPy
buffers an op frees stay mapped for the next op instead of being trimmed
and faulted in again."""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from bicacomp import kernels

SRC = Path(__file__).resolve().parent.parent / "src"
TUNABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
            "GLIBC_TUNABLES")


class _Libc:
    """Stands for ``ctypes.CDLL(None)``: records each ``mallopt`` call."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


@pytest.fixture
def calls(monkeypatch):
    for var in TUNABLES:
        monkeypatch.delenv(var, raising=False)
    made = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _Libc(made))
    return made


def test_sets_the_mmap_and_trim_thresholds(calls):
    kernels._keep_freed_heap_mapped()
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("var, value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_TOP_PAD_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
])
def test_an_environment_choice_stands(calls, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    kernels._keep_freed_heap_mapped()
    assert calls == []


def test_tunables_outside_malloc_do_not_count(calls, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2")
    kernels._keep_freed_heap_mapped()
    assert len(calls) == 2


def test_silent_without_mallopt(calls, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a C library off glibc
    assert kernels._keep_freed_heap_mapped() is None


# OSError: dlopen fails; TypeError: Windows cannot open CDLL(None)
@pytest.mark.parametrize("error", [OSError, TypeError])
def test_silent_when_the_library_does_not_open(calls, monkeypatch, error):
    def refuse(name):
        raise error("cannot open the process's own symbols")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert kernels._keep_freed_heap_mapped() is None


# Builds, serializes and parses one 2^16-symbol Zipf codebook in two warm-up
# passes, then prints the minor faults of the next two. The warm-up is two
# passes because a block that outlives the first pass among the big blocks
# it frees can leave the second pass no free stretch for one 2^16-entry
# int64 array (512 KiB, in ``deserialize_codebook``): on such heap layouts
# that pass grows the heap once (128 faults, and glibc's arena stays
# ~0.5 MB larger), and the third and later passes take 0-1 faults.
_PASSES = """
import resource
import numpy as np
import bicacomp
from bicacomp import coding

m = 1 << 16
w = np.arange(1, m + 1, dtype=np.float64) ** -1.2
p = (w / w.sum())[np.random.default_rng(1).permutation(m)]

def one_pass():
    book = coding.canonicalize(coding.huffman_build(p), m)
    wire = coding.serialize_codebook(book, m)
    back = coding.deserialize_codebook(wire, m, int(np.count_nonzero(book.lengths)))
    assert np.array_equal(back.codes, book.codes)

one_pass()
one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
one_pass()
one_pass()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc only")
def test_a_second_codebook_pass_faults_no_heap_in():
    env = {k: v for k, v in os.environ.items() if k not in TUNABLES}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", _PASSES], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    faults = int(proc.stdout.split()[-1])
    # with glibc's default thresholds each pass takes ~1,760 faults (~6.9 MiB)
    assert faults <= 64
