"""In-memory span tracer for the traced run.

The tracer wraps bicacomp entry points by rebinding their names, in the
defining module and in every other bicacomp module that imported the same
function by name (``universal`` imports the block helpers, the Huffman
functions and ``block_bica``; ``vq`` imports ``block_bica`` and
``order_permutation``). ``coding`` and ``vq`` reach the kernels through the
``kernels`` module, so rebinding there covers them. Each span records its
name, start, end, parent span and operation id, plus a work count taken
from the call's arguments; functions called tens of thousands of times
(``binary_entropy``, the per-placement argsort) are not wrapped, their
counts are computed instead (``placements``).
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

import numpy as np

from bicacomp import search, universal

TARGETS = (
    "kernels.ac_encode", "kernels.ac_decode", "kernels.ecvq_assign",
    "coding.marginal_encode", "coding.marginal_decode", "coding.quantize_counts",
    "coding.extract_block", "coding.insert_block", "coding.huffman_build",
    "coding.canonicalize", "coding.serialize_codebook", "coding.deserialize_codebook",
    "search.piecewise_relaxation", "search.order_permutation", "search.block_bica",
    "universal.descend", "universal.compress", "universal.decompress",
    "universal.apply_shuffle", "vq.ecvq_fit", "vq.bica_ecvq_fit",
)


def _placements(args, kwargs) -> int:
    b = args[0].d
    k = args[1] if len(args) > 1 else kwargs.get("k", search.DEFAULT_PIECES)
    return math.comb(b + k - 1, b)


# work counted per call, from the arguments
WORK = {
    "kernels.ac_encode": lambda a, kw: a[0].shape[0],
    "kernels.ac_decode": lambda a, kw: a[1],
    "kernels.ecvq_assign": lambda a, kw: a[0].shape[0] * a[1].shape[0],
    "coding.marginal_encode": lambda a, kw: np.asarray(a[0]).size,
    "coding.huffman_build": lambda a, kw: np.asarray(a[0]).size,
    "search.piecewise_relaxation": _placements,
}


def _non_identity_transforms(res) -> int:
    return sum(not np.array_equal(gmap, np.arange(gmap.size))
               for step in res.steps[1:] for gmap in step.transforms)


# facts read from the returned value
NOTES = {
    "coding.marginal_encode": lambda r: (r.cost.data_bits, r.cost.overhead_bits),
    "search.piecewise_relaxation": lambda r: r.fallback,
    "universal.descend": lambda r: (len(r.steps) - 1, _non_identity_transforms(r)),
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, work, note]
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "bicacomp" or name.startswith("bicacomp.")]
        for target in TARGETS:
            modname, fname = target.split(".")
            orig = getattr(sys.modules["bicacomp." + modname], fname)
            wrapped = self._wrap(target, orig)
            for mod in mods:
                if vars(mod).get(fname) is orig:
                    setattr(mod, fname, wrapped)
                    self._restore.append((mod, fname, orig))

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._restore):
            setattr(mod, fname, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    work(args, kwargs) if work else 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note:
                span[6] = note(result)
            return result

        return traced


def summarize(spans: list[list], scales: dict) -> dict:
    """Per wrapped name: calls, self seconds, work, notes; plus the time
    covered by top-level spans and the children of every descend span.
    Seconds are scaled to the nominal machine speed by their op's scale."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = {t: {"calls": 0, "self_s": 0.0, "work": 0, "notes": []} for t in TARGETS}
    top = 0.0
    descend_children = {"universal.apply_shuffle": 0, "search.block_bica": 0}
    for i, (name, start, end, parent, op, work, note) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += ((end - start) - child_time[i]) * scales[op]
        row["work"] += work
        if note is not None:
            row["notes"].append(note)
        if parent < 0:
            top += (end - start) * scales[op]
        elif spans[parent][0] == "universal.descend" and name in descend_children:
            descend_children[name] += 1
    return {"layers": out, "top_s": top, "descend_children": descend_children}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], scales: dict, rounds: int, op_seconds: float,
                  overhead: float, lagrangians: list[float]) -> dict:
    """Per-layer metrics, per traced round (one pass over the workload's
    inputs); ``op_seconds`` is the nominal op time of all traced rounds and
    ``scales`` maps op ids to their scale to the nominal machine speed."""
    s = summarize(spans, scales)
    L = s["layers"]
    per = 1.0 / rounds
    m: dict[str, tuple[float, str]] = {}

    def calls_self(name: str) -> None:
        m[f"{name}.calls"] = (L[name]["calls"] * per, "count")
        m[f"{name}.self_s"] = (L[name]["self_s"] * per, "s")

    for name in ("kernels.ac_encode", "kernels.ac_decode", "coding.huffman_build"):
        calls_self(name)
        m[f"{name}.ns_per_symbol"] = (_ratio(L[name]["self_s"] * 1e9, L[name]["work"]), "ns/sym")
    calls_self("kernels.ecvq_assign")
    m["kernels.ecvq_assign.ns_per_sample_centroid"] = (
        _ratio(L["kernels.ecvq_assign"]["self_s"] * 1e9, L["kernels.ecvq_assign"]["work"]), "ns")

    enc = L["coding.marginal_encode"]
    m["coding.marginal_encode.self_s"] = (enc["self_s"] * per, "s")
    m["coding.marginal_encode.data_bits_per_symbol"] = (
        _ratio(sum(n[0] for n in enc["notes"]), enc["work"]), "bit/sym")
    m["coding.marginal_encode.overhead_bits_per_symbol"] = (
        _ratio(sum(n[1] for n in enc["notes"]), enc["work"]), "bit/sym")
    m["coding.marginal_decode.self_s"] = (L["coding.marginal_decode"]["self_s"] * per, "s")
    for name in ("coding.quantize_counts", "coding.extract_block", "coding.insert_block",
                 "universal.apply_shuffle", "search.order_permutation", "search.block_bica"):
        calls_self(name)

    pw = L["search.piecewise_relaxation"]
    calls_self("search.piecewise_relaxation")
    m["search.piecewise_relaxation.placements"] = (pw["work"] * per, "count")
    m["search.piecewise_relaxation.us_per_placement"] = (
        _ratio(pw["self_s"] * 1e6, pw["work"]), "us")
    m["search.piecewise_relaxation.fallback_ratio"] = (
        _ratio(sum(pw["notes"]), pw["calls"]), "ratio")

    de = L["universal.descend"]
    # every descend call first shuffles the identity and init_shuffles candidates
    init = inspect.signature(universal.descend).parameters["init_shuffles"].default
    proposals = s["descend_children"]["universal.apply_shuffle"] - (1 + init) * de["calls"]
    m["universal.descend.self_s"] = (de["self_s"] * per, "s")
    m["universal.descend.proposals"] = (proposals * per, "count")
    m["universal.descend.accept_ratio"] = (
        _ratio(sum(n[0] for n in de["notes"]), proposals), "ratio")
    m["universal.descend.block_accept_ratio"] = (
        _ratio(sum(n[1] for n in de["notes"]), s["descend_children"]["search.block_bica"]),
        "ratio")
    for name in ("universal.compress", "universal.decompress", "coding.canonicalize",
                 "coding.serialize_codebook", "coding.deserialize_codebook",
                 "vq.ecvq_fit", "vq.bica_ecvq_fit"):
        m[f"{name}.self_s"] = (L[name]["self_s"] * per, "s")
    fits = L["vq.ecvq_fit"]["calls"] + L["vq.bica_ecvq_fit"]["calls"]
    m["vq.sweeps_per_fit"] = (_ratio(L["kernels.ecvq_assign"]["calls"], fits), "count")
    m["vq.lagrangian_mean"] = (statistics.fmean(lagrangians) if lagrangians else 0.0,
                               "lagrangian")
    m["unattributed_s"] = ((op_seconds - s["top_s"]) * per, "s")
    m["trace.round_s"] = (op_seconds * per, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def coverage_errors(spans: list[list], uses: frozenset, may_use: frozenset) -> list[str]:
    """Wrapped names that the workload should call but recorded no call, or
    that it should bypass but were called (a wrapper that missed a by-name
    import would silently read 0)."""
    calls = {t: 0 for t in TARGETS}
    for s in spans:
        calls[s[0]] += 1
    errors = [f"{t}: expected calls, recorded 0" for t in TARGETS
              if t in uses and calls[t] == 0]
    errors += [f"{t}: expected no calls, recorded {calls[t]}" for t in TARGETS
               if t not in uses | may_use and calls[t] > 0]
    return errors
