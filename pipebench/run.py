#!/usr/bin/env python3
"""Pipeline benchmark of bicacomp: one seeded, closed-loop workload per run.

    python3 pipebench/run.py --workload bytes-codec --seed 1 --seconds 30 --trace 0

One caller in one process and one thread runs rounds of the workload (a
round is one pass over its seeded inputs) until the next round would end
past ``--seconds``. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any output check failed. An environment record is printed
before it and written, with the result (and the spans of a traced run), to
``.bench_out/`` at the repository root. See pipebench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4          # fresh processes timing import + warm-up
PROBE_TIMEOUT_S = 60
REF_ITERS = 40_000
REF_VECTOR = 100_000
REF_REPEATS = 2           # reference runs per sample, median taken
REF_EVERY_S = 0.5
REF_WINDOW_S = 1.5
# Times are reported at the speed of a machine that runs the reference work
# in REF_NOMINAL_S; a 2-core x86-64 machine (Python 3.11, NumPy 2.4) takes
# 25-40 ms depending on its co-tenants.
REF_NOMINAL_S = 0.025


class ProgramMissing(Exception):
    """The checkout holds no bicacomp sources to benchmark."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread: must run before NumPy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Import bicacomp from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(SRC, "bicacomp")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise ProgramMissing(f"no bicacomp sources under {SRC}")
    sys.path.insert(0, SRC)
    import bicacomp

    if os.path.dirname(os.path.abspath(bicacomp.__file__)) != pkg:
        raise ProgramMissing(f"imported bicacomp from {bicacomp.__file__}, not {pkg}")


def probe_setup() -> float:
    """Nominal seconds to import bicacomp and warm up every timed entry
    point, scaled by reference loops run right after."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.warm_up()
    seconds = time.perf_counter() - t0
    ref = statistics.median(reference_seconds() for _ in range(3))
    return seconds * REF_NOMINAL_S / ref


def setup_samples(own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def blas_threads():
    """OpenBLAS's own thread count when NumPy bundles it, else None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None   # a plain checkout: src_sha256 names the code instead
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bicacomp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    from bicacomp import kernels

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_active": bool(kernels.NUMBA_ACTIVE),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that does not touch bicacomp: a
    loop of Python integer arithmetic over NumPy scalars (like the scalar
    kernels) plus sorts, histograms and gathers over a 10^5-element array
    (like the vectorised search and bit plumbing). Co-tenants on a shared
    machine slow it and the program alike, by up to 2x for tens of seconds
    at a time, so op times are scaled by it."""
    import numpy as np

    table = np.arange(256, dtype=np.int64)
    vec = (np.arange(REF_VECTOR, dtype=np.int64) * 2654435761) % 4096
    t0 = time.perf_counter()
    acc, low = 0, 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + int(table[i & 255]) * (0xFFFFFFFF - low) // 97) & 0xFFFFFFFF
        if acc & 1:
            low = (low + 1) & 0xFFFF
    for _ in range(2):
        order = np.argsort(vec, kind="stable")
        np.cumsum(np.bincount(vec[order], minlength=4096))
        (vec >> 3) & 1
    return time.perf_counter() - t0


class Speedometer:
    """Samples the reference work at op boundaries, at most every
    REF_EVERY_S, and scales an op's seconds to the nominal machine speed by
    the median of the samples taken within REF_WINDOW_S of the op."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (taken at, seconds)

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= REF_EVERY_S:
            ref = statistics.median(reference_seconds() for _ in range(REF_REPEATS))
            self.samples.append((time.perf_counter(), ref))

    def scale(self, start: float, end: float) -> float:
        near = [ref for at, ref in self.samples
                if start - REF_WINDOW_S <= at <= end + REF_WINDOW_S]
        return REF_NOMINAL_S / statistics.median(near)


def run_round(ops, speed: Speedometer, tracer=None, first_op: int = 0):
    """Run every op once; returns (results, spans, failures), None standing
    for a failed op and spans holding each op's start and end."""
    from workloads import CheckFailed

    results, when, failures = [], [], []
    for i, op in enumerate(ops):
        speed.sample()
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            results.append(op())
        except CheckFailed as exc:
            failures.append(f"op {i}: check failed: {exc}")
            results.append(None)
        except Exception:   # an op that raises counts as failed; the run goes on
            failures.append(f"op {i}: raised\n{traceback.format_exc()}")
            results.append(None)
        when.append((t0, time.perf_counter()))
    speed.sample(force=True)
    return results, when, failures


def rate(results, attr: str) -> float:
    ok = [r for r in results if r is not None]
    return sum(getattr(r, attr) for r in ok) / sum(r.weight for r in ok)


def mean_of_rounds(rounds) -> tuple[float, int]:
    """Nominal seconds and work summed over ops, each op at its mean over
    the rounds (every round repeats the same inputs). Once scaled, an op's
    times scatter on both sides of its cost, and over the few rounds a run
    holds the mean scattered less from run to run than the median did."""
    seconds, work = 0.0, 0
    for samples in zip(*rounds):
        ok = [x for x in samples if x is not None]
        if ok:
            seconds += statistics.fmean(x.seconds * x.scale for x in ok)
            work += ok[0].work
    return seconds, work


def measure(workload, seconds: float, trace: bool):
    """Closed loop: rounds back to back until the next would end past
    ``seconds``; at least one round. A traced run alternates untraced and
    traced rounds, starting untraced, and runs at least one of each."""
    import spans

    ops = workload.ops()
    speed = Speedometer()
    rounds, whens, traced_flags, failures = [], [], [], []
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            res, when, fail = run_round(ops, speed, tracer if traced else None,
                                        len(rounds) * len(ops))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(res)
        whens.append(when)
        traced_flags.append(traced)
        failures += fail
        elapsed = time.perf_counter() - start
        done = len(rounds) >= (2 if trace else 1)
        if done and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    for res, when in zip(rounds, whens):
        for r, (t0, t1) in zip(res, when):
            if r is not None:
                r.scale = speed.scale(t0, t1)
    return rounds, traced_flags, failures, [ref for _, ref in speed.samples], tracer


def e2e_metrics(rounds, setup: list[float]) -> dict:
    ok_rounds = [r for r in rounds if any(x is not None for x in r)]
    attempted = sum(len(r) for r in rounds)
    ok = sum(x is not None for r in rounds for x in r)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seconds, work = mean_of_rounds(rounds)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_MiB": (peak, "MiB"),
        "ok_ops_ratio": (ok / attempted, "ratio"),
        "sym_per_s": (work / seconds, "sym/s"),
        "bits_per_symbol": (rate(ok_rounds[0], "bits"), "bit/sym"),
        "model_bits_per_symbol": (rate(ok_rounds[0], "model_bits"), "bit/sym"),
    }


def trace_metrics(workload, rounds, traced_flags, tracer) -> tuple[dict, list[str]]:
    import spans

    traced = [r for r, t in zip(rounds, traced_flags) if t]
    untraced = [r for r, t in zip(rounds, traced_flags) if not t]
    n_ops = len(rounds[0])
    scales = {i * n_ops + j: x.scale for i, r in enumerate(rounds)
              for j, x in enumerate(r) if x is not None}
    ops = [x for r in traced for x in r if x is not None]
    overhead = mean_of_rounds(traced)[0] / mean_of_rounds(untraced)[0] - 1.0
    metrics = spans.layer_metrics(
        tracer.spans, scales, len(traced), sum(x.seconds * x.scale for x in ops), overhead,
        [x.lagrangian for x in ops if x.lagrangian is not None])
    errors = spans.coverage_errors(tracer.spans, workload.uses, workload.may_use)
    return metrics, errors


def write_record(args, env: dict, result: dict, rounds, tracer) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "result": result,
              "op_seconds": [[None if x is None else x.seconds for x in r] for r in rounds],
              "op_scale": [[None if x is None else x.scale for x in r] for r in rounds],
              "op_work": [None if x is None else x.work for x in rounds[0]]}
    if tracer is not None:
        record["span_fields"] = ["name", "start", "end", "parent", "op", "work", "note"]
        record["spans"] = tracer.spans
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("bytes-codec", "universal-zipf",
                                           "ecvq-sweep", "huffman-zipf16"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the smoke test")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.probe_setup and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        if args.probe_setup:
            print(f"{probe_setup():.9f}")
            return 0
        own_setup = probe_setup()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = setup_samples(own_setup)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.scale == "tiny")
    rounds, traced_flags, failures, refs, tracer = measure(
        workload, args.seconds, bool(args.trace))
    for f in failures:
        print(f"FAILED {args.workload} seed {args.seed}: {f}", file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    failed = sum(x is None for r in rounds for x in r)
    correct = failed == 0
    if failed == attempted:
        metrics = {}
    elif args.trace:
        metrics, errors = trace_metrics(workload, rounds, traced_flags, tracer)
        for e in errors:
            print(f"COVERAGE {args.workload}: {e}", file=sys.stderr)
        correct = correct and not errors
    else:
        metrics = e2e_metrics(rounds, setup)

    env = environment(args)
    env["reference_loop_s"] = statistics.median(refs)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    write_record(args, env, result, rounds, tracer)
    print("# env " + json.dumps(env))
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
