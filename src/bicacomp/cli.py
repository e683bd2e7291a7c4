"""Command-line entry point: experiments emit CSV, codecs move files.

Exit codes: 0 success, 2 configuration error, 3 data error. All sizes are
reported in bits and every subcommand is reproducible from its seed.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys

import numpy as np

from . import bounds, coding, sources, universal, vq
from .distributions import JointDistribution, entropy_bits
from .search import block_bica, order_permutation


class DataError(Exception):
    """Bad or unreadable input data (exit code 3)."""


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:step inclusive grid, or a comma list."""
    if ":" in text:
        start, stop, step = (float(t) for t in text.split(":"))
        n = int(round((stop - start) / step)) + 1
        return start + step * np.arange(n)
    return np.array([float(t) for t in text.split(",")])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_classic_zipf(m: int, s_grid, csv: str | None = None) -> list[list]:
    d = m.bit_length() - 1
    if 1 << d != m:
        raise ValueError("m must be a power of two")
    rows = []
    for s in s_grid:
        dist = sources.zipf_distribution(m, float(s))
        h = dist.entropy()
        huff = coding.huffman_build(dist.probs).average_length(dist.probs)
        res = order_permutation(dist)
        perbit = res.objective
        py = res.g.transform(dist).probs
        half = d // 2
        blk = py.reshape(1 << (d - half), 1 << half)
        twoblock = entropy_bits(blk.sum(axis=1)) + entropy_bits(blk.sum(axis=0))
        rows.append([float(s), h, huff, perbit, twoblock])
    _write_csv(csv, ["s", "H", "huffman_avg", "perbit_avg", "twoblock_avg"], rows)
    return rows


def run_theory_bounds(d: int, draws: int, seed: int, workers: int = 0,
                      csv: str | None = None) -> list[list]:
    if workers < 1:
        workers = os.cpu_count() or 1
    m = 1 << d
    bound = bounds.ordered_gap_bound(m) if d >= 10 else bounds.ordered_gap_bound_all_bits(m)
    mean, se = bounds.mc_ordered_gap(d, draws, seed, workers=workers)
    rows = [[m, bound, mean, se]]
    _write_csv(csv, ["m", "bound", "monte_carlo_mean", "stderr"], rows)
    return rows


def run_universal(samples: np.ndarray, d: int, b: int, iters: int, seed: int,
                  csv: str | None = None, method: str = "auto", k: int = 8) -> universal.CostReport:
    result = universal.descend(samples, d, b, method=method, max_iters=iters, seed=seed, k=k)
    base = universal.baseline_costs(samples, 1 << d)
    report = universal.total_cost_curve(result, samples.size, base)
    rows = [
        [int(i), bo, bs, t, base.standard, base.pattern, base.canonical]
        for i, bo, bs, t in zip(report.iterations, report.bounds,
                                report.block_sums, report.totals)
    ]
    _write_csv(csv, ["iteration", "bound", "block_sum", "total_bits",
                     "baseline_standard", "baseline_pattern", "baseline_canonical"], rows)
    print(f"# best iteration I0={report.best_iteration} "
          f"total={report.best_total:.6g} bits "
          f"(standard={base.standard:.6g}, pattern={base.pattern:.6g}, "
          f"canonical={base.canonical:.6g})", file=sys.stderr)
    return report


def run_vq_ecvq(dim: int, n: int, m_init: int, lambdas, seed: int, variant: str,
                csv: str | None = None) -> list[list]:
    spec = sources.SourceSpec.gaussian_mixture(dim, seed)
    x = sources.sample(spec, n)
    rows = []
    for lam in lambdas:
        if variant == "bica-ecvq":
            state, g = vq.bica_ecvq_fit(x, m_init, float(lam), seed=seed)
            rate_marginal = state.mean_rate
            counts = np.bincount(state.assign, minlength=m_init)
            rate_joint = entropy_bits(counts / n)
        else:
            state = vq.ecvq_fit(x, m_init, float(lam), seed=seed)
            rate_joint = state.mean_rate
            d_bits = max(1, math.ceil(math.log2(m_init)))
            probs = np.zeros(1 << d_bits)
            probs[:m_init] = np.bincount(state.assign, minlength=m_init) / n
            rate_marginal = block_bica(JointDistribution(d_bits, probs), "order").objective
        rd = vq.gaussian_rd(dim, state.mean_distortion) if state.mean_distortion > 0 else float("inf")
        rows.append([state.mean_distortion, rate_joint, rate_marginal, rd])
    _write_csv(csv, ["distortion", "rate_joint", "rate_marginal", "rd_bound"], rows)
    return rows


def run_vq_lattice(dim: int, n: int, kind: str, scales, seed: int,
                   csv: str | None = None) -> list[list]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((n, dim))
    rows = []
    for s in scales:
        lat = vq.Lattice(kind, dim, float(s))
        joint = vq.lattice_rate_report(x, lat, "joint")
        marg = vq.lattice_rate_report(x, lat, "bica-marginal")
        rd = vq.gaussian_rd(dim, joint.distortion) if joint.distortion > 0 else float("inf")
        rows.append([joint.distortion, joint.bits_per_sample, marg.bits_per_sample, rd])
    _write_csv(csv, ["distortion", "rate_joint", "rate_marginal", "rd_bound"], rows)
    return rows


def run_compress(input_path: str, output_path: str, blocks: int = 2,
                 method: str = "order", k: int = 8) -> None:
    try:
        with open(input_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(str(exc)) from exc
    symbols = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    d = 8
    counts = np.bincount(symbols, minlength=1 << d)
    if symbols.size:
        dist = JointDistribution(d, counts / counts.sum())
        g = block_bica(dist, method, k=k).g
    else:
        from .distributions import SymbolPermutation
        g = SymbolPermutation.identity(d)
    partition = coding.BlockPartition.contiguous(d, max(1, d // blocks))
    enc = coding.marginal_encode(symbols, g, partition)
    with open(output_path, "wb") as fh:
        fh.write(enc.container)
    print(f"# {symbols.size} bytes -> {len(enc.container)} bytes "
          f"(data {enc.cost.data_bits:.0f} bits, overhead {enc.cost.overhead_bits:.0f} bits)",
          file=sys.stderr)


def run_decompress(input_path: str, output_path: str) -> None:
    try:
        with open(input_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(str(exc)) from exc
    try:
        symbols = coding.marginal_decode(blob)
    except (ValueError, IndexError, struct.error) as exc:
        raise DataError(f"corrupt container: {exc}") from exc
    with open(output_path, "wb") as fh:
        fh.write(symbols.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bicacomp",
                                 description="Large-alphabet source coding experiments and codecs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    cz = sub.add_parser("classic-zipf", help="entropy vs coder rates over a Zipf skew grid")
    cz.add_argument("--m", type=int, default=1 << 16)
    cz.add_argument("--s-grid", default="0.4:2.0:0.2")
    cz.add_argument("--csv")

    tb = sub.add_parser("theory-bounds", help="mean ordered-transform gap vs its closed-form bound")
    tb.add_argument("--d", type=int, default=10)
    tb.add_argument("--draws", type=int, default=2000)
    tb.add_argument("--seed", type=int, default=0)
    tb.add_argument("--workers", type=int, default=0,
                    help="Monte Carlo worker threads (0 = all cores); results are worker-count independent")
    tb.add_argument("--csv")

    un = sub.add_parser("universal", help="block-transform descent with baselines")
    un.add_argument("action", choices=["run"])
    un.add_argument("--input", help="frequency-list file (token count per line)")
    un.add_argument("--zipf", help="synthetic source, e.g. m=4096,s=1.2")
    un.add_argument("--d", type=int, required=True)
    un.add_argument("--b", type=int, required=True)
    un.add_argument("--n", type=int, default=100000)
    un.add_argument("--iters", type=int, default=30)
    un.add_argument("--seed", type=int, default=0)
    un.add_argument("--method", default="auto", choices=["auto", "order", "piecewise"])
    un.add_argument("--k", type=int, default=8, help="piecewise-envelope segments")
    un.add_argument("--csv")

    vqp = sub.add_parser("vq", help="quantizer experiments")
    vsub = vqp.add_subparsers(dest="vq_cmd", required=True)
    for name in ("ecvq", "bica-ecvq"):
        e = vsub.add_parser(name)
        e.add_argument("--dim", type=int, default=6)
        e.add_argument("--n", type=int, default=1000)
        e.add_argument("--m-init", type=int, default=64)
        e.add_argument("--lambdas", default="")
        e.add_argument("--lambda-min", type=float, default=0.01)
        e.add_argument("--lambda-max", type=float, default=10.0)
        e.add_argument("--lambda-count", type=int, default=16)
        e.add_argument("--seed", type=int, default=0)
        e.add_argument("--csv")
    lt = vsub.add_parser("lattice")
    lt.add_argument("--dim", type=int, default=3)
    lt.add_argument("--n", type=int, default=100000)
    lt.add_argument("--kind", default="cubic", choices=["cubic", "d4", "e8"])
    lt.add_argument("--scales", default="0.1,0.2,0.4,0.6,0.9,1.3,1.8,2.5")
    lt.add_argument("--seed", type=int, default=0)
    lt.add_argument("--csv")

    cp = sub.add_parser("compress", help="block-codec a file (bytes as 8-bit symbols)")
    cp.add_argument("input")
    cp.add_argument("output")
    cp.add_argument("--blocks", type=int, default=2)
    cp.add_argument("--method", default="order", choices=["order", "piecewise"])
    cp.add_argument("--k", type=int, default=8, help="piecewise-envelope segments")

    dp = sub.add_parser("decompress", help="invert compress")
    dp.add_argument("input")
    dp.add_argument("output")
    return ap


def _universal_samples(args) -> tuple[np.ndarray, int]:
    if args.zipf:
        params = dict(kv.split("=") for kv in args.zipf.split(","))
        m = int(params["m"])
        s = float(params.get("s", 1.2))
        spec = sources.SourceSpec.zipf(m, s, args.seed)
    elif args.input:
        try:
            _, _, spec = universal.ingest_frequency_list(args.input, args.d, args.seed)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc)) from exc
    else:
        raise ValueError("universal run needs --zipf or --input")
    return sources.sample(spec, args.n), args.d


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "classic-zipf":
            run_classic_zipf(args.m, _parse_grid(args.s_grid), args.csv)
        elif args.cmd == "theory-bounds":
            run_theory_bounds(args.d, args.draws, args.seed, args.workers, args.csv)
        elif args.cmd == "universal":
            samples, d = _universal_samples(args)
            run_universal(samples, d, args.b, args.iters, args.seed, args.csv,
                          args.method, args.k)
        elif args.cmd == "vq":
            if args.vq_cmd in ("ecvq", "bica-ecvq"):
                if args.lambdas:
                    lambdas = _parse_grid(args.lambdas)
                else:
                    lambdas = np.geomspace(args.lambda_min, args.lambda_max, args.lambda_count)
                run_vq_ecvq(args.dim, args.n, args.m_init, lambdas, args.seed,
                            args.vq_cmd, args.csv)
            else:
                run_vq_lattice(args.dim, args.n, args.kind,
                               _parse_grid(args.scales), args.seed, args.csv)
        elif args.cmd == "compress":
            run_compress(args.input, args.output, args.blocks, args.method, args.k)
        elif args.cmd == "decompress":
            run_decompress(args.input, args.output)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
