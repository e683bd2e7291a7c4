"""Command-line entry point: experiments emit CSV, codecs move files.

Exit codes: 0 success, 2 configuration error, 3 data error. All sizes are
reported in bits and every subcommand is reproducible from its seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds, coding, sources, universal, vq
from .distributions import JointDistribution, SymbolPermutation, entropy_bits, next_bit_dimension
from .search import block_bica, order_permutation


GRID_MAX_POINTS = 10_000  # points a start:stop:step grid may hold
# Sample values (n x dim) a vq subcommand may take: an ECVQ fit peaks near 48
# bytes a value and a lattice run (any kind, dim 1-64) at 44-60, ~500 MiB.
VQ_MAX_VALUES = 1 << 23
THEORY_MAX_BITS = 14  # a Monte Carlo shard, 500 x 2^d float64s, peaks near 200 MiB per core
THEORY_MAX_DRAWS = 10 ** 6  # 10^5 draws take 2.4 s at d = 10, and the shard list grows with them
# Whole-alphabet Huffman and order search over classic-zipf's --m and universal
# run's 2^--d symbols peak near 170 MiB, past 1.5 GiB at 2^24
CLASSIC_MAX_SYMBOLS = 1 << 20
UNIVERSAL_MAX_SAMPLES = 1 << 24  # 128 MiB of int64 samples; a run on them peaks near 470 MiB


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
    """start:stop:step inclusive grid, or a comma list; raises ValueError on
    a zero or non-finite step, a non-finite bound, or a grid with no point
    or more than GRID_MAX_POINTS points."""
    if ":" in text:
        start, stop, step = (float(t) for t in text.split(":"))
        if step == 0 or not np.all(np.isfinite([start, stop, step])):
            raise ValueError(f"grid {text!r} needs finite bounds and a nonzero step")
        # clamped first: the span may be too large for an int, or infinite
        n = int(round(min(max((stop - start) / step, -1.0), GRID_MAX_POINTS))) + 1
        if n < 1:
            raise ValueError(f"grid {text!r} has no point")
        if n > GRID_MAX_POINTS:
            raise ValueError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
        return start + step * np.arange(n)
    return np.array([float(t) for t in text.split(",")])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_classic_zipf(m: int, s_grid, csv: str | None = None) -> list[list]:
    if m < 2 or m & (m - 1) or m > CLASSIC_MAX_SYMBOLS:
        raise ValueError(f"--m must be a power of two in 2..{CLASSIC_MAX_SYMBOLS}, got {m}")
    d = m.bit_length() - 1
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


def run_theory_bounds(d: int, draws: int, seed: int, csv: str | None = None) -> list[list]:
    if not 1 <= d <= THEORY_MAX_BITS:
        raise ValueError(f"--d must lie in 1..{THEORY_MAX_BITS}, got {d}")
    if draws > THEORY_MAX_DRAWS:
        raise ValueError(f"--draws must be at most {THEORY_MAX_DRAWS}, got {draws}")
    m = 1 << d
    bound = bounds.ordered_gap_bound(m)
    mean, se = bounds.mc_ordered_gap(d, draws, seed)
    rows = [[m, bound, mean, se]]
    _write_csv(csv, ["m", "bound", "monte_carlo_mean", "stderr"], rows)
    return rows


def run_universal(samples: np.ndarray, d: int, b: int, iters: int, seed: int,
                  csv: str | None = None, method: str = "auto") -> universal.CostReport:
    result = universal.descend(samples, d, b, method=method, max_iters=iters, seed=seed)
    base = universal.baseline_costs(samples, 1 << d)
    report = universal.total_cost_curve(result, samples.size, base)
    baselines = [report.baseline_standard, report.baseline_pattern, report.baseline_canonical]
    rows = [
        [int(i), bo, bs, t, *baselines]
        for i, bo, bs, t in zip(report.iterations, report.bounds,
                                report.block_sums, report.totals)
    ]
    _write_csv(csv, ["iteration", "bound", "block_sum", "total_bits",
                     "baseline_standard", "baseline_pattern", "baseline_canonical"], rows)
    print(f"# best iteration I0={report.best_iteration} "
          f"total={report.best_total:.6g} bits "
          f"(standard={report.baseline_standard:.6g}, pattern={report.baseline_pattern:.6g}, "
          f"canonical={report.baseline_canonical:.6g})", file=sys.stderr)
    return report


def run_vq_ecvq(dim: int, n: int, m_init: int, lambdas, seed: int, variant: str,
                csv: str | None = None) -> list[list]:
    if m_init > vq.INDEX_MAX_CLUSTERS:
        raise ValueError(f"--m-init must be at most {vq.INDEX_MAX_CLUSTERS}, got {m_init}")
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
            d_bits = next_bit_dimension(m_init)
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


def run_compress(input_path: str, output_path: str, blocks: int = 2) -> None:
    d = 8
    if not 1 <= blocks <= d:
        raise ValueError(f"--blocks must lie in 1..{d}, got {blocks}")
    sizes = tuple(d // blocks + (v < d % blocks) for v in range(blocks))
    try:
        with open(input_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(str(exc)) from exc
    symbols = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    counts = np.bincount(symbols, minlength=1 << d)
    if symbols.size:
        g = order_permutation(JointDistribution(d, counts / counts.sum())).g
    else:
        g = SymbolPermutation.identity(d)
    enc = coding.marginal_encode(symbols, g, coding.BlockPartition(sizes))
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
        d = coding.parse_container(blob).partition.d
        if d > 8:  # read from the parsed header, before any stream decodes
            raise DataError(f"container holds {d}-bit symbols, not bytes")
        symbols = coding.marginal_decode(blob)
    except (ValueError, IndexError) as exc:
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
    un.add_argument("--method", default="auto", choices=["auto", "order"])
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
    cp.add_argument("--blocks", type=int, default=2,
                    help="bit blocks per byte, 1-8; widths differ by at most one, wider first")

    dp = sub.add_parser("decompress", help="invert compress")
    dp.add_argument("input")
    dp.add_argument("output")
    return ap


def _universal_samples(args) -> tuple[np.ndarray, int]:
    max_bits = CLASSIC_MAX_SYMBOLS.bit_length() - 1
    if not 1 <= args.d <= max_bits:
        raise ValueError(f"--d must lie in 1..{max_bits}, got {args.d}")
    if not 1 <= args.b <= args.d:
        raise ValueError(f"--b must lie in 1..{args.d} (--d), got {args.b}")
    if not 0 <= args.n <= UNIVERSAL_MAX_SAMPLES:
        raise ValueError(f"--n must lie in 0..{UNIVERSAL_MAX_SAMPLES}, got {args.n}")
    if args.zipf:
        bad = ValueError(f"--zipf {args.zipf!r} must be m=<int> or m=<int>,s=<float>")
        params = dict(kv.partition("=")[::2] for kv in args.zipf.split(","))
        if "m" not in params or not params.keys() <= {"m", "s"}:
            raise bad
        try:
            m, s = int(params["m"]), float(params.get("s", 1.2))
        except ValueError:
            raise bad from None
        if not 1 <= m <= 1 << args.d:
            raise ValueError(f"--zipf m must lie in 1..{1 << args.d} (2^--d), got {m}")
        spec = sources.SourceSpec.zipf(m, s, args.seed)
    elif args.input:
        spec = sources.SourceSpec.frequency_list(args.input, args.d, args.seed)
    else:
        raise ValueError("universal run needs --zipf or --input")
    try:
        return sources.sample(spec, args.n), args.d
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "classic-zipf":
            run_classic_zipf(args.m, _parse_grid(args.s_grid), args.csv)
        elif args.cmd == "theory-bounds":
            run_theory_bounds(args.d, args.draws, args.seed, args.csv)
        elif args.cmd == "universal":
            samples, d = _universal_samples(args)
            run_universal(samples, d, args.b, args.iters, args.seed, args.csv, args.method)
        elif args.cmd == "vq":
            for flag, value in (("--n", args.n), ("--dim", args.dim)):
                if value < 1:
                    raise ValueError(f"{flag} must be at least 1, got {value}")
            if args.n * args.dim > VQ_MAX_VALUES:
                raise ValueError(f"--n x --dim = {args.n * args.dim} sample values exceed "
                                 f"{VQ_MAX_VALUES}")
            if args.vq_cmd in ("ecvq", "bica-ecvq"):
                if args.lambdas:
                    lambdas = _parse_grid(args.lambdas)
                elif not 1 <= args.lambda_count <= GRID_MAX_POINTS:
                    raise ValueError(f"--lambda-count must be 1..{GRID_MAX_POINTS}")
                else:
                    lambdas = np.geomspace(args.lambda_min, args.lambda_max, args.lambda_count)
                run_vq_ecvq(args.dim, args.n, args.m_init, lambdas, args.seed,
                            args.vq_cmd, args.csv)
            else:
                run_vq_lattice(args.dim, args.n, args.kind,
                               _parse_grid(args.scales), args.seed, args.csv)
        elif args.cmd == "compress":
            run_compress(args.input, args.output, args.blocks)
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
