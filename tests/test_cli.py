import argparse
import ast
import contextlib
import hashlib
import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bicacomp import cli, coding, sources, universal, vq
from bicacomp.distributions import JointDistribution, SymbolPermutation
from bicacomp.search import block_bica


def run_main(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_classic_zipf_csv(tmp_path):
    out = tmp_path / "cz.csv"
    rc = run_main(["classic-zipf", "--m", "1024", "--s-grid", "0.5:1.5:0.5",
                   "--csv", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["s", "H", "huffman_avg", "perbit_avg", "twoblock_avg"]
    assert len(rows) == 3
    for row in rows:
        s, h, huff, perbit, twob = (float(v) for v in row)
        assert h <= huff < h + 1
        assert perbit >= twob - 1e-9 >= h - 1.0


def test_theory_bounds_csv(tmp_path):
    out = tmp_path / "tb.csv"
    rc = run_main(["theory-bounds", "--d", "10", "--draws", "300", "--seed", "7",
                   "--csv", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["m", "bound", "monte_carlo_mean", "stderr"]
    m, bound, mean, se = (float(v) for v in rows[0])
    assert m == 1024
    assert mean <= bound + 3 * se


def test_universal_run_csv(tmp_path):
    out = tmp_path / "un.csv"
    rc = run_main(["universal", "run", "--zipf", "m=256,s=1.2", "--d", "8", "--b", "4",
                   "--n", "5000", "--iters", "6", "--seed", "3", "--csv", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["iteration", "bound", "block_sum", "total_bits",
                      "baseline_standard", "baseline_pattern", "baseline_canonical"]
    bounds = [float(r[1]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(bounds, bounds[1:]))


def test_universal_method_order_runs_the_order_search(tmp_path):
    out = tmp_path / "un.csv"
    assert run_main(["universal", "run", "--zipf", "m=256,s=1.2", "--d", "8", "--b", "4",
                     "--n", "5000", "--iters", "6", "--seed", "3", "--method", "order",
                     "--csv", str(out)]) == 0
    bounds = [float(r[1]) for r in read_csv(out)[1]]
    x = sources.sample(sources.SourceSpec.zipf(256, 1.2, 3), 5000)
    order = universal.descend(x, 8, 4, method="order", max_iters=6, seed=3).bounds
    auto = universal.descend(x, 8, 4, method="auto", max_iters=6, seed=3).bounds
    assert bounds == [float(format(b, ".10g")) for b in order]
    assert bounds[-1] > auto[-1]  # the default searches piecewise


def test_universal_requires_source(tmp_path):
    rc = run_main(["universal", "run", "--d", "8", "--b", "4"])
    assert rc == 2


@pytest.mark.parametrize("spec", ["s=1.2", "m=64,x=3", "m", "m=64,s=high", "m=6.5"])
def test_universal_bad_zipf_spec_exits_2(capsys, spec):
    # a spec without m used to die with a KeyError, and unknown keys were ignored
    assert run_main(["universal", "run", "--zipf", spec, "--d", "12", "--b", "6",
                     "--n", "100"]) == 2
    assert f"--zipf {spec!r}" in capsys.readouterr().err


def test_theory_bounds_takes_no_worker_count():
    # the Monte Carlo runs one thread per usable core; its estimate does not depend on it
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["theory-bounds", "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["universal", "run", "--zipf", "m=64", "--d", "6", "--b", "3", "--k", "8"],
    ["compress", "in.bin", "out.bac", "--k", "8"],
    ["compress", "in.bin", "out.bac", "--method", "order"],
    ["universal", "run", "--zipf", "m=64", "--d", "6", "--b", "3", "--method", "piecewise"],
])
def test_search_options_with_one_value_in_use_are_gone(argv):
    # the piecewise search runs at 8 segments, compress always orders, and
    # "auto" is the piecewise search wherever that runs
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2


def _subcommand_actions(parser, path=()):
    """(subcommand path, action) of every option and positional of every
    subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommand_actions(sub, (*path, name))
        elif path:
            yield path, action


def _argvs_in_this_file():
    """(leading string constants, string constants in order) of every list
    literal in this file: an argv names the subcommand its leading
    constants spell."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.List):
            strings = [e.value if isinstance(e, ast.Constant) and isinstance(e.value, str)
                       else None for e in node.elts]
            lead = tuple(strings[:strings.index(None)] if None in strings else strings)
            out.append((lead, strings))
    return out


def test_every_cli_flag_is_set_by_a_cli_test():
    argvs = _argvs_in_this_file()
    unset = [f"{' '.join(path)} {flag}" for path, action in _subcommand_actions(cli.build_parser())
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"
             if not any(lead[:len(path)] == path and flag in strings for lead, strings in argvs)]
    assert unset == []


def test_every_cli_choice_is_passed_by_a_cli_test():
    # an option's value must follow its flag; a positional's may stand anywhere
    argvs = _argvs_in_this_file()
    unset = [" ".join((*path, *action.option_strings[:1], value))
             for path, action in _subcommand_actions(cli.build_parser())
             for value in action.choices or () if value != action.default
             if not any(lead[:len(path)] == path
                        and (any((flag, value) in zip(strings, strings[1:])
                                 for flag in action.option_strings)
                             or not action.option_strings and value in strings)
                        for lead, strings in argvs)]
    assert unset == []


def test_universal_missing_input_file(tmp_path):
    rc = run_main(["universal", "run", "--input", str(tmp_path / "nope.txt"),
                   "--d", "8", "--b", "4"])
    assert rc == 3


def test_universal_frequency_list_input(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("".join(f"w{i} {1000 // (i + 1)}\n" for i in range(200)))
    out = tmp_path / "un.csv"
    assert run_main(["universal", "run", "--input", str(words), "--d", "8", "--b", "4",
                     "--n", "3000", "--iters", "3", "--csv", str(out)]) == 0
    assert len(read_csv(out)[1]) >= 1
    words.write_text("the 100\nof fifty\n")
    assert run_main(["universal", "run", "--input", str(words), "--d", "8", "--b", "4"]) == 3


def test_vq_lattice_csv(tmp_path):
    out = tmp_path / "vl.csv"
    rc = run_main(["vq", "lattice", "--dim", "3", "--n", "3000",
                   "--scales", "0.5,1.0", "--seed", "5", "--csv", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["distortion", "rate_joint", "rate_marginal", "rd_bound"]
    assert len(rows) == 2


def test_vq_ecvq_csv(tmp_path):
    out = tmp_path / "ve.csv"
    rc = run_main(["vq", "ecvq", "--dim", "3", "--n", "300", "--m-init", "16",
                   "--lambdas", "0.1,1.0", "--seed", "5", "--csv", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 2


@pytest.mark.parametrize("argv", [
    ["vq", "ecvq", "--lambda-min", "0.05", "--lambda-max", "2.0", "--lambda-count", "3"],
    ["vq", "bica-ecvq", "--lambda-min", "0.05", "--lambda-max", "2.0", "--lambda-count", "3"],
])
def test_vq_lambda_ends_give_a_geometric_grid(tmp_path, argv):
    ends, grid = tmp_path / "ends.csv", tmp_path / "grid.csv"
    common = ["--dim", "3", "--n", "300", "--m-init", "16", "--seed", "5"]
    assert run_main([*argv, *common, "--csv", str(ends)]) == 0
    lambdas = ",".join(repr(float(v)) for v in np.geomspace(0.05, 2.0, 3))
    assert run_main([*argv[:2], *common, "--lambdas", lambdas, "--csv", str(grid)]) == 0
    assert len(read_csv(ends)[1]) == 3
    assert ends.read_text() == grid.read_text()


def test_vq_lattice_kind_d4(tmp_path):
    d4, cubic = tmp_path / "d4.csv", tmp_path / "cubic.csv"
    argv = ["--dim", "4", "--n", "2000", "--scales", "0.8", "--seed", "5"]
    assert run_main(["vq", "lattice", "--kind", "d4", *argv, "--csv", str(d4)]) == 0
    assert run_main(["vq", "lattice", *argv, "--csv", str(cubic)]) == 0
    x = np.random.default_rng(np.random.SeedSequence(5)).standard_normal((2000, 4))
    want = vq.lattice_rate_report(x, vq.Lattice("d4", 4, 0.8), "joint").distortion
    assert float(read_csv(d4)[1][0][0]) == float(format(want, ".10g"))
    assert d4.read_text() != cubic.read_text()


def test_vq_lattice_kind_e8(tmp_path):
    out = tmp_path / "e8.csv"
    assert run_main(["vq", "lattice", "--kind", "e8", "--dim", "8", "--n", "500",
                     "--scales", "0.8", "--seed", "5", "--csv", str(out)]) == 0
    x = np.random.default_rng(np.random.SeedSequence(5)).standard_normal((500, 8))
    want = vq.lattice_rate_report(x, vq.Lattice("e8", 8, 0.8), "joint").distortion
    assert float(read_csv(out)[1][0][0]) == float(format(want, ".10g"))


def test_vq_bica_ecvq_csv(tmp_path):
    out = tmp_path / "vb.csv"
    rc = run_main(["vq", "bica-ecvq", "--dim", "3", "--n", "300", "--m-init", "16",
                   "--lambdas", "0.5", "--seed", "5", "--csv", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


@pytest.mark.parametrize("variant, flags", [
    ("ecvq", ["--m-init", "0", "--lambdas", "0.1"]),
    ("bica-ecvq", ["--m-init", "0", "--lambdas", "0.1"]),
    ("bica-ecvq", ["--m-init", "16", "--lambdas", "-1"]),
    ("ecvq", ["--m-init", "8", "--lambdas", "nan"]),
    ("bica-ecvq", ["--m-init", "8", "--lambdas", "inf"]),
])
def test_vq_ecvq_bad_arguments_exit_2(variant, flags):
    assert run_main(["vq", variant, "--dim", "3", "--n", "300", *flags]) == 2


@pytest.mark.parametrize("argv", [
    ["classic-zipf", "--m", "16", "--s-grid", "0.4:2.0:0"],    # zero step
    ["classic-zipf", "--m", "16", "--s-grid", "2.0:0.4:0.2"],  # runs away from stop
    ["classic-zipf", "--m", "16", "--s-grid", "0.4:2.0:-0.2"],
    ["classic-zipf", "--m", "16", "--s-grid", "inf:2.0:0.2"],
    ["vq", "lattice", "--n", "100", "--scales", "0:1:0"],
    ["vq", "ecvq", "--n", "100", "--lambdas", "1:0:1"],
])
def test_empty_or_zero_step_grids_exit_2(capsys, argv):
    assert run_main(argv) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["classic-zipf", "--m", "0", "--s-grid", "1"], "--m"),  # was "negative shift count"
    (["classic-zipf", "--m", "1", "--s-grid", "1"], "--m"),
    # stored step 0 alone and exited 0
    (["universal", "run", "--zipf", "m=64", "--d", "6", "--b", "3", "--n", "100",
      "--iters", "-1"], "max_iters"),
    # asked for 74.5 GiB and 745 GiB, and exited 1 with NumPy's memory error
    (["vq", "ecvq", "--dim", "2", "--n", "10000000000", "--m-init", "8"], "--n x --dim"),
    (["vq", "ecvq", "--lambda-count", "100000000000"], "--lambda-count"),
    (["vq", "ecvq", "--lambda-count", "0"], "--lambda-count"),  # printed only the CSV header
    # each asked NumPy for 8 TiB, 8 TiB and 74.5 GiB, and exited 1 with its memory error
    (["theory-bounds", "--d", "40", "--draws", "10"], "--d"),
    (["classic-zipf", "--m", "1099511627776", "--s-grid", "1"], "--m"),
    (["universal", "run", "--zipf", "m=4096,s=1.2", "--d", "12", "--b", "6",
      "--n", "10000000000"], "--n"),
    (["theory-bounds", "--d", "10", "--draws", "100000000000"], "--draws"),  # ran past a 20 s timeout
    # each asked NumPy for 8 TiB, and exited 1 with its memory error
    (["universal", "run", "--zipf", "m=4096,s=1.2", "--d", "40", "--b", "6", "--n", "1000"], "--d"),
    (["universal", "run", "--zipf", "m=1099511627776,s=1.2", "--d", "20", "--b", "10",
      "--n", "1000"], "--zipf m"),
    # exited 2 only after the whole fit, on the block search's width cap
    (["vq", "ecvq", "--dim", "1", "--n", "70000", "--m-init", "70000", "--lambdas", "1"],
     "--m-init"),
    # named no option: "need 1 <= b <= d"
    (["universal", "run", "--zipf", "m=64", "--d", "6", "--b", "0", "--n", "100"], "--b"),
    (["universal", "run", "--zipf", "m=64", "--d", "6", "--b", "17", "--n", "100"], "--b"),
    # exited 0 with a nan distortion row
    (["vq", "lattice", "--dim", "3", "--n", "100", "--scales", "nan"], "scale must be positive"),
    (["vq", "lattice", "--dim", "3", "--n", "100", "--scales", "inf"], "scale must be positive"),
    # asked for 224 GiB and 745 GiB, and exited 1 with NumPy's memory error
    (["vq", "lattice", "--dim", "3", "--n", "10000000000"], "--n x --dim"),
    (["vq", "lattice", "--dim", "100000000", "--n", "1000"], "--n x --dim"),
])
def test_out_of_range_options_exit_2(capsys, argv, named):
    assert run_main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["vq", "ecvq", "--dim", "1", "--n", "8388609", "--lambdas", "1"],
    ["vq", "lattice", "--dim", "1", "--n", "8388609", "--scales", "1"],
])
def test_a_sample_count_past_the_cap_allocates_nothing(capsys, argv):
    # one value past 2^23, whose 64 MiB of samples would be drawn unchecked
    assert cli.VQ_MAX_VALUES == 8388608
    tracemalloc.start()
    try:
        assert run_main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "--n x --dim" in capsys.readouterr().err


def test_a_grid_past_the_point_cap_exits_2(capsys):
    assert cli._parse_grid(f"0:{cli.GRID_MAX_POINTS - 1}:1").size == cli.GRID_MAX_POINTS
    for text in (f"0:{cli.GRID_MAX_POINTS}:1", "0:1:5e-324"):  # the last span is infinite
        with pytest.raises(ValueError, match="points"):
            cli._parse_grid(text)
    assert run_main(["classic-zipf", "--m", "16", "--s-grid", "0:1:1e-12"]) == 2
    assert f"more than {cli.GRID_MAX_POINTS} points" in capsys.readouterr().err


def test_classic_zipf_codeword_past_63_bits_exits_2(capsys):
    # at skew 12 the Huffman code of Zipf(256) needs 255-bit codewords
    assert run_main(["classic-zipf", "--m", "256", "--s-grid", "12"]) == 2
    assert "63 bits" in capsys.readouterr().err


def test_compress_decompress_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes() + b"tail"
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    packed = tmp_path / "packed.bac"
    restored = tmp_path / "restored.bin"
    assert run_main(["compress", str(src), str(packed)]) == 0
    assert run_main(["decompress", str(packed), str(restored)]) == 0
    assert restored.read_bytes() == payload


def _block_widths(blob):
    """Per-block bit widths: the container's block sizes section, one u8
    per block."""
    return list(dict(coding.parse_container(blob).sections)["block_sizes"])


@pytest.mark.parametrize("blocks, widths", [
    (1, [8]), (2, [4, 4]), (3, [3, 3, 2]), (4, [2, 2, 2, 2]), (5, [2, 2, 2, 1, 1]),
    (6, [2, 2, 1, 1, 1, 1]), (7, [2, 1, 1, 1, 1, 1, 1]), (8, [1] * 8)])
def test_compress_writes_the_requested_blocks(tmp_path, blocks, widths):
    payload = bytes(np.random.default_rng(blocks).integers(0, 64, 3000, dtype=np.uint8))
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    packed = tmp_path / "packed.bac"
    restored = tmp_path / "restored.bin"
    assert run_main(["compress", str(src), str(packed), "--blocks", str(blocks)]) == 0
    blob = packed.read_bytes()
    assert blob[6] == blocks
    assert _block_widths(blob) == widths
    if 8 % blocks == 0:  # equal widths: the container of b = 8 / blocks bit blocks
        symbols = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
        dist = JointDistribution(8, np.bincount(symbols, minlength=256) / symbols.size)
        enc = coding.marginal_encode(symbols, block_bica(dist, "order").g,
                                     coding.BlockPartition.contiguous(8, 8 // blocks))
        assert blob == enc.container
    assert run_main(["decompress", str(packed), str(restored)]) == 0
    assert restored.read_bytes() == payload


@pytest.mark.parametrize("blocks", [0, 9, -1])
def test_compress_rejects_block_counts_outside_1_to_8(tmp_path, capsys, blocks):
    src = tmp_path / "input.bin"
    src.write_bytes(b"abc")
    rc = run_main(["compress", str(src), str(tmp_path / "o"), "--blocks", str(blocks)])
    assert rc == 2
    assert "--blocks" in capsys.readouterr().err


def test_compress_skewed_data_shrinks(tmp_path):
    payload = bytes([7] * 50000) + bytes(range(256)) * 4
    src = tmp_path / "skew.bin"
    src.write_bytes(payload)
    packed = tmp_path / "skew.bac"
    assert run_main(["compress", str(src), str(packed)]) == 0
    assert packed.stat().st_size < len(payload) / 4
    restored = tmp_path / "skew.out"
    assert run_main(["decompress", str(packed), str(restored)]) == 0
    assert restored.read_bytes() == payload


def test_compress_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    packed = tmp_path / "empty.bac"
    restored = tmp_path / "empty.out"
    assert run_main(["compress", str(src), str(packed)]) == 0
    assert run_main(["decompress", str(packed), str(restored)]) == 0
    assert restored.read_bytes() == b""


def test_compress_missing_input_is_data_error(tmp_path):
    rc = run_main(["compress", str(tmp_path / "missing.bin"), str(tmp_path / "o")])
    assert rc == 3


def test_decompress_garbage_is_data_error(tmp_path):
    bad = tmp_path / "garbage.bac"
    bad.write_bytes(b"not a container at all")
    rc = run_main(["decompress", str(bad), str(tmp_path / "out.bin")])
    assert rc == 3


def test_decompress_of_symbols_wider_than_a_byte_is_data_error(tmp_path, capsys):
    enc = coding.marginal_encode([1000, 3, 1000, 700, 3], SymbolPermutation.identity(10),
                                 coding.BlockPartition.contiguous(10, 5))
    packed = tmp_path / "wide.bac"
    packed.write_bytes(enc.container)
    restored = tmp_path / "out.bin"
    assert run_main(["decompress", str(packed), str(restored)]) == 3
    assert "10-bit symbols" in capsys.readouterr().err
    assert not restored.exists()


def test_decompress_reads_the_header_before_decoding(tmp_path, capsys, monkeypatch):
    x = np.random.default_rng(4).integers(0, 1 << 12, 500)
    packed = tmp_path / "wide.bau"
    packed.write_bytes(universal.compress(x, universal.descend(x, 12, 6, max_iters=1)))

    def refuse(blob):
        raise AssertionError("the container was decoded before its header was checked")

    monkeypatch.setattr(coding, "read_container", refuse)
    assert run_main(["decompress", str(packed), str(tmp_path / "out.bin")]) == 3
    assert "12-bit symbols" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["not-a-command"])
    assert exc.value.code == 2


def test_entry_point_help():
    out = subprocess.run([sys.executable, "-m", "bicacomp.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "classic-zipf" in out.stdout


def test_determinism_same_seed_same_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["universal", "run", "--zipf", "m=256,s=1.0", "--d", "8", "--b", "4",
            "--n", "2000", "--iters", "4", "--seed", "9"]
    assert run_main(args + ["--csv", str(a)]) == 0
    assert run_main(args + ["--csv", str(b)]) == 0
    assert a.read_text() == b.read_text()


# ---------------------------------------------------------------------------
# Golden outputs: every subcommand and every non-default choice, pinned
# ---------------------------------------------------------------------------

# Each row runs in order, in-process, in one directory that holds in.bin (a
# seeded Zipf byte file), words.txt (a frequency list) and garbage.bac. A
# row pins its exit code and the SHA-256 of its stdout, its stderr and every
# file it writes or changes, by name. A change that moves an output
# re-records only the rows it moved.
EMPTY = hashlib.sha256(b"").hexdigest()
GOLDEN = [
    (["classic-zipf", "--m", "256", "--s-grid", "0.6:1.4:0.4"], {
        "rc": 0,
        "stdout": "fc944f4bfa2228c1c3c7e6db26523f368158d2c33bc6db80bc8657fdb7b43c61",
        "stderr": EMPTY,
    }),
    (["classic-zipf", "--m", "64", "--s-grid", "1.0,2.5", "--csv", "cz.csv"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "cz.csv": "f14f92b0c2dd0d9b7ef7cc5089a73f830e6d1096ed4da30f9d1bf6bbab86d7d5",
    }),
    (["classic-zipf", "--m", "256", "--s-grid", "12"], {
        "rc": 2,
        "stdout": EMPTY,
        "stderr": "ef31f190ee5701cbfbbf241a3780350bbdd1f2a72aa4f73a9b1a98509120ac45",
    }),
    (["theory-bounds", "--d", "6", "--draws", "200", "--seed", "7"], {
        "rc": 0,
        "stdout": "c47fe7aac56378f13c99313fc21c61a83e967dc92c1e1796ce938ccbc96e1559",
        "stderr": EMPTY,
    }),
    (["theory-bounds", "--d", "4", "--draws", "50", "--csv", "tb.csv"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "tb.csv": "a7fdb8dfdc9094b35321bacedbdba63d161f576f89d69a36a704aa93b151d680",
    }),
    (["universal", "run", "--zipf", "m=4096,s=1.2", "--d", "12", "--b", "6", "--n", "20000",
      "--iters", "5"], {
        "rc": 0,
        "stdout": "4678a587483fe58c80092617a869b75d968d28ec8a9146dff315ab8eb480931f",
        "stderr": "bba1f0f107555ca4067651fc2d8fd10a76e770276c21420e93b7f430a480ea36",
    }),
    (["universal", "run", "--zipf", "m=256,s=1.0", "--d", "8", "--b", "4", "--n", "3000",
      "--iters", "4", "--seed", "9", "--method", "order", "--csv", "un.csv"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": "4e8849cab9528b0fe35b53e6e4030ac031c43f24543321f9e55932ecde07a27c",
        "un.csv": "a25aaddd342ce1b4aed81726e226ee253b3a46d7a866be99b9beccc05d4369a5",
    }),
    (["universal", "run", "--input", "words.txt", "--d", "8", "--b", "3", "--n", "2000",
      "--iters", "3", "--seed", "2"], {
        "rc": 0,
        "stdout": "30a77bdf543d57ed3ebe28747ec04e66eb4cd86d5695e04fac6dc37a8162bdfb",
        "stderr": "5801d624051f8b8fca9de7ff1af294429ebfc6ee2fd67efa2ab558ead96637a2",
    }),
    (["universal", "run", "--d", "8", "--b", "4"], {
        "rc": 2,
        "stdout": EMPTY,
        "stderr": "aa1b0043fc02fde327c72df7b77638c1e6e8ea8c0de2efc01988dc640ec9669b",
    }),
    (["vq", "ecvq", "--dim", "3", "--n", "300", "--m-init", "16", "--lambdas", "0,0.1,1.0",
      "--seed", "5"], {
        "rc": 0,
        "stdout": "6389d9433910681006ca33bba4c622ac97a64730c0fac9f951d223dc604a041e",
        "stderr": EMPTY,
    }),
    (["vq", "ecvq", "--dim", "2", "--n", "200", "--m-init", "8", "--lambda-min", "0.05",
      "--lambda-max", "2.0", "--lambda-count", "3", "--csv", "ve.csv"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "ve.csv": "8a3047c0cd9e5c8b48bccaba1a455dfc2aea9c6d8443adae5a3a4b4891effc19",
    }),
    (["vq", "bica-ecvq", "--dim", "3", "--n", "300", "--m-init", "16", "--lambdas", "0,0.5",
      "--seed", "5", "--csv", "vb.csv"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "vb.csv": "e375eded21616c15e64c4237a70ad09f41d743ab9d90d963c5cb27704b19f80a",
    }),
    (["vq", "lattice", "--dim", "3", "--n", "3000", "--scales", "0.5,1.0", "--seed", "5"], {
        "rc": 0,
        "stdout": "16c60c2990a6964596ef356d92009c5c2666d2e881e74c30d7407d5294213329",
        "stderr": EMPTY,
    }),
    (["vq", "lattice", "--kind", "d4", "--dim", "4", "--n", "2000", "--scales", "0.8",
      "--seed", "5", "--csv", "d4.csv"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "d4.csv": "e987717b21074958974ca7d851874c835592495bf7b087aa35272a8c28b01bf9",
    }),
    (["vq", "lattice", "--kind", "e8", "--dim", "8", "--n", "500", "--scales", "0.8,1.5",
      "--seed", "5"], {
        "rc": 0,
        "stdout": "eded17e7e769a2cb9f084751e7be0b7c5c46d917827c92bbf674cb281ce7a1f5",
        "stderr": EMPTY,
    }),
    (["compress", "in.bin", "two.bac"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": "684d8d973c891e2811f854a45dc82e1d89b637c6e69396f7f7722e4be63ac177",
        "two.bac": "a91723519841448e6b1ea8778e8de6f66228fed82c065a8cf1ee0793a6282a8c",
    }),
    (["compress", "in.bin", "three.bac", "--blocks", "3"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": "b70af2b0e2bb430893743a530500ce3c2fc5a41e68b8656293d0d6fe63a5abed",
        "three.bac": "61b5b11ee7b4ce036b97ebe9a253f8e31cc0dc792fff05d25d4724b5334a724d",
    }),
    (["decompress", "two.bac", "two.out"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "two.out": "1cbde8cd308d43285f0da445c7753c0007abf9f5f441596375a62d6a0777152a",
    }),
    (["decompress", "three.bac", "three.out"], {
        "rc": 0,
        "stdout": EMPTY,
        "stderr": EMPTY,
        "three.out": "1cbde8cd308d43285f0da445c7753c0007abf9f5f441596375a62d6a0777152a",
    }),
    (["decompress", "garbage.bac", "garbage.out"], {
        "rc": 3,
        "stdout": EMPTY,
        "stderr": "0c349633cc632b1b833fe601483c86fe96886c99d1e768bb8136ea0d0581d999",
    }),
]


def _golden_outputs(root):
    """{argv: {"rc", "stdout", "stderr", and each file written: SHA-256}} of
    the GOLDEN rows run in order in the directory ``root``, which must be
    the working directory."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    probs = np.arange(1, 257) ** -1.1
    rng = np.random.default_rng(np.random.SeedSequence(17))
    (root / "in.bin").write_bytes(rng.choice(256, 6000, p=probs / probs.sum()).astype(np.uint8))
    (root / "words.txt").write_text("".join(f"w{i} {1000 // (i + 1)}\n" for i in range(150)))
    (root / "garbage.bac").write_bytes(b"not a container at all")
    got = {}
    for argv, _ in GOLDEN:
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        row = {"rc": rc, "stdout": sha(out.getvalue().encode()),
               "stderr": sha(err.getvalue().encode())}
        row.update((p.name, sha(p.read_bytes())) for p in sorted(root.iterdir())
                   if before.get(p.name) != p.read_bytes())
        got[" ".join(argv)] = row
    return got


def test_cli_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _golden_outputs(tmp_path) == {" ".join(argv): want for argv, want in GOLDEN}


def test_the_golden_rows_cover_every_subcommand_and_choice():
    argvs = [argv for argv, _ in GOLDEN]
    paths = {path for path, _ in _subcommand_actions(cli.build_parser())}
    assert [p for p in paths if not any(tuple(a[:len(p)]) == p for a in argvs)] == []
    unset = [(path, value) for path, action in _subcommand_actions(cli.build_parser())
             for value in action.choices or () if value != action.default
             if not any(tuple(a[:len(path)]) == path and value in a for a in argvs)]
    assert unset == []
