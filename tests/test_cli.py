import argparse
import ast
import subprocess
import sys
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
])
def test_out_of_range_options_exit_2(capsys, argv, named):
    assert run_main(argv) == 2
    assert named in capsys.readouterr().err


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
