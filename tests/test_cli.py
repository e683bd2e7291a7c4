import subprocess
import sys

import numpy as np
import pytest

from bicacomp import cli


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


def test_universal_requires_source(tmp_path):
    rc = run_main(["universal", "run", "--d", "8", "--b", "4"])
    assert rc == 2


def test_universal_missing_input_file(tmp_path):
    rc = run_main(["universal", "run", "--input", str(tmp_path / "nope.txt"),
                   "--d", "8", "--b", "4"])
    assert rc == 3


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


def test_vq_bica_ecvq_csv(tmp_path):
    out = tmp_path / "vb.csv"
    rc = run_main(["vq", "bica-ecvq", "--dim", "3", "--n", "300", "--m-init", "16",
                   "--lambdas", "0.5", "--seed", "5", "--csv", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


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
