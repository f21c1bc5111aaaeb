"""scripts/conv_bench.py: per-layer Conv2D timings on the picked path and the numpy path."""

import importlib.util
from pathlib import Path

from ambcest import layers

ROOT = Path(__file__).resolve().parents[1]


def _load_conv_bench():
    spec = importlib.util.spec_from_file_location("conv_bench", ROOT / "scripts" / "conv_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


conv_bench = _load_conv_bench()


def test_prints_both_passes_of_every_conv_with_the_same_bits(capsys):
    # N = 64: the default net's 64 -> 64 conv is on the fused taps wherever they exist
    assert conv_bench.main(["--reps", "1", "--batches", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dtype=float32 reps=1")
    rows = [line.split() for line in lines[2:]]
    convs = [(net, kernel, shape) for net, f in (("crit7", 16), ("default", 64)) for kernel, shape in
             [("3x3", f"2->{f}"), ("3x3", f"{f}->{f}"), ("3x3", f"{f}->2"), ("1x1", "2->1")]]
    assert [tuple(row[:3]) for row in rows] == [conv for conv in convs for _ in range(2)]
    assert [row[4] for row in rows] == ["forward", "backward"] * len(convs)
    assert all(row[-1] == "yes" and len(row) == 13 for row in rows)
    fused = "fused" if layers._BLAS is not None else "taps"
    assert [row[5] for row in rows if row[2] == "64->64"] == [fused, fused]
    assert all(row[5] != "fused" for row in rows if row[2] != "64->64")
    assert all(float(value) > 0 for row in rows for value in row[6:12])


def test_the_layout_column_follows_the_kernel():
    assert conv_bench.layout(40, 8, 2, 64, 3) == "im2col"
    assert conv_bench.layout(40, 8, 64, 64, 1) == "im2col"
    assert conv_bench.layout(128, 8, 16, 16, 3) == "taps"
