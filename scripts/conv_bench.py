"""Per-layer Conv2D timings of the criterion-7 and default nets, on the path the package
picks and on the numpy path.

    python3 scripts/conv_bench.py [--reps R] [--batches N [N ...]] [--dtype {float32,float64}]

For every conv shape of the criterion-7 net (B=2, L=4, F=16) and of the default net
(B=3, L=8, F=64), both on the 8x8 grid with P = 2, and for each batch N (default 128
and 256), it times Conv2D.forward and Conv2D.backward R times each (default 50) on
inputs in a conv output's spatial-major memory.  It does so once on the path _conv
picks and once with numpy's OpenBLAS handle removed, where every deep conv adds its
shifted taps with numpy.  Each line gives:

- the layout of the picked path: im2col, taps (numpy adds) or fused (BLAS adds);
  backward names the layout of its input-gradient conv;
- min and median ms and the GFLOP/s of the median for each path, counting
  2 * N*H*W * k*k*C_in * K flops forward and twice that backward;
- whether both paths gave the same bytes: the output forward, and the input gradient,
  grad_w and grad_b backward.

BLAS threads follow OPENBLAS_NUM_THREADS.  The package is imported from src/ of the
checkout this script sits in.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ambcest import Conv2D, DenoiserHyper  # noqa: E402
from ambcest import layers  # noqa: E402

NETS = {"crit7": DenoiserHyper(blocks=2, layers_per_block=4, filters=16), "default": DenoiserHyper()}


def conv_shapes(hyper: DenoiserHyper) -> list[tuple[int, int, int]]:
    """(k, C_in, K) of each distinct conv of a net: a block's first, middle and last
    layers, then the 1x1 reconstruction."""
    k, p, f = hyper.kernel_size, hyper.pilots, hyper.filters
    return [(k, p, f), (k, f, f), (k, f, p), (1, p, 1)]


def layout(n: int, wd: int, c: int, k_out: int, k: int) -> str:
    """The layout _conv picks for a batch of n on a grid W = wd wide."""
    if k == 1 or k * k * c <= layers._IM2COL_DEPTH:
        return "im2col"
    return "fused" if layers._fused_taps(n, wd, c, k_out, k) else "taps"


def timed(fn, reps: int) -> tuple[float, float]:
    """(min, median) seconds of reps calls of fn, after one warm-up call."""
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def spatial_major(a: np.ndarray) -> np.ndarray:
    """a (N, H, W, C) as a view of spatial-major (H, W, N, C) memory, as a conv output is."""
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3)).transpose(2, 0, 1, 3)


def run_path(conv: Conv2D, x: np.ndarray, g: np.ndarray, reps: int):
    """Forward and backward (min, median) seconds, and the bytes each pass returns."""
    fwd = timed(lambda: conv.forward(x), reps)
    out = conv.forward(x).tobytes()
    bwd = timed(lambda: conv.backward(g), reps)
    grads = (conv.backward(g).tobytes(), conv.grad_w.tobytes(), conv.grad_b.tobytes())
    return {"forward": (fwd, out), "backward": (bwd, grads)}


def rows(batches: list[int], reps: int, dtype) -> list[str]:
    handle, rng = layers._BLAS, np.random.default_rng(0)
    lines = []
    for net, hyper in NETS.items():
        h, wd = hyper.ma, hyper.mb
        for k, c_in, c_out in conv_shapes(hyper):
            conv = Conv2D(c_in, c_out, kernel_size=k).reset(rng)
            for n in batches:
                x = spatial_major(rng.standard_normal((n, h, wd, c_in)).astype(dtype))
                g = spatial_major(rng.standard_normal((n, h, wd, c_out)).astype(dtype))
                picked = run_path(conv, x, g, reps)
                layers._BLAS = None
                try:
                    numpy_path = run_path(conv, x, g, reps)
                finally:
                    layers._BLAS = handle
                gflop = 2e-9 * n * h * wd * k * k * c_in * c_out
                for name, flops, path in (("forward", gflop, layout(n, wd, c_in, c_out, k)),
                                          ("backward", 2 * gflop, layout(n, wd, c_out, c_in, k))):
                    (p_min, p_med), p_bytes = picked[name]
                    (n_min, n_med), n_bytes = numpy_path[name]
                    lines.append(
                        f"{net:<8} {k}x{k} {c_in:>3}->{c_out:<3} {n:>5} {name:<8} {path:<7}"
                        f"{p_min * 1e3:9.3f}{p_med * 1e3:9.3f}{flops / p_med:9.1f}"
                        f"{n_min * 1e3:9.3f}{n_med * 1e3:9.3f}{flops / n_med:9.1f}"
                        f"  {'yes' if p_bytes == n_bytes else 'NO'}"
                    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--batches", type=int, nargs="+", default=[128, 256])
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    args = parser.parse_args(argv)
    if args.reps < 1 or min(args.batches) < 1:
        parser.error("--reps and every batch must be >= 1")
    print(f"dtype={args.dtype} reps={args.reps} blas={'numpy OpenBLAS' if layers._BLAS else 'not found'}")
    print(f"{'net':<8} {'conv':<11} {'N':>5} {'pass':<8} {'path':<7}"
          f"{'min ms':>9}{'med ms':>9}{'GFLOP/s':>9}{'np min':>9}{'np med':>9}{'np GF/s':>9}  same bits")
    for line in rows(args.batches, args.reps, np.dtype(args.dtype)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
