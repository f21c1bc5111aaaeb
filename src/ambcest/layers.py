"""Dense-tensor NN layers with exact reverse-mode gradients.

All tensors are channels-last numpy arrays, and Conv2D and BatchNorm2D take only a batch
(N, H, W, C), as does ResidualDenoiser, which builds on them.  Each layer caches what its
backward pass needs on forward; backward consumes the cache of the most recent forward.
A Conv2D output (forward's and backward's) is an (N, H, W, C) view of spatial-major
(H, W, N, C) memory.  BN and ReLU keep their input's memory order, so the next conv
reads it in place.  No layer relies on C-contiguity.

The compute dtype follows the input: a float32 input is computed in float32, anything else
in float64.  Backward runs in the dtype of the forward it follows.  Parameters and batch
norm running statistics are float64 master copies, cast to the compute dtype on each
forward, and gradients are stored as float64, so optimizers and checkpoints see float64
only.  A float64 input takes exactly the float64 path.  The state and gradient arrays are
views (see _Stateful), which forward and backward write in place and never rebind.
"""

import ctypes
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


def _as_compute(x: np.ndarray) -> np.ndarray:
    """x as an array of its compute dtype: float32 stays float32, anything else is float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


# rows per sgemv block of _channel_sum: each float32 partial sum adds at most this many rows
_SUM_BLOCK = 256


def _spatial_major(x: np.ndarray) -> np.ndarray:
    """x (N, H, W, C) as a C-contiguous (H, W, N, C) array: a view if x's memory is in that order, else a copy."""
    return np.ascontiguousarray(x.transpose(1, 2, 0, 3))


def _channel_sum(x: np.ndarray) -> np.ndarray:
    """Per-channel float64 sum of a batch x (N, H, W, C) over (N, H, W).

    float32 input is summed in blocks of _SUM_BLOCK rows, one sgemv-shaped product with a
    ones vector per block (rows in x's memory order), and the block sums are added in
    float64; the leftover rows go through numpy's sum.  A numpy sum over all but the last
    axis runs one short inner loop per row, about 20x slower at (128, 8, 8, 16).
    Anything else keeps numpy's sum.
    """
    if x.dtype != np.float32:
        return x.sum(axis=(0, 1, 2), dtype=np.float64)
    rows = (x if x.flags.c_contiguous else _spatial_major(x)).reshape(-1, x.shape[-1])
    whole = rows.shape[0] - rows.shape[0] % _SUM_BLOCK
    total = rows[whole:].sum(axis=0, dtype=np.float64)
    if whole:
        blocks = rows[:whole].reshape(-1, _SUM_BLOCK, rows.shape[1])
        total += (np.ones(_SUM_BLOCK, dtype=np.float32) @ blocks).sum(axis=0, dtype=np.float64)
    return total


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = _as_compute(x)
    if x.ndim != 4:
        raise ShapeError(f"expected a batch (N, H, W, C), got shape {x.shape}")
    return x


# im2col when a window row, k*k*C_in values, is at most this long; deeper inputs take
# the spatial-major taps
_IM2COL_DEPTH = 32
# output bytes per block of the spatial-major taps: one tap's product and the rows it
# adds into stay in cache
_BLOCK_BYTES = 1 << 19

# OpenBLAS facts behind the fused taps of _conv, measured on OpenBLAS 0.3.31 (SkylakeX
# core, 1 and 2 threads; scan in CHANGES.md).  A GEMM whose contraction is longer than
# its K panel (384 for dgemm, 448 for sgemm) adds into C one panel at a time, so with
# beta = 1 the old C joins the sum before the last panel and the bits change
BLAS_K_PANEL = 384
# a small GEMM may take OpenBLAS's small-matrix kernels, which sum in another order than
# the large-matrix path of a whole block of rows: per-row calls differed up to 442,368
# multiply-adds and agreed from 2**20 up
BLAS_FUSED_MNK = 1 << 20
# a per-row call over fewer rows can cost more than the numpy add it replaces at two
# BLAS threads (64 -> 64 at 259-280 rows: 3-19% slower; 128 -> 128 at 112 rows: 20-40%);
# every shape from 448 rows and 2**20 multiply-adds up was faster at 1 and 2 threads
BLAS_FUSED_ROWS = 448


class _Blas(NamedTuple):
    path: str  # the library file
    gemm: dict  # {dtype: cblas_?gemm}


def _numpy_openblas() -> _Blas | None:
    """cblas_sgemm and cblas_dgemm of the OpenBLAS library numpy itself loaded, or None.

    numpy >= 2 manylinux wheels ship it as numpy.libs/libscipy_openblas64_-*.so, with
    64-bit integer arguments.  It is opened with RTLD_NOLOAD, so this returns the copy
    that is already loaded, with numpy's thread pool and OPENBLAS_NUM_THREADS, and never
    loads a library of its own (such as scipy's); any other numpy gets None.
    """
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        fns = {np.dtype(np.float32): (lib.scipy_cblas_sgemm64_, ctypes.c_float),
               np.dtype(np.float64): (lib.scipy_cblas_dgemm64_, ctypes.c_double)}
    except (OSError, AttributeError):
        return None
    i32, i64, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
    for fn, scalar in fns.values():
        # order, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
        fn.argtypes = [i32, i32, i32, i64, i64, i64, scalar, ptr, i64, ptr, i64, scalar, ptr, i64]
        fn.restype = None
    return _Blas(str(libs[0]), {dtype: fn for dtype, (fn, _) in fns.items()})


_BLAS = _numpy_openblas()
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


class _GemmAdd:
    """out[o : o + m] += a[i : i + m] @ b as one cblas_?gemm call with beta = 1.

    The operands are checked once: a common float dtype, a and out with rows of unit
    stride, b with a unit stride along either axis (passed transposed along its rows, as
    numpy's matmul passes it).  Each call checks its row ranges against a and out.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, out: np.ndarray):
        item = a.itemsize
        (m_a, k), (m_out, n) = a.shape, out.shape
        if b.strides[1] == item:
            self.trans_b, ldb = _NO_TRANS, b.strides[0]
        else:
            self.trans_b, ldb = _TRANS, b.strides[1]
        ok = (
            a.dtype == b.dtype == out.dtype and a.dtype in _BLAS.gemm and b.shape == (k, n)
            and a.strides[1] == out.strides[1] == item and min(b.strides) == item
            and a.strides[0] >= k * item and out.strides[0] >= n * item
            and ldb >= (n if self.trans_b == _NO_TRANS else k) * item
            and a.strides[0] % item == out.strides[0] % item == ldb % item == 0
        )
        if not ok:
            raise ShapeError(f"no BLAS add for {a.dtype}{a.shape}{a.strides} @ {b.dtype}{b.shape}{b.strides}"
                             f" into {out.dtype}{out.shape}{out.strides}")
        self.fn, self.m_a, self.m_out, self.k, self.n = _BLAS.gemm[a.dtype], m_a, m_out, k, n
        self.operands = (a, b, out)  # the pointers below stay valid while this object lives
        self.a, self.b, self.out = a.ctypes.data, b.ctypes.data, out.ctypes.data
        self.a_row, self.out_row = a.strides[0], out.strides[0]
        self.lda, self.ldb, self.ldc = a.strides[0] // item, ldb // item, out.strides[0] // item

    def __call__(self, i: int, o: int, m: int) -> None:
        if not (m > 0 and 0 <= i and i + m <= self.m_a and 0 <= o and o + m <= self.m_out):
            raise ShapeError(f"rows [{i}, {i + m}) -> [{o}, {o + m}) out of range")
        self.fn(_ROW_MAJOR, _NO_TRANS, self.trans_b, m, self.n, self.k, 1.0, self.a + i * self.a_row, self.lda,
                self.b, self.ldb, 1.0, self.out + o * self.out_row, self.ldc)


def _fused_taps(n: int, wd: int, c: int, k_out: int, k: int) -> bool:
    """Whether _conv's shifted taps add into the output inside BLAS (_GemmAdd) rather than
    through a numpy add.  They do where the bits are known to be the same: numpy's BLAS
    was found, the contraction fits one K panel, no product is a matrix-vector one
    (numpy takes gemv for those), and every per-row call has at least BLAS_FUSED_ROWS
    rows and BLAS_FUSED_MNK multiply-adds."""
    rows = (wd - min(k // 2, wd - 1)) * n  # the shortest per-row call: the widest column shift
    return (_BLAS is not None and 2 <= c <= BLAS_K_PANEL and k_out >= 2 and rows >= BLAS_FUSED_ROWS
            and rows * c * k_out >= BLAS_FUSED_MNK)


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded stride-1 convolution of a batch x (N, H, W, C) with filters w (K, k, k, C)
    and bias b (K,), both of x's dtype.  Returns (out, cols): out is an (N, H, W, K)
    view of spatial-major (H, W, N, K) memory, and cols the rows Conv2D.backward reads.

    Rows run in spatial-major (y, x, n) order; x is read in place when its memory is in
    that order, as a conv output is, and copied once otherwise.  A shallow input
    (k*k*C <= _IM2COL_DEPTH, or k = 1) takes one im2col GEMM: cols is the window matrix
    of the padded input, or its rows when k = 1.  Any other input takes one GEMM per tap
    over cols, the spatial-major x (H, W, N, C): tap (dy, dx) reads the contiguous rows
    whose source row y + dy - p lies on the grid, and its product is added into the
    output shifted by dx - p columns.  The taps run over blocks of output rows, so the
    rows a tap adds into are still in cache.

    The centre tap's GEMM writes the output.  numpy's matmul cannot add into its output,
    so on the numpy path each shifted tap's product lands in a buffer and a numpy add
    follows.  Where _fused_taps holds, each shifted tap instead adds into the output
    inside BLAS, one cblas_?gemm call with beta = 1 per output image row, because a
    column shift leaves the rows of one tap non-contiguous.  Both paths add the taps in
    the same order, and on OpenBLAS 0.3.31 (SkylakeX core, 1 and 2 threads) their
    outputs are equal bit for bit wherever the rule holds.
    """
    n, h, wd, c = x.shape
    k_out, k = w.shape[0], w.shape[1]
    p = k // 2
    x_sm = _spatial_major(x)
    if k == 1 or k * k * c <= _IM2COL_DEPTH:
        x_pad = x_sm
        if p:
            x_pad = np.zeros((h + 2 * p, wd + 2 * p, n, c), dtype=x.dtype)
            x_pad[p : p + h, p : p + wd] = x_sm
        windows = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(0, 1))
        cols = windows.reshape(h * wd * n, c * k * k)
        acc = cols @ w.transpose(0, 3, 1, 2).reshape(k_out, c * k * k).T
    else:
        cols = x_sm
        rows, taps = cols.reshape(-1, c), w.transpose(1, 2, 3, 0)
        step = wd * n
        acc = np.empty((h * step, k_out), dtype=x.dtype)
        block = max(1, _BLOCK_BYTES // (step * k_out * x.itemsize))  # output rows y per block
        # the centre tap covers every output and starts the sum; a shift of W or more adds nothing
        shifted = [(dy, dx) for dy in range(k) for dx in range(k) if (dy, dx) != (p, p) and abs(dx - p) < wd]
        if _fused_taps(n, wd, c, k_out, k):
            gemm_add = {tap: _GemmAdd(rows, taps[tap], acc) for tap in shifted}
        else:
            gemm_add, tmp = None, np.empty((min(h, block) * step, k_out), dtype=x.dtype)
        for y0 in range(0, h, block):
            y1 = min(h, y0 + block)
            acc_rows = acc[y0 * step : y1 * step]
            np.matmul(rows[y0 * step : y1 * step], taps[p, p], out=acc_rows)
            acc_cols = acc_rows.reshape(y1 - y0, wd, n * k_out)
            for dy, dx in shifted:
                t, s = dy - p, dx - p  # output rows [ya, yb) read input rows y + t on the grid
                ya, yb = max(y0, -t), max(y0, -t, min(y1, h - t))
                if gemm_add:
                    # output columns [x0, W - max(0, s)) of row y: one run of rows, and its
                    # source run starts (t*W + s)*N rows further on
                    x0, run = max(0, -s), (wd - abs(s)) * n
                    for y in range(ya, yb):
                        out_row = (y * wd + x0) * n
                        gemm_add[dy, dx](out_row + (t * wd + s) * n, out_row, run)
                    continue
                prod = tmp[: (yb - ya) * step]
                np.matmul(rows[(ya + t) * step : (yb + t) * step], taps[dy, dx], out=prod)
                prod_cols = prod.reshape(yb - ya, wd, n * k_out)
                acc_cols[ya - y0 : yb - y0, max(0, -s) : wd - max(0, s)] += prod_cols[:, max(0, s) : wd + min(0, s)]
    acc += b
    return acc.reshape(h, wd, n, k_out).transpose(2, 0, 1, 3), cols


def bind(layers, kind: str, vector: np.ndarray, at: int = 0, prefix: str = "") -> int:
    """Set each layer's `kind` arrays ("params" or "stats"), named `prefix + name`, to
    consecutive views of vector from offset at, in layer order; returns the offset after the last."""
    for layer in layers:
        for name in getattr(layer, kind):
            end = at + math.prod(layer.shapes[name])
            setattr(layer, prefix + name, vector[at:end].reshape(layer.shapes[name]))
            at = end
    return at


class _Stateful:
    """State naming shared by the layers: `params` names the trainable arrays, each with
    its gradient in `grad_<name>`, `stats` the running statistics and `shapes` every
    array's shape.  Every dict is keyed `<prefix>.<name>` in declared order and holds the
    live arrays: views of the layer's own vector or, with shared=True, of its net's (bind).
    grad_<name> is None until the first backward of the layer or its net, so an evaluated
    layer holds no gradient memory; named_gradients then reads zeros that it does not store."""

    params: tuple[str, ...] = ()
    stats: tuple[str, ...] = ()
    ones: tuple[str, ...] = ()  # arrays that start at one; the others start at zero

    def _init_state(self, shapes: dict, shared: bool) -> None:
        self.shapes = shapes
        for name in self.params:
            setattr(self, f"grad_{name}", None)
        if not shared:
            vector = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
            bind([self], "stats", vector, bind([self], "params", vector))
            self.reset()

    def reset(self, rng: np.random.Generator | None = None) -> "_Stateful":
        """Set the `ones` arrays to one and, given rng, draw a weight w He-uniform: the bits
        of rng.uniform(-limit, limit, w.shape), limit = sqrt(6 / fan_in).  Returns the layer."""
        for name in self.ones:
            getattr(self, name).fill(1.0)
        if rng is not None and "w" in self.params:
            limit = math.sqrt(6.0 / math.prod(self.shapes["w"][1:]))
            rng.random(out=self.w)  # uniform draws low + (high - low) * random()
            self.w *= 2 * limit
            self.w -= limit
        return self

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.{name}": getattr(self, name) for name in self.params}

    def named_gradients(self, prefix: str) -> dict:
        return {f"{prefix}.{name}": self._gradient(name) for name in self.params}

    def _gradient(self, name: str) -> np.ndarray:
        grad = getattr(self, f"grad_{name}")
        return np.zeros_like(getattr(self, name)) if grad is None else grad

    def _grad(self, name: str) -> np.ndarray:
        """grad_<name> for backward to write into; a standalone layer allocates it on its first backward."""
        if getattr(self, f"grad_{name}") is None:
            setattr(self, f"grad_{name}", np.empty(self.shapes[name]))
        return getattr(self, f"grad_{name}")

    def running_stats(self, prefix: str) -> dict:
        return {f"{prefix}.{name}": getattr(self, name) for name in self.stats}


class Conv2D(_Stateful):
    """Same-padded stride-1 convolution, filters (K, kh, kw, C_in), zero padding.

    out[y, x, k] = b[k] + sum_{dy,dx,c} w[k, dy, dx, c] * padded_in[y+dy, x+dx, c]

    Forward runs the kernel _conv, which picks its layout from the shape (one im2col GEMM
    for a shallow input or any 1x1 conv, else one GEMM per tap; see there).  The output is
    a view of spatial-major memory, which the next conv, after BN and ReLU, reads in place.
    Forward caches only the rows its layout reads, which may share memory with its input.
    A 1x1 conv on a 1x1 grid is the full affine map x @ w.T + b on flattened inputs.

    Backward gets the input gradient from the same kernel: for a same-padded stride-1
    conv it is the conv of grad_out with the flipped, transposed filters
    w[:, ::-1, ::-1, :].transpose(3, 1, 2, 0), whose layout follows K.  grad_w is one
    GEMM against the cached im2col matrix, or one product per tap between the cached rows
    and grad_out's over the output rows whose source lies on the grid.  Each layout adds
    in its own order, so float64 results agree with the tap-loop formula to rounding
    (rtol 1e-12).  grad_b is a per-channel sum as in BatchNorm2D.
    """

    params = ("w", "b")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3, *, shared=False):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ParameterError(f"kernel_size must be odd and >= 1, got {kernel_size}")
        if in_channels < 1 or out_channels < 1:
            raise ParameterError("channel counts must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self._init_state({"w": (out_channels, kernel_size, kernel_size, in_channels), "b": (out_channels,)}, shared)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_batch(x)
        if x.shape[3] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[3]}")
        out, cols = _conv(x, self.w.astype(x.dtype, copy=False), self.b.astype(x.dtype, copy=False))
        self._cache = (x.shape[:3], cols)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        (n, h, wd), cols = self._cache
        k, k_out, c_in = self.kernel_size, self.out_channels, self.in_channels
        p = k // 2
        grad_out = np.asarray(grad_out, dtype=cols.dtype)
        if grad_out.shape != (n, h, wd, k_out):
            raise ShapeError(
                f"grad_out shape {grad_out.shape} does not match forward output {(n, h, wd, k_out)}"
            )
        w = self.w.astype(cols.dtype, copy=False)
        flipped = w[:, ::-1, ::-1, :].transpose(3, 1, 2, 0)
        grad_in, _ = _conv(grad_out, flipped, np.zeros(c_in, dtype=cols.dtype))
        self._grad("b")[...] = _channel_sum(grad_out)
        grad_w = self._grad("w")
        g_sm = _spatial_major(grad_out)  # no copy for a gradient from the layers above
        g_rows = g_sm.reshape(-1, k_out)
        if cols.ndim == 2:
            grad_w[...] = (g_rows.T @ cols).reshape(k_out, c_in, k, k).transpose(0, 2, 3, 1)
            return grad_in
        rows, step = cols.reshape(-1, c_in), wd * n
        for s in range(-p, p + 1):  # tap column dx = p + s reads input column x + s
            g = g_rows
            if s:
                # zero grad_out where x + s leaves [0, W): only there does the flat row
                # offset s*N cross an image-row edge
                g = g_sm.copy()
                g[:, slice(max(0, wd - s), None) if s > 0 else slice(0, -s)] = 0
                g = g.reshape(-1, k_out)
            for t in range(-p, p + 1):  # tap row dy = p + t reads input row y + t
                # output rows y whose source row y + t lies on the grid
                lo = max(0, -t) * step + max(0, -s) * n
                hi = max(lo, (h - max(0, t)) * step - max(0, s) * n)
                off = t * step + s * n
                grad_w[:, p + t, p + s, :] = g[lo:hi].T @ rows[lo + off : hi + off]
        return grad_in


class BatchNorm2D(_Stateful):
    """Per-channel batch normalization over (N, H, W) with running statistics.

    Train mode normalizes with the batch moments (population variance) and updates the
    running stats with `momentum`; eval mode applies the stored running stats, which makes
    it a deterministic per-channel affine map.  `eps` and `momentum` are class constants,
    the same for every batch norm.  Forward centres its input once into an array of its
    own, normalizes that array in place and caches it as xhat; backward builds the input
    gradient from one scaled copy of grad_out, with per-channel sums in float64.

    Every per-channel sum (the batch mean and variance, grad_gamma and grad_beta) is a
    _channel_sum: blocked BLAS products for float32 input, within 1e-5 of the largest entry
    of the float64 path, and numpy's sums, bit for bit, for float64 input.
    """

    TRAIN = "train"
    EVAL = "eval"
    params = ("gamma", "beta")
    stats = ("running_mean", "running_var")
    ones = ("gamma", "running_var")
    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int, *, shared=False):
        if channels < 1:
            raise ParameterError("channels must be positive")
        self.channels = channels
        self._init_state(dict.fromkeys(self.params + self.stats, (channels,)), shared)
        self.mode = self.TRAIN
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_batch(x)
        if x.shape[3] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[3]}")
        dt = x.dtype
        out = np.empty_like(x)
        if self.mode == self.TRAIN:
            m = x.shape[0] * x.shape[1] * x.shape[2]
            if m < 2:
                raise ParameterError(f"train-mode batch norm needs N*H*W >= 2, got {m}")
            mean = _channel_sum(x) / m
            xhat = x - mean.astype(dt, copy=False)
            # the population variance as x.var computes it, from the one centred copy
            var = _channel_sum(np.multiply(xhat, xhat, out=out)) / m
            self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            var = self.running_var
            xhat = x - self.running_mean.astype(dt, copy=False)
        inv_std = (1.0 / np.sqrt(var + self.eps)).astype(dt, copy=False)
        xhat *= inv_std
        self._cache = (self.mode, xhat, inv_std)
        np.multiply(xhat, self.gamma.astype(dt, copy=False), out=out)
        out += self.beta.astype(dt, copy=False)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward")
        mode, xhat, inv_std = self._cache
        dt = xhat.dtype
        grad_out = np.asarray(grad_out, dtype=dt)
        if grad_out.shape != xhat.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} does not match forward output {xhat.shape}")
        prod = grad_out * xhat
        grad_gamma, grad_beta = self._grad("gamma"), self._grad("beta")
        grad_gamma[...] = _channel_sum(prod)
        grad_beta[...] = _channel_sum(grad_out)
        scale = self.gamma * inv_std
        grad_in = grad_out * scale.astype(dt, copy=False)
        if mode == self.TRAIN:
            # standard BN input gradient through the batch statistics:
            # gamma * inv_std * (g - sum(g) / m - xhat * sum(g * xhat) / m)
            m = xhat.size // xhat.shape[3]
            grad_in -= (scale * grad_beta / m).astype(dt, copy=False)
            grad_in -= np.multiply(xhat, (scale * grad_gamma / m).astype(dt, copy=False), out=prod)
        return grad_in


class ReLU:
    """Elementwise max(0, x); subgradient at 0 is 0.

    Forward keeps only the boolean mask x > 0, and backward multiplies grad_out by it."""

    def __init__(self):
        self._mask = None
        self._dtype = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_compute(x)
        out = np.maximum(x, 0)
        self._mask, self._dtype = out > 0, x.dtype
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("backward called before forward")
        grad_out = np.asarray(grad_out, dtype=self._dtype)
        if grad_out.shape != self._mask.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} does not match forward input")
        return grad_out * self._mask  # a multiply: about 10x faster than np.where here


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum-of-squares loss over the whole batch: sum_k ||target_k - pred_k||_F^2.

    Returns (loss, d loss / d pred).  The gradient is 2*(pred - target), float32 when both
    inputs are float32 and float64 otherwise; the loss is always summed in float64.
    """
    pred = _as_compute(pred)
    target = _as_compute(target)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    with np.errstate(over="ignore"):  # overflow is reported via the finite check below
        loss = float(np.sum(diff * diff, dtype=np.float64))
    if not np.isfinite(loss):
        raise NumericError("non-finite values in mse loss")
    return loss, 2.0 * diff
