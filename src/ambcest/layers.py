"""Dense-tensor NN layers with exact reverse-mode gradients.

All tensors are channels-last numpy arrays, and Conv2D and BatchNorm2D take only a batch
(N, H, W, C), as does ResidualDenoiser, which builds on them.  Each layer caches
what its backward pass needs on forward; backward consumes the cache of the most recent
forward.

The compute dtype follows the input: a float32 input is computed in float32, anything else
in float64.  Backward runs in the dtype of the forward it follows.  Parameters and batch
norm running statistics are float64 master copies, cast to the compute dtype on each
forward, and gradients are stored as float64, so optimizers and checkpoints see float64
only.  A float64 input takes exactly the float64 path.
"""

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


def _as_compute(x: np.ndarray) -> np.ndarray:
    """x as an array of its compute dtype: float32 stays float32, anything else is float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


# rows per sgemv block of _channel_sum: each float32 partial sum adds at most this many rows
_SUM_BLOCK = 256


def _channel_sum(x: np.ndarray) -> np.ndarray:
    """Per-channel float64 sum of a channels-last array over every axis but the last.

    float32 input is summed in blocks of _SUM_BLOCK rows, one sgemv-shaped product with a
    ones vector per block, and the block sums are added in float64; the leftover rows
    go through numpy's sum.  A numpy sum over all but the last axis runs one short inner
    loop per row, about 20x slower at (128, 8, 8, 16).  Anything else keeps numpy's sum.
    """
    axes = tuple(range(x.ndim - 1))
    if x.dtype != np.float32:
        return x.sum(axis=axes, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
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


class Conv2D:
    """Same-padded stride-1 convolution, filters (K, kh, kw, C_in), zero padding.

    out[y, x, k] = b[k] + sum_{dy,dx,c} w[k, dy, dx, c] * padded_in[y+dy, x+dx, c]
    Implemented as a shifted GEMM: one (N*H*W, C_in) @ (C_in, K) product per tap (dy, dx), summed.
    Forward zero-pads its input once and caches only that padded copy (the input itself
    when kernel_size is 1); backward reuses it for both gradients.

    Backward picks its layout from the shape.  With an output narrower than the input
    (K < C_in) and kernel_size > 1, it places grad_out in the top-left corner of a zero
    (N, H+2p, W+2p, K) grid and views that grid and the padded input as row matrices; tap
    (dy, dx) is then the row offset dy*(W+2p) + dx, and each tap's two products read the
    rows in place instead of copying an input window.  Every other shape keeps the tap
    loop, which is faster there.  Both layouts add the same products, so the float64
    gradients agree to rounding (rtol 1e-12).  grad_b is a per-channel sum as in
    BatchNorm2D: float32 through BLAS, float64 through numpy's sum.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3, *, rng=None):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ParameterError(f"kernel_size must be odd and >= 1, got {kernel_size}")
        if in_channels < 1 or out_channels < 1:
            raise ParameterError("channel counts must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = kernel_size * kernel_size * in_channels
        if rng is None:
            self.w = np.zeros((out_channels, kernel_size, kernel_size, in_channels))
        else:
            limit = np.sqrt(6.0 / fan_in)  # He-uniform for ReLU stacks
            self.w = rng.uniform(-limit, limit, size=(out_channels, kernel_size, kernel_size, in_channels))
        self.b = np.zeros(out_channels)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._x_pad = None

    def _taps(self, x_pad: np.ndarray, h: int, w_dim: int):
        """Yield (dy, dx, window) with window the (N*H*W, C_in) rows of x_pad at (dy, dx)."""
        n, c = x_pad.shape[0], x_pad.shape[3]
        for dy in range(self.kernel_size):
            for dx in range(self.kernel_size):
                yield dy, dx, x_pad[:, dy : dy + h, dx : dx + w_dim, :].reshape(n * h * w_dim, c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_batch(x)
        if x.shape[3] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[3]}")
        n, h, w_dim, c = x.shape
        pad = self.kernel_size // 2
        if pad:
            x_pad = np.zeros((n, h + 2 * pad, w_dim + 2 * pad, c), dtype=x.dtype)
            x_pad[:, pad : pad + h, pad : pad + w_dim, :] = x
        else:
            x_pad = x
        w = self.w.astype(x.dtype, copy=False)
        out = np.full((n * h * w_dim, self.out_channels), self.b, dtype=x.dtype)
        for dy, dx, window in self._taps(x_pad, h, w_dim):
            out += window @ w[:, dy, dx, :].T
        self._x_pad = x_pad
        return out.reshape(n, h, w_dim, self.out_channels)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_pad is None:
            raise ShapeError("backward called before forward")
        x_pad = self._x_pad
        pad = self.kernel_size // 2
        grad_out = np.asarray(grad_out, dtype=x_pad.dtype)
        n, h_pad, w_pad, c_in = x_pad.shape
        h, w_dim = h_pad - 2 * pad, w_pad - 2 * pad
        if grad_out.shape != (n, h, w_dim, self.out_channels):
            raise ShapeError(
                f"grad_out shape {grad_out.shape} does not match forward output "
                f"{(n, h, w_dim, self.out_channels)}"
            )
        gmat = grad_out.reshape(n * h * w_dim, self.out_channels)
        w = self.w.astype(gmat.dtype, copy=False)
        self.grad_b = _channel_sum(gmat)
        self.grad_w = np.empty_like(self.w)
        grad_pad = np.zeros(x_pad.shape, dtype=gmat.dtype)
        if self.kernel_size > 1 and self.out_channels < c_in:
            # grad_out in the top-left corner of a padded grid: tap (dy, dx) is then the
            # row offset dy*w_pad + dx between grid rows, and no input window is copied
            g_grid = np.zeros((n, h_pad, w_pad, self.out_channels), dtype=gmat.dtype)
            g_grid[:, :h, :w_dim, :] = grad_out
            g_rows = g_grid.reshape(-1, self.out_channels)
            x_rows, grad_rows = x_pad.reshape(-1, c_in), grad_pad.reshape(-1, c_in)
            rows = g_rows.shape[0]
            for dy in range(self.kernel_size):
                for dx in range(self.kernel_size):
                    off = dy * w_pad + dx
                    self.grad_w[:, dy, dx, :] = g_rows[: rows - off].T @ x_rows[off:]
                    grad_rows[off:] += g_rows[: rows - off] @ w[:, dy, dx, :]
        else:
            for dy, dx, window in self._taps(x_pad, h, w_dim):
                self.grad_w[:, dy, dx, :] = gmat.T @ window
                tap_grad = gmat @ w[:, dy, dx, :]
                grad_pad[:, dy : dy + h, dx : dx + w_dim, :] += tap_grad.reshape(n, h, w_dim, c_in)
        return grad_pad[:, pad : pad + h, pad : pad + w_dim, :]

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def named_gradients(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.grad_w, f"{prefix}.b": self.grad_b}


class Dense:
    """Full affine map on flattened inputs; used only by the dense reconstruction variant."""

    def __init__(self, in_features: int, out_features: int, *, rng=None):
        if rng is None:
            self.w = np.zeros((out_features, in_features))
        else:
            limit = np.sqrt(6.0 / in_features)
            self.w = rng.uniform(-limit, limit, size=(out_features, in_features))
        self.b = np.zeros(out_features)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_compute(x)
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(f"expected (N, {self.w.shape[1]}), got {x.shape}")
        self._x = x
        return x @ self.w.astype(x.dtype, copy=False).T + self.b.astype(x.dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeError("backward called before forward")
        grad_out = np.asarray(grad_out, dtype=self._x.dtype)
        if grad_out.shape != (self._x.shape[0], self.w.shape[0]):
            raise ShapeError("grad_out shape does not match forward output")
        self.grad_w = (grad_out.T @ self._x).astype(np.float64, copy=False)
        self.grad_b = grad_out.sum(axis=0, dtype=np.float64)
        return grad_out @ self.w.astype(grad_out.dtype, copy=False)

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def named_gradients(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.grad_w, f"{prefix}.b": self.grad_b}


class BatchNorm2D:
    """Per-channel batch normalization over (N, H, W) with running statistics.

    Train mode normalizes with the batch moments (population variance) and updates the
    running stats with `momentum`; eval mode applies the stored running stats, which makes
    it a deterministic per-channel affine map.  Forward centres its input once into an
    array of its own, normalizes that array in place and caches it as xhat; backward
    builds the input gradient from one scaled copy of grad_out, with per-channel sums in
    float64.

    For float32 input every per-channel sum (the batch mean and variance, grad_gamma and
    grad_beta) runs as BLAS products over blocks of 256 rows, with the block sums added in
    float64; the results stay within 1e-5 of the largest entry of the float64 path.
    float64 input keeps numpy's sums, bit for bit.
    """

    TRAIN = "train"
    EVAL = "eval"

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        if channels < 1:
            raise ParameterError("channels must be positive")
        if not (0.0 < momentum < 1.0):
            raise ParameterError(f"momentum must lie in (0, 1), got {momentum}")
        if eps <= 0:
            raise ParameterError("eps must be positive")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
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
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
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
        self.grad_gamma = _channel_sum(prod)
        self.grad_beta = _channel_sum(grad_out)
        scale = self.gamma * inv_std
        grad_in = grad_out * scale.astype(dt, copy=False)
        if mode == self.TRAIN:
            # standard BN input gradient through the batch statistics:
            # gamma * inv_std * (g - sum(g) / m - xhat * sum(g * xhat) / m)
            m = xhat.size // xhat.shape[3]
            grad_in -= (scale * self.grad_beta / m).astype(dt, copy=False)
            grad_in -= np.multiply(xhat, (scale * self.grad_gamma / m).astype(dt, copy=False), out=prod)
        return grad_in

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}

    def named_gradients(self, prefix: str) -> dict:
        return {f"{prefix}.gamma": self.grad_gamma, f"{prefix}.beta": self.grad_beta}

    def running_stats(self, prefix: str) -> dict:
        return {f"{prefix}.running_mean": self.running_mean, f"{prefix}.running_var": self.running_var}


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
    _check_finite(np.asarray(loss), "mse loss")
    return loss, 2.0 * diff
