"""Oracles the benchmark checks the program's outputs against.

They are written independently of the package's estimators and layers: the analytic
risks use an eigendecomposition rather than the package's linear solve, and the
reference forward pass convolves by shifted matrix products rather than im2col.
"""

import numpy as np

# eval-default probe: max |out - ref| must stay within this share of max |ref|.  A
# float32 forward agrees with float64 to about 1e-5 here; the float32 compute path
# planned for the package is held to rtol 1e-4, so 1e-3 leaves it room.
PROBE_RTOL = 1e-3

# sweep-classic: a sweep row must lie within this many of its reported 95% CI
# half-widths of the analytic risk.  A 1x check would fail one row in twenty by chance.
CI_MULTIPLE = 4.0


def analytic_risks(R: np.ndarray, sigma_u_sq: float, pilots: int) -> dict:
    """NMSE risks of LS and linear MMSE for a channel with covariance R.

    LS:   M sigma^2 / (P tr R).
    MMSE: tr(R - G R) / tr R with G = R (R + (sigma^2/P) I)^-1, which in the
          eigenbasis of R is sum(lam s / (lam + s)) / sum(lam), s = sigma^2 / P.
    """
    lam = np.linalg.eigvalsh(R)
    s = sigma_u_sq / pilots
    tr = lam.sum()
    return {"ls": R.shape[0] * s / tr, "mmse": float(np.sum(lam * s / (lam + s)) / tr)}


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 convolution as a sum of shifted matrix products."""
    k = w.shape[1]
    pad = k // 2
    n, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((n, h, wd, w.shape[0]), dtype=x.dtype) + b
    for dy in range(k):
        for dx in range(k):
            out += xp[:, dy : dy + h, dx : dx + wd, :] @ w[:, dy, dx, :].T
    return out


def reference_forward(state: dict, hyper, bn_eps: float, y: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Eval-mode forward of a conv1x1-recon denoiser from its state dict.

    Block b, layer l: conv, then (for l < L) eval batch norm and ReLU; the block output
    is its input minus the predicted residual.  The reconstruction is a 1x1 conv to one
    channel.
    """
    p = {k: np.asarray(v, dtype=dtype) for k, v in state.items()}
    y = np.asarray(y, dtype=dtype)
    for b in range(hyper.blocks):
        s = y
        for layer in range(1, hyper.layers_per_block + 1):
            s = _conv(s, p[f"block{b}.conv{layer}.w"], p[f"block{b}.conv{layer}.b"])
            if layer < hyper.layers_per_block:
                bn = f"block{b}.bn{layer}"
                scale = p[f"{bn}.gamma"] / np.sqrt(p[f"{bn}.running_var"] + bn_eps)
                s = np.maximum((s - p[f"{bn}.running_mean"]) * scale + p[f"{bn}.beta"], 0)
        y = y - s
    return _conv(y, p["recon.w"], p["recon.b"])[..., 0]


def probe_error(out: np.ndarray, ref: np.ndarray) -> float:
    """max |out - ref| / max |ref|; infinite when shapes differ or out is not finite."""
    out = np.asarray(out)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return float("inf")
    return float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
