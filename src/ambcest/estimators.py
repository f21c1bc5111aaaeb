"""Classical baselines (LS, closed-form MMSE) plus the NMSE metric and a brute-force
Gaussian-conditioning oracle.

All estimators operate on the denoising model y(n) = x + u(n) with unit pilots: the LS
solution is the sample mean over the P pilot slices, and the MMSE (Wiener) solutions
exploit the channel correlation matrix and the noise variance.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import MetricError, NumericError, ParameterError, ShapeError


PAIRWISE_MIN_PILOTS = 8  # numpy sums >= 8 values pairwise, so an in-order sum loses y.mean's bits


def ls_estimate(y: np.ndarray) -> np.ndarray:
    """LS estimate: the per-element mean over the P pilot slices, flattened row-major.

    Accepts an Ma x Mb x P tensor (returns an M-vector) or a batch (n, Ma, Mb, P)
    (returns (n, M)).  Below PAIRWISE_MIN_PILOTS pilots it adds y[..., 0], y[..., 1], ...
    in order onto +0.0 and divides by P once: y.mean(axis=-1)'s bits in any layout, faster.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (3, 4) or y.shape[-1] < 1:
        raise ShapeError(f"expected (Ma, Mb, P) or (n, Ma, Mb, P) with P >= 1, got shape {y.shape}")
    p = y.shape[-1]
    if p >= PAIRWISE_MIN_PILOTS:
        total = y.mean(axis=-1)
    else:
        total = y[..., 0] + 0.0  # the reduction starts from +0.0, so -0.0 sums to +0.0
        for i in range(1, p):
            total += y[..., i]
        total /= p
    return total.reshape(*y.shape[:-3], -1)


def _require_pd(R: np.ndarray, what: str) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {R.shape}")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what} is not positive-definite") from exc
    return R


def mmse_gain(R_x: np.ndarray, sigma_u_sq: float, pilots: int) -> np.ndarray:
    """Wiener gain G = R (R + (sigma_u^2 / P) I)^-1 applied to the P-sample mean."""
    R_x = _require_pd(R_x, "R_x")
    if pilots < 1:
        raise ParameterError("pilots must be >= 1")
    s = sigma_u_sq / pilots
    try:
        return np.linalg.solve(R_x + s * np.eye(R_x.shape[0]), R_x).T
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular system in MMSE gain") from exc


def mmse_estimate_vector(
    y_bar: np.ndarray, R_x: np.ndarray, sigma_u_sq: float, pilots: int
) -> np.ndarray:
    """Conditional-mean estimate R (R + (sigma_u^2/P) I)^-1 y_bar for the P-sample mean.

    y_bar may be a single M-vector or a (n, M) batch.
    """
    G = mmse_gain(R_x, sigma_u_sq, pilots)
    y_bar = np.asarray(y_bar, dtype=np.float64)
    if y_bar.shape[-1] != G.shape[0]:
        raise ShapeError(f"y_bar last dim {y_bar.shape[-1]} != M = {G.shape[0]}")
    return y_bar @ G.T


@dataclass(frozen=True)
class MmseContext:
    """Inputs of the matrix-form MMSE estimator.

    r_x is the column correlation matrix E(X^T X) of the Ma x Mb channel matrix (note:
    this expectation sums over the Ma rows, so under a row-i.i.d. prior with per-row
    covariance C it equals Ma * C -- use from_column_cov).  The selection matrix
    S = [I_Mb, ..., I_Mb] (P blocks) replicates columns across pilots.
    """

    r_x: np.ndarray
    sigma_u_sq: float
    ma: int
    mb: int
    pilots: int

    def __post_init__(self):
        r = _require_pd(self.r_x, "r_x")
        object.__setattr__(self, "r_x", r)
        if r.shape[0] != self.mb:
            raise ShapeError(f"r_x must be Mb x Mb = {self.mb}x{self.mb}, got {r.shape}")
        if self.ma < 1 or self.mb < 1 or self.pilots < 1:
            raise ParameterError("geometry (ma, mb, pilots) must be positive")
        if self.sigma_u_sq <= 0:
            raise ParameterError("sigma_u_sq must be positive for the matrix form")

    @classmethod
    def from_column_cov(
        cls, C: np.ndarray, sigma_u_sq: float, ma: int, pilots: int
    ) -> "MmseContext":
        """Build the context from a row-i.i.d. prior with per-row covariance C."""
        C = np.asarray(C, dtype=np.float64)
        return cls(r_x=ma * C, sigma_u_sq=sigma_u_sq, ma=ma, mb=C.shape[0], pilots=pilots)

    @property
    def selection(self) -> np.ndarray:
        """S = [I_Mb, ..., I_Mb], shape Mb x (P*Mb)."""
        return np.tile(np.eye(self.mb), (1, self.pilots))


def column_correlation(R: np.ndarray, ma: int, mb: int) -> np.ndarray:
    """E(X^T X) for X = unvec(x) (row-major Ma x Mb) with zero-mean x of covariance R.

    Entry (b, b') sums Cov(x[a*Mb+b], x[a*Mb+b']) over the rows a.  For a row-i.i.d.
    prior with per-row covariance C this equals Ma * C.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (ma * mb, ma * mb):
        raise ShapeError(f"R must be {ma * mb}x{ma * mb}, got {R.shape}")
    blocks = R.reshape(ma, mb, ma, mb)
    return np.einsum("abac->bc", blocks)


def matrix_mmse_weights(ctx: MmseContext) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of the matrix-form MMSE map.

    Returns (W, W_out) with
        W     = a S^T (a S S^T + R_X^-1)^-1 S          [(P*Mb) x (P*Mb)]
        W_out = a S^T R_X                              [(P*Mb) x Mb]
    where a = 1 / (Ma * sigma_u^2).  The full estimator is X_hat = Y_tilde (I - W) W_out.
    """
    a = 1.0 / (ctx.ma * ctx.sigma_u_sq)
    S = ctx.selection
    try:
        r_inv = np.linalg.inv(ctx.r_x)
        inner = np.linalg.inv(a * (S @ S.T) + r_inv)
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular system in matrix-form MMSE") from exc
    W = a * S.T @ inner @ S
    W_out = a * S.T @ ctx.r_x
    return W, W_out


def matrix_mmse_map(ctx: MmseContext) -> np.ndarray:
    """Right-multiplying matrix A with X_hat = Y_tilde A, shape (P*Mb) x Mb."""
    W, W_out = matrix_mmse_weights(ctx)
    return (np.eye(W.shape[0]) - W) @ W_out


def mmse_estimate_matrix(y_tilde: np.ndarray, ctx: MmseContext) -> np.ndarray:
    """Matrix-form MMSE estimate for wide inputs Y_tilde = [Y(0), ..., Y(P-1)].

    y_tilde has shape (Ma, P*Mb) or a batch (n, Ma, P*Mb); the columns must be ordered
    pilot-block by pilot-block.
    """
    y_tilde = np.asarray(y_tilde, dtype=np.float64)
    wide = ctx.pilots * ctx.mb
    if y_tilde.shape[-1] != wide or y_tilde.shape[-2] != ctx.ma:
        raise ShapeError(
            f"y_tilde must be (.., {ctx.ma}, {wide}), got {y_tilde.shape}"
        )
    return y_tilde @ matrix_mmse_map(ctx)


def brute_force_conditional_mean(
    y_samples: np.ndarray, cov_x: np.ndarray, sigma_u_sq: float
) -> np.ndarray:
    """Exact E[x | all P observations] by dense joint-Gaussian block conditioning.

    y_samples is (P, M); cov_x is the full M x M covariance of the channel vector.
    Deliberately independent of the closed-form estimators: builds the stacked (P*M)
    joint covariance and solves it directly.  Small dimensions only.
    """
    y_samples = np.asarray(y_samples, dtype=np.float64)
    if y_samples.ndim != 2:
        raise ShapeError(f"expected (P, M) observations, got shape {y_samples.shape}")
    p, m = y_samples.shape
    cov_x = np.asarray(cov_x, dtype=np.float64)
    if cov_x.shape != (m, m):
        raise ShapeError(f"cov_x must be {m}x{m}, got {cov_x.shape}")
    if sigma_u_sq == 0.0:
        # degenerate but exact: every observation equals x
        return y_samples.mean(axis=0)
    cov_y = np.kron(np.ones((p, p)), cov_x) + sigma_u_sq * np.eye(p * m)
    cross = np.kron(np.ones((1, p)), cov_x)  # Cov(x, stacked y)
    try:
        weights = np.linalg.solve(cov_y, y_samples.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular joint covariance in brute-force conditioning") from exc
    return cross @ weights


@dataclass(frozen=True)
class NmseEstimate:
    """NMSE point estimate with a 95% batch-means confidence half-width."""

    value: float
    ci_half_width: float
    trials: int

    def to_db(self) -> float:
        return 10.0 * np.log10(self.value)


def nmse(truth: np.ndarray, estimates: np.ndarray, *, ci_batches: int = 20) -> NmseEstimate:
    """Batch NMSE: sum ||x - x_hat||^2 / sum ||x||^2 over the trial axis (axis 0).

    The confidence half-width comes from batch means: the trials are split into
    `ci_batches` contiguous groups, the per-group NMSEs feed a t-interval.  NaN when
    fewer than two groups are available.  A non-finite NMSE (NaN or inf in the truth or
    the estimates, or an overflowing sum) raises NumericError.
    """
    truth = np.asarray(truth, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    if truth.shape != estimates.shape:
        raise ShapeError(f"truth shape {truth.shape} != estimates shape {estimates.shape}")
    if truth.ndim < 1 or truth.shape[0] < 1:
        raise ParameterError("need a non-empty batch of trials")
    n = truth.shape[0]
    err = (truth - estimates).reshape(n, -1)
    ref = truth.reshape(n, -1)
    num = np.einsum("ij,ij->i", err, err)
    den = np.einsum("ij,ij->i", ref, ref)
    total_den = den.sum()
    if total_den == 0.0:
        raise MetricError("NMSE is undefined for an all-zero truth batch")
    value = float(num.sum() / total_den)
    if not np.isfinite(value):
        bad = int(np.count_nonzero(~np.isfinite(num + den)))
        raise NumericError(f"NMSE is {value}: {bad} of {n} trials have a non-finite error or truth")
    b = min(ci_batches, n)
    if b < 2:
        return NmseEstimate(value=value, ci_half_width=float("nan"), trials=n)
    num_chunks = np.array_split(num, b)
    den_chunks = np.array_split(den, b)
    means = np.array([nc.sum() / dc.sum() for nc, dc in zip(num_chunks, den_chunks)])
    half = float(stats.t.ppf(0.975, b - 1) * means.std(ddof=1) / np.sqrt(b))
    return NmseEstimate(value=value, ci_half_width=half, trials=n)
