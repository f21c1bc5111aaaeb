"""Correlated Rayleigh channel simulator and pilot-phase observation generator.

Model: a reader with an M-element array receives y(n) = h*s(n) + alpha*f*g*s(n)*c(n) + u(n),
real-valued throughout.  During the two pilot phases the source sends s(n) = 1, the tag
holds c(n) = 0 (phase A, direct link h) or c(n) = 1 (phase B, composite link w = h + alpha*f*g),
so every pilot sample reduces to x + u(n) with u(n) ~ N(0, sigma_u^2 I_M).

Pilot samples are reshaped row-major from M-vectors to Ma x Mb matrices and stacked along a
trailing pilot axis, giving the Ma x Mb x P observation tensors consumed by the denoiser.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

LINK_DIRECT = "direct"
LINK_COMPOSITE = "composite"
LINKS = (LINK_DIRECT, LINK_COMPOSITE)

CORR_MODELS = ("identity", "exponential")


@dataclass(frozen=True)
class CorrelationSpec:
    """Family of antenna correlation matrices: identity or exponential rho^|i-j|."""

    model: str = "exponential"
    rho: float = 0.9

    def __post_init__(self):
        if self.model not in CORR_MODELS:
            raise ParameterError(f"correlation model must be one of {CORR_MODELS}, got {self.model!r}")
        if not (0.0 <= self.rho < 1.0):
            raise ParameterError(f"rho must lie in [0, 1), got {self.rho}")


def build_correlation_matrix(spec: CorrelationSpec, m: int) -> np.ndarray:
    """Return the m x m correlation matrix for `spec`.

    Exponential model: R[i, j] = rho^|i-j| (unit diagonal, symmetric PD for rho in [0, 1)).
    Identity model: I regardless of rho.
    """
    if m < 1:
        raise ParameterError(f"matrix size m must be a positive integer, got {m}")
    if spec.model == "identity" or spec.rho == 0.0:
        return np.eye(m)
    lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    return spec.rho ** lags


def sample_gaussian_vector(R: np.ndarray, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw zero-mean Gaussian vectors with covariance R via the Cholesky factor.

    Returns shape (M,) when size is None, else (size, M).  Sample covariance over many
    draws converges to R.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeError(f"R must be square, got shape {R.shape}")
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance is not positive-definite: {exc}") from exc
    if size is None:
        return L @ rng.standard_normal(R.shape[0])
    z = rng.standard_normal((size, R.shape[0]))
    return z @ L.T


@dataclass(frozen=True)
class SystemConfig:
    """Operating point of the simulator: geometry, SNR/reflection levels, pilot counts.

    snr_db fixes the direct-link SNR E(||h||^2) / E(||u||^2) with unit pilots;
    zeta_db fixes the reflection-to-direct power ratio E(||alpha*f*g||^2) / E(||h||^2).
    f is the source-tag line-of-sight coefficient (constant; only alpha*f enters the model).
    """

    m: int = 64
    ma: int = 8
    mb: int = 8
    snr_db: float = -6.0
    zeta_db: float = -5.0
    f: float = 1.0
    corr_h: CorrelationSpec = CorrelationSpec()
    corr_g: CorrelationSpec = CorrelationSpec()
    na: int = 2
    nb: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.ma < 1 or self.mb < 1:
            raise ParameterError("antenna counts must be positive")
        if self.ma * self.mb != self.m:
            raise ParameterError(f"ma*mb must equal m: {self.ma}*{self.mb} != {self.m}")
        if self.na < 1 or self.nb < 1:
            raise ParameterError("pilot counts na, nb must be >= 1")
        # fail fast on an inconsistent operating point
        derive_noise_and_alpha(self)

    def with_(self, **kwargs) -> "SystemConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)

    @property
    def sigma_u_sq(self) -> float:
        """Noise variance implied by snr_db and the direct-link correlation trace."""
        return derive_noise_and_alpha(self)[0]

    @property
    def alpha(self) -> float:
        """Reflection coefficient implied by zeta_db, f, and the correlation traces."""
        return derive_noise_and_alpha(self)[1]


def derive_noise_and_alpha(cfg: SystemConfig) -> tuple[float, float]:
    """Solve the SNR and zeta definitions for (sigma_u^2, alpha) with unit pilots.

    sigma_u^2 = trace(R_h) / (M * 10^(snr_db/10))
    alpha     = sqrt(10^(zeta_db/10) * trace(R_h) / (f^2 * trace(R_g)))

    Both correlation models have a unit diagonal, so each trace is M.
    """
    tr_h = float(cfg.m)
    tr_g = float(cfg.m)
    # snr_db = +inf is a legal noiseless operating point; snr_db = -inf is not
    if cfg.snr_db == float("-inf"):
        raise ParameterError("snr_db = -inf gives an infinite noise power")
    sigma_u_sq = tr_h / (cfg.m * 10.0 ** (cfg.snr_db / 10.0))
    zeta = 10.0 ** (cfg.zeta_db / 10.0)
    if zeta == 0.0:
        alpha = 0.0
    elif cfg.f == 0.0:
        raise ParameterError("f = 0 is incompatible with a finite zeta_db")
    else:
        alpha = float(np.sqrt(zeta * tr_h / (cfg.f**2 * tr_g)))
    if not np.isfinite(sigma_u_sq) or sigma_u_sq < 0:
        raise ParameterError(f"derived sigma_u^2 must be finite and >= 0, got {sigma_u_sq}")
    if not math.isfinite(alpha * cfg.f):  # zeta_db = nan or +inf, or f = nan or +/-inf
        raise ParameterError(f"derived alpha*f must be finite, got zeta_db={cfg.zeta_db}, f={cfg.f}")
    return sigma_u_sq, alpha


def vec_to_mat(x: np.ndarray, ma: int, mb: int) -> np.ndarray:
    """Reshape an M-vector to Ma x Mb, row-major."""
    x = np.asarray(x)
    if x.shape[-1] != ma * mb:
        raise ShapeError(f"cannot reshape length-{x.shape[-1]} vector to {ma}x{mb}")
    return x.reshape(*x.shape[:-1], ma, mb)


def widen_pilots(data: np.ndarray) -> np.ndarray:
    """Lay pilot slices side by side: (.., Ma, Mb, P) -> (.., Ma, P*Mb).

    Column p*Mb + b of the wide matrix is column b of pilot slice p, so the result is
    the block matrix [Y(0), Y(1), ..., Y(P-1)].
    """
    data = np.asarray(data)
    if data.ndim < 3:
        raise ShapeError(f"expected (.., Ma, Mb, P), got shape {data.shape}")
    ma, mb, p = data.shape[-3:]
    wide = np.moveaxis(data, -1, -2)  # (.., Ma, P, Mb)
    return np.ascontiguousarray(wide).reshape(*data.shape[:-3], ma, p * mb)


def composite_correlation(cfg: SystemConfig) -> np.ndarray:
    """Correlation matrix of the composite link: R_w = R_h + alpha^2 f^2 R_g."""
    _, alpha = derive_noise_and_alpha(cfg)
    R_h = build_correlation_matrix(cfg.corr_h, cfg.m)
    R_g = build_correlation_matrix(cfg.corr_g, cfg.m)
    return R_h + (alpha * cfg.f) ** 2 * R_g


def link_correlation(cfg: SystemConfig, link: str) -> np.ndarray:
    """True correlation matrix of the estimated channel on the given link."""
    if link == LINK_DIRECT:
        return build_correlation_matrix(cfg.corr_h, cfg.m)
    if link == LINK_COMPOSITE:
        return composite_correlation(cfg)
    raise ParameterError(f"link must be one of {LINKS}, got {link!r}")


def pilots_for_link(cfg: SystemConfig, link: str) -> int:
    if link == LINK_DIRECT:
        return cfg.na
    if link == LINK_COMPOSITE:
        return cfg.nb
    raise ParameterError(f"link must be one of {LINKS}, got {link!r}")


def simulate_batch(
    cfg: SystemConfig, link: str, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n independent (observation, truth) pairs for one link.

    Returns Y with shape (n, Ma, Mb, P) and the noiseless truth X with shape (n, Ma, Mb),
    both C-contiguous and sharing no memory.  Each pair uses a fresh channel (one batched
    Cholesky product) and fresh noise, scaled in place; this is the Monte Carlo workhorse,
    so each pilot slice x + u(p) is written straight into its place in Y.
    """
    if n < 1:
        raise ParameterError(f"batch size must be >= 1, got {n}")
    sigma_u_sq, alpha = derive_noise_and_alpha(cfg)
    p = pilots_for_link(cfg, link)
    x = sample_gaussian_vector(build_correlation_matrix(cfg.corr_h, cfg.m), rng, size=n)
    if link == LINK_COMPOSITE:
        g = sample_gaussian_vector(build_correlation_matrix(cfg.corr_g, cfg.m), rng, size=n)
        g *= alpha * cfg.f
        x += g
        del g  # one channel-sized array fewer at the peak
    noise = rng.standard_normal((n, p, cfg.m))
    noise *= np.sqrt(sigma_u_sq)
    y = np.empty((n, cfg.m, p))
    for i in range(p):
        np.add(x, noise[:, i, :], out=y[:, :, i])
    return y.reshape(n, cfg.ma, cfg.mb, p), vec_to_mat(x, cfg.ma, cfg.mb)
