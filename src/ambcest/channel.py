"""Correlated Rayleigh channel simulator and pilot-phase observation generator.

Model: a reader with an M-element array receives y(n) = h*s(n) + alpha*f*g*s(n)*c(n) + u(n),
real-valued throughout.  During the two pilot phases the source sends s(n) = 1, the tag
holds c(n) = 0 (phase A, direct link h) or c(n) = 1 (phase B, composite link w = h + alpha*f*g),
so every pilot sample reduces to x + u(n) with u(n) ~ N(0, sigma_u^2 I_M).

Pilot samples are reshaped row-major from M-vectors to Ma x Mb matrices and stacked along a
trailing pilot axis, giving the Ma x Mb x P observation tensors consumed by the denoiser.
"""

import math
from collections.abc import Iterator
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


def _cholesky(R: np.ndarray, what: str = "covariance") -> np.ndarray:
    """The Cholesky factor of R, a square positive-definite matrix that errors call `what`."""
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {R.shape}")
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what} is not positive-definite: {exc}") from exc


# bytes of per-trial data in one block of the Monte-Carlo loops (the simulator's draws,
# the per-block estimates, nmse's errors): their temporaries stay this small at any trial count
TRIAL_BLOCK_BYTES = 1 << 19

# OpenBLAS runs a GEMM of m * n * k <= 2**18 multiply-adds on the calling thread
# (65536 * GEMM_MULTITHREAD_THRESHOLD, which defaults to 4); a larger one wakes its
# thread pool, whose threads then spin on a core for a while after the product ends
BLAS_CALLER_MNK = 1 << 18
# fewest rows in one of sliced_matmul's slices: a product over fewer can take BLAS's
# small-matrix kernels, which sum in another order (sliced_matmul lists where)
MIN_SLICE_ROWS = 32


def trial_blocks(n: int, trial_bytes: int, min_rows: int = 1) -> list[slice]:
    """Consecutive slices that cover range(n), each TRIAL_BLOCK_BYTES // trial_bytes trials
    long, but at least `min_rows`; a remainder shorter than `min_rows` joins the last block.

    draw_truths passes the slice height of its products (slice_rows), so each of its
    blocks is either the whole batch, one plain product over all n rows, or at least one
    slice high, which sliced_matmul runs as slices of exactly that height.  Either way a
    block's product equals those rows of one (n, M) product wherever sliced_matmul equals
    a @ m.  A shorter block would be a plain product over a few rows, inside one of the
    kernel windows that sliced_matmul lists.
    """
    step = max(min_rows, TRIAL_BLOCK_BYTES // max(1, trial_bytes))
    stops = list(range(step, n, step))
    if stops and n - stops[-1] < min_rows:
        stops.pop()
    return [slice(lo, hi) for lo, hi in zip([0, *stops], [*stops, n])]


def slice_rows(k: int, cols: int) -> int:
    """Rows in each of sliced_matmul's slices for a (k, cols) matrix."""
    return max(MIN_SLICE_ROWS, BLAS_CALLER_MNK // (k * cols))


def sliced_matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a float64 (n, K) batch a and a (K, N) matrix m, run on the calling thread.

    The rows go through one stacked matmul of slices r = slice_rows(K, N) rows high, so
    for K * N <= 8192 each GEMM is small enough that OpenBLAS keeps it on the caller and
    its pool threads sleep.  A remainder is one more slice of r rows that ends at the last
    row, overlapping the one before it, so no short tail takes another kernel.  m enters
    the slices in Fortran order: a C-ordered m would send slices of a few hundred rows
    through the small-matrix kernels, which a tall product skips.  At most r rows are one
    plain a @ m.

    OpenBLAS 0.3.31's kernel windows, listed here only: an (r, K) @ (K, K) product takes
    the small-matrix kernels for r up to 33, 18, 12 and 4 rows at K = 36, 64, 100 and 256,
    as does a C-ordered m at K = 36, 81, 100 and 121 over up to 10**6 / K**2 rows; with two
    or more BLAS threads, r < n <= K rows at K = 81 to 121 split their columns across
    threads; and at K = 196 and 324 slices of almost any height differ from a tall product.
    In a window a few rows sum in another order than those rows of a tall product; outside
    them the result equals a @ m bit for bit at K = N in {16, 36, 64, 100, 256}.
    """
    k, cols = m.shape
    r = slice_rows(k, cols)
    n = a.shape[0]
    if a.ndim != 2 or n <= r:
        return a @ m
    m = np.asfortranarray(m)
    out = np.empty((n, cols), dtype=np.result_type(a, m))
    whole = n - n % r
    np.matmul(a[:whole].reshape(-1, r, k), m, out=out[:whole].reshape(-1, r, cols))
    if whole < n:
        np.matmul(a[n - r:], m, out=out[n - r:])
    return out


def check_counts(**counts: int) -> None:
    """Refuse any count at or above 2**32, naming its key.  Callers check counts where they
    are parsed, before they size an array or a u32 field of the dataset header (gen-data
    passes its seed too, which that header also stores)."""
    for key, value in counts.items():
        if value >= 2**32:
            raise ParameterError(f"{key}={value} must be below 2**32")


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
        check_counts(m=self.m, ma=self.ma, mb=self.mb, na=self.na, nb=self.nb)
        if self.m < 1 or self.ma < 1 or self.mb < 1:
            raise ParameterError("antenna counts must be positive")
        if self.ma * self.mb != self.m:
            raise ParameterError(f"ma*mb must equal m: {self.ma}*{self.mb} != {self.m}")
        if self.na < 1 or self.nb < 1:
            raise ParameterError("pilot counts na, nb must be >= 1")
        if not 0 <= self.seed < 2**64:  # what numpy's generators take
            raise ParameterError(f"seed must lie in [0, 2**64), got {self.seed}")
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


def _power(key: str, base: float, exponent: float) -> float:
    """base**exponent computed from the config value `key`; a result too large for a float
    is a ParameterError that names the key."""
    try:
        return base**exponent
    except OverflowError:
        raise ParameterError(f"{key} out of range: {base!r}**{exponent!r} overflows a float") from None


def derive_noise_and_alpha(cfg: SystemConfig) -> tuple[float, float]:
    """Solve the SNR and zeta definitions for (sigma_u^2, alpha) with unit pilots.

    sigma_u^2 = trace(R_h) / (M * 10^(snr_db/10))
    alpha     = sqrt(10^(zeta_db/10) * trace(R_h) / (f^2 * trace(R_g)))

    Both correlation models have a unit diagonal, so each trace is M.
    """
    tr_h = float(cfg.m)
    tr_g = float(cfg.m)
    snr = _power("snr_db", 10.0, cfg.snr_db / 10.0)
    # snr_db = +inf is a legal noiseless operating point; snr_db = -inf, or one so low
    # that the power underflows to 0, is not
    if snr == 0.0:
        raise ParameterError(f"snr_db={cfg.snr_db} gives an infinite noise power")
    sigma_u_sq = tr_h / (cfg.m * snr)
    zeta = _power("zeta_db", 10.0, cfg.zeta_db / 10.0)
    if zeta == 0.0:
        alpha = 0.0
    else:
        f_sq = _power("f", cfg.f, 2)
        if f_sq == 0.0:
            raise ParameterError(f"f={cfg.f} gives f^2 = 0, incompatible with a finite zeta_db")
        alpha = float(np.sqrt(zeta * tr_h / (f_sq * tr_g)))
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


def draw_truths(
    cfg: SystemConfig, link: str, n: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> list[np.ndarray]:
    """The channels of n trials on one link, one (block, M) array per trial block of the
    observations (trial_blocks): simulate_batch's first half.

    The white draws of h fill every block first (for the composite link, g's follow them
    from the same generator, one block at a time), and each block is then replaced by its
    Cholesky product (sliced_matmul), plus alpha*f*g on the composite link.  The values
    equal one (n, M) product, bit for bit where sliced_matmul equals one.  The blocks are
    arrays of their own, or views of `out` (n, M) when it is given.
    """
    if n < 1:
        raise ParameterError(f"batch size must be >= 1, got {n}")
    _, alpha = derive_noise_and_alpha(cfg)
    blocks = trial_blocks(n, pilots_for_link(cfg, link) * cfg.m * 8, slice_rows(cfg.m, cfg.m))
    composite = link == LINK_COMPOSITE
    L_h = _cholesky(build_correlation_matrix(cfg.corr_h, cfg.m))
    if composite:
        L_g = _cholesky(build_correlation_matrix(cfg.corr_g, cfg.m))
    truths = [np.empty((b.stop - b.start, cfg.m)) if out is None else out[b] for b in blocks]
    for x in truths:
        rng.standard_normal(out=x)
    for x in truths:
        h = sliced_matmul(x, L_h.T)
        if composite:
            g = sliced_matmul(rng.standard_normal(x.shape), L_g.T)
            g *= alpha * cfg.f
            h += g
        x[...] = h
    return truths


def observation_blocks(
    cfg: SystemConfig, link: str, truths: list[np.ndarray], rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Yield (block, x_block, y_block) over the truth blocks of draw_truths, with the noise
    drawn after them from the same generator: simulate_batch's second half.

    Each truth block is taken out of `truths` as it is read, so the list ends empty and a
    block is freed once the caller drops it.  Its noise u(p) is drawn (block, P, M) and
    scaled in place, each pilot slice x + u(p) is written into a C-contiguous (block, M, P)
    target, and the noise is dropped before the block is yielded.  The target is
    out[block] when `out` (n, M, P) is given, else one reused block buffer, valid until
    the next block.  y_block is that target shaped (block, Ma, Mb, P), so a reduction
    over its pilot axis sums in the order it would over simulate_batch's Y.  The
    generator fills sequentially, so the noise equals one (n, P, M) draw bit for bit.
    """
    sigma_u_sq, _ = derive_noise_and_alpha(cfg)
    p = pilots_for_link(cfg, link)
    scale = np.sqrt(sigma_u_sq)
    # without `out`, one block of observations, refilled in place
    y_buf = np.empty((max(x.shape[0] for x in truths), cfg.m, p)) if out is None else None
    lo = 0
    while truths:
        x = truths.pop(0)
        k = x.shape[0]
        block = slice(lo, lo + k)
        noise = rng.standard_normal((k, p, cfg.m))
        noise *= scale
        y = out[block] if y_buf is None else y_buf[:k]
        for i in range(p):
            np.add(x, noise[:, i, :], out=y[:, :, i])
        del noise  # not held while the block is read
        yield block, x, y.reshape(k, cfg.ma, cfg.mb, p)
        lo += k


def simulate_batch(
    cfg: SystemConfig, link: str, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n independent (observation, truth) pairs for one link.

    Returns Y with shape (n, Ma, Mb, P) and the noiseless truth X with shape (n, Ma, Mb),
    both C-contiguous and sharing no memory.  Each pair uses a fresh channel and fresh
    noise.  It is draw_truths into X, then observation_blocks writing each block straight
    into Y, so the working set is Y, X and a trial block or two.  Monte-Carlo scoring
    needs no full Y: it runs the two halves itself (estimators.nmse_streamed).
    """
    x = np.empty((n, cfg.m))
    y = np.empty((n, cfg.m, pilots_for_link(cfg, link)))
    for _ in observation_blocks(cfg, link, draw_truths(cfg, link, n, rng, out=x), rng, out=y):
        pass
    return y.reshape(n, cfg.ma, cfg.mb, -1), vec_to_mat(x, cfg.ma, cfg.mb)
