"""Linear-theory tooling: extract the effective map of a linearized denoiser, build the
optimal MMSE weight target, and measure distances between the two.

With each block running its convs alone (no batch norm, no ReLU), the whole network is an
affine map of its input.  Probing it with canonical basis tensors recovers that map
explicitly; when every output row depends only on the matching input row (true for
1x1 kernels) the map collapses to a single right-multiplying matrix A with
X_hat = Y_wide A, directly comparable to the closed-form MMSE weights.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import SystemConfig, simulate_batch, widen_pilots
from .errors import MetricError, ShapeError, StateError
from .estimators import MmseContext, matrix_mmse_map, nmse
from .model import ResidualDenoiser

REGIME_RIGHT = "right"  # X_hat = Y_wide @ A, identical across rows
REGIME_FULL = "full"    # general vec-to-vec map (rows coupled, e.g. 3x3 kernels)

_SUPERPOSITION_TOL = 1e-8


@dataclass(frozen=True)
class LinearMap:
    """Affine input-output map of a linearized denoiser.

    regime "right": matrix is (P*Mb) x Mb and acts on the right of the Ma x (P*Mb)
    wide observation.  regime "full": matrix is (Ma*Mb*P) x (Ma*Mb) and acts on the
    flattened observation tensor.  offset is the Ma x Mb image of the zero input
    (exactly zero for bias-free networks).
    """

    matrix: np.ndarray
    ma: int
    mb: int
    pilots: int
    regime: str = REGIME_RIGHT
    offset: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        wide = self.pilots * self.mb
        if self.regime == REGIME_RIGHT:
            want = (wide, self.mb)
        elif self.regime == REGIME_FULL:
            want = (self.ma * wide, self.ma * self.mb)
        else:
            raise ShapeError(f"unknown regime {self.regime!r}")
        if m.shape != want:
            raise ShapeError(f"{self.regime} map must be {want}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise MetricError("linear map has non-finite entries")
        off = self.offset
        off = np.zeros((self.ma, self.mb)) if off is None else np.asarray(off, float)
        if off.shape != (self.ma, self.mb):
            raise ShapeError(f"offset must be ({self.ma}, {self.mb}), got {off.shape}")
        object.__setattr__(self, "offset", off)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Evaluate the map on an (.., Ma, Mb, P) observation tensor."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape[-3:] != (self.ma, self.mb, self.pilots):
            raise ShapeError(
                f"expected (.., {self.ma}, {self.mb}, {self.pilots}), got {y.shape}"
            )
        if self.regime == REGIME_RIGHT:
            return widen_pilots(y) @ self.matrix + self.offset
        flat = widen_pilots(y).reshape(*y.shape[:-3], -1)
        out = flat @ self.matrix
        return out.reshape(*y.shape[:-3], self.ma, self.mb) + self.offset

    def as_full(self) -> "LinearMap":
        """Lift a right-multiplying map to the full vectorized regime (block diagonal)."""
        if self.regime == REGIME_FULL:
            return self
        return LinearMap(
            matrix=np.kron(np.eye(self.ma), self.matrix),
            ma=self.ma,
            mb=self.mb,
            pilots=self.pilots,
            regime=REGIME_FULL,
            offset=self.offset,
        )


def extract_effective_map(model: ResidualDenoiser) -> LinearMap:
    """Recover the affine map a linearized model applies, by basis probing.

    Probes all Ma*Mb*P canonical inputs in one batch, then verifies superposition on
    10 random tensors to 1e-8; failure (the model is not actually linear, e.g. analysis
    mode is off) raises a state error.  Returns a "right" map when the row structure
    permits, otherwise the full vectorized map.
    """
    if model.mode != "eval":
        raise StateError("map extraction requires eval mode (call eval_mode() first)")
    hyp = model.hyper
    ma, mb, p = hyp.ma, hyp.mb, hyp.pilots
    n_in = ma * mb * p

    offset = model.forward(np.zeros((1, ma, mb, p)))[0]
    basis = np.zeros((n_in, ma, mb, p))
    # index i enumerates the widened layout: (row a, pilot-block column p*Mb + b)
    for i in range(n_in):
        a, col = divmod(i, p * mb)
        blk, b = divmod(col, mb)
        basis[i, a, b, blk] = 1.0
    responses = model.forward(basis) - offset  # (n_in, Ma, Mb)
    full = responses.reshape(n_in, ma * mb)

    rng = np.random.default_rng(0)
    probes = rng.standard_normal((10, ma, mb, p))
    lin = widen_pilots(probes).reshape(10, -1) @ full + offset.reshape(-1)
    got = model.forward(probes).reshape(10, -1)
    err = np.abs(got - lin).max() / max(1.0, np.abs(got).max())
    if err > _SUPERPOSITION_TOL:
        raise StateError(
            f"superposition violated (relative error {err:.2e}); "
            "is the model in analysis mode?"
        )

    # right regime: output row a2 of probe (a, col) is zero unless a2 == a, and the
    # per-row response is identical for every a
    blocks = full.reshape(ma, p * mb, ma, mb)
    scale = max(1.0, np.abs(full).max())
    same_row = np.einsum("acab->acb", blocks)  # (ma, P*Mb, mb) diagonal-in-a slices
    cross = blocks.copy()
    cross[np.arange(ma), :, np.arange(ma), :] = 0.0
    row_invariant = np.abs(same_row - same_row[0]).max() <= _SUPERPOSITION_TOL * scale
    if np.abs(cross).max() <= _SUPERPOSITION_TOL * scale and row_invariant:
        return LinearMap(
            matrix=same_row.mean(axis=0), ma=ma, mb=mb, pilots=p,
            regime=REGIME_RIGHT, offset=offset,
        )
    return LinearMap(
        matrix=full, ma=ma, mb=mb, pilots=p, regime=REGIME_FULL, offset=offset
    )


def mmse_weight_target(ctx: MmseContext) -> LinearMap:
    """Optimal right-multiplying weights A* = (I - W*) W*_out the blocks should approach."""
    return LinearMap(
        matrix=matrix_mmse_map(ctx),
        ma=ctx.ma,
        mb=ctx.mb,
        pilots=ctx.pilots,
        regime=REGIME_RIGHT,
    )


@dataclass(frozen=True)
class MapDistance:
    """Weight-space and performance-space distance between two linear estimators."""

    frobenius_rel: float
    nmse_gap: float          # learned minus target NMSE on shared fresh draws
    nmse_learned: float
    nmse_target: float


def map_distance(
    learned: LinearMap,
    target: LinearMap,
    cfg: SystemConfig,
    link: str,
    trials: int = 2000,
    rng: np.random.Generator | None = None,
) -> MapDistance:
    """Relative Frobenius distance plus the Monte-Carlo NMSE gap on fresh draws."""
    if learned.regime != target.regime or learned.matrix.shape != target.matrix.shape:
        raise ShapeError(
            f"maps are not comparable: {learned.regime}{learned.matrix.shape} vs "
            f"{target.regime}{target.matrix.shape}"
        )
    t_norm = np.linalg.norm(target.matrix)
    if t_norm == 0.0:
        raise MetricError("relative distance to a zero-norm target is undefined")
    frob = float(np.linalg.norm(learned.matrix - target.matrix) / t_norm)
    if rng is None:
        rng = np.random.default_rng(0)
    y, x = simulate_batch(cfg, link, trials, rng)
    n_learn = nmse(x, learned.apply(y)).value
    n_target = nmse(x, target.apply(y)).value
    return MapDistance(
        frobenius_rel=frob,
        nmse_gap=n_learn - n_target,
        nmse_learned=n_learn,
        nmse_target=n_target,
    )
