"""Parameter-update rules: Adam (default) and SGD with momentum.

Optimizers operate on named parameter dicts ({name: array}) and update arrays in place.
Moment buffers are keyed by parameter name and created lazily on the first step.
"""

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


class SGDMomentum:
    """v <- mu*v - lr*g ; p <- p + v"""

    def __init__(self, learning_rate: float = 1e-3, momentum: float = 0.9):
        if not 0.0 < learning_rate < float("inf"):
            raise ParameterError(f"learning_rate must be finite and positive, got {learning_rate}")
        if not (0.0 <= momentum < 1.0):
            raise ParameterError("momentum must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}
        self.step_count = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        _check_grads(params, grads)
        self.step_count += 1
        for name, p in params.items():
            g = grads[name]
            v = self.velocity.setdefault(name, np.zeros_like(p))
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


class Adam:
    """Bias-corrected first/second-moment update (standard Adam)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if not 0.0 < learning_rate < float("inf"):
            raise ParameterError(f"learning_rate must be finite and positive, got {learning_rate}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ParameterError("betas must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.betas = betas
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        _check_grads(params, grads)
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def make_optimizer(kind: str, learning_rate: float, momentum: float = 0.9):
    if kind == "adam":
        return Adam(learning_rate=learning_rate)
    if kind == "sgd_momentum":
        return SGDMomentum(learning_rate=learning_rate, momentum=momentum)
    raise ParameterError(f"unknown optimizer {kind!r} (expected 'adam' or 'sgd_momentum')")


def _check_grads(params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
