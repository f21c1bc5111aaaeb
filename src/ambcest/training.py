"""Offline training (mini-batch backprop with early stopping) and online NMSE evaluation.

The offline phase minimizes the summed squared Frobenius error over the training set,
validates after every epoch with normalization layers in eval mode, and returns the
best-validation snapshot rather than the last epoch.  The online phase runs the frozen
network on fresh draws and scores it with the batch NMSE metric.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemConfig, simulate_batch
from .dataset import Dataset
from .errors import NumericError, ParameterError
from .estimators import NmseEstimate, nmse
from .layers import mse_loss
from .model import ResidualDenoiser
from .optim import make_optimizer


@dataclass(frozen=True)
class TrainOptions:
    """Knobs of the offline phase."""

    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 5          # epochs without validation improvement before stopping
    val_fraction: float = 0.1
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.9      # used by the sgd optimizer only
    seed: int = 0              # drives the split and the batch shuffle

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ParameterError("patience must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ParameterError("val_fraction must lie strictly between 0 and 1")
        make_optimizer(self.optimizer, self.learning_rate, self.momentum)  # fail fast


@dataclass
class TrainHistory:
    """Per-epoch record of the offline phase."""

    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    is_best: list = field(default_factory=list)
    initial_val_loss: float = float("nan")
    best_epoch: int = 0
    stopped_epoch: int = 0

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def best_val_loss(self) -> float:
        if not self.val_loss:
            return self.initial_val_loss
        return min(min(self.val_loss), self.initial_val_loss)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "is_best"])
            for e, tr, va, best in zip(
                self.epochs, self.train_loss, self.val_loss, self.is_best
            ):
                writer.writerow([e, repr(tr), repr(va), int(best)])


def _split_indices(k: int, val_fraction: float, rng: np.random.Generator):
    """Disjoint, exhaustive shuffle split; validation gets at least one example."""
    perm = rng.permutation(k)
    n_val = max(1, int(round(k * val_fraction)))
    if n_val >= k:
        n_val = k - 1
    if n_val < 1:
        raise ParameterError("need at least 2 examples to split off a validation set")
    return perm[n_val:], perm[:n_val]


def _mean_loss(model: ResidualDenoiser, y: np.ndarray, x: np.ndarray) -> float:
    """Per-example mean of the summed squared error of an eval-mode model."""
    loss, _ = mse_loss(model.predict(y), x)
    return loss / y.shape[0]


def train(
    model: ResidualDenoiser, ds: Dataset, opts: TrainOptions
) -> tuple[ResidualDenoiser, TrainHistory]:
    """Fit the denoiser on a dataset; returns (best-validation model, history).

    Stops after `patience` epochs without a strict validation improvement or at
    max_epochs, whichever comes first.  Non-finite losses abort with a diagnostic
    naming the epoch, batch, and first offending parameter block.

    The training batches are cast to float32 once per call, so forward and backward
    compute in float32 while the parameters, their gradients and the optimizer state stay
    float64.  Validation scores the float64 validation arrays with `predict`.
    """
    if len(ds) < 2:
        raise ParameterError("training needs at least 2 examples (one for validation)")
    hyp = model.hyper
    if ds.y.shape[1:] != (hyp.ma, hyp.mb, hyp.pilots):
        raise ParameterError(
            f"dataset geometry {ds.y.shape[1:]} does not match the model "
            f"({hyp.ma}, {hyp.mb}, {hyp.pilots})"
        )
    rng = np.random.default_rng(opts.seed)
    train_idx, val_idx = _split_indices(len(ds), opts.val_fraction, rng)
    y_tr, x_tr = ds.y[train_idx].astype(np.float32), ds.x[train_idx].astype(np.float32)
    y_va, x_va = ds.y[val_idx], ds.x[val_idx]

    optimizer = make_optimizer(
        opts.optimizer, learning_rate=opts.learning_rate, momentum=opts.momentum
    )
    history = TrainHistory()

    model.eval_mode()
    try:
        best_val = _mean_loss(model, y_va, x_va)
    except NumericError as exc:
        raise NumericError(f"initial validation: {exc}{_blame(model)}") from exc
    history.initial_val_loss = best_val
    best_state = model.state_dict()
    stale = 0

    for epoch in range(1, opts.max_epochs + 1):
        model.train_mode()
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        for bi, lo in enumerate(range(0, len(order), opts.batch_size)):
            sel = order[lo : lo + opts.batch_size]
            try:
                # float32 overflows near 3e38; a diverging step ends in a finite check
                with np.errstate(over="ignore", invalid="ignore"):
                    pred = model.forward(y_tr[sel])
                    loss, grad = mse_loss(pred, x_tr[sel])
                    model.backward(grad / len(sel))
                optimizer.step(model.named_parameters(), model.named_gradients())
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {bi}: {exc}{_blame(model)}") from exc
            epoch_loss += loss
        model.eval_mode()
        try:
            val = _mean_loss(model, y_va, x_va)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch} validation: {exc}{_blame(model)}") from exc
        improved = val < best_val
        if improved:
            best_val = val
            best_state = model.state_dict()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
        history.epochs.append(epoch)
        history.train_loss.append(epoch_loss / len(train_idx))
        history.val_loss.append(val)
        history.is_best.append(improved)
        history.stopped_epoch = epoch
        if stale >= opts.patience:
            break

    model.load_state_dict(best_state)
    model.eval_mode()
    return model, history


def _blame(model: ResidualDenoiser) -> str:
    """Name the first parameter block holding a non-finite value, if any."""
    for name, p in model.named_parameters().items():
        if not np.all(np.isfinite(p)):
            return f" (first non-finite parameter block: {name})"
    return ""


def evaluate(
    model: ResidualDenoiser,
    cfg: SystemConfig,
    link: str,
    trials: int,
    rng: np.random.Generator,
) -> NmseEstimate:
    """Online phase: score the frozen model on fresh draws at cfg's operating point.

    Reshapes the Ma x Mb outputs to M-vectors and returns the batch NMSE with its
    confidence half-width.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    y, x = simulate_batch(cfg, link, trials, rng)
    return nmse(x.reshape(trials, -1), model.predict(y).reshape(trials, -1))
