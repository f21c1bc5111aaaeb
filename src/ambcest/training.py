"""Offline training (mini-batch backprop with early stopping) and online NMSE evaluation.

The offline phase minimizes the summed squared Frobenius error over the training set,
validates after every epoch with normalization layers in eval mode, and returns the
best-validation snapshot rather than the last epoch.  The online phase runs the frozen
network on fresh draws and scores it with the batch NMSE metric.
"""

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import SystemConfig, draw_truths
from .dataset import Dataset
from .errors import NumericError, ParameterError
from .estimators import NmseEstimate, nmse_streamed
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
        if not 0.0 <= self.momentum < 1.0:  # checked for every optimizer: dump_config writes it
            raise ParameterError("momentum must lie in [0, 1)")
        if not 0 <= self.seed < 2**64:  # what numpy's generators take
            raise ParameterError(f"seed must lie in [0, 2**64), got {self.seed}")
        make_optimizer(self.optimizer, self.learning_rate, self.momentum)  # fail fast


class EpochRecord(NamedTuple):
    """One epoch of the offline phase; is_best marks a strict validation improvement."""

    epoch: int
    train_loss: float
    val_loss: float
    is_best: bool


@dataclass
class TrainHistory:
    """What `train` keeps as it runs: the validation loss before the first epoch, then one
    record per epoch.  The best and stopping epochs and the best loss are read from the
    records; best_epoch is 0 when no epoch beat the initial model."""

    initial_val_loss: float = float("nan")
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def best_epoch(self) -> int:
        return max((r.epoch for r in self.records if r.is_best), default=0)

    @property
    def best_val_loss(self) -> float:
        return min([self.initial_val_loss, *(r.val_loss for r in self.records)])

    @property
    def stopped_epoch(self) -> int:
        return len(self.records)  # epochs count from 1

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EpochRecord._fields)
            for r in self.records:
                writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss), int(r.is_best)])


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


def _validation_loss(model: ResidualDenoiser, y: np.ndarray, x: np.ndarray, when: str) -> float:
    """Switch to eval mode and score the validation split; a numeric failure names `when`."""
    model.eval_mode()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the loss's finite check reports it
            return _mean_loss(model, y, x)
    except NumericError as exc:
        raise NumericError(f"{when} validation: {exc}{_blame(model)}") from exc


def train(
    model: ResidualDenoiser, ds: Dataset, opts: TrainOptions
) -> tuple[ResidualDenoiser, TrainHistory]:
    """Fit the denoiser on a dataset; returns (best-validation model in eval mode, history).

    Stops after `patience` epochs without a strict validation improvement or at
    max_epochs, whichever comes first.  Non-finite losses abort with a diagnostic
    naming the epoch, batch, and first offending parameter block.

    The training batches are cast to float32 once per call, so forward and backward
    compute in float32 while the parameters, their gradients and the optimizer state stay
    float64.  The optimizer sees the net's parameter vector as one array, which each step
    updates in one pass.  Validation scores the float64 validation arrays with `predict`.
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
    history = TrainHistory(initial_val_loss=_validation_loss(model, y_va, x_va, "initial"))
    best_state = model.state.copy()
    params = {"net": model.state[: model.num_parameters()]}  # the parameters lead the state

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
                    optimizer.step(params, {"net": model.grad})
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {bi}: {exc}{_blame(model)}") from exc
            epoch_loss += loss
        val = _validation_loss(model, y_va, x_va, f"epoch {epoch}")
        improved = val < history.best_val_loss
        if improved:
            np.copyto(best_state, model.state)
        history.records.append(EpochRecord(epoch, epoch_loss / len(train_idx), val, improved))
        if epoch - history.best_epoch >= opts.patience:
            break

    np.copyto(model.state, best_state)  # still in eval mode from the last validation
    return model, history


def _blame(model: ResidualDenoiser) -> str:
    """Name the first parameter block, else gradient block, holding a non-finite value, if any."""
    for kind, arrays in [("parameter", model.named_parameters()), ("gradient", model.named_gradients())]:
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                return f" (first non-finite {kind} block: {name})"
    return ""


def evaluate(
    model: ResidualDenoiser,
    cfg: SystemConfig,
    link: str,
    trials: int,
    rng: np.random.Generator,
) -> NmseEstimate:
    """Online phase: score the frozen model on fresh draws at cfg's operating point.

    Returns the batch NMSE of its Ma x Mb outputs, read as M-vectors, with its confidence
    half-width.  The draws are scored one trial block at a time (nmse_streamed), so the
    working set is the truths, two floats per trial, a trial block and predict's chunk.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    truths = draw_truths(cfg, link, trials, rng)
    return nmse_streamed(cfg, link, truths, rng, lambda y: [("crld", model.predict(y))])["crld"]
