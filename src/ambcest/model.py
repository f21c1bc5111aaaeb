"""Residual denoising network: B identical blocks plus a reconstruction convolution.

Each block is an L-layer subnetwork (Conv+BN+ReLU for layers 1..L-1, plain Conv for layer L)
that predicts the residual noise S_i of its input; the block output is Y_i = Y_{i-1} - S_i.
After the last block a reconstruction layer combines the P denoised channel slices into a
single Ma x Mb channel-matrix estimate.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, StateError
from .layers import BatchNorm2D, Conv2D, Dense, ReLU, _as_compute

RECON_CONV1X1 = "conv1x1"
RECON_DENSE = "dense"
RECON_KINDS = (RECON_CONV1X1, RECON_DENSE)

# examples per chunk in predict(): bounds the activations and the per-tap conv buffers
PREDICT_CHUNK = 256


@dataclass(frozen=True)
class DenoiserHyper:
    """Architecture hyperparameters.

    blocks (B) and layers_per_block (L) follow the reference realization defaults B=3, L=8
    with 64 intermediate filters.  kernel_size is 3 for the standard network; 1 gives the
    purely channel-mixing configuration used by the linear analysis.  recon selects the
    reconstruction layer: a per-pixel 1x1 convolution over the P slices (default) or the
    literal full-volume affine map (ablation).
    """

    blocks: int = 3
    layers_per_block: int = 8
    filters: int = 64
    ma: int = 8
    mb: int = 8
    pilots: int = 2
    kernel_size: int = 3
    recon: str = RECON_CONV1X1

    def __post_init__(self):
        if self.blocks < 1:
            raise ParameterError(f"need at least one denoising block, got {self.blocks}")
        if self.layers_per_block < 2:
            raise ParameterError(f"need at least 2 layers per block, got {self.layers_per_block}")
        if self.filters < 1:
            raise ParameterError("filters must be positive")
        if self.ma < 1 or self.mb < 1 or self.pilots < 1:
            raise ParameterError("input geometry (ma, mb, pilots) must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ParameterError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.recon not in RECON_KINDS:
            raise ParameterError(f"recon must be one of {RECON_KINDS}, got {self.recon!r}")


class DenoisingBlock:
    """L-layer residual-noise subnetwork; maps Ma x Mb x P to itself."""

    def __init__(self, hyper: DenoiserHyper, rng: np.random.Generator | None):
        p, k, f = hyper.pilots, hyper.kernel_size, hyper.filters
        n_layers = hyper.layers_per_block
        self.convs: list[Conv2D] = []
        self.bns: list[BatchNorm2D] = []
        self.relus: list[ReLU] = []
        for layer in range(1, n_layers + 1):
            c_in = p if layer == 1 else f
            c_out = p if layer == n_layers else f
            self.convs.append(Conv2D(c_in, c_out, kernel_size=k, rng=rng))
            if layer < n_layers:
                self.bns.append(BatchNorm2D(c_out))
                self.relus.append(ReLU())
        self.analysis = False

    def stages(self) -> list[tuple[Conv2D, BatchNorm2D | None, ReLU | None]]:
        """(conv, bn, relu) per layer in forward order; bn and relu are None after the last
        conv, and for every layer in analysis mode, where the block is its convs alone."""
        if self.analysis:
            return [(conv, None, None) for conv in self.convs]
        return list(zip(self.convs, [*self.bns, None], [*self.relus, None]))

    def forward(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (Y_out, S) with S the predicted residual noise and Y_out = Y - S."""
        s = y
        for conv, bn, relu in self.stages():
            s = conv.forward(s)
            if bn is not None:
                s = relu.forward(bn.forward(s))
        if s.shape != y.shape:
            raise ShapeError(f"block produced shape {s.shape}, expected {y.shape}")
        return y - s, s

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # Y_out = Y - S(Y): the subnetwork sees dL/dS = -grad_out, and the input
        # collects both the skip path and the subnetwork path
        g = -grad_out
        for conv, bn, relu in reversed(self.stages()):
            if bn is not None:
                g = bn.backward(relu.backward(g))
            g = conv.backward(g)
        return grad_out + g


class ResidualDenoiser:
    """The assembled network.  Construct via build_model(); set a mode before forward."""

    def __init__(self, hyper: DenoiserHyper, rng: np.random.Generator | None):
        self.hyper = hyper
        self.blocks = [DenoisingBlock(hyper, rng) for _ in range(hyper.blocks)]
        if hyper.recon == RECON_CONV1X1:
            self.recon = Conv2D(hyper.pilots, 1, kernel_size=1, rng=rng)
        else:
            self.recon = Dense(hyper.ma * hyper.mb * hyper.pilots, hyper.ma * hyper.mb, rng=rng)
        self.mode: str | None = None

    # -- mode management -------------------------------------------------

    def train_mode(self) -> "ResidualDenoiser":
        self.mode = "train"
        for block in self.blocks:
            for bn in block.bns:
                bn.mode = BatchNorm2D.TRAIN
        return self

    def eval_mode(self) -> "ResidualDenoiser":
        self.mode = "eval"
        for block in self.blocks:
            for bn in block.bns:
                bn.mode = BatchNorm2D.EVAL
        return self

    @property
    def analysis(self) -> bool:
        """Linear-analysis mode: every block runs its convs alone, without batch norm or ReLU.

        Switching it on zeroes the batch-norm gradients, which no backward then writes,
        so an optimizer step cannot apply stale ones from earlier normal-mode training."""
        return all(block.analysis for block in self.blocks)

    @analysis.setter
    def analysis(self, flag: bool) -> None:
        for block in self.blocks:
            block.analysis = bool(flag)
            if flag:
                for bn in block.bns:
                    bn.grad_gamma = np.zeros_like(bn.gamma)
                    bn.grad_beta = np.zeros_like(bn.beta)

    # -- forward / backward ----------------------------------------------

    def _check_input(self, y: np.ndarray) -> np.ndarray:
        if self.mode is None:
            raise StateError("model mode not set: call train_mode() or eval_mode() first")
        y = _as_compute(y)
        hp = self.hyper
        if y.ndim != 4 or y.shape[1:] != (hp.ma, hp.mb, hp.pilots):
            raise ShapeError(
                f"expected a batch (n, {hp.ma}, {hp.mb}, {hp.pilots}), got shape {y.shape}"
            )
        return y

    def forward(self, y: np.ndarray) -> np.ndarray:
        """Run all blocks then the reconstruction layer; (n, Ma, Mb, P) -> (n, Ma, Mb).

        Computes in float32 for a float32 input and in float64 otherwise (see layers)."""
        y = self._check_input(y)
        for block in self.blocks:
            y, _ = block.forward(y)
        return self._recon_forward(y, self.recon)

    def predict(self, y: np.ndarray) -> np.ndarray:
        """Eval-mode output for a batch (n, Ma, Mb, P) -> (n, Ma, Mb), PREDICT_CHUNK at a time.

        Runs a copy of the net with each BatchNorm folded into its conv (see _fold) and ReLU
        in place: no backward caches, and the model's own layers (forward/backward) untouched.
        The fold is done in float64 and the folded convs are cast to float32 once per call,
        so each block's residual branch computes in float32.  The skip path Y - S and the
        reconstruction layer stay in the input's precision, so a block whose residual is
        zero passes a float64 input through exactly.  The result is float64 and agrees with
        a float64 eval-mode forward to about 1e-6 of its largest entry.
        """
        if self.mode != "eval":
            raise StateError("prediction requires eval mode (call eval_mode() first)")
        y = self._check_input(y)
        blocks = [[(_float32(_fold(conv, bn)), relu) for conv, bn, relu in b.stages()]
                  for b in self.blocks]
        recon = copy.copy(self.recon)
        out = np.empty((y.shape[0], self.hyper.ma, self.hyper.mb))
        for lo in range(0, y.shape[0], PREDICT_CHUNK):
            chunk = y[lo : lo + PREDICT_CHUNK]
            for layers in blocks:
                s = chunk.astype(np.float32)
                for conv, relu in layers:
                    s = conv.forward(s)
                    conv._x_pad = None  # a folded copy never runs backward
                    if relu is not None:
                        np.maximum(s, 0, out=s)
                chunk = chunk - s
            out[lo : lo + PREDICT_CHUNK] = self._recon_forward(chunk, recon)
        return out

    def _recon_forward(self, y: np.ndarray, recon) -> np.ndarray:
        hp = self.hyper
        if hp.recon == RECON_CONV1X1:
            return recon.forward(y)[..., 0]
        flat = recon.forward(y.reshape(y.shape[0], -1))
        return flat.reshape(y.shape[0], hp.ma, hp.mb)

    def backward(self, grad_xhat: np.ndarray) -> np.ndarray:
        """Reverse-mode pass; takes d loss / d X_hat (n, Ma, Mb), returns d loss / d input in
        the dtype of the forward it follows."""
        grad_xhat = _as_compute(grad_xhat)
        hp = self.hyper
        if hp.recon == RECON_CONV1X1:
            g = self.recon.backward(grad_xhat[..., None])
        else:
            g = self.recon.backward(grad_xhat.reshape(grad_xhat.shape[0], -1))
            g = g.reshape(grad_xhat.shape[0], hp.ma, hp.mb, hp.pilots)
        for block in reversed(self.blocks):
            g = block.backward(g)
        return g

    # -- parameter plumbing ----------------------------------------------

    def _named_layers(self):
        """(prefix, layer) for every layer with state, in serialization order: per block
        conv1, bn1, ..., convL, then the reconstruction layer."""
        for bi, block in enumerate(self.blocks):
            for li, (conv, bn) in enumerate(zip(block.convs, [*block.bns, None]), start=1):
                yield f"block{bi}.conv{li}", conv
                if bn is not None:
                    yield f"block{bi}.bn{li}", bn
        yield "recon", self.recon

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Trainable parameters as live views, in deterministic serialization order."""
        return {k: v for prefix, layer in self._named_layers() for k, v in layer.named_parameters(prefix).items()}

    def named_gradients(self) -> dict[str, np.ndarray]:
        return {k: v for prefix, layer in self._named_layers() for k, v in layer.named_gradients(prefix).items()}

    def named_running_stats(self) -> dict[str, np.ndarray]:
        return {
            k: v
            for prefix, layer in self._named_layers()
            if isinstance(layer, BatchNorm2D)
            for k, v in layer.running_stats(prefix).items()
        }

    def num_parameters(self) -> int:
        return sum(p.size for p in self.named_parameters().values())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Deep copy of all parameters and BN running statistics."""
        state = {name: arr.copy() for name, arr in self.named_parameters().items()}
        state.update({name: arr.copy() for name, arr in self.named_running_stats().items()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        live = dict(self.named_parameters())
        live.update(self.named_running_stats())
        if set(state) != set(live):
            missing = set(live) - set(state)
            extra = set(state) - set(live)
            raise ParameterError(f"state dict mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, arr in live.items():
            src = np.asarray(state[name])
            if src.shape != arr.shape:
                raise ShapeError(f"state entry {name!r} has shape {src.shape}, expected {arr.shape}")
            np.copyto(arr, src)

    def clone(self) -> "ResidualDenoiser":
        return copy.deepcopy(self)


def _fold(conv: Conv2D, bn: BatchNorm2D | None) -> Conv2D:
    """A copy of `conv` computing eval-mode bn(conv(x)): w' = w*s, b' = (b - mean)*s + beta,
    s = gamma / sqrt(var + eps).  An absent bn leaves conv as is."""
    folded = copy.copy(conv)
    if bn is not None:
        scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
        folded.w = conv.w * scale[:, None, None, None]
        folded.b = (conv.b - bn.running_mean) * scale + bn.beta
    return folded


def _float32(conv: Conv2D) -> Conv2D:
    """`conv`, a copy nobody else holds, with its weights cast to float32."""
    conv.w, conv.b = conv.w.astype(np.float32), conv.b.astype(np.float32)
    return conv


def build_model(hyper: DenoiserHyper, rng: np.random.Generator | int | None = None) -> ResidualDenoiser:
    """Construct a freshly initialized network (He-uniform conv weights, zero biases)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return ResidualDenoiser(hyper, rng)
