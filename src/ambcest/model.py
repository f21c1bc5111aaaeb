"""Residual denoising network: B identical blocks plus a reconstruction convolution.

Each block is an L-layer subnetwork (Conv+BN+ReLU for layers 1..L-1, plain Conv for layer L)
that predicts the residual noise S_i of its input; the block output is Y_i = Y_{i-1} - S_i.
A block keeps its layers as one list of (conv, bn, relu) stages, which its forward and
backward, predict's fold, the mode switches and the state naming all read.
After the last block a reconstruction layer, one 1x1 Conv2D on the grid DenoiserHyper.head
picks, combines the P denoised channel slices into a single Ma x Mb channel-matrix estimate.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, StateError
from .layers import BatchNorm2D, Conv2D, ReLU, _as_compute, bind

RECON_CONV1X1 = "conv1x1"
RECON_DENSE = "dense"
RECON_KINDS = (RECON_CONV1X1, RECON_DENSE)

# examples per chunk in predict(): bounds the activations, each conv's spatial-major
# output, and the im2col matrix or padded copy that a shallow conv builds
PREDICT_CHUNK = 256


@dataclass(frozen=True)
class DenoiserHyper:
    """Architecture hyperparameters.

    blocks (B) and layers_per_block (L) follow the reference realization defaults B=3, L=8
    with 64 intermediate filters.  kernel_size is 3 for the standard network; 1 gives the
    purely channel-mixing configuration used by the linear analysis.  recon selects the
    reconstruction layer: a per-pixel 1x1 convolution over the P slices (default) or the
    literal full-volume affine map (ablation), which `head` casts as a 1x1 convolution too.
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

    @property
    def state_size(self) -> int:
        """Floats in the net's parameters and batch-norm running statistics, which is what
        its checkpoint stores, in closed form: no layer or array is built."""
        p, f, k2, n = self.pilots, self.filters, self.kernel_size**2, self.layers_per_block
        convs = (k2 * p + 1) * f + (n - 2) * (k2 * f + 1) * f + (k2 * f + 1) * p
        bns = (n - 1) * 4 * f  # gamma, beta, running mean and variance of layers 1..L-1
        (_, _, c_in), c_out = self.head
        return self.blocks * (convs + bns) + (c_in + 1) * c_out

    @property
    def head(self) -> tuple[tuple[int, int, int], int]:
        """The reconstruction conv's input grid (H, W, C_in) and output channels C_out:
        conv1x1 mixes each pixel's P slices, (Ma, Mb, P) -> 1; dense, the full-volume affine
        map, is a 1x1 conv on a 1x1 grid, (1, 1, Ma*Mb*P) -> Ma*Mb, whose weight holds the
        C-order bytes of the (Ma*Mb, Ma*Mb*P) matrix."""
        if self.recon == RECON_CONV1X1:
            return (self.ma, self.mb, self.pilots), 1
        pixels = self.ma * self.mb
        return (1, 1, pixels * self.pilots), pixels


class DenoisingBlock:
    """L-layer residual-noise subnetwork; maps Ma x Mb x P to itself.

    `layers` holds one (conv, bn, relu) stage per layer in forward order; the last
    layer's stage is (conv, None, None)."""

    def __init__(self, hyper: DenoiserHyper):
        p, k, f = hyper.pilots, hyper.kernel_size, hyper.filters
        n_layers = hyper.layers_per_block
        self.layers: list[tuple[Conv2D, BatchNorm2D | None, ReLU | None]] = [
            (Conv2D(p if layer == 1 else f, f, kernel_size=k, shared=True), BatchNorm2D(f, shared=True), ReLU())
            for layer in range(1, n_layers)
        ]
        self.layers.append((Conv2D(f, p, kernel_size=k, shared=True), None, None))
        self.analysis = False

    @property
    def bns(self) -> list[BatchNorm2D]:
        """The batch norms of layers 1..L-1, in forward order."""
        return [bn for _, bn, _ in self.layers[:-1]]

    def stages(self) -> list[tuple[Conv2D, BatchNorm2D | None, ReLU | None]]:
        """The stages this block runs, in forward order: `layers`, or in analysis mode
        each conv alone, as (conv, None, None)."""
        if self.analysis:
            return [(conv, None, None) for conv, _, _ in self.layers]
        return self.layers

    def forward(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (Y_out, S) with S the predicted residual noise and Y_out = Y - S."""
        s = y
        for conv, bn, relu in self.stages():
            s = conv.forward(s)
            if bn is not None:
                s = relu.forward(bn.forward(s))
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
    """The assembled network.  Construct via build_model() or load_checkpoint(); set a mode
    before forward.

    `state`, hyper.state_size floats, is every parameter in named_parameters() order and
    then every running statistic: the checkpoint payload, which the net adopts as it is.
    `grad`, the gradients in parameter order, is None until the first backward.  Every
    layer's arrays are views of the two."""

    def __init__(self, hyper: DenoiserHyper, state: np.ndarray):
        self.hyper = hyper
        self.state, self.grad = state, None
        self.blocks = [DenoisingBlock(hyper) for _ in range(hyper.blocks)]
        (_, _, c_in), c_out = hyper.head
        self.recon = Conv2D(c_in, c_out, kernel_size=1, shared=True)
        self.mode: str | None = None
        self._bind()

    def _bind(self) -> None:
        """Bind every layer's parameters, then every layer's running statistics, to views of
        `state`, and the gradients to views of `grad` if there is one."""
        layers = [layer for _, layer in self._named_layers()]
        bind(layers, "stats", self.state, bind(layers, "params", self.state))
        if self.grad is not None:
            bind(layers, "params", self.grad, prefix="grad_")

    def __setstate__(self, attrs: dict) -> None:
        # a deepcopy or unpickling copies each view to an array of its own: bind them again
        self.__dict__.update(attrs)
        self._bind()

    # -- mode management -------------------------------------------------

    def train_mode(self) -> "ResidualDenoiser":
        return self._set_mode(BatchNorm2D.TRAIN)

    def eval_mode(self) -> "ResidualDenoiser":
        return self._set_mode(BatchNorm2D.EVAL)

    def _set_mode(self, mode: str) -> "ResidualDenoiser":
        """Set the model's mode and every batch norm's ("train" or "eval")."""
        self.mode = mode
        for block in self.blocks:
            for bn in block.bns:
                bn.mode = mode
        return self

    @property
    def analysis(self) -> bool:
        """Linear-analysis mode: every block runs its convs alone, without batch norm or ReLU.

        Switching it on zeroes the batch-norm gradients, which no backward then writes, so
        an optimizer step cannot apply stale ones from earlier normal-mode training."""
        return all(block.analysis for block in self.blocks)

    @analysis.setter
    def analysis(self, flag: bool) -> None:
        for block in self.blocks:
            block.analysis = bool(flag)
            if flag and self.grad is not None:
                for bn in block.bns:
                    bn.grad_gamma[...] = bn.grad_beta[...] = 0.0

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
                    conv._cache = None  # a folded copy never runs backward
                    if relu is not None:
                        np.maximum(s, 0, out=s)
                chunk = chunk - s
            out[lo : lo + PREDICT_CHUNK] = self._recon_forward(chunk, recon)
        return out

    def _recon_forward(self, y: np.ndarray, recon: Conv2D) -> np.ndarray:
        """The reconstruction layer on the head's grid: (n, Ma, Mb, P) -> (n, Ma, Mb)."""
        grid, _ = self.hyper.head
        return recon.forward(y.reshape(y.shape[0], *grid)).reshape(y.shape[:3])

    def backward(self, grad_xhat: np.ndarray) -> np.ndarray:
        """Reverse-mode pass; takes d loss / d X_hat (n, Ma, Mb), returns d loss / d input in
        the dtype of the forward it follows.  The first backward allocates `grad`."""
        if self.grad is None:
            self.grad = np.zeros(self.num_parameters())
            self._bind()
        grad_xhat = _as_compute(grad_xhat)
        hp = self.hyper
        if grad_xhat.ndim != 3 or grad_xhat.shape[1:] != (hp.ma, hp.mb):
            raise ShapeError(f"expected a gradient (n, {hp.ma}, {hp.mb}), got shape {grad_xhat.shape}")
        n = grad_xhat.shape[0]
        (h, w, _), c_out = hp.head
        g = self.recon.backward(grad_xhat.reshape(n, h, w, c_out)).reshape(n, hp.ma, hp.mb, hp.pilots)
        for block in reversed(self.blocks):
            g = block.backward(g)
        return g

    # -- parameter plumbing ----------------------------------------------

    def _named_layers(self):
        """(prefix, layer) for every layer with state, in serialization order: per block
        conv1, bn1, ..., convL, then the reconstruction layer."""
        for bi, block in enumerate(self.blocks):
            for li, (conv, bn, _) in enumerate(block.layers, start=1):
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
        return {k: v for prefix, layer in self._named_layers() for k, v in layer.running_stats(prefix).items()}

    def num_parameters(self) -> int:
        return sum(p.size for p in self.named_parameters().values())

    def state_dict(self) -> dict[str, np.ndarray]:
        """All parameters and BN running statistics, as named views of one copy of `state`."""
        live = {**self.named_parameters(), **self.named_running_stats()}
        parts = np.split(self.state.copy(), np.cumsum([arr.size for arr in live.values()])[:-1])
        return {name: part.reshape(arr.shape) for (name, arr), part in zip(live.items(), parts)}

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


def build_model(hyper: DenoiserHyper, rng: np.random.Generator | int) -> ResidualDenoiser:
    """Construct a freshly initialized network: one zero vector of hyper.state_size floats,
    then each layer's He-uniform weights drawn from rng into it in checkpoint order."""
    if rng is None:
        raise ParameterError("build_model needs a seed or Generator; rng=None would be unseeded")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if hyper.state_size * 8 > np.iinfo(np.intp).max:
        raise ParameterError(f"a net of {hyper.state_size} floats is too large to address")
    model = ResidualDenoiser(hyper, np.zeros(hyper.state_size))
    for _, layer in model._named_layers():
        layer.reset(rng)
    return model
