"""Binary checkpoint I/O for trained denoiser models.

Layout (all little-endian):
    magic   4 bytes  b"CRLD"
    u32     format version (currently 1)
    u32 x8  hyper header: blocks, layers_per_block, filters, ma, mb, pilots,
            kernel_size, recon kind (0 = conv1x1, 1 = dense)
    f64...  the net's state vector (ResidualDenoiser.state): the trainable parameters,
            flattened C-order, in named_parameters() order, then the batch-norm running
            statistics in named_running_stats() order
    u32     CRC32 of every preceding byte
"""

import struct
from pathlib import Path

from .artifact import read_artifact, write_artifact
from .errors import FormatError, ParameterError
from .model import RECON_CONV1X1, RECON_DENSE, DenoiserHyper, ResidualDenoiser

MAGIC = b"CRLD"
VERSION = 1
_RECON_CODES = {RECON_CONV1X1: 0, RECON_DENSE: 1}
_RECON_NAMES = {code: name for name, code in _RECON_CODES.items()}
_HEADER = struct.Struct("<4sI8I")


def save_checkpoint(model: ResidualDenoiser, path: str | Path) -> None:
    """Serialize every parameter, BN running stat, and hyperparameter, bit-exactly."""
    hp = model.hyper
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        hp.blocks,
        hp.layers_per_block,
        hp.filters,
        hp.ma,
        hp.mb,
        hp.pilots,
        hp.kernel_size,
        _RECON_CODES[hp.recon],
    )
    write_artifact(path, header, [model.state])


def load_checkpoint(path: str | Path) -> ResidualDenoiser:
    """Reconstruct a model from a checkpoint file, in eval mode and ready to score.

    The CRC covers the header, so a corrupted header is reported as a corrupt file
    before any of its fields sizes a model.  The payload size is then checked against
    the header's closed-form state size before any model is built, so a small file
    whose header claims a huge net allocates nothing.  The model's state vector is the
    payload in the file's own buffer, so nothing is copied.
    """
    fields, payload = read_artifact(path, MAGIC, _HEADER, VERSION, "checkpoint")
    b, l, f, ma, mb, p, k, recon_code = fields
    if recon_code not in _RECON_NAMES:
        raise FormatError(f"unknown reconstruction-layer code {recon_code} in {path}")
    try:
        hyper = DenoiserHyper(
            blocks=b, layers_per_block=l, filters=f, ma=ma, mb=mb, pilots=p,
            kernel_size=k, recon=_RECON_NAMES[recon_code],
        )
    except ParameterError as exc:
        raise FormatError(f"checkpoint {path} has an invalid header: {exc}") from exc
    if payload.size != hyper.state_size:
        raise FormatError(
            f"checkpoint {path} holds {payload.size} floats, expected {hyper.state_size} for this header"
        )
    return ResidualDenoiser(hyper, payload).eval_mode()
