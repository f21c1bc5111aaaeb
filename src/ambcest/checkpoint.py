"""Binary checkpoint I/O for trained denoiser models.

Layout (all little-endian):
    magic   4 bytes  b"CRLD"
    u32     format version (currently 1)
    u32 x8  hyper header: blocks, layers_per_block, filters, ma, mb, pilots,
            kernel_size, recon kind (0 = conv1x1, 1 = dense)
    f64...  trainable parameters, flattened C-order, in named_parameters() order
    f64...  batch-norm running statistics, in named_running_stats() order
    u32     CRC32 of every preceding byte
"""

import struct
from pathlib import Path

import numpy as np

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
    arrays = [*model.named_parameters().values(), *model.named_running_stats().values()]
    write_artifact(path, [header] + [np.ascontiguousarray(a, dtype="<f8") for a in arrays])


def load_checkpoint(path: str | Path) -> ResidualDenoiser:
    """Reconstruct a model from a checkpoint file; the mode is left unset.

    The CRC covers the header, so a corrupted header is reported as a corrupt file
    before any of its fields sizes a model.
    """
    raw = read_artifact(path, MAGIC, _HEADER.size)
    _, version, b, l, f, ma, mb, p, k, recon_code = _HEADER.unpack_from(raw, 0)
    if version != VERSION:
        raise FormatError(
            f"unsupported checkpoint version {version} in {path}; supported versions: {VERSION}"
        )
    if recon_code not in _RECON_NAMES:
        raise FormatError(f"unknown reconstruction-layer code {recon_code} in {path}")
    try:
        hyper = DenoiserHyper(
            blocks=b, layers_per_block=l, filters=f, ma=ma, mb=mb, pilots=p,
            kernel_size=k, recon=_RECON_NAMES[recon_code],
        )
    except ParameterError as exc:
        raise FormatError(f"checkpoint {path} has an invalid header: {exc}") from exc
    model = ResidualDenoiser(hyper, rng=None)  # zero-initialized slots, filled below
    slots = dict(model.named_parameters())
    slots.update(model.named_running_stats())
    n_floats = sum(arr.size for arr in slots.values())
    expected = _HEADER.size + 8 * n_floats + 4
    if len(raw) != expected:
        raise FormatError(
            f"checkpoint {path} has {len(raw)} bytes, expected {expected} for this header"
        )
    flat = np.frombuffer(raw, dtype="<f8", count=n_floats, offset=_HEADER.size)
    offset = 0
    for arr in slots.values():
        np.copyto(arr, flat[offset : offset + arr.size].reshape(arr.shape))
        offset += arr.size
    return model
