"""Training-set generation and a small binary container for example pairs.

A dataset holds K i.i.d. pairs (Y, X): a noisy pilot tensor and its noiseless channel
matrix label, all drawn at one fixed operating point.  Files carry an "AMBD" magic,
a fixed meta header echoing the generating configuration, the two float64 payload
arrays, and a CRC32 trailer.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .artifact import read_artifact, write_artifact
from .channel import (
    LINK_COMPOSITE,
    LINK_DIRECT,
    CorrelationSpec,
    SystemConfig,
    pilots_for_link,
    simulate_batch,
)
from .errors import FormatError, ParameterError, ShapeError

MAGIC = b"AMBD"
VERSION = 1

_LINK_CODES = {LINK_DIRECT: 0, LINK_COMPOSITE: 1}
_LINK_NAMES = {v: k for k, v in _LINK_CODES.items()}
_CORR_CODES = {"identity": 0, "exponential": 1}
_CORR_NAMES = {v: k for k, v in _CORR_CODES.items()}

# magic, version | k, m, ma, mb, pilots, na, nb, seed, link, corr_h, corr_g
# | snr_db, zeta_db, f, rho_h, rho_g
_HEADER = struct.Struct("<4sI11I5d")


@dataclass(frozen=True)
class Dataset:
    """K example pairs plus the operating point they were drawn at."""

    y: np.ndarray  # (K, Ma, Mb, P) noisy pilot tensors
    x: np.ndarray  # (K, Ma, Mb) noiseless labels
    cfg: SystemConfig  # its seed is the generation seed
    link: str

    def __post_init__(self):
        if self.link not in _LINK_CODES:
            raise ParameterError(f"unknown link {self.link!r}")
        k = self.y.shape[0] if self.y.ndim == 4 else 0
        p = pilots_for_link(self.cfg, self.link)
        if self.y.shape != (k, self.cfg.ma, self.cfg.mb, p) or k < 1:
            raise ShapeError(
                f"y must be (K, {self.cfg.ma}, {self.cfg.mb}, {p}) with K >= 1, "
                f"got {self.y.shape}"
            )
        if self.x.shape != (k, self.cfg.ma, self.cfg.mb):
            raise ShapeError(
                f"x must be ({k}, {self.cfg.ma}, {self.cfg.mb}), got {self.x.shape}"
            )

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def pilots(self) -> int:
        return self.y.shape[3]

    @property
    def seed(self) -> int:
        return self.cfg.seed


def generate_dataset(
    cfg: SystemConfig, link: str, k: int, seed: int | None = None
) -> Dataset:
    """Draw K i.i.d. examples (fresh channel + fresh noise each) at cfg's operating point.

    The labels are the noiseless channel matrices.  A fixed seed gives a byte-identical
    dataset; seed=None falls back to cfg.seed.  The dataset's cfg carries the seed used.
    """
    if k < 1:
        raise ParameterError("need at least one example")
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    y, x = simulate_batch(cfg, link, k, np.random.default_rng(cfg.seed))
    return Dataset(y=y, x=x, cfg=cfg, link=link)


def save_dataset(ds: Dataset, path: str) -> None:
    """Serialize to the AMBD container (little-endian float64 payload, CRC32 trailer).

    Every integer the header packs must fit its u32 field; one that does not is a
    ParameterError that names it, raised before the file is opened."""
    cfg = ds.cfg
    counts = {"k": len(ds), "m": cfg.m, "ma": cfg.ma, "mb": cfg.mb, "pilots": ds.pilots,
              "na": cfg.na, "nb": cfg.nb, "seed": cfg.seed}
    for key, value in counts.items():
        if not 0 <= value < 2**32:
            raise ParameterError(f"{key}={value} does not fit the dataset header's u32 field")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        *counts.values(),
        _LINK_CODES[ds.link],
        _CORR_CODES[cfg.corr_h.model],
        _CORR_CODES[cfg.corr_g.model],
        cfg.snr_db,
        cfg.zeta_db,
        cfg.f,
        cfg.corr_h.rho,
        cfg.corr_g.rho,
    )
    write_artifact(path, header, [ds.y, ds.x])


def load_dataset(path: str) -> Dataset:
    """Read an AMBD container back, validating magic, CRC, version, and geometry."""
    fields, payload = read_artifact(path, MAGIC, _HEADER, VERSION, "dataset")
    (k, m, ma, mb, pilots, na, nb, seed, link_code,
     corr_h_code, corr_g_code, snr_db, zeta_db, f, rho_h, rho_g) = fields
    if link_code not in _LINK_NAMES or corr_h_code not in _CORR_NAMES \
            or corr_g_code not in _CORR_NAMES:
        raise FormatError(f"{path}: unknown enum code in header")
    ny = k * ma * mb * pilots
    if payload.size != ny + k * ma * mb:
        raise FormatError(
            f"{path}: expected {ny + k * ma * mb} floats for K={k}, got {payload.size} (truncated?)"
        )
    try:
        cfg = SystemConfig(
            m=m,
            ma=ma,
            mb=mb,
            snr_db=snr_db,
            zeta_db=zeta_db,
            f=f,
            corr_h=CorrelationSpec(model=_CORR_NAMES[corr_h_code], rho=rho_h),
            corr_g=CorrelationSpec(model=_CORR_NAMES[corr_g_code], rho=rho_g),
            na=na,
            nb=nb,
            seed=seed,
        )
        # disjoint views of the file's aligned, writable buffer: no copy
        return Dataset(
            y=payload[:ny].reshape(k, ma, mb, pilots),
            x=payload[ny:].reshape(k, ma, mb),
            cfg=cfg,
            link=_LINK_NAMES[link_code],
        )
    except (ParameterError, ShapeError) as exc:
        raise FormatError(f"{path}: invalid header: {exc}") from exc
