"""Training-set generation and a small binary container for example pairs.

A dataset holds K i.i.d. pairs (Y, X): a noisy pilot tensor and its noiseless channel
matrix label, all drawn at one fixed operating point.  Files carry an "AMBD" magic,
a fixed meta header echoing the generating configuration, the two float64 payload
arrays, and a CRC32 trailer.
"""

import struct
from dataclasses import dataclass

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
    cfg: SystemConfig
    link: str
    seed: int

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


def generate_dataset(
    cfg: SystemConfig, link: str, k: int, seed: int | None = None
) -> Dataset:
    """Draw K i.i.d. examples (fresh channel + fresh noise each) at cfg's operating point.

    The labels are the noiseless channel matrices.  A fixed seed gives a byte-identical
    dataset; seed=None falls back to cfg.seed.
    """
    if k < 1:
        raise ParameterError("need at least one example")
    if seed is None:
        seed = cfg.seed
    rng = np.random.default_rng(seed)
    y, x = simulate_batch(cfg, link, k, rng)
    return Dataset(y=y, x=x, cfg=cfg, link=link, seed=int(seed))


def save_dataset(ds: Dataset, path: str) -> None:
    """Serialize to the AMBD container (little-endian float64 payload, CRC32 trailer)."""
    cfg = ds.cfg
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        len(ds),
        cfg.m,
        cfg.ma,
        cfg.mb,
        ds.pilots,
        cfg.na,
        cfg.nb,
        ds.seed,
        _LINK_CODES[ds.link],
        _CORR_CODES[cfg.corr_h.model],
        _CORR_CODES[cfg.corr_g.model],
        cfg.snr_db,
        cfg.zeta_db,
        cfg.f,
        cfg.corr_h.rho,
        cfg.corr_g.rho,
    )
    write_artifact(path, [
        header,
        np.ascontiguousarray(ds.y, dtype="<f8"),
        np.ascontiguousarray(ds.x, dtype="<f8"),
    ])


def load_dataset(path: str) -> Dataset:
    """Read an AMBD container back, validating magic, CRC, version, and geometry."""
    blob = read_artifact(path, MAGIC, _HEADER.size)
    fields = _HEADER.unpack_from(blob, 0)
    (_, version, k, m, ma, mb, pilots, na, nb, seed, link_code,
     corr_h_code, corr_g_code, snr_db, zeta_db, f, rho_h, rho_g) = fields
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (supported: {VERSION})")
    if link_code not in _LINK_NAMES or corr_h_code not in _CORR_NAMES \
            or corr_g_code not in _CORR_NAMES:
        raise FormatError(f"{path}: unknown enum code in header")
    expected = _HEADER.size + 8 * k * ma * mb * (pilots + 1) + 4
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for K={k}, got {len(blob)} (truncated?)"
        )
    off = _HEADER.size
    ny = 8 * k * ma * mb * pilots
    y = np.frombuffer(blob, dtype="<f8", count=k * ma * mb * pilots, offset=off)
    x = np.frombuffer(blob, dtype="<f8", count=k * ma * mb, offset=off + ny)
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
        return Dataset(
            y=y.reshape(k, ma, mb, pilots).copy(),
            x=x.reshape(k, ma, mb).copy(),
            cfg=cfg,
            link=_LINK_NAMES[link_code],
            seed=seed,
        )
    except (ParameterError, ShapeError) as exc:
        raise FormatError(f"{path}: invalid header: {exc}") from exc
