"""Flat key=value configuration files.

One file describes a whole run: the physical operating point, the sweep plan, and the
training knobs.  Unknown keys are rejected with their line number; an empty file means
all defaults.  `dump_config` emits a file that parses back to identical structures.
"""

import math
from dataclasses import replace

from .channel import DEFAULT_CORR, SystemConfig
from .errors import ConfigError, ParameterError, ShapeError
from .sweep import ExperimentPlan
from .training import TrainOptions


def _parse_list(text: str) -> tuple:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _parse_float_list(text: str) -> tuple:
    return tuple(float(v) for v in _parse_list(text))


# key -> (section, field, caster); "corr" is the CorrelationSpec shared by both links
_KEYS = {
    # operating point
    "m": ("system", "m", int),
    "ma": ("system", "ma", int),
    "mb": ("system", "mb", int),
    "snr_db": ("system", "snr_db", float),
    "zeta_db": ("system", "zeta_db", float),
    "f": ("system", "f", float),
    "corr_model": ("corr", "model", str),
    "rho": ("corr", "rho", float),
    "na": ("system", "na", int),
    "nb": ("system", "nb", int),
    "seed": ("system", "seed", int),
    # sweep plan
    "axis": ("plan", "axis", str),
    "values": ("plan", "values", _parse_float_list),
    "methods": ("plan", "methods", _parse_list),
    "links": ("plan", "links", _parse_list),
    "trials": ("plan", "trials", int),
    "out": ("plan", "out", str),
    # training
    "batch_size": ("train", "batch_size", int),
    "max_epochs": ("train", "max_epochs", int),
    "patience": ("train", "patience", int),
    "val_fraction": ("train", "val_fraction", float),
    "optimizer": ("train", "optimizer", str),
    "learning_rate": ("train", "learning_rate", float),
    "momentum": ("train", "momentum", float),
    "train_seed": ("train", "seed", int),
}


def parse_config_text(text: str, origin: str = "<config>") -> tuple:
    """Parse config text into (SystemConfig, ExperimentPlan, TrainOptions)."""
    sections = {"system": {}, "corr": {}, "plan": {}, "train": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}: expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}: unknown key {key!r}", key=key, line=lineno)
        section, fieldname, cast = _KEYS[key]
        try:
            sections[section][fieldname] = cast(value)
        except ValueError as exc:
            raise ConfigError(
                f"{origin}: bad value for {key!r}: {exc}", key=key, line=lineno
            ) from exc

    system = sections["system"]
    try:
        spec = replace(DEFAULT_CORR, dim=system.get("m", SystemConfig.m), **sections["corr"])
        cfg = SystemConfig(corr_h=spec, corr_g=spec, **system)
        plan = ExperimentPlan(**sections["plan"])
        opts = TrainOptions(**sections["train"])
    except (ParameterError, ShapeError) as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    return cfg, plan, opts


def parse_config(path: str) -> tuple:
    """Read and parse a config file; see parse_config_text.

    A file that cannot be read (missing, a directory, no permission) is a ConfigError.
    """
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    return parse_config_text(text, origin=path)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "-inf" if value < 0 else "inf"
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def dump_config(cfg: SystemConfig, plan: ExperimentPlan, opts: TrainOptions) -> str:
    """Render the three structures as a config file that re-parses identically.

    The file format carries a single correlation model applied to both links, so the
    two correlation specs must agree (they always do for parsed configs).
    """
    if (cfg.corr_h.model, cfg.corr_h.rho) != (cfg.corr_g.model, cfg.corr_g.rho):
        raise ConfigError("config files cannot express differing h/g correlation specs")
    sources = {"system": cfg, "corr": cfg.corr_h, "plan": plan, "train": opts}
    return "".join(
        f"{key}={_fmt(getattr(sources[section], fieldname))}\n"
        for key, (section, fieldname, _) in _KEYS.items()
    )
