"""Benchmark sweeps (NMSE vs SNR or vs pilot count) and the complexity accounting.

A sweep scores a set of estimators over one axis while holding the rest of the
operating point fixed.  Per point, all methods share the same Monte-Carlo draws (one
spawned seed per point), which removes cross-method sampling noise from the reported
gaps.  Rows are emitted in plan order with a stable CSV schema.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    LINKS,
    SystemConfig,
    link_correlation,
    pilots_for_link,
    simulate_batch,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import generate_dataset
from .errors import ArtifactError, ParameterError
from .estimators import ls_estimate, mmse_estimate_vector, nmse
from .model import DenoiserHyper, ResidualDenoiser, build_model
from .training import TrainOptions, train

METHODS = ("ls", "mmse", "crld")
AXES = ("snr", "pilots")

CSV_HEADER = "link,method,snr_db,p,nmse,ci_half_width,trials"


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep: one axis, the values, the estimators, the links, the budget."""

    axis: str = "snr"
    values: tuple = (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    methods: tuple = ("ls", "mmse")
    links: tuple = ("direct",)
    trials: int = 10_000
    out: str = "nmse_report.csv"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ParameterError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.values:
            raise ParameterError("sweep needs at least one axis value")
        if self.axis == "pilots":
            if any(int(v) != v or v < 1 for v in self.values):
                raise ParameterError("pilot counts must be positive integers")
            object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        else:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ParameterError(f"methods must be a non-empty subset of {METHODS}")
        if not self.links or any(l not in LINKS for l in self.links):
            raise ParameterError(f"links must be a non-empty subset of {LINKS}")
        if self.trials < 100:
            raise ParameterError("trials must be >= 100 for meaningful half-widths")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "links", tuple(self.links))


@dataclass(frozen=True)
class ReportRow:
    link: str
    method: str
    snr_db: float
    p: int
    nmse: float
    ci_half_width: float
    trials: int

    def __post_init__(self):
        if not self.nmse >= 0 or (self.ci_half_width == self.ci_half_width and self.ci_half_width < 0):
            raise ParameterError("nmse and ci_half_width must be non-negative")


@dataclass
class NmseReport:
    rows: list

    def to_csv(self, path: str) -> None:
        """Write the stable schema; equal rows give byte-identical files."""
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.link},{r.method},{r.snr_db!r},{r.p},{r.nmse!r},"
                f"{r.ci_half_width!r},{r.trials}"
            )
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def checkpoint_name(link: str, snr_db: float, pilots: int) -> str:
    """Per-operating-point checkpoint file name convention."""
    return f"crld_{link}_snr{snr_db:+g}dB_p{pilots}.ckpt"


def point_config(cfg: SystemConfig, axis: str, value) -> SystemConfig:
    """The base configuration moved to one sweep point."""
    if axis == "snr":
        return cfg.with_(snr_db=float(value))
    return cfg.with_(na=int(value), nb=int(value))


def _crld_model(
    cfg: SystemConfig,
    link: str,
    checkpoint_dir: str,
    train_missing: bool,
    hyper: DenoiserHyper | None,
    train_opts: TrainOptions | None,
    train_k: int,
    seed: int,
) -> ResidualDenoiser:
    p = pilots_for_link(cfg, link)
    path = os.path.join(checkpoint_dir, checkpoint_name(link, cfg.snr_db, p))
    hyper = replace(hyper or DenoiserHyper(), ma=cfg.ma, mb=cfg.mb, pilots=p)
    if os.path.exists(path):
        model = load_checkpoint(path)
        if model.hyper != hyper:
            raise ArtifactError(
                f"{path} holds a net of shape {model.hyper}, not the requested {hyper}"
            )
        model.eval_mode()
        return model
    if not train_missing:
        raise ArtifactError(
            f"no trained model at {path}; train one first or pass --train"
        )
    if train_opts is None:
        train_opts = TrainOptions()
    ds = generate_dataset(cfg, link, train_k, seed=seed)
    model = build_model(hyper, rng=seed)
    model, _ = train(model, ds, train_opts)
    os.makedirs(checkpoint_dir, exist_ok=True)
    save_checkpoint(model, path)
    model.eval_mode()
    return model


def _score_point(
    cfg: SystemConfig,
    link: str,
    methods: tuple,
    trials: int,
    seed: np.random.SeedSequence,
    checkpoint_dir: str,
    train_missing: bool,
    hyper: DenoiserHyper | None,
    train_opts: TrainOptions | None,
    train_k: int,
) -> list:
    rng = np.random.default_rng(seed)
    p = pilots_for_link(cfg, link)
    y, x = simulate_batch(cfg, link, trials, rng)
    x_vec = x.reshape(trials, -1)
    if "crld" in methods:
        train_seed = int(seed.generate_state(2, dtype=np.uint32)[1])
        model = _crld_model(
            cfg, link, checkpoint_dir, train_missing, hyper, train_opts, train_k, train_seed,
        )
    if "ls" in methods or "mmse" in methods:
        ls = ls_estimate(y)  # the LS row and MMSE's P-sample mean
    rows = []
    for method in methods:
        if method == "ls":
            est = ls
        elif method == "mmse":
            R = link_correlation(cfg, link)
            est = mmse_estimate_vector(ls, R, cfg.sigma_u_sq, p)
        else:
            est = model.predict(y)
        score = nmse(x_vec, est.reshape(trials, -1))
        rows.append(
            ReportRow(
                link=link,
                method=method,
                snr_db=cfg.snr_db,
                p=p,
                nmse=score.value,
                ci_half_width=score.ci_half_width,
                trials=trials,
            )
        )
    return rows


def run_sweep(
    plan: ExperimentPlan,
    cfg: SystemConfig,
    *,
    seed: int = 0,
    checkpoint_dir: str = "checkpoints",
    train_missing: bool = False,
    hyper: DenoiserHyper | None = None,
    train_opts: TrainOptions | None = None,
    train_k: int = 50_000,
    workers: int = 1,
) -> NmseReport:
    """Score every (link, axis value, method) combination; rows come back in plan order.

    Each point gets its own spawned seed, so the report is reproducible under a fixed
    `seed` regardless of worker scheduling.
    """
    points = [(link, v) for link in plan.links for v in plan.values]
    seeds = np.random.SeedSequence(seed).spawn(len(points))

    def job(args):
        (link, value), ss = args
        return _score_point(
            point_config(cfg, plan.axis, value), link, plan.methods, plan.trials,
            ss, checkpoint_dir, train_missing, hyper, train_opts, train_k,
        )

    tasks = list(zip(points, seeds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(job, tasks))
    else:
        per_point = [job(t) for t in tasks]
    rows = [row for point_rows in per_point for row in point_rows]
    return NmseReport(rows=rows)


# ---------------------------------------------------------------------------
# complexity accounting


@dataclass(frozen=True)
class ComplexityRow:
    method: str
    formula: str
    multiplications: int


def crld_multiplications(hyper: DenoiserHyper, m: int) -> int:
    """B * M * sum_l n_{l-1} * s^2 * n_l with n_0 = n_L = P and n_l = filters between."""
    # widths n_0..n_L: P in, filters through the hidden layers, P out of the block
    widths = [hyper.pilots] + [hyper.filters] * (hyper.layers_per_block - 1) + [hyper.pilots]
    s2 = hyper.kernel_size**2
    per_position = sum(widths[i] * s2 * widths[i + 1] for i in range(hyper.layers_per_block))
    return hyper.blocks * m * per_position


def complexity_report(cfg: SystemConfig, hyper: DenoiserHyper) -> list:
    """Per-estimate multiply counts of each method, instantiated at the given geometry."""
    m, p = cfg.m, pilots_for_link(cfg, "direct")
    crld_count = crld_multiplications(hyper, m)
    return [
        ComplexityRow("ls", f"M*P = {m}*{p}", m * p),
        ComplexityRow("mmse", f"P^3 + M*P^2 = {p}^3 + {m}*{p}^2", p**3 + m * p**2),
        ComplexityRow(
            "crld",
            f"B*M*sum(n_(l-1)*s^2*n_l) = {hyper.blocks}*{m}*"
            f"{crld_count // (hyper.blocks * m)}",
            crld_count,
        ),
    ]


def format_complexity(rows: list) -> str:
    lines = [f"{'method':<8}{'multiplications':>18}  formula"]
    for r in rows:
        lines.append(f"{r.method:<8}{r.multiplications:>18}  {r.formula}")
    return "\n".join(lines)
