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
    check_counts,
    draw_truths,
    link_correlation,
    pilots_for_link,
    sliced_matmul,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import generate_dataset
from .errors import ArtifactError, ParameterError
from .estimators import ls_estimate, mmse_estimate_vector, nmse_streamed
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
            check_counts(values=max(self.values))
        else:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ParameterError(f"methods must be a non-empty subset of {METHODS}")
        if not self.links or any(l not in LINKS for l in self.links):
            raise ParameterError(f"links must be a non-empty subset of {LINKS}")
        if self.trials < 100:
            raise ParameterError("trials must be >= 100 for meaningful half-widths")
        check_counts(trials=self.trials)
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


def checkpoint_name(cfg: SystemConfig, link: str) -> str:
    """Per-operating-point checkpoint file name: the link, cfg's SNR (-0 dB as +0) and the link's pilot count."""
    return f"crld_{link}_snr{cfg.snr_db + 0.0:+g}dB_p{pilots_for_link(cfg, link)}.ckpt"


def point_config(cfg: SystemConfig, axis: str, value) -> SystemConfig:
    """The base configuration moved to one sweep point."""
    if axis == "snr":
        return cfg.with_(snr_db=float(value))
    return cfg.with_(na=int(value), nb=int(value))


def _crld_model(
    cfg: SystemConfig,
    link: str,
    seed: np.random.SeedSequence,
    *,
    checkpoint_dir: str,
    train_missing: bool,
    hyper: DenoiserHyper,
    train_opts: TrainOptions,
    train_k: int,
) -> ResidualDenoiser:
    """One point's eval-mode CRLD net: its checkpoint, or with train_missing a net trained
    on a dataset drawn from the point's seed and saved under the checkpoint's name."""
    path = os.path.join(checkpoint_dir, checkpoint_name(cfg, link))
    hyper = replace(hyper, ma=cfg.ma, mb=cfg.mb, pilots=pilots_for_link(cfg, link))
    if os.path.exists(path):
        model = load_checkpoint(path)
        if model.hyper != hyper:
            raise ArtifactError(
                f"{path} holds a net of shape {model.hyper}, not the requested {hyper}"
            )
        return model
    if not train_missing:
        raise ArtifactError(
            f"no trained model at {path}; train one first or pass --train"
        )
    train_seed = int(seed.generate_state(2, dtype=np.uint32)[1])
    ds = generate_dataset(cfg, link, train_k, seed=train_seed)
    model = build_model(hyper, rng=train_seed)
    model, _ = train(model, ds, train_opts)
    os.makedirs(checkpoint_dir, exist_ok=True)
    save_checkpoint(model, path)
    return model


def _draw_point(cfg: SystemConfig, link: str, trials: int, seed: np.random.SeedSequence) -> tuple:
    """A point's truth blocks (draw_truths) and the generator that drew them, which goes
    on to draw the point's noise."""
    rng = np.random.default_rng(seed)
    return draw_truths(cfg, link, trials, rng), rng


def _score_point(
    cfg: SystemConfig,
    link: str,
    methods: tuple,
    drawn: tuple,
    model: ResidualDenoiser | None,
) -> list:
    """One point's rows from its _draw_point; `model` is the eval-mode CRLD net, or None
    when crld is not scored.

    The methods score the same draws one trial block at a time (nmse_streamed): LS once
    per block, MMSE as that block's LS times the point's Wiener map, and CRLD as the
    net's prediction.  A point holds its truths, a few floats per trial and a few trial
    blocks, never the observations or a full estimate.
    """
    p = pilots_for_link(cfg, link)
    if "mmse" in methods:
        # the Wiener map G^T, once per point: the MMSE estimates of the identity's rows
        # are G^T's rows, exactly.  It comes from the one estimator that perfbench's
        # self-test corrupts and traces.
        gain_t = mmse_estimate_vector(np.eye(cfg.m), link_correlation(cfg, link), cfg.sigma_u_sq, p)

    def estimate(y):
        if "crld" in methods:  # first, so that predict runs while no other estimate is held
            yield "crld", model.predict(y)
        if "ls" in methods or "mmse" in methods:
            ls = ls_estimate(y)  # the LS row and MMSE's P-sample mean
            if "ls" in methods:
                yield "ls", ls
            if "mmse" in methods:
                mmse = sliced_matmul(ls, gain_t)
                del ls  # not held while MMSE's errors are formed
                yield "mmse", mmse

    truths, rng = drawn
    scores = nmse_streamed(cfg, link, truths, rng, estimate)
    return [
        ReportRow(
            link=link,
            method=method,
            snr_db=cfg.snr_db,
            p=p,
            nmse=scores[method].value,
            ci_half_width=scores[method].ci_half_width,
            trials=scores[method].trials,
        )
        for method in methods
    ]


def run_sweep(
    plan: ExperimentPlan,
    cfg: SystemConfig,
    *,
    seed: int = 0,
    checkpoint_dir: str = "checkpoints",
    train_missing: bool = False,
    hyper: DenoiserHyper = DenoiserHyper(),
    train_opts: TrainOptions = TrainOptions(),
    train_k: int = 50_000,
    workers: int = 1,
) -> NmseReport:
    """Score every (link, axis value, method) combination; rows come back in plan order.

    Each point gets its own spawned seed, so the report is reproducible under a fixed
    `seed` regardless of worker scheduling.  With one worker, a drawer thread draws the
    truths of the next point while this thread scores the current one, so at most two
    points' truths are held.  With more workers, each draws and scores its own points.
    Either way, each point's draws come from its own generator in the same order, so
    the rows do not depend on `workers`.  An error is raised in plan order.

    A plan that scores crld with two points of one checkpoint name (a repeated value, or
    two SNRs equal under checkpoint_name's %+g) is refused before any draw: the points
    would share one net, trained by whichever point came first.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    points = [(link, v) for link in plan.links for v in plan.values]
    named = {}
    for link, value in points if "crld" in plan.methods else ():
        name = checkpoint_name(point_config(cfg, plan.axis, value), link)
        if name in named:
            raise ParameterError(f"{plan.axis} values {named[name]!r} and {value!r} of the {link} link "
                                 f"share the checkpoint name {name}")
        named[name] = value
    tasks = list(zip(points, np.random.SeedSequence(seed).spawn(len(points))))

    def draw(task):
        (link, value), ss = task
        cfg_point = point_config(cfg, plan.axis, value)
        return cfg_point, _draw_point(cfg_point, link, plan.trials, ss)

    def score(task, drawn):
        (link, _), ss = task
        cfg_point, point = drawn
        model = None
        if "crld" in plan.methods:
            model = _crld_model(cfg_point, link, ss, checkpoint_dir=checkpoint_dir, train_missing=train_missing,
                                hyper=hyper, train_opts=train_opts, train_k=train_k)
        return _score_point(cfg_point, link, plan.methods, point, model)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(lambda task: score(task, draw(task)), tasks))
    else:
        per_point = []
        with ThreadPoolExecutor(max_workers=1) as drawer:
            ahead = drawer.submit(draw, tasks[0])
            for k, task in enumerate(tasks):
                drawn = ahead.result()
                if k + 1 < len(tasks):
                    ahead = drawer.submit(draw, tasks[k + 1])
                per_point.append(score(task, drawn))
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
