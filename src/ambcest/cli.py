"""Command-line front end: dataset generation, training, evaluation, sweeps, linear
analysis, and complexity accounting, each invocable on its own.

Exit codes: 0 success, 2 configuration error (an unreadable config file too), 3 missing
or corrupt artifact or any other file that cannot be read or written, 4 numeric failure.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import extract_effective_map, map_distance, mmse_weight_target
from .channel import LINK_DIRECT, LINKS, SystemConfig, check_counts, link_correlation, pilots_for_link
from .checkpoint import load_checkpoint, save_checkpoint
from .config import parse_config
from .dataset import generate_dataset, load_dataset, save_dataset
from .errors import AmbcestError, FormatError, NumericError, ParameterError
from .estimators import MmseContext, column_correlation
from .model import RECON_KINDS, DenoiserHyper, build_model
from .sweep import (
    ExperimentPlan,
    checkpoint_name,
    complexity_report,
    format_complexity,
    run_sweep,
)
from .training import TrainOptions, evaluate, train


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override the config seed")


def _add_hyper(parser: argparse.ArgumentParser) -> None:
    d = DenoiserHyper  # its class attributes are the field defaults
    for flag, default, what in (
        ("--blocks", d.blocks, "denoising blocks"),
        ("--layers-per-block", d.layers_per_block, "conv layers per block"),
        ("--filters", d.filters, "feature maps"),
        ("--kernel-size", d.kernel_size, "conv kernel size"),
    ):
        parser.add_argument(flag, type=int, default=default, help=f"{what} (default %(default)s)")
    parser.add_argument(
        "--recon", choices=RECON_KINDS, default=d.recon,
        help="reconstruction layer kind (default %(default)s)",
    )


def _load_run(args) -> tuple:
    """Config triple with CLI overrides applied."""
    if args.config is not None:
        cfg, plan, opts = parse_config(args.config)
    else:
        cfg, plan, opts = SystemConfig(), ExperimentPlan(), TrainOptions()
    if args.seed is not None:
        cfg = cfg.with_(seed=args.seed)
        opts = replace(opts, seed=args.seed)
    return cfg, plan, opts


def _hyper_from(args, ma: int, mb: int, pilots: int) -> DenoiserHyper:
    check_counts(**{"--blocks": args.blocks, "--layers-per-block": args.layers_per_block,
                    "--filters": args.filters, "--kernel-size": args.kernel_size})
    return DenoiserHyper(
        blocks=args.blocks,
        layers_per_block=args.layers_per_block,
        filters=args.filters,
        ma=ma,
        mb=mb,
        pilots=pilots,
        kernel_size=args.kernel_size,
        recon=args.recon,
    )


def _load_for_link(args, cfg: SystemConfig):
    """The checkpoint at args.checkpoint, refused unless its net reads cfg's (ma, mb) and args.link's P."""
    model = load_checkpoint(args.checkpoint)
    hp = model.hyper
    got, want = (hp.ma, hp.mb, hp.pilots), (cfg.ma, cfg.mb, pilots_for_link(cfg, args.link))
    if got != want:
        raise ParameterError(f"checkpoint {args.checkpoint} holds a net for (ma, mb, P) = {got}, "
                             f"but the config and --link {args.link} give {want}")
    return model


def cmd_gen_data(args) -> int:
    cfg, _, _ = _load_run(args)
    check_counts(k=args.k, seed=cfg.seed)  # both go in u32 header fields: refuse before the draw
    ds = generate_dataset(cfg, args.link, args.k, seed=cfg.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} examples, link={ds.link}, P={ds.pilots}")
    return 0


def cmd_train(args) -> int:
    cfg, _, opts = _load_run(args)
    ds = load_dataset(args.data)
    hyper = _hyper_from(args, ds.cfg.ma, ds.cfg.mb, ds.pilots)
    model = build_model(hyper, rng=opts.seed)
    model, history = train(model, ds, opts)
    out = args.out
    if out is None:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
        out = os.path.join(args.checkpoint_dir, checkpoint_name(ds.cfg, ds.link))
    save_checkpoint(model, out)
    if args.history:
        history.to_csv(args.history)
    print(
        f"wrote {out}: best val loss {history.best_val_loss:.6g} "
        f"(epoch {history.best_epoch}/{history.stopped_epoch})"
    )
    return 0


def cmd_eval(args) -> int:
    cfg, _, _ = _load_run(args)
    check_counts(trials=args.trials)
    model = _load_for_link(args, cfg)
    score = evaluate(model, cfg, args.link, args.trials, np.random.default_rng(cfg.seed))
    print(
        f"link={args.link} nmse={score.value:.6g} ({score.to_db():+.2f} dB) "
        f"ci_half_width={score.ci_half_width:.3g} trials={score.trials}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, plan, opts = _load_run(args)
    check_counts(train_k=args.train_k)
    plan = replace(plan, **{k: getattr(args, k) for k in ("trials", "out") if getattr(args, k) is not None})
    hyper = _hyper_from(args, cfg.ma, cfg.mb, pilots_for_link(cfg, LINK_DIRECT))
    report = run_sweep(
        plan,
        cfg,
        seed=cfg.seed,
        checkpoint_dir=args.checkpoint_dir,
        train_missing=args.train,
        hyper=hyper,
        train_opts=opts,
        train_k=args.train_k,
        workers=args.workers,
    )
    report.to_csv(plan.out)
    print(f"wrote {plan.out}: {len(report.rows)} rows")
    return 0


def cmd_analyze(args) -> int:
    cfg, _, _ = _load_run(args)
    model = _load_for_link(args, cfg)
    model.analysis = True
    learned = extract_effective_map(model)
    p = pilots_for_link(cfg, args.link)
    r_x = column_correlation(link_correlation(cfg, args.link), cfg.ma, cfg.mb)
    ctx = MmseContext(
        r_x=r_x, sigma_u_sq=cfg.sigma_u_sq, ma=cfg.ma, mb=cfg.mb, pilots=p
    )
    target = mmse_weight_target(ctx)
    if learned.regime != target.regime:
        target = target.as_full()
    dist = map_distance(
        learned, target, cfg, args.link,
        trials=10_000, rng=np.random.default_rng(cfg.seed),  # fixed: no sweep key steers it
    )
    print(f"regime: {learned.regime}")
    print(f"relative Frobenius distance to optimal weights: {dist.frobenius_rel:.6g}")
    print(f"nmse(learned map):  {dist.nmse_learned:.6g}")
    print(f"nmse(optimal map):  {dist.nmse_target:.6g}")
    print(f"nmse gap:           {dist.nmse_gap:+.6g}")
    return 0


def cmd_complexity(args) -> int:
    cfg, _, _ = _load_run(args)
    hyper = _hyper_from(args, cfg.ma, cfg.mb, pilots_for_link(cfg, LINK_DIRECT))
    print(format_complexity(complexity_report(cfg, hyper)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambcest",
        description="Channel-estimation workbench for ambient backscatter links: "
        "LS / MMSE baselines and a trainable residual denoiser.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a training dataset file")
    _add_common(p)
    p.add_argument("--link", choices=LINKS, default=LINK_DIRECT)
    p.add_argument("--k", type=int, default=50_000, help="number of examples")
    p.add_argument("--out", default="dataset.ambd", metavar="PATH")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train a denoiser on a dataset file")
    _add_common(p)
    _add_hyper(p)
    p.add_argument("--data", required=True, metavar="PATH", help="dataset file")
    p.add_argument("--out", metavar="PATH", help="checkpoint path (default: convention)")
    p.add_argument("--checkpoint-dir", default="checkpoints", metavar="PATH")
    p.add_argument("--history", metavar="PATH", help="write per-epoch loss CSV here")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a trained checkpoint on fresh draws")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--link", choices=LINKS, default=LINK_DIRECT)
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="NMSE benchmark sweep over SNR or pilot count")
    _add_common(p)
    _add_hyper(p)
    p.add_argument("--trials", type=int, metavar="N", help="override plan trials")
    p.add_argument("--out", metavar="PATH", help="override plan output CSV")
    p.add_argument("--checkpoint-dir", default="checkpoints", metavar="PATH")
    p.add_argument("--train", action="store_true", help="train missing checkpoints")
    p.add_argument("--train-k", type=int, default=50_000, help="examples when training")
    p.add_argument("--workers", type=int, default=1, help="thread workers across points")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("analyze", help="compare a checkpoint's linearized map to optimal")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--link", choices=LINKS, default=LINK_DIRECT)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("complexity", help="per-estimate multiply counts")
    _add_common(p)
    _add_hyper(p)
    p.set_defaults(handler=cmd_complexity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, OSError) as exc:  # OSError includes ArtifactError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AmbcestError, MemoryError) as exc:  # a count below 2**32 can still need more memory than the host has
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
