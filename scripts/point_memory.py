"""Tracemalloc peaks of the Monte-Carlo paths at the default operating point (P = 2, M = 64).

    python3 scripts/point_memory.py [TRIALS]

Runs each path once on TRIALS trials (default 20,000) with the package of the checkout
this script sits in, and prints the peak of the memory that Python allocated during the
call, in MiB: simulate_batch on the direct link, nmse of its truth against a zero
estimate (inputs excluded), an LS + MMSE sweep point on each link (its draws included),
the sweep-classic plan through run_sweep (LS and MMSE over both links and the SNRs
-10, -4, 2 and 8 dB; its drawer thread holds the next point's truths), evaluate of the
default net (B=3, L=8, F=64, seeded weights), and load_checkpoint of that net (its file
buffer, which the loaded net's state vector is a view of).  README quotes one set of
these peaks; the docstrings of those functions state each bound in words.  The
process's resident size is larger: it adds the interpreter, numpy, BLAS and the
allocator's slack.
"""

import argparse
import os
import sys
import tempfile
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ambcest import (  # noqa: E402
    DenoiserHyper,
    ExperimentPlan,
    SystemConfig,
    build_model,
    evaluate,
    load_checkpoint,
    nmse,
    run_sweep,
    save_checkpoint,
    simulate_batch,
)
from ambcest.sweep import _draw_point, _score_point  # noqa: E402

MIB = 2**20


def score_point(cfg: SystemConfig, link: str, trials: int) -> list:
    """An LS + MMSE sweep point, drawn as run_sweep draws it."""
    seed = np.random.SeedSequence(0)
    return _score_point(cfg, link, ("ls", "mmse"), _draw_point(cfg, link, trials, seed), None)


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc reads while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peaks(trials: int) -> dict[str, int]:
    """Each path's name and tracemalloc peak in bytes."""
    cfg = SystemConfig()
    rng = np.random.default_rng
    _, x = simulate_batch(cfg, "direct", trials, rng(0))
    x = x.reshape(trials, -1)
    zero = np.zeros_like(x)
    out = {
        "simulate_batch": traced_peak(simulate_batch, cfg, "direct", trials, rng(0)),
        "nmse": traced_peak(nmse, x, zero),
    }
    del x, zero
    for link in ("direct", "composite"):
        out[f"sweep point ls+mmse {link}"] = traced_peak(score_point, cfg, link, trials)
    plan = ExperimentPlan(values=(-10, -4, 2, 8), links=("direct", "composite"), trials=trials)
    out["sweep-classic plan run_sweep"] = traced_peak(run_sweep, plan, cfg)
    model = build_model(DenoiserHyper(), rng=0).eval_mode()
    out["evaluate default net"] = traced_peak(evaluate, model, cfg, "direct", trials, rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(model, os.path.join(tmp, "default.ckpt"))
        del model
        out["load_checkpoint default net"] = traced_peak(load_checkpoint, os.path.join(tmp, "default.ckpt"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trials", nargs="?", type=int, default=20_000)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("TRIALS must be >= 1")
    print(f"trials={args.trials}")
    for name, peak in peaks(args.trials).items():
        print(f"{name:<32}{peak / MIB:6.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
