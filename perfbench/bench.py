"""Run one benchmark workload in this process and print its result.

`run.py` starts this file in a fresh process per workload, with the BLAS thread count
already fixed in the environment.  A run:

1. sets the workload up several times (data generation, dataset or checkpoint I/O,
   model build);
2. runs one warm-up operation;
3. repeats the workload's operation for `--seconds` seconds, one at a time (a closed
   loop with one client), and checks every result.  After each operation it times
   set-ups again for SETUP_SLICE_S; `setup_s` is the median of all set-ups of steps 1
   and 3, so it samples the whole run rather than one moment of a shared host;
4. with `--trace 1`, also measures a GEMM calibration, then runs a fixed amount of work
   (TRACE_SETUPS set-ups and TRACE_OPS operations) with a span timer around the
   package's public functions, and reports per-layer figures summed over that work plus
   the tracing overhead against the step-3 figures.  The amount is fixed rather than
   timed, so a faster layer reads lower and its call count stays the same.

An operation is one timed call into the package plus its correctness check.  The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import reference
from tracer import Tracer

WORKLOAD_NAMES = ("train-c7", "eval-default", "sweep-classic")
MIN_OPS = 3  # a median needs a few operations even when one outlasts --seconds
TRACE_SETUPS, TRACE_OPS = 5, 5  # the fixed work of the traced run
# a set-up of a fraction of a millisecond repeats many times per slice, so it still gets
# a steady median
SETUP_MIN_REPS, SETUP_SLICE_S = 5, 0.1
CALIB_ROWS = 256 * 64  # one 256-example forward chunk on the 8x8 grid
CALIB_DEPTH = 9 * 64  # 3x3 taps over 64 input channels: the im2col row length
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_package():
    """Import `ambcest` from `src/` of this checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ambcest", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {src}/ambcest; run from a repo checkout")
    sys.path.insert(0, src)
    import ambcest
    import ambcest.config  # not re-exported by the package

    if os.path.dirname(os.path.dirname(os.path.abspath(ambcest.__file__))) != os.path.abspath(src):
        raise SystemExit(f"perfbench: imported ambcest from {ambcest.__file__}, not {src}")
    return ambcest


# -- workloads ---------------------------------------------------------------
#
# Each workload exposes: setup() -> state (timed), check_setup(state), prepare(state)
# (untimed oracle work), op(state, i) -> (items, seconds, result), check(state, result)
# -> error text or None, and error_value(result) for the `result_error` metric.


class TrainC7:
    """Train the acceptance-criterion-7 net (B=2, L=4, F=16, P=2) on the direct link."""

    name = "train-c7"
    rate = ("train.examples_per_s", "examples/s")
    error = ("train.final_val_loss", "loss")

    def __init__(self, ab, seed, smoke, workdir):
        self.ab, self.seed = ab, seed
        # val_fraction 0.2 of k leaves 4/5 of k for training, a whole number of batches
        self.k, self.epochs = (320, 1) if smoke else (1280, 2)
        self.cfg = ab.SystemConfig()
        self.hyper = ab.DenoiserHyper(blocks=2, layers_per_block=4, filters=16, ma=8, mb=8, pilots=2)
        # patience >= max_epochs, so early stopping cannot shorten a run
        self.opts = ab.TrainOptions(
            batch_size=128, max_epochs=self.epochs, patience=self.epochs,
            val_fraction=0.2, optimizer="adam", seed=0,
        )
        self.n_train = self.k - round(self.k * self.opts.val_fraction)
        self.path = os.path.join(workdir, "train-c7.ambd")

    def setup(self):
        ab = self.ab
        ds = ab.generate_dataset(self.cfg, "direct", self.k, seed=self.seed)
        ab.save_dataset(ds, self.path)
        return {"generated": ds, "ds": ab.load_dataset(self.path),
                "model": ab.build_model(self.hyper, rng=0)}

    def check_setup(self, state):
        a, b = state["generated"], state["ds"]
        if not (np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)):
            return "dataset changed across save_dataset/load_dataset"
        return None

    def prepare(self, state):
        pass

    def op(self, state, i):
        model = state["model"].clone()
        t0 = time.perf_counter()
        _, history = self.ab.train(model, state["ds"], self.opts)
        return self.epochs * self.n_train, time.perf_counter() - t0, history

    def check(self, state, history):
        best, initial = history.best_val_loss, history.initial_val_loss
        if not np.isfinite(best):
            return f"best validation loss is not finite: {best}"
        if not best < initial:
            return f"best validation loss {best} is not below the initial {initial}"
        return None

    def error_value(self, history):
        return history.best_val_loss


class EvalDefault:
    """Score the default net (B=3, L=8, F=64) on fresh direct-link draws."""

    name = "eval-default"
    rate = ("eval.estimates_per_s", "estimates/s")
    error = ("eval.nmse", "nmse")
    probe_size = 8

    def __init__(self, ab, seed, smoke, workdir):
        self.ab, self.seed = ab, seed
        self.trials = 32 if smoke else 256
        self.cfg = ab.SystemConfig()
        self.hyper = ab.DenoiserHyper()
        self.path = os.path.join(workdir, "eval-default.ckpt")

    def setup(self):
        ab = self.ab
        built = ab.build_model(self.hyper, rng=0)
        ab.save_checkpoint(built, self.path)
        model = ab.load_checkpoint(self.path)
        model.eval_mode()
        return {"built": built, "model": model}

    def check_setup(self, state):
        a, b = state["built"].state_dict(), state["model"].state_dict()
        if a.keys() != b.keys() or not all(np.array_equal(a[k], b[k]) for k in a):
            return "model changed across save_checkpoint/load_checkpoint"
        return None

    def prepare(self, state):
        model = state["model"]
        y, _ = self.ab.simulate_batch(self.cfg, "direct", self.probe_size, np.random.default_rng([self.seed, 1]))
        eps = model.blocks[0].bns[0].eps
        state["probe"] = y
        state["probe_ref"] = reference.reference_forward(model.state_dict(), self.hyper, eps, y)

    def op(self, state, i):
        rng = np.random.default_rng([self.seed, 2, i])
        t0 = time.perf_counter()
        score = self.ab.evaluate(state["model"], self.cfg, "direct", self.trials, rng)
        return self.trials, time.perf_counter() - t0, score

    def check(self, state, score):
        if score.trials != self.trials or not (np.isfinite(score.value) and score.value > 0):
            return f"evaluate returned {score}"
        err = reference.probe_error(state["model"].forward(state["probe"]), state["probe_ref"])
        if not err <= reference.PROBE_RTOL:
            return f"probe batch differs from the float64 reference by {err:.3g} (max {reference.PROBE_RTOL})"
        return None

    def error_value(self, score):
        return score.value


class SweepClassic:
    """LS and MMSE over both links and four SNR points, as `ambcest sweep` runs them."""

    name = "sweep-classic"
    rate = ("sweep.trials_per_s", "trials/s")
    error = ("sweep.mean_nmse", "nmse")

    def __init__(self, ab, seed, smoke, workdir):
        self.ab, self.seed = ab, seed
        trials = 200 if smoke else 20_000
        # the config file a user would pass to `ambcest sweep --config`
        self.text = (
            "snr_db=-6\nzeta_db=-5\nrho=0.9\naxis=snr\nvalues=-10,-4,2,8\n"
            f"methods=ls,mmse\nlinks=direct,composite\ntrials={trials}\n"
        )

    def setup(self):
        cfg, plan, _ = self.ab.config.parse_config_text(self.text)
        return {"cfg": cfg, "plan": plan}

    def check_setup(self, state):
        return None

    def prepare(self, state):
        ab, cfg, plan = self.ab, state["cfg"], state["plan"]
        risks = {}
        for link in plan.links:
            for value in plan.values:
                point = cfg.with_(snr_db=value)
                R = ab.link_correlation(point, link)
                p = ab.channel.pilots_for_link(point, link)
                risks[(link, value)] = reference.analytic_risks(R, point.sigma_u_sq, p)
        state["risks"] = risks

    def op(self, state, i):
        plan = state["plan"]
        seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        t0 = time.perf_counter()
        report = self.ab.run_sweep(plan, state["cfg"], seed=seed)
        points = len(plan.links) * len(plan.values)
        return points * plan.trials, time.perf_counter() - t0, report

    def check(self, state, report):
        plan = state["plan"]
        want = len(plan.links) * len(plan.values) * len(plan.methods)
        if len(report.rows) != want:
            return f"sweep returned {len(report.rows)} rows, expected {want}"
        for row in report.rows:
            risk = state["risks"][(row.link, row.snr_db)][row.method]
            if not abs(row.nmse - risk) <= reference.CI_MULTIPLE * row.ci_half_width:
                return (f"{row.link}/{row.method} at {row.snr_db:+g} dB: NMSE {row.nmse:.5g} vs "
                        f"analytic {risk:.5g}, outside {reference.CI_MULTIPLE:g} x CI {row.ci_half_width:.3g}")
        return None

    def error_value(self, report):
        return statistics.fmean(row.nmse for row in report.rows)


WORKLOADS = {cls.name: cls for cls in (TrainC7, EvalDefault, SweepClassic)}


# -- tracing -------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_forward_counter(args, kwargs, out):
    conv = args[0]
    positions = out.size // conv.out_channels
    depth = conv.kernel_size**2 * conv.in_channels
    return {"calls": 1, "gflop": 2e-9 * positions * conv.out_channels * depth,
            "im2col_bytes": positions * depth * out.dtype.itemsize}


def _conv_backward_counter(args, kwargs, grad_in):
    conv, grad_out = args[0], args[1]
    positions = np.size(grad_out) // conv.out_channels
    depth = conv.kernel_size**2 * conv.in_channels
    # weight gradient and column gradient: two GEMMs the size of the forward one
    return {"calls": 1, "gflop": 4e-9 * positions * conv.out_channels * depth}


def _mmse_counter(args, kwargs, est):
    # after mmse_gain (traced on its own) the call runs one product, y_bar (n, M_in) @
    # G^T (M_in, M_out): M_in * M_out multiplies per estimate.  The P-sample mean that
    # makes y_bar is additions, done by ls_estimate before this call.
    m_in = np.shape(_arg(args, kwargs, 0, "y_bar"))[-1]
    m_out = est.shape[-1]
    estimates = est.size // m_out
    return {"estimates": estimates, "mults": estimates * m_in * m_out}


def _dataset_bytes_counter(args, kwargs, ds):
    return {"calls": 1, "bytes": ds.y.nbytes + ds.x.nbytes}


def _file_bytes_counter(index, name):
    def counter(args, kwargs, result):
        return {"calls": 1, "bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return counter


def make_tracer(ab) -> Tracer:
    L = ab.layers
    return Tracer([
        ("channel.simulate_batch", ab.channel, "simulate_batch", None),
        ("estimators.ls_estimate", ab.estimators, "ls_estimate", None),
        ("estimators.mmse_gain", ab.estimators, "mmse_gain", None),
        ("estimators.mmse_estimate_vector", ab.estimators, "mmse_estimate_vector", _mmse_counter),
        ("estimators.nmse", ab.estimators, "nmse", None),
        ("layers.Conv2D.forward", L.Conv2D, "forward", _conv_forward_counter),
        ("layers.Conv2D.backward", L.Conv2D, "backward", _conv_backward_counter),
        ("layers.BatchNorm2D.forward", L.BatchNorm2D, "forward", None),
        ("layers.BatchNorm2D.backward", L.BatchNorm2D, "backward", None),
        ("layers.ReLU.forward", L.ReLU, "forward", None),
        ("layers.ReLU.backward", L.ReLU, "backward", None),
        ("layers.mse_loss", L, "mse_loss", None),
        ("model.ResidualDenoiser.forward", ab.model.ResidualDenoiser, "forward", None),
        ("model.ResidualDenoiser.backward", ab.model.ResidualDenoiser, "backward", None),
        ("optim.Adam.step", ab.optim.Adam, "step", None),
        ("training.train", ab.training, "train", None),
        ("training.evaluate", ab.training, "evaluate", None),
        ("dataset.generate_dataset", ab.dataset, "generate_dataset", _dataset_bytes_counter),
        ("dataset.save_dataset", ab.dataset, "save_dataset", _file_bytes_counter(1, "path")),
        ("dataset.load_dataset", ab.dataset, "load_dataset", _file_bytes_counter(0, "path")),
        ("checkpoint.save_checkpoint", ab.checkpoint, "save_checkpoint", _file_bytes_counter(1, "path")),
        ("checkpoint.load_checkpoint", ab.checkpoint, "load_checkpoint", _file_bytes_counter(0, "path")),
        ("sweep.run_sweep", ab.sweep, "run_sweep", None),
    ])


def gemm_gflops(reps: int) -> float:
    """Achieved GFLOP/s of one float64 matmul at the 64-channel im2col shape."""
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((CALIB_ROWS, CALIB_DEPTH))
    wmat = rng.standard_normal((64, CALIB_DEPTH))
    cols @ wmat.T  # let BLAS start its threads before timing
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        cols @ wmat.T
        times.append(time.perf_counter() - t0)
    return 2e-9 * CALIB_ROWS * CALIB_DEPTH * 64 / statistics.median(times)


def per_layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer figure of the traced work, as name -> (value, unit)."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.count"] = (st["count"], "count")
        out[f"{name}.total_s"] = (st["total_s"], "s")
        out[f"{name}.self_s"] = (st["self_s"], "s")

    def per_call(name, key):
        extra = tracer.extra[name]
        return extra.get(key, 0) / extra["calls"] if extra.get("calls") else 0.0

    fwd, bwd = "layers.Conv2D.forward", "layers.Conv2D.backward"
    fwd_s = tracer.stats[fwd]["total_s"]
    out[f"{fwd}.computed_gflop_per_call"] = (per_call(fwd, "gflop"), "GFLOP")
    out[f"{fwd}.computed_im2col_bytes_per_call"] = (per_call(fwd, "im2col_bytes"), "bytes")
    out[f"{fwd}.gflops"] = (tracer.extra[fwd].get("gflop", 0) / fwd_s if fwd_s else 0.0, "GFLOP/s")
    out[f"{bwd}.computed_gflop_per_call"] = (per_call(bwd, "gflop"), "GFLOP")
    for name in ("dataset.generate_dataset", "dataset.save_dataset", "dataset.load_dataset",
                 "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        out[f"{name}.bytes_per_call"] = (per_call(name, "bytes"), "bytes")
    mm = tracer.extra["estimators.mmse_estimate_vector"]
    out["estimators.mmse.mults_per_estimate"] = (
        mm["mults"] / mm["estimates"] if mm.get("estimates") else 0, "count")
    return out


# -- the run -------------------------------------------------------------------


def environment(seed: int) -> dict:
    """Where and with what the result was measured (metadata, not metrics)."""

    def blas(mod):
        try:
            dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src", "ambcest")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "src_ambcest_lines": lines,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setups(wl, min_reps, seconds, times):
    """Set `wl` up at least `min_reps` times and for `seconds`; returns the last state."""
    end = time.perf_counter() + seconds
    reps = 0
    while reps < min_reps or time.perf_counter() < end:
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        reps += 1
    return state


class Run:
    """Operation bookkeeping shared by the phases of one run."""

    def __init__(self, workload, state, setup_times):
        self.wl, self.state = workload, state
        self.setup_times = setup_times
        self.attempted = 0
        self.failures = []

    def operate(self, i, tracer=None):
        """One operation: the timed call (traced if a tracer is given) and its check."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            items, seconds, result = self.wl.op(self.state, i)
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            problem = self.wl.check(self.state, result)
        except Exception as exc:  # e.g. the probe forward raising on a corrupt model
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"op {i}: {problem}")
            return None
        return items / seconds, self.wl.error_value(result)

    def phase(self, first, seconds, tracer=None, min_ops=MIN_OPS, setup_slice=None):
        """Closed loop for `seconds` and at least `min_ops` operations; with `setup_slice`,
        set-ups are timed for that long (at least once) after each operation."""
        rates, errors = [], []
        end = time.perf_counter() + seconds
        i = first
        while i - first < min_ops or time.perf_counter() < end:
            done = self.operate(i, tracer)
            if done is not None:
                rates.append(done[0])
                errors.append(done[1])
            if setup_slice is not None:
                time_setups(self.wl, 1, setup_slice, self.setup_times)
            i += 1
        return rates, errors, i


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(ab, name, seed, seconds, trace, smoke, out=print):
    """Run one workload; returns the result dict printed as the last line."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(ab, WORKLOADS[name](ab, seed, smoke, workdir), seed, seconds, trace, smoke, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(ab, wl, seed, seconds, trace, smoke, out):
    out(f"perfbench workload={wl.name} seed={seed} seconds={seconds} trace={int(trace)} smoke={int(smoke)}")
    out("env " + json.dumps(environment(seed), sort_keys=True))

    setup_times = []
    state = time_setups(wl, SETUP_MIN_REPS, 0.0, setup_times)
    run = Run(wl, state, setup_times)
    run.attempted += 1  # the set-up round trip counts as one operation
    problem = wl.check_setup(state)
    if problem:
        run.failures.append(f"setup: {problem}")
    wl.prepare(state)

    run.operate(0)  # warm-up: checked and counted, not timed
    rates, errors, next_op = run.phase(1, seconds, setup_slice=0.0 if smoke else SETUP_SLICE_S)
    if not rates:
        rates, errors = [float("nan")], [float("nan")]
    setup_s = statistics.median(setup_times)
    items_per_s = statistics.median(rates)
    result_error = statistics.median(errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        calib = gemm_gflops(3 if smoke else 15)
        tracer = make_tracer(ab)
        tracer.install()
        try:
            for _ in range(TRACE_SETUPS):
                wl.setup()
        finally:
            tracer.uninstall()
        t_rates, _, _ = run.phase(next_op, 0, tracer, min_ops=TRACE_OPS)
        traced = statistics.median(t_rates) if t_rates else float("nan")
        metrics = per_layer_metrics(tracer)
        metrics["calib.gemm_gflops"] = (calib, "GFLOP/s")
        metrics["trace.untraced_items_per_s"] = (items_per_s, "items/s")
        metrics["trace.traced_items_per_s"] = (traced, "items/s")
        metrics["trace.overhead_pct"] = (100.0 * (items_per_s - traced) / items_per_s, "%")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (items_per_s, "items/s"),
            "result_error": (result_error, "loss"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    failed = len(run.failures)
    q1, q3 = _quartiles(rates)
    e_q1, e_q3 = _quartiles(errors)
    s_q1, s_q3 = _quartiles(setup_times)
    out(f"  setup_s = {_fmt(setup_s)} s  (median of {len(setup_times)} set-ups; quartiles {_fmt(s_q1)}, {_fmt(s_q3)})")
    out(f"  {wl.rate[0]} = {_fmt(items_per_s)} {wl.rate[1]}  (median of {len(rates)} ops; "
        f"quartiles {_fmt(q1)}, {_fmt(q3)}; reported as items_per_s)")
    out(f"  {wl.error[0]} = {_fmt(result_error)} {wl.error[1]}  (median of {len(errors)} ops; "
        f"quartiles {_fmt(e_q1)}, {_fmt(e_q3)}; reported as result_error)")
    out(f"  peak_rss_mb = {_fmt(peak_rss_mb)} MiB")
    out(f"  ops_failed_frac = {_fmt(failed / run.attempted)} ratio  ({failed} of {run.attempted} operations)")
    if trace:
        out(f"  per-layer (sums over {TRACE_SETUPS} traced set-ups and {TRACE_OPS} traced operations; "
            "gflop, im2col and mults figures are computed from shapes):")
        for key, (value, unit) in metrics.items():
            out(f"    {key} = {_fmt(value)} {unit}")
    for failure in run.failures:
        out(f"  FAILED {failure}")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    ab = load_package()
    result = run_workload(ab, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
