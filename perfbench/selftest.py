"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload in smoke mode, untraced and traced, and checks that each metric
   appears with its unit, both in the printed report (under the names users read) and
   in the JSON last line (exactly the metrics BENCHMARK.json lists).
2. Corrupts each workload's output in turn and checks that its correctness check fires
   and that the run then reports itself as failed.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and perfbench/,
   where it must exit non-zero without printing a result.

Exits 0 when every check passes; prints each failed check otherwise.
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402
import reference  # noqa: E402

# the names users read in the printed report, per workload
REPORTED = {
    "train-c7": {"train.examples_per_s": "examples/s", "train.final_val_loss": "loss"},
    "eval-default": {"eval.estimates_per_s": "estimates/s"},
    "sweep-classic": {"sweep.trials_per_s": "trials/s"},
}
REPORTED_ALL = {"setup_s": "s", "peak_rss_mb": "MiB", "ops_failed_frac": "ratio"}

# per-layer counts that must be non-zero on the workload that exercises the layer
EXERCISED = {
    "train-c7": ("layers.Conv2D.backward", "layers.BatchNorm2D.backward", "layers.ReLU.backward",
                 "layers.mse_loss", "optim.Adam.step", "training.train", "dataset.generate_dataset",
                 "dataset.save_dataset", "dataset.load_dataset"),
    "eval-default": ("layers.Conv2D.forward", "training.evaluate", "checkpoint.save_checkpoint",
                     "checkpoint.load_checkpoint", "channel.simulate_batch", "estimators.nmse"),
    "sweep-classic": ("sweep.run_sweep", "estimators.ls_estimate", "estimators.mmse_gain",
                      "estimators.mmse_estimate_vector", "estimators.nmse", "channel.simulate_batch"),
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_cli(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in bench.WORKLOAD_NAMES:
            proc = run_cli(["--workload", name, "--seed", "3", "--trace", str(trace), "--smoke"])
            lines = proc.stdout.splitlines()
            tag = f"{name} trace={trace}"
            expect(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 ({proc.returncode})")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct, none failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{tag}: metrics and units match BENCHMARK.json {section}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{tag}: every value a finite number")
            text = "\n".join(lines[:-1])
            for metric, unit in {**REPORTED_ALL, **REPORTED[name]}.items():
                pattern = rf"^\s+{re.escape(metric)} = \S+ {re.escape(unit)}(\s|$)"
                expect(re.search(pattern, text, re.M) is not None, f"{tag}: prints {metric} in {unit}")
            expect(re.search(r"^env \{.*\"git_commit\".*\"seed\": 3", text, re.M) is not None,
                   f"{tag}: records the environment")
            if trace:
                m = result["metrics"]
                for layer in EXERCISED[name]:
                    expect(m[f"{layer}.count"]["value"] > 0 and m[f"{layer}.self_s"]["value"] > 0,
                           f"{tag}: traces {layer}")


def corrupted_run(ab, name, patch):
    """Run one smoke workload in-process with `patch` applied; returns the result."""
    owner, attr, make = patch
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        return bench.run_workload(ab, name, 5, 0, False, True, out=lambda line: None)
    finally:
        setattr(owner, attr, original)


def check_corruption_fires():
    ab = bench.load_package()

    def noisy_forward(forward):
        def wrapped(self, x):
            out = forward(self, x)
            return out * (1.0 + 1e-2 * np.sin(np.arange(out.size)).reshape(out.shape))
        return wrapped

    def mmse_is_ls(estimate):
        return lambda y_bar, R, sigma_u_sq, pilots: np.array(y_bar, dtype=float)

    def ascent_step(step):
        def wrapped(self, params, grads):
            for name, p in params.items():
                p += 1e-2 * grads[name]
        return wrapped

    cases = {
        "eval-default": (ab.layers.Conv2D, "forward", noisy_forward),
        "sweep-classic": (ab.sweep, "mmse_estimate_vector", mmse_is_ls),
        "train-c7": (ab.optim.Adam, "step", ascent_step),
    }
    for name, patch in cases.items():
        result = corrupted_run(ab, name, patch)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: corrupted output fails the run ({result['failed']} of {result['attempted']} ops)")

    # the probe tolerance admits a float32 forward pass and rejects a 1e-2 error
    hyper = ab.DenoiserHyper()
    model = ab.build_model(hyper, rng=0).eval_mode()
    y, _ = ab.simulate_batch(ab.SystemConfig(), "direct", 4, np.random.default_rng(0))
    eps = model.blocks[0].bns[0].eps
    ref = reference.reference_forward(model.state_dict(), hyper, eps, y)
    err32 = reference.probe_error(reference.reference_forward(model.state_dict(), hyper, eps, y, np.float32), ref)
    expect(err32 <= reference.PROBE_RTOL / 10, f"float32 forward passes the probe tolerance with 10x room ({err32:.2g})")
    expect(reference.probe_error(model.forward(y), ref) <= 1e-12, "package forward matches the reference")
    expect(reference.probe_error(ref * 1.01, ref) > reference.PROBE_RTOL, "a 1% error fails the probe")

    # a sweep row just outside CI_MULTIPLE half-widths of the analytic risk fails
    wl = bench.WORKLOADS["sweep-classic"](ab, 5, True, ROOT)
    state = wl.setup()
    wl.prepare(state)
    _, _, report = wl.op(state, 0)
    expect(wl.check(state, report) is None, "sweep-classic: a clean report passes")
    row = report.rows[1]
    risk = state["risks"][(row.link, row.snr_db)][row.method]
    off = risk + 1.01 * reference.CI_MULTIPLE * row.ci_half_width
    report.rows[1] = dataclasses.replace(row, nmse=off)
    expect(wl.check(state, report) is not None, "sweep-classic: one row off the analytic risk fails")


def check_empty_checkout():
    empty = os.path.join(ROOT, ".perfbench_work", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli(["--workload", "train-c7", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=empty)
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               f"without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def main() -> int:
    check_names_and_units()
    check_corruption_fires()
    check_empty_checkout()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
