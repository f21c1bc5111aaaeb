"""Benchmark for ambcest: three workloads through the package's public API.

    python3 perfbench/run.py --workload train-c7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke                 # every workload at tiny sizes
    python3 perfbench/selftest.py                    # checks this benchmark itself

Workloads (see BENCHMARK.json for why each was chosen):
  train-c7       train() of the acceptance-criterion-7 net on a saved and reloaded dataset
  eval-default   evaluate() of the default net after a checkpoint round trip
  sweep-classic  run_sweep() of LS and MMSE over both links and four SNR points

Each workload runs in a fresh Python process, started by this script with the BLAS
thread variables fixed at min(2, available CPUs).  The package is imported from
`src/` of the checkout this script sits in.  With `--trace 0` the last line reports the
end-to-end metrics; with `--trace 1` it reports per-layer spans summed over a fixed
amount of traced work after the untraced phase, and the tracing overhead against the
untraced phase of the same run.
"""

import argparse
import json
import os
import subprocess
import sys

from bench import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 175  # each run must end within 180 s


def run_child(workload: str, args, env) -> tuple[int, list]:
    """Run one workload in a fresh process; returns (exit code, output lines)."""
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and no minimum run time: every workload in seconds")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.smoke:
        args.seconds = 0
    if not os.path.isfile(os.path.join(ROOT, "src", "ambcest", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src; run from a repo checkout",
              file=sys.stderr)
        return 2

    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, **{v: threads for v in BLAS_THREAD_VARS})
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            code, lines = run_child(name, args, env)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1] if lines else "")
        except json.JSONDecodeError:
            print(f"perfbench: {name} printed no result (exit code {code})", file=sys.stderr)
            return code or 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
