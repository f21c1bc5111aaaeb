"""Golden pipeline: a small fixed-seed CLI run whose files pin the package's numbers.

    python3 scripts/golden.py [--blas-threads N] CHECKOUT [OUTDIR]

Runs the pipeline with CHECKOUT's src/ on the import path and prints the sha256 of
every file it writes; run it on two checkouts and compare the lists.  OUTDIR (default:
a new temporary directory) receives the files.  BLAS runs on N threads (default 1, so
the float results do not depend on the machine's core count); the same hashes at
--blas-threads 1 and 2 show that they do not depend on the thread count either.  The
pipeline draws a dataset (gen-data), trains on it with a per-epoch history (train
--history), sweeps LS, MMSE and CRLD over two SNR points and both links, training the
four CRLD checkpoints (sweep --train), sweeps again reusing those checkpoints
(sweep_reuse.csv), and scores two of them (eval, one per link; stdout is kept as
eval_*.txt).  tests/test_golden.py runs the same pipeline through run() and checks its
files against recorded values.
"""

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

CONFIG = """\
m=16
ma=4
mb=4
snr_db=0
zeta_db=-5
rho=0.9
axis=snr
values=-4,4
methods=ls,mmse,crld
links=direct,composite
trials=1000
batch_size=64
max_epochs=3
patience=3
seed=7
"""

NET = ("--blocks", "1", "--layers-per-block", "2", "--filters", "4")

# (CLI arguments, file that receives stdout or None)
COMMANDS = (
    (("gen-data", "--config", "golden.conf", "--k", "3000", "--out", "data.ambd"), None),
    (("train", "--config", "golden.conf", "--data", "data.ambd", "--out", "train.ckpt",
      "--history", "history.csv", *NET), None),
    (("sweep", "--config", "golden.conf", "--out", "sweep.csv", "--checkpoint-dir", "ck",
      "--train", "--train-k", "3000", *NET), None),
    (("sweep", "--config", "golden.conf", "--out", "sweep_reuse.csv", "--checkpoint-dir", "ck",
      *NET), None),
    (("eval", "--config", "golden.conf", "--checkpoint", "ck/crld_direct_snr-4dB_p2.ckpt",
      "--trials", "2000"), "eval_direct.txt"),
    (("eval", "--config", "golden.conf", "--checkpoint", "ck/crld_composite_snr+4dB_p2.ckpt",
      "--link", "composite", "--trials", "2000"), "eval_composite.txt"),
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(checkout: str, outdir: str, blas_threads: int = 1) -> list[str]:
    """Run the pipeline from `checkout` into `outdir` with BLAS on `blas_threads` threads;
    returns the written files, relative to `outdir`, in a fixed order.  A failing command
    raises CalledProcessError."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "ambcest", "__init__.py")):
        raise FileNotFoundError(f"no package source under {src}")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "golden.conf"), "w") as f:
        f.write(CONFIG)
    env = {**os.environ, "PYTHONPATH": src, **{v: str(blas_threads) for v in BLAS_THREAD_VARS}}
    for args, stdout_name in COMMANDS:
        cmd = [sys.executable, "-m", "ambcest.cli", *args]
        if stdout_name is None:
            subprocess.run(cmd, cwd=outdir, env=env, check=True, stdout=sys.stderr)
        else:
            with open(os.path.join(outdir, stdout_name), "w") as out:
                subprocess.run(cmd, cwd=outdir, env=env, check=True, stdout=out)
    checkpoints = sorted(os.path.relpath(p, outdir) for p in glob.glob(os.path.join(outdir, "ck", "*.ckpt")))
    return ["data.ambd", "train.ckpt", "history.csv", "sweep.csv", "sweep_reuse.csv", *checkpoints,
            "eval_direct.txt", "eval_composite.txt"]


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden pipeline and print its sha256 list.")
    parser.add_argument("checkout")
    parser.add_argument("outdir", nargs="?")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N")
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error(f"--blas-threads must be >= 1, got {args.blas_threads}")
    outdir = args.outdir or tempfile.mkdtemp(prefix="golden-")
    try:
        files = run(args.checkout, outdir, args.blas_threads)
    except (FileNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"golden: {exc}", file=sys.stderr)
        return 2
    print(f"golden: files in {outdir}", file=sys.stderr)
    for name in files:
        print(f"{sha256(os.path.join(outdir, name))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
