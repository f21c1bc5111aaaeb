#!/bin/sh
# Golden check: run a small fixed-seed CLI pipeline from one checkout and print the
# sha256 of every file it writes.  Run it on two checkouts and compare the lists.
#
#     scripts/golden_check.sh CHECKOUT [OUTDIR]
#
# CHECKOUT is a repo checkout whose src/ is imported; OUTDIR (default: a new temporary
# directory) receives the files.  BLAS runs on one thread, so the float results do not
# depend on the machine's core count.  The pipeline draws a dataset (gen-data), trains
# on it with a per-epoch history (train --history), sweeps LS, MMSE and CRLD over two
# SNR points and both links, training the four CRLD checkpoints (sweep --train), and
# scores two of those checkpoints (eval, one per link; stdout is kept as eval_*.txt).
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 CHECKOUT [OUTDIR]" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
if [ ! -f "$src/ambcest/__init__.py" ]; then
    echo "golden_check: no package source under $src" >&2
    exit 2
fi
out=${2:-$(mktemp -d)}
mkdir -p "$out"
cd "$out"

export PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
net="--blocks 1 --layers-per-block 2 --filters 4"
cli() { python3 -m ambcest.cli "$@"; }

cat > golden.conf <<'CONF'
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
CONF

cli gen-data --config golden.conf --k 3000 --out data.ambd >&2
cli train --config golden.conf --data data.ambd --out train.ckpt --history history.csv $net >&2
cli sweep --config golden.conf --out sweep.csv --checkpoint-dir ck --train --train-k 3000 $net >&2
cli eval --config golden.conf --checkpoint ck/crld_direct_snr-4dB_p2.ckpt --trials 2000 > eval_direct.txt
cli eval --config golden.conf --checkpoint ck/crld_composite_snr+4dB_p2.ckpt --link composite \
    --trials 2000 > eval_composite.txt

echo "golden_check: files in $out" >&2
sha256sum data.ambd train.ckpt history.csv sweep.csv ck/*.ckpt eval_direct.txt eval_composite.txt
