#!/bin/sh
# Golden check: run the small fixed-seed CLI pipeline of scripts/golden.py from one
# checkout and print the sha256 of every file it writes.  Run it on two checkouts and
# compare the lists.
#
#     scripts/golden_check.sh CHECKOUT [OUTDIR]
#
# The config, the commands and the one-BLAS-thread environment live in golden.py.
exec python3 "$(dirname "$0")/golden.py" "$@"
