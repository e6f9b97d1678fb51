#!/usr/bin/env bash
# Smoke test of the ISPN benchmark: builds bench_ispn, runs every workload
# once at 1/20 of its simulated horizon, then the traced pass (including
# the 1- vs N-worker digest check), with every correctness check on.
# Writes no result files.  Exits non-zero when the build or a check fails.
#
#   bench_ispn/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 bench_ispn/run.py --set --smoke
