#!/usr/bin/env bash
# Builds bench_e2e (Release, in .bench_build/) and runs every workload 5
# times in alternating order, then once traced. Prints each (metric,
# workload) as a median with quartiles, the ledger sums and the tracing
# overhead; the runs are appended to a results file (--out FILE).
#
#   perfbench/run_benchmark.sh [--runs N] [--vary-seeds] [--out FILE]
#   perfbench/run_benchmark.sh --compare PARENT.jsonl CHANGE.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ "${1:-}" == "--compare" ]]; then
  exec python3 perfbench/run.py "$@"
fi
exec python3 perfbench/run.py --suite "$@"
