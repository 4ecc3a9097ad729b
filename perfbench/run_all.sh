#!/usr/bin/env bash
# Run every workload untraced and traced, printing every end-to-end and
# per-layer metric; exit non-zero if any run fails or gives a wrong verdict.
#
# Usage: bash perfbench/run_all.sh [SEED] [SECONDS]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-40}"
cd "$(dirname "$0")/.."
for workload in certify frontier search; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
