#!/usr/bin/env bash
# The full benchmark twice on the same build and seed: each end-to-end
# metric x workload with both values, their relative difference and the
# bound; non-zero exit if a pair disagrees beyond its bound, an operation
# failed, `code_speedup_gm` or a digest differs, or the traced counters
# do not repeat. About six minutes on two cores. See stability.py.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 benchmarks/stability.py repeat "$@"
