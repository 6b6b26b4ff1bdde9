#!/usr/bin/env bash
# The benchmark's own checks: its unit tests, then a one-second run of
# every workload, untraced and traced, each of which must report
# correct output and no failed line. Run from the root of a checkout:
#
#   bash wirebench/smoke.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo test --release --offline -q --manifest-path "$here/Cargo.toml"
for workload in mixed solver checked; do
  for trace in 0 1; do
    result="$(bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)"
    case "$result" in
      '{"correct":true,'*'"failed":0,'*) echo "smoke: $workload trace=$trace ok" ;;
      *)
        echo "smoke: $workload trace=$trace FAILED: $result" >&2
        exit 1
        ;;
    esac
  done
done
