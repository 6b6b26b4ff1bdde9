#!/usr/bin/env bash
# Build the served binary and the benchmark from source, then run one
# measurement. Run from the root of a checkout:
#
#   bash wirebench/run.sh --workload mixed|solver|checked --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Artifacts land in $CARGO_TARGET_DIR (default: .bench_build at the root).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline -q --manifest-path "$root/Cargo.toml" \
  -p cpo_experiments --bin cpo-experiments >&2
cargo build --release --offline -q --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/wirebench" --bin "$target/release/cpo-experiments" \
  --work-dir "$target/wirebench" "$@"
