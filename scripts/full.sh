#!/usr/bin/env bash
# full.sh — the full artifact soak (an hour-ish, machine permitting).
#
# Everything kick-tires.sh does, plus: the whole experiment battery
# (tables, gadgets, scaling, the tier-2 Pareto fronts, extensions,
# robustness), deeper property-test soaks, the million-dataset wavefront
# check, a long differential fuzz, the wire-to-wire benchmark smoke
# (`wirebench/smoke.sh`), a fresh bench measurement, and the
# bench trajectory across every committed per-PR baseline.
#
# Environment:
#   FUZZ_SECONDS    time box for the long fuzz pass (default 600)
#   FUZZ_SEED       master seed for the fuzz pass (default 1)
#   PROPTEST_CASES  property-test cases per property (default 2000)
#   CPO_BUNDLE_DIR  where divergence bundles go (default repro-bundles/)

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZ_SECONDS="${FUZZ_SECONDS:-600}"
FUZZ_SEED="${FUZZ_SEED:-1}"
export PROPTEST_CASES="${PROPTEST_CASES:-2000}"

step() { printf '\n==> %s\n' "$*"; }

step "build (release)"
cargo build --release --workspace

step "workspace tests, deep property soak (PROPTEST_CASES=${PROPTEST_CASES})"
cargo test --workspace -q

step "full experiment battery (fig1 + tables + gadgets + scaling + tier-2 fronts + extensions + robustness)"
cargo run --release -p cpo_experiments -- all

step "typed front door, million-dataset wavefront soak"
cargo run --release -p cpo_experiments -- solve examples/specs/section2_energy.json --check
cargo run --release -p cpo_experiments -- batch examples/specs/batch_mixed.jsonl --check
cargo run --release -p cpo_experiments -- solve examples/specs/large_scale.json --check --datasets 1000000
cargo run --release -p cpo_experiments -- solve examples/specs/benes.json --check

step "differential fuzz (${FUZZ_SECONDS}s, seed ${FUZZ_SEED})"
cargo run --release -p cpo_experiments -- fuzz --seconds "${FUZZ_SECONDS}" --seed "${FUZZ_SEED}"

step "serve chaos drills (full matrix)"
for drill in panic stall poison flood none; do
  ./scripts/serve-drill.sh "$drill"
done

step "wire-to-wire benchmark smoke (serve and batch oracle on every corpus)"
bash wirebench/smoke.sh

step "bench re-measure (fresh JSON report)"
CPO_BENCH_JSON="$PWD/BENCH_FULL.json" cargo bench -p cpo_bench

step "bench diff against the newest committed baseline"
newest=$(ls BENCH_PR*.json | sort -V | tail -1)
cargo run --release -p cpo_bench --bin bench_diff -- "$newest" BENCH_FULL.json || true

step "bench trajectory across all committed baselines"
cargo run --release -p cpo_bench --bin bench_diff -- --trajectory BENCH_PR*.json BENCH_FULL.json

step "full soak: all green (fresh report in BENCH_FULL.json)"
