#!/usr/bin/env bash
# Full CI gate: release build, workspace tests, lints, formatting.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

# --workspace covers the root package's tests/*.rs and every crate's
# tests/ (cache/horizon determinism, pull flood, chaos recovery,
# cascade campaigns), so none of them is re-run by name below.
echo "==> cargo test -q --workspace (mem backend)"
cargo test -q --workspace

echo "==> cargo test -q --workspace (disk backend)"
STELLAR_STORE_BACKEND=disk cargo test -q --workspace

echo "==> repo benchmark builds against the crates (its own package, outside the workspace): unit tests + --smoke"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> telemetry smoke (short sim -> schema-valid BENCH_smoke.json + flight recorder)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin telemetry_smoke

echo "==> overlay pull smoke (exp_overlay_pull --quick; gates schema + flood-byte regression vs committed BENCH_overlay_pull.json)"
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin exp_overlay_pull -- --quick

echo "==> recovery smoke (exp_recovery --quick -> schema-valid BENCH_recovery.json)"
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin exp_recovery -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_recovery.json"

echo "==> storage-engine smoke (exp_store --quick; RAM/disk twin hash gate, disk cache miss reads <= 256 B, schema-valid BENCH_store.json)"
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin exp_store -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_store.json"

echo "==> lifecycle tracing smoke (exp_trace --quick on both store backends; in-run gates: twin-run byte-identical trace rows, pipeline coverage, sampled-tracing overhead ≤5% closes/s vs tracing-off)"
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin exp_trace -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_trace.json"
BENCH_OUT_DIR="$SMOKE_DIR" STELLAR_STORE_BACKEND=disk cargo run --release -q -p stellar-bench --bin exp_trace -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_trace.json"

echo "==> horizon pipeline smoke (exp_horizon --quick; in-run gates: pipeline on/off twin headers, 10x burst shed without close stall, bounded admission table at 250k clients)"
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin exp_horizon -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_horizon.json"
BENCH_OUT_DIR="$SMOKE_DIR" STELLAR_STORE_BACKEND=disk cargo run --release -q -p stellar-bench --bin exp_horizon -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_horizon.json"

echo "==> cascade smoke (exp_cascade --quick; in-run gates: twin-regenerated frontier curves byte-identical, below/past-frontier empirical cross-check)"
BENCH_OUT_DIR="$SMOKE_DIR" cargo run --release -q -p stellar-bench --bin exp_cascade -- --quick
grep -q '"schema": "stellar-bench/v2"' "$SMOKE_DIR/BENCH_cascade.json"

echo "CI green."
