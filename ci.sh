#!/usr/bin/env bash
# Full CI gate: release build, workspace tests, lints, formatting, and
# the paper reproduction.
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

# iter_over_hash_type: a loop over a HashMap or HashSet is how hash order
# would leak into headers, pages or pinned digests. unreachable_pub: a
# `pub` item in a private module is `pub(crate)`, so `dead_code` sees it
# (tests/exported_surface.rs covers what the crates export).
echo "==> cargo clippy --all-targets -- -D warnings -D clippy::iter_over_hash_type -D unreachable_pub"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::iter_over_hash_type -D unreachable_pub

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc -D warnings (a doc link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> paper reproduction (repro regenerates PAPER_REPRO.json, exits non-zero on any failed shape; the document must equal the committed one)"
cargo run --release -q -p stellar-bench --bin repro
git diff --exit-code PAPER_REPRO.json

echo "==> paper reproduction on the disk backend (the same document, byte for byte)"
STELLAR_STORE_BACKEND=disk cargo run --release -q -p stellar-bench --bin repro
git diff --exit-code PAPER_REPRO.json

echo "CI green."
