#!/usr/bin/env bash
# Gate for the nested benchmark package: formatting, lints, its tests, and
# a smoke run of every workload with the output checks on. The root
# scripts/check.sh and CI only see the root workspace, so this package
# brings its own gate. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --offline -q

echo "==> run --quick"
cargo run --release --offline --quiet -- run --quick

echo "All benchmark checks passed."
