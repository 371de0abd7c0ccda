#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite, then the nested
# benchmark package's own gate — `benchmark/` is a workspace of its own, so
# the root cargo commands never build it and a library API change could
# break it unnoticed.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark/check.sh"
./benchmark/check.sh

echo "All checks passed."
