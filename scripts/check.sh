#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite over the whole
# workspace (every crate under crates/ and the vendored stand-ins under
# vendor/, not just the root package — the oracle-backed proptests live in
# the crates), then the nested benchmark package's own gate — `benchmark/`
# is a workspace of its own, so the root cargo commands never build it and
# a library API change could break it unnoticed. That last step is also the
# repo's only performance gate.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark/check.sh"
./benchmark/check.sh

echo "All checks passed."
