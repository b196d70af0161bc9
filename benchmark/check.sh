#!/usr/bin/env bash
# Lints, tests and pin-checks the standalone benchmark package. The root
# `--workspace` commands do not see it (it has its own `[workspace]` table),
# so CI calls this script in one line: `benchmark/check.sh`.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --check-only
