#!/usr/bin/env bash
# Builds the benchmark, runs its unit tests, then every workload at the
# --quick size on the default and the held-out seed (same checks as a full
# run; the numbers are not comparable with one). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release
cargo test --release
cargo run --release --quiet -- --quick
