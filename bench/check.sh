#!/usr/bin/env bash
# Gate for the standalone benchmark crate (the workspace CI does not cover
# it): format, lints, unit tests, and a --quick smoke of every workload.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cd ..
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    run --all --quick --out bench/out/check
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    compare bench/out/check bench/out/check
