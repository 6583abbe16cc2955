#!/usr/bin/env sh
# Tier-1 verification: the canonical must-stay-green gate for every PR.
# The build environment is fully offline; dependencies resolve to the
# vendored stubs via [patch.crates-io], and Cargo.lock is committed.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
sh scripts/analyze.sh
sh scripts/race.sh
BENCH_REQUESTS=200 BENCH_OUT=target/BENCH_ENGINE.json sh scripts/bench.sh
CHAOS_REQUESTS=200 sh scripts/chaos.sh
sh scripts/shard.sh
SERVE_REQUESTS=2000 sh scripts/serve.sh
sh scripts/fleet.sh
sh scripts/benchmark.sh
