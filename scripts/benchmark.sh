#!/usr/bin/env sh
# Benchmark smoke: the end-to-end benchmark BENCHMARK.json declares,
# built with its own command and run briefly, so a change that breaks
# a workload fails here and not only in a regression comparison.
#
#   * one untraced pass over serve-rpc, serve-open and fleet-round
#     (1 s each);
#   * one traced fleet-round pass (2 s), spans to a temp file.
#
# Every run must exit 0 and end with a JSON line reading
# "correct":true. Takes ~25 s on a 2-vCPU host.
set -eu

cd "$(dirname "$0")/.."

# The build step of BENCHMARK.json's command, verbatim.
cargo build --release --offline --quiet -p benes-serve -p benes-bench --bin benes-serve --bin benchmark >&2
BENCH="${CARGO_TARGET_DIR:-target}/release/benchmark"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

check() {
    _last=$(tail -n 1 "$1")
    case "$_last" in
        *'"correct":true'*) ;;
        *)
            echo "benchmark.sh: $2 did not verify; output:" >&2
            cat "$1" >&2
            exit 1
            ;;
    esac
}

if ! "$BENCH" --workload serve-rpc --workload serve-open --workload fleet-round \
    --seconds 1 > "$TMP/untraced.out"; then
    echo "benchmark.sh: untraced run exited nonzero; output:" >&2
    cat "$TMP/untraced.out" >&2
    exit 1
fi
check "$TMP/untraced.out" "untraced run"

if ! "$BENCH" --workload fleet-round --trace 1 --seconds 2 \
    --spans "$TMP/spans.jsonl" > "$TMP/traced.out"; then
    echo "benchmark.sh: traced fleet-round exited nonzero; output:" >&2
    cat "$TMP/traced.out" >&2
    exit 1
fi
check "$TMP/traced.out" "traced fleet-round"

echo "benchmark.sh: OK — serve-rpc, serve-open, fleet-round untraced and fleet-round traced all verified"
