#!/usr/bin/env sh
# Voluntary context switches per served request in a benes-serve
# daemon, by thread (Linux only).
#
# Runs the built `benchmark --workload serve-rpc --trace 0`, which
# spawns one `benes-serve --threads 1 --workers 1` daemon, and samples
# every thread of that daemon from /proc/<pid>/task/*/status every
# 100 ms (read-only, the script's own processes). Each thread counts
# with its last sample, so threads that exit during the drain still
# count. The switches are divided by the requests the benchmark
# attempted, warm-up included (the daemon served those too); the drain
# and the last <100 ms of the phase add about 1% of noise.
#
# Usage:
#   sh scripts/ctxsw.sh               build, then measure target/release
#   CTXSW_BIN=DIR sh scripts/ctxsw.sh measure DIR/benchmark and the
#                                     DIR/benes-serve beside it (e.g.
#                                     another commit's build)
#
# The measured phase is 10 s (after the benchmark's warm-up), seed 7.
#
# Informational only: no gate reads it.
set -eu

cd "$(dirname "$0")/.."

BIN="${CTXSW_BIN:-}"
if [ -z "$BIN" ]; then
    cargo build --release --offline -q -p benes-serve -p benes-bench \
        --bin benes-serve --bin benchmark
    BIN="${CARGO_TARGET_DIR:-target}/release"
fi

OUT=$(mktemp)
SAMPLES=$(mktemp)
"$BIN/benchmark" --workload serve-rpc --seed 7 --seconds 10 --trace 0 > "$OUT" &
BENCH=$!
trap 'kill "$BENCH" 2>/dev/null || true; rm -f "$OUT" "$SAMPLES"' EXIT

# One sample: "pid tid name voluntary_switches" for every thread of
# every daemon the benchmark runs. Besides the one that serves the
# load, it launches short-lived daemons to time set-up; the one with
# the most switches is the load's.
sample() {
    for pid in $(pgrep -P "$BENCH" -x benes-serve || true); do
        awk '/^Name:/ { name = $2 }
             /^voluntary_ctxt_switches:/ {
                 n = split(FILENAME, part, "/")
                 print part[n - 3], part[n - 1], name, $2
             }' /proc/"$pid"/task/*/status 2>/dev/null || true
    done
}
# Until the benchmark exits (a zombie until `wait`).
while [ "$(awk '{ print $3 }' /proc/"$BENCH"/stat 2>/dev/null || true)" != Z ] &&
    [ -e "/proc/$BENCH" ]; do
    sample >> "$SAMPLES"
    sleep 0.1
done
wait "$BENCH"

ATTEMPTED=$(tail -n 1 "$OUT" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')
if [ -z "$ATTEMPTED" ] || [ "$ATTEMPTED" -eq 0 ]; then
    echo "ctxsw.sh: no attempted count in the benchmark's last line" >&2
    exit 1
fi
echo "serve-rpc, 10 s + warm-up, seed 7: $ATTEMPTED requests"
awk -v reqs="$ATTEMPTED" '
    { key = $1 " " $2; pid[key] = $1; name[key] = $3; last[key] = $4 }
    END {
        for (k in last) per_pid[pid[k]] += last[k]
        for (p in per_pid) if (per_pid[p] > per_pid[load]) load = p
        for (k in last) {
            if (pid[k] != load) continue
            by[name[k]] += last[k]; total += last[k]
        }
        printf "%-16s %12s %10s\n", "thread", "switches", "per req"
        for (n in by) printf "%-16s %12d %10.3f\n", n, by[n], by[n] / reqs
        printf "%-16s %12d %10.3f\n", "daemon total", total, total / reqs
    }' "$SAMPLES"
