#!/usr/bin/env sh
# Concurrency-proof gate: pillar 3 of the analyzer.
#
#  * `analyze concurrency` — exhaustive model check of the engine's
#    one-lock run-queue protocol (request conservation, deadlock
#    freedom, no lost wakeups) under per-push, coalesced-burst and
#    bounded abstractions, plus the seeded-mutant self-test (a dropped
#    post-take wake, a notify_one chain behind batch drains, a take
#    without the space pulse and a refused batch that miscounts its
#    tail must each be flagged with a replayable trace).
#  * `analyze word` — symbolic equivalence proof of the word-parallel
#    routing kernels (self-route, omega-bit and the replay of commanded
#    control columns, including fault overlays) against the scalar
#    oracle for every n <= 8, zero sampled inputs.
#
# Exits nonzero on any counterexample, any unflagged mutant, or budget
# exhaustion (an exhausted budget proves nothing). Writes JSON-lines
# findings to target/race.jsonl for tooling; prints the human reports.
set -eu

cd "$(dirname "$0")/.."

# State-budget cap for the model checker; the shipped protocol explores
# ~1.8k states, so the default leaves three orders of magnitude of slack.
RACE_BUDGET="${RACE_BUDGET:-4000000}"

mkdir -p target
: > target/race.jsonl

run_gate() {
    # JSON-lines pass (findings land on stderr and flip the exit code),
    # then the human pass for the log.
    if ! cargo run -q --offline -p benes-cli -- "$@" --json 2> target/race.raw; then
        grep '^{' target/race.raw >> target/race.jsonl || true
        rm -f target/race.raw
        echo "race: findings from \`$*\` (see target/race.jsonl)" >&2
        cat target/race.jsonl >&2
        exit 1
    fi
    rm -f target/race.raw
    cargo run -q --offline -p benes-cli -- "$@"
}

run_gate analyze concurrency --budget "$RACE_BUDGET"
run_gate analyze word 8
