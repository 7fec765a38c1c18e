#!/bin/sh
# Exact-count gate on the ledger's traced `fabric_forward` run:
#
#   ci/ledger_counts.sh
#
# Wall-clock numbers need a quiet box and a wide bound; the counters the
# benchmark reads off a fixed-seed run do not — they repeat to the last
# digit, so they are gated with no tolerance at all (ROADMAP item 1).
# Fails unless the run is `correct`, its `sim_digest` is the committed
# one (a performance change must leave every simulated-time observable
# alone), and the allocation and drop counters of the cached forward
# hold:
#
#   core.agent.allocs_per_frame             <= 1.01  one copy of the frame
#                                                    per hop, nothing else
#   dataplane.datapath.allocs_per_micro_hit <= 2     that kernel calls the
#       `Datapath::process` shim, whose fresh `Vec<Effect>` is the second
#       allocation; `process_batch`, which the agent calls, makes one
#   sim.world.drops_queue                   =  0
#
# A change that moves the digest on purpose updates DIGEST below in the
# same commit and says why.
set -eu

DIGEST=cbf83f090ca84bcc

OUT=$(cargo run --release --offline --quiet -p zen-bench --bin ledger -- \
    --workload fabric_forward --seed 1 --seconds 3 --trace 1)

fail() {
    echo "ledger_counts: $1" >&2
    exit 1
}

# The value of metric $1 in the run's JSON lines.
metric() {
    value=$(printf '%s\n' "$OUT" |
        sed -n "s/^{\"type\":\"metric\",.*\"name\":\"$1\",\"value\":\([^,]*\),.*/\1/p")
    [ -n "$value" ] || fail "no metric $1 in the run's output"
    printf '%s\n' "$value"
}

# Fail unless metric $1 is at most $2.
at_most() {
    value=$(metric "$1")
    awk -v v="$value" -v max="$2" 'BEGIN { exit !(v + 0 <= max + 0) }' ||
        fail "$1 = $value, allowed at most $2"
    echo "ledger_counts: $1 = $value (<= $2)"
}

printf '%s\n' "$OUT" | tail -n 1 | grep -q '"correct":true' ||
    fail "the run is not correct: $(printf '%s\n' "$OUT" | tail -n 1)"

digest=$(printf '%s\n' "$OUT" |
    sed -n 's/^{"type":"sim_digest",.*"digest":"\([0-9a-f]*\)".*/\1/p' | sort -u)
[ "$digest" = "$DIGEST" ] || fail "sim_digest is '$digest', committed $DIGEST"
echo "ledger_counts: sim_digest = $digest"

at_most core.agent.allocs_per_frame 1.01
at_most dataplane.datapath.allocs_per_micro_hit 2
at_most sim.world.drops_queue 0
