#!/bin/sh
# The repo's CI gate, runnable locally: the union of what the parallel
# jobs in .github/workflows/ci.yml run, serialized. Fully offline — the
# workspace has zero external dependencies.
set -eux

cargo build --release --workspace

# The line counts ROADMAP.md and CHANGES.md quote (non-test lines under
# crates/*/src outside the ledger, of controller.rs, of zen-proto, of
# southbound.rs and of agent.rs).
# Printed, not gated.
ci/lines.sh

# The controller's cores take the time and hand back what to send; only
# `ctl::write` puts it on the wire. The controller itself, its app handle
# (`ctl`) and its admission control take the time and write through the
# `ControlIo` they are handed; the agent does the same through
# `SwitchIo`, which extends it. Only the two node adapters
# (`controller_node.rs`, `agent_node.rs`) and the cbench load generator
# name `Context`. None of these may name the simulator's `Context` outside
# its tests, or a bounded explorer could not drive it.
for core in southbound replica txn agent controller ctl admission; do
    if awk '/#\[cfg\(test\)\]/ { exit } /Context/ { named = 1 } END { exit !named }' \
        "crates/core/src/$core.rs"; then
        echo "crates/core/src/$core.rs names Context outside its tests" >&2
        exit 1
    fi
done

# A switch's session is the southbound's: the controller asks it, and
# names neither the session record nor its shadow ops outside its tests.
if awk '/#\[cfg\(test\)\]/ { exit }
        /(^|[^A-Za-z0-9_])(Session|ShadowOp)([^A-Za-z0-9_]|$)/ { named = 1 }
        END { exit !named }' crates/core/src/controller.rs; then
    echo "crates/core/src/controller.rs names Session or ShadowOp outside its tests" >&2
    exit 1
fi

cargo test --workspace -q
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

# Telemetry determinism gate: the same seeded scenario run twice must
# produce byte-identical JSONL exports (metrics, controller counters,
# monitor state, trace ring), in release mode where any UB or
# iteration-order dependence is most likely to surface.
cargo test --release -p zen-core --test telemetry -- --nocapture

# The eight fixed-seed soaks (chaos, cluster, pressure, saturation,
# defense, consistency, consensus, shard), each against its committed
# digest; the script's header says what each one guards.
ci/soak_digests.sh

# Exact-count gate: the ledger's traced fixed-seed `fabric_forward`,
# `reactive_churn`, `cbench_closed` and `cluster_churn` runs must be
# correct, keep their committed sim_digests, and hold their allocation,
# drop, flow-mod and retransmission counters — no tolerance, they repeat
# to the last digit.
ci/ledger_counts.sh

# The two experiment benches the ledger has no workload for yet, in
# quick mode. E18 (storm survival) runs for its assertions: bounded
# black-hole, every defense layer engaged, a starving undefended
# contrast. E19 (consistent update) asserts the two-phase rewrite loses
# and loops nothing while the naive burst does, and holds its exact
# simulated commit latency within 20 % of ci/BENCH_E19.baseline.json
# (absolute path: cargo runs a bench from its package directory).
BENCH_E18_QUICK=1 cargo bench -p zen-bench --bench expt_storm
BENCH_E19_QUICK=1 BENCH_E19_BASELINE="$PWD/ci/BENCH_E19.baseline.json" \
    cargo bench -p zen-bench --bench expt_consistent_update
