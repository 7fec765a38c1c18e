#!/bin/sh
# The repo's CI gate, runnable locally: the union of what the parallel
# jobs in .github/workflows/ci.yml run, serialized. Fully offline — the
# workspace has zero external dependencies.
set -eux

cargo build --release --workspace
cargo test --workspace -q
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

# Chaos soak: fixed-seed fault-injection run on a fat-tree; ignored in
# the normal test pass because it simulates ~10 s of fabric time twice.
# On failure the seed is printed in the assertion message.
cargo test --release -p zen-core --test chaos -- --ignored --nocapture

# Telemetry determinism gate: the same seeded scenario run twice must
# produce byte-identical JSONL exports (metrics, controller counters,
# monitor state, trace ring), in release mode where any UB or
# iteration-order dependence is most likely to surface.
cargo test --release -p zen-core --test telemetry -- --nocapture

# Cluster failover soak: fixed-seed kill-and-heal of a master replica,
# run twice, asserting byte-identical mastership, tables, and stats;
# ignored in the normal pass because it simulates ~6 s of fabric time
# per run.
cargo test --release -p zen-core --test cluster -- --ignored --nocapture

# Table-pressure soak: fixed-seed churn against 256-entry tables under
# the evict policy, run twice; asserts occupancy never exceeds the
# bound, every eviction reaches the master, zero lost acks, and a
# byte-identical replay.
cargo test --release -p zen-core --test pressure -- --ignored --nocapture

# Saturation smoke: a 200 ms fixed-seed cbench run against the
# controller, run twice; asserts a conservative wall-clock setups/sec
# floor and a byte-identical replay of every deterministic observable.
cargo test --release -p zen-core --test saturation -- --ignored --nocapture

# Defense soak: fixed-seed 10x PACKET_IN flood from one rogue edge port
# against the defended fabric (agent punt meter + controller admission
# + push-back), asserting bounded innocent black-hole time, zero lost
# acks, a starving undefended contrast, and a byte-identical replay.
cargo test --release -p zen-core --test defense -- --ignored --nocapture

# Consistency soak: fixed-seed epoch-update churn on the diamond fabric
# (control jitter, a controller-switch partition, control-plane loss,
# and a link flap), run twice, asserting the planner converges, both
# hosts keep receiving, and the full counter digest replays
# byte-identical.
cargo test --release -p zen-core --test consistency -- --ignored --nocapture

# Consensus soak: ACL intents and a mastership pin ride the replicated
# log while the consensus leader is killed and healed, run twice from
# the same seed, asserting byte-identical end states (election, log
# replication, snapshot catch-up, digest anti-entropy, intent dispatch).
cargo test --release -p zen-core --test consensus -- --ignored --nocapture

# Shard-determinism soak: the Datapath-backed fat-tree fabric run on
# the sharded engine at 1, 2 and 4 shards from one seed, with a
# mid-run admin link flap; asserts the per-event digest, all merged
# counters, the event total, and every host's deliveries are
# byte-identical across shard counts.
cargo test --release -p zen-core --test shard -- --ignored --nocapture

# Exact-count gate: the ledger's traced fixed-seed `fabric_forward`,
# `reactive_churn`, `cbench_closed` and `cluster_churn` runs must be
# correct, keep their committed sim_digests, and hold their allocation,
# drop, flow-mod and retransmission counters — no tolerance, they repeat
# to the last digit.
ci/ledger_counts.sh

# Perf-regression gates: each runs one experiment bench in quick mode
# against its committed baseline (ci/BENCH_<ID>.baseline.json), writes
# target/BENCH_<ID>.json (uploaded as a CI artifact), and fails past
# the regression threshold.
#   E17: peak closed-loop setups/sec (floor)
#   E18: attack-mode defended innocent setups/sec (floor)
#   E19: two-phase rewrite commit latency (ceiling); also asserts the
#        rewrite loses zero packets while the naive burst does not
#   E20: digest-mode east-west entries at 5 replicas (ceiling); also
#        asserts zero intents lost across a leader kill
#   E21: peak sharded-fabric packets/sec (floor); also asserts merged
#        counters are identical across shard counts
ci/bench_gate.sh E17 20
ci/bench_gate.sh E18 20
ci/bench_gate.sh E19 20
ci/bench_gate.sh E20 20
ci/bench_gate.sh E21 20
