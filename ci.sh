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

# Source checks on library code, each explained in the script's header:
# the controller's and the agent's cores name no simulator `Context`,
# `controller.rs` names no southbound session record, and no library
# file outside the bench crate reads the host clock.
ci/purity.sh

# Every CI script parses, including the ones CI does not run
# (`ci/pairs.sh`, `ci/profile.sh`).
sh -n ci/*.sh

# The tests, and with them the four experiment benches marked `test =
# true` (crates/bench/Cargo.toml), run for their assertions: E18 (storm
# survival) a bounded black-hole, every defense layer engaged and a
# starving undefended contrast; E19 (consistent update) a two-phase
# rewrite that loses and loops nothing while the naive burst does, at
# exactly the simulated commit latency the bench names; E11 (TE
# reconfiguration) a per-packet rollout that loses nothing at any jitter
# while a teardown-first one does; E7/E13 (failure convergence) its six
# E7 rows and its two loss-free E13 rows exactly.
cargo test --workspace -q
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

# The library docs build clean: every intra-doc link resolves and none
# points at a private item. `--lib` leaves out the ledger binary.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

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
