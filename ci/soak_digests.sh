#!/bin/sh
# Pinned digests of the eight fixed-seed soaks:
#
#   ci/soak_digests.sh
#
# Each soak is the one `#[ignore]`d test of a `zen-core` test target. It
# runs its scenario twice from one seed, asserts what the scenario is
# for, requires the two runs' digests to be equal, and prints
# `soak <name> <FNV-1a-64 of the digest>`. Equal within one binary says
# the run is deterministic; this table says it is the *same* run as at
# the commit that last edited the row, so a change that must not alter
# behaviour is checked across trees without patching either. One row
# per soak: the test target (also the name it prints), then the digest.
#
#   chaos       — fat-tree under control loss, duplication, a partition
#                 and two link flaps; reconverges, every ping answered.
#   cluster     — a master replica killed and healed: mastership,
#                 tables and stats of the 3-replica ring.
#   pressure    — churn against 256-entry tables under the evict policy:
#                 occupancy bounded, every eviction reaches the master,
#                 no lost acks; the digest holds the telemetry export.
#   saturation  — 200 ms of closed-loop cbench against the controller:
#                 a conservative wall-clock setups/s floor, and every
#                 deterministic observable of every switch.
#   defense     — 10x PACKET_IN flood from one rogue edge port against
#                 the defended fabric: bounded black-hole, zero lost
#                 acks, a starving undefended contrast.
#   consistency — epoch-update churn on the diamond under jitter, a
#                 partition, control loss and a flap: the planner
#                 converges and both hosts keep receiving.
#   consensus   — ACL intents and a mastership pin on the replicated log
#                 while the consensus leader is killed and healed.
#   shard       — the Datapath-backed k=12 fat-tree on the sharded
#                 engine at 1, 2 and 4 shards with a mid-run link flap:
#                 per-event digest, counters and deliveries identical.
#
# A change that moves a digest on purpose updates its row in the same
# commit and says why.
#
# pressure was a891770a1b0f4414 until flow adds that time out stopped
# being fenced at the end of every dispatch (a fence per 8 of them, per
# 50 ms, or with the next hard mod): it is the one soak that runs the
# reactive app, so its message counts and telemetry export moved; what
# it asserts — bounded occupancy, every eviction noted, no lost ack —
# holds. The other seven send only hard state and did not move.
#
# pressure was f09414a00bfa03b2, defense 39379fec16f01001 and
# consistency 098e8cf15482db6b until a repeated FEATURES_REPLY stopped
# re-running the handshake. A switch whose first punt reaches the
# controller before its handshake is re-solicited, answers both
# FEATURES_REQUESTs, and the second reply used to bring a second
# `on_switch_up`, role request and discovery round; now it refreshes the
# port map and nothing else. Those three soaks re-handshook 2, 3 and 2
# switches a run; what each asserts holds. The other five have no such
# switch and did not move.
#
# defense was 3a09e1540d79dbfc until the rogue became a `Host` running a
# flood workload: its digest hashed the `Debug` text of the rogue's old
# stats type, which is gone, and now holds the rogue's attack-frame count
# instead (20000 at both trees). Every other field of the digest —
# agents, controller, innocent hosts, L2 — printed identically at both
# trees, and the other seven soaks did not move.
set -eu

TABLE='
chaos f70d13edbe33fdef
cluster 4f883756b236f864
pressure f146945f8a90f8cd
saturation 1e4342906665bfaa
defense a00a3feec9506982
consistency 82a2f090a1958758
consensus f302478e7ac0e1d6
shard 2ba813ff7a22a01a
'

fail() {
    echo "soak_digests: $1" >&2
    exit 1
}

printf '%s\n' "$TABLE" | while read -r soak committed; do
    [ -n "$soak" ] || continue
    OUT=$(cargo test --release --offline -p zen-core --test "$soak" -- \
        --ignored --nocapture 2>&1) || fail "$soak: the soak failed:
$OUT"
    digest=$(printf '%s\n' "$OUT" | sed -n "s/.*soak $soak \([0-9a-f]\{16\}\)\$/\1/p")
    [ "$digest" = "$committed" ] ||
        fail "$soak: digest is '$digest', committed $committed"
    echo "soak_digests: $soak = $digest"
done
