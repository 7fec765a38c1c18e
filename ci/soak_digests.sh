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
#
# chaos was f70d13edbe33fdef, cluster 4f883756b236f864, pressure
# f146945f8a90f8cd, defense a00a3feec9506982, consistency
# 82a2f090a1958758 and consensus f302478e7ac0e1d6 until a handshake
# began probing the new switch's own ports instead of every connected
# switch's. Printed at both trees, the fields that moved are bring-up's
# LLDP traffic and what counts it, and nothing else:
#   chaos       — events 75 931 -> 74 469, controller messages sent
#                 25 816 -> 25 056 and received 21 194 -> 20 682; the
#                 fault counts, acked and retransmitted mods and pings
#                 answered are equal.
#   cluster     — each switch's punts (236/240/238/238 ->
#                 234/236/236/234) and each replica's lldp_ins,
#                 packet_outs, msgs_sent and msgs_received; tables,
#                 masters, claims and every other controller counter are
#                 equal.
#   pressure    — events, controller messages, lldp_ins 201 -> 200,
#                 packet_outs 4 127 -> 4 114, the export's control and
#                 frame counters, the monitor's byte total, and one LLDP
#                 frame less through switch 1's datapath (a table miss
#                 and a micro hit); occupancy, evictions and acks are
#                 equal.
#   defense     — switch 0's packet_outs 531 -> 528, switch 1's
#                 packet_ins 370 -> 369 and the controller's packet_outs
#                 984 -> 981; the hosts, L2 and rogue fields are equal.
#   consensus   — each replica's lldp_ins, packet_outs, msgs_sent and
#                 msgs_received; switches, committed intents and every
#                 other counter are equal.
#   consistency — events, messages, mods_retransmitted 202 -> 175 and
#                 the hosts' deliveries 714/543 -> 755/584. It is the
#                 one soak with control jitter, drawn from the world's
#                 random stream per control write, so sixteen fewer
#                 writes at bring-up shift every later draw. Run with
#                 the jitter off at both trees, only events and messages
#                 move (22 075 -> 22 041, 4 473 -> 4 457 sent,
#                 3 573 -> 3 561 received).
# Each soak's assertions hold. saturation's emulated switches count the
# probes they get apart from the PACKET_OUTs its digest holds, and its
# setups' simulated latencies are equal; shard has no control channel.
# chaos was ebd1244f8023aee7, cluster 57a7af4bb17f6690, pressure
# 9cc2f4dec2e1e0fc, consistency bd1edec61c742b62 and consensus
# 1fb3c09904846c30 until each control channel kept one keepalive: the
# controller stopped sending every switch an ECHO_REQUEST each tick
# (the agent's own 50 ms echo keeps its session fresh) and replicas
# stopped sending an east-west heartbeat beside the digest that carries
# the same term and acks. Those five count control messages or print
# the controller's counters, three of which are gone. Each soak's
# assertions hold. saturation, defense and shard did not move.
#
# chaos was 73ccc5ff48da96e4, cluster db74dbc3aa27b541, consistency
# f810e8eb3cd671a4 and consensus 99d524aef8b832e3 until the fabric app
# began installing groups only toward switches with hosts, and covering
# each destination switch's hosts with the fewest prefixes. Printed at
# both trees, what moved is the program's size and what counts it:
#   chaos       — events 70 616 -> 70 631, controller messages sent
#                 21 104 -> 20 735 and received 16 733 -> 16 742, mods
#                 acked 926 -> 590 and retransmitted 33 -> 10, and the
#                 control faults' draws (dropped 290 -> 287, duplicated
#                 178 -> 177); every ping is answered at both.
#   cluster     — on its 4-ring with hosts on two switches, the groups
#                 toward the two without (12 held -> 6), each replica's
#                 group mods, acks, retransmissions and NOT_MASTER
#                 errors, and the rejected claims of two switches
#                 (2 -> 1); flows, masters and claims are equal.
#   consistency — events, messages, group mods 92 -> 46,
#                 retransmissions 193 -> 123 and one more datagram
#                 delivered (714 -> 715); epochs, commits and the rules
#                 pushed (92) are equal.
#   consensus   — each replica's group mods, acks, messages,
#                 retransmissions and NOT_MASTER errors; switches,
#                 committed intents and masters are equal.
# Each soak's assertions hold. pressure, saturation, defense and shard
# did not move.
#
# chaos was d2a36d3596684d99, cluster 8ba5c41c87b319c4, pressure
# f7832bf741f0a678, consistency d02c1555f6ca4918 and consensus
# 79588a82071ac29d until the switch began probing only a channel that
# was quiet one way or the other over the 50 ms interval. Cluster and
# consensus moved only in each replica's messages sent and received;
# pressure in its events and message counts; chaos and consistency,
# which lose control messages at random, also in which messages the
# fault draw hits (chaos: 10 -> 8 mods retransmitted, every ping
# answered; consistency: 123 -> 112 retransmitted, a clean resync fewer,
# 715/544 -> 731/559 frames received). The instants at which each
# switch goes `Degraded` or `Disconnected`, is quarantined or changes
# master in the chaos and cluster soaks are where they were, stepped
# millisecond by millisecond in both trees. Saturation, defense and
# shard did not move.
#
# chaos was 43347c76e3584677, pressure f5672fbdb635cc63 and consistency
# a21a396c30f78e06 until the switch began arming its expiry sweep only
# while a table holds an entry with a timeout: each of the three folds
# the run's event count (chaos 62 706 -> 42 706, pressure 34 101 ->
# 33 999, consistency 20 218 -> 15 418), and no other field moved. The
# other five do not count events and did not move.
#
# chaos was 06239a84cfe99219, cluster a3b96381a36bc8df, pressure
# b304f942b4befb33, defense 2bb7ad6c680e2ac3, consistency
# de6511e930919614 and consensus d82e1f3b08e46794 until discovery began
# sending one LLDP PACKET_OUT per switch, naming each egress port in the
# frame's Ethernet source, instead of one per up port. Printed at both
# trees, what moved is the PACKET_OUTs and what counts them:
#   chaos       — controller messages sent 16 822 -> 4 784; with fewer
#                 messages the control faults draw on other frames
#                 (dropped 230 -> 128, duplicated 133 -> 69, partitioned
#                 56 -> 27), so events 42 706 -> 42 671, messages
#                 received 12 793 -> 12 802, mods acked 618 -> 590 and
#                 retransmitted 8 -> 15; every ping is answered.
#   cluster     — each replica's PACKET_OUTs (730/342/388 ->
#                 292/146/146) and messages sent; tables, LLDP returns,
#                 masters, claims and deliveries are equal.
#   pressure    — PACKET_OUTs 4 114 -> 1 690, messages sent 5 040 ->
#                 2 616, and the channel's messages and bytes; events,
#                 tables and latencies are equal.
#   defense     — the controller's PACKET_OUTs 981 -> 738 and each
#                 switch's 528/448 -> 368; punts, admission, pushbacks
#                 and hosts are equal.
#   consistency — messages sent 2 689 -> 1 433; a lossy soak, so the
#                 draw shifts: events 15 418 -> 14 295, received 1 807 ->
#                 1 815, retransmissions 112 -> 132, a clean resync more,
#                 731/559 -> 746/573 frames received.
#   consensus   — each replica's PACKET_OUTs and messages sent; tables,
#                 commits and masters are equal.
# Each soak's assertions hold. saturation and shard did not move.
#
set -eu

TABLE='
chaos 96535be0948e27f0
cluster 74fa0f40e83b6dc7
pressure 71f21ea37235333f
saturation 1e4342906665bfaa
defense f1536a7f9c00bcd2
consistency e29deba0ec2b5bd0
consensus 3839bd82128d0356
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
