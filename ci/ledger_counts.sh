#!/bin/sh
# Exact-count gate on the ledger's traced fixed-seed runs:
#
#   ci/ledger_counts.sh
#
# Wall-clock numbers need a quiet box and a wide bound; the counters the
# benchmark reads off a fixed-seed run do not — they repeat to the last
# digit, so they are gated with no tolerance at all (ROADMAP item 1).
# One row of TABLE per gated workload: its name, the `sim_digest` of its
# seed-1 run (a performance change must leave every simulated-time
# observable alone), then `metric<=ceiling` pairs. A row fails unless
# the run is `correct`, the digest is the committed one and every named
# metric is at or under its ceiling.
#
#   fabric_forward — the cached forward: one copy of the frame per hop
#       and nothing else (`core.agent.allocs_per_frame`); the micro-hit
#       kernel calls the `Datapath::process` shim, whose fresh
#       `Vec<Effect>` is its second allocation (`process_batch`, which
#       the agent calls, makes one); no queue drops.
#   reactive_churn — a flow setup per datagram: control messages,
#       events and control bytes per simulated flow setup, allocations
#       and allocated bytes per setup end to end, allocations
#       inside the controller per PACKET_IN (what is left is a channel
#       buffer where `World`'s free list has run dry behind a tick) and
#       inside the agent per frame (the outgoing copy; a slow-path
#       classification allocates nothing).
#   cbench_closed — the controller and the codec alone: allocations per
#       flow setup inside the controller (none) and end to end (the one
#       left is the emulated switch's owned decode of the FLOW_MOD), the
#       bytes allocated per setup end to end, and no frame it cannot
#       decode.
#   cluster_churn — the reprogram path: allocations, control bytes and
#       flow mods per simulated ms, the flow-cache flushes flow adds
#       cause, and the mods the controller had to send twice. Also that
#       the fabric works at all, which the run's own checks do not
#       establish: the failover hole, and no PACKET_IN (the fabric is
#       proactive, so a punt is a frame its program does not cover). A
#       discovery whose probes never arrive reads a 31 s hole and some
#       29 500 punts, and the run is still `correct`.
#
# cluster_churn's digest was d8ea101f16854043 until the agent's
# applied-xid window began evicting by age instead of by smallest xid:
# a new master's lower-numbered mods are now acknowledged instead of
# retransmitted until they fail (24 355 -> 9 595 retransmissions).
# It was 1fa10105781aea43 until the fabric app began reconciling each
# switch against a base instead of wiping its cookie and reloading the
# whole program at every view change (flow mods per simulated ms 7.62
# -> 1.32, control bytes 1 931 -> 846, cache flushes 231 645 -> 40 520,
# allocations 184.9 -> 113.7); with that change a barrier batch that
# leaves the cookie counts alone no longer gossips a shadow digest, a
# group leaves a switch a second after the last program that held it,
# a replica re-asserts its roles when the live set changes, a switch
# stops vouching for mods a late-landing earlier one may have undone,
# and a retransmission replays the queue behind it (failover hole 39
# -> 11 ms). fabric_forward's digest was cbf83f090ca84bcc until the
# same change: the second pass of the set-up phase now finds all 80
# switches as they should be and sends nothing, and the fabric app
# exports three `fabric.reconcile.*` counters.
#
# The allocation ceilings of reactive_churn (56.87 per setup, 7 321
# bytes, 20.84 per PACKET_IN, 3.68 per frame), cbench_closed (3.5) and
# cluster_churn (113.7) came down, with every digest where it was, when
# the flow cache began memoising positions instead of copies, the table
# began telling entries apart by a hash, expiry began streaming into a
# kept buffer, tracked mods moved into recycled buffers, barrier xid
# lists and PACKET_OUT action lists became views of the receive buffer,
# and the reactive app began asking the route memo for the path it
# installs.
#
# reactive_churn's digest was f8173f07246eeac9 until the controller
# stopped fencing a switch at the end of every dispatch that sent it a
# mod. A flow add that times out is soft state nobody waits on: it now
# rides unfenced until its session has 8 mods unfenced, 50 ms
# (`mod_timeout / 3`) have passed, or something hard is sent. A setup is
# 13.74 control messages where it was 21.50 (4.44 fences and their
# replies became 0.55), 15.65 events for 19.52 and 743.6 control bytes
# for 856.1; those three are gated from here on. First-packet latency
# (162.976 us), flow mods per setup (4.4375), punts, cache flushes and
# retransmissions (0) are where they were, and so are the other three
# digests: fabric programs and ACL denies carry no timeout and are
# fenced as before, and one cbench delivery is a burst of exactly 8.
# The same change made those fences' BARRIER_REPLYs stop handing
# buffers back to `World`'s 32-buffer free list in the microseconds
# after a tick, when the tick's 20 probes and the 20 agents' expiry
# sweeps have emptied it: the two of seed 1's flows that punt 15 and
# 44 us behind every tick allocate 4.6 channel buffers where they
# allocated 2 (3 471 misses a run against 1 500, counted), and the
# controller's allocations per PACKET_IN would have read 4.479 against
# a ceiling of 4.46. No ceiling is raised here, so the allocation the
# controller did own went instead: a sent flow add hands its action
# list back and `Ctl::actions` fills it for the next spec (4.4375 lists
# per setup, the one per cbench setup). Per PACKET_IN 4.455 -> 0.0415
# (those misses and some 500 others), cbench_closed 1 -> 0, per setup
# end to end 19.14 -> 14.68 and 891 -> 842 bytes.
#
# reactive_churn's digest was 6b74393d1270ab92 until a repeated
# FEATURES_REPLY stopped re-running the handshake: each of its 8 edge
# switches punts before its handshake lands, is re-solicited at once and
# answers twice, and the second reply used to bring a second
# `on_switch_up` and discovery round. Now it refreshes the port map and
# nothing else. That happens while the fabric is set up, before anything
# is measured: every exact line and count gated here is where it was,
# and the other three digests did not move.
#
# cbench_closed's allocations per setup end to end, 2.0018 until the
# emulated switch began keeping its punts as pre-built PACKET_INs and
# encoding them by reference instead of cloning a frame per punt, are
# gated from there on at 1.0018; no digest moved.
#
# cluster_churn's allocations per simulated ms, 100.12 until the
# controller's tick began paying only for what changed, are gated from
# there on at 52.68 (52.676); no digest moved. A view bump that leaves
# the routing graph as it was (a port up with no link yet, a host
# learned) now keeps the routing snapshot and its shortest-path trees,
# the fabric app keeps each switch's program hashes for as long as the
# snapshot's generation stands and renders groups only to send them,
# the link-aging pass is one walk, each LLDP probe is encoded from a
# kept frame buffer, and the mastership assignment no longer collects
# the live set per switch: the controller's timer callback allocates
# 84.9 times a call where it allocated 398.1. The same change lowered two other rows'
# counts, and their ceilings with them: reactive_churn learns a host
# per new flow without rebuilding the routing graph and its trees (per
# setup 14.68 -> 12.75 allocations, 841.8 -> 766.3 bytes), and
# cbench_closed's probes no longer allocate (1.0018 -> 1.0002).
#
# All four digests moved when a handshake began probing the new
# switch's own ports instead of every connected switch's (the tick still
# probes every port). fabric_forward was 5066696baa39f15d,
# reactive_churn f35e9243c16f79fb, cbench_closed 9f20247b19fe0559 and
# cluster_churn ad3bca74a5747c8f: each digest folds the set-up phase's
# control counters, and bring-up now sends one LLDP probe per up port
# instead of one per up port of every switch connected so far (k=8:
# 25 920 PACKET_OUTs and 17 664 LLDP PACKET_INs in the first simulated
# millisecond became 640 and 512). The view holds every link at the same
# simulated time, the fabric is programmed on the same tick, and every
# exact line and count gated here is where it was. cbench_closed's
# allocations per PACKET_IN stay at 0 because `World`'s free list now
# starts full of 2 KiB buffers; the parent's probe storm used to leave
# it full of grown ones.
#
# cbench_closed's allocated bytes per setup end to end, 63.26 while the
# emulated switch kept a second, wall-clock latency series beside its
# simulated one, are gated from there on at 36 (35.63): the series was
# a `Vec<u64>` growing by one sample per setup and its in-flight queue
# held a host-clock stamp beside each simulated one. Its allocations
# per setup, 1.00025 with that series' regrowths, are gated at 1.0002
# (1.00014). No digest moved.
#
# `World`'s control free list went from 32 to 64 buffers with every
# digest where it was. At 32 it ran dry behind every tick: a
# reactive_churn repetition allocated 60 482 fresh channel buffers and
# freed as many onto a full list. Seed 1 per setup end to end: 12.75 ->
# 12.39 allocations and 766.1 -> 629.7 bytes; inside the controller per
# PACKET_IN 0.0414 -> 0.00525; inside the agent per frame 1.0793 ->
# 1.0729. cluster_churn per simulated ms: 52.66 -> 50.41. The ceilings
# follow.
#
# All four digests moved when each channel kept one keepalive: the
# controller no longer probes every switch with an ECHO_REQUEST per tick
# (the agent's own 50 ms probe keeps its session fresh), and replicas
# no longer send an east-west heartbeat beside the digest that carries
# the same term and acks. fabric_forward was 3f4a2218053b6630,
# reactive_churn 02afd9272d9c37d9, cbench_closed 0b1ede174b320c8d and
# cluster_churn 9318e53601f29cce. Only control traffic moved: seed 1
# reactive_churn reads 13.425 messages, 15.491 events and 737.9 control
# bytes per setup (13.738, 15.647, 743.6), cluster_churn 16.20 messages
# and 733.1 control bytes per simulated ms (22.45, 845.7). Fewer
# channel buffers drawn brought the allocation rows down with them:
# reactive_churn 12.39 -> 12.23 per setup, 629.7 -> 588.6 bytes, 1.0729
# -> 1.0412 per agent frame; cluster_churn 50.41 -> 46.92. Every
# latency, failover hole, handover, retransmission, flow-mod and cache
# line is where it was. The ceilings follow.
#
# cluster_churn's allocations per simulated ms, 46.92 until the east-west
# chain hash began folding each entry's wire bytes from a buffer kept
# per thread instead of a fresh `Vec` per entry, are gated from there on
# at 40.39 (40.388); the same bytes are folded and no digest moved. Of
# the drop, 46.92 -> 46.03 came first, when a tracked mod's kept bytes
# began to be allocated once at the frame's length rather than grown
# through reallocations, and that change also halved reactive_churn's
# allocations inside the controller per PACKET_IN (0.00525 -> 0.00266):
# both ceilings follow.
#
# cluster_churn's allocations per simulated ms, 40.388 while a tracked
# mod's kept buffer was allocated at its frame's exact length, are gated
# from there on at 40.34 (40.337): a spare that had held a shorter mod
# grew on reuse, 5 118 times a run; kept buffers are now allocated at
# the power of two at or above the frame's length. No digest moved, and
# reactive_churn, where no spare ever grew, reads 588.81 bytes a setup
# as before.
#
# fabric_forward was 7f5821b7a36bbdf0 and cluster_churn 2233316a803ccbbf
# until the fabric app began sizing its program by the destinations
# that exist: groups only toward switches with hosts, and per
# destination switch the fewest prefixes that cover exactly its hosts
# instead of a `/32` each. A k=8 load is 10 320 mods where it was
# 16 640; the program is set up faster and every frame meets the same
# actions. fabric_forward's digest folds the set-up phase's control
# counters, and every exact line is where it was. cluster_churn
# re-sends smaller programs on every takeover and reprogram, so only
# control-traffic and allocation lines moved, all down, and every
# latency, failover hole, handover and commit line is where it was.
# Seed 1 per simulated ms: allocations 40.34 -> 36.80, control bytes
# 733.1 -> 718.1, mods retransmitted 9 175 -> 7 090 and cache flushes
# 40 520 -> 40 330 a run. The ceilings follow.
#
# fabric_forward was 52d5bd28d8759fe1, reactive_churn d7c53360dc63f869
# and cluster_churn c397614b684365a0 until the switch began sending its
# 50 ms ECHO_REQUEST only on a channel that was quiet one way or the
# other over the interval: a channel that carried a frame each way is
# proven to both ends already. Each tick still counts an interval
# against every connection, so the agent's `Degraded` and
# `Disconnected` land on the same ticks. Only control traffic moved.
# Seed 1 reactive_churn per setup: 13.425 -> 13.112 messages, 15.491 ->
# 15.178 events, 737.9 -> 732.3 control bytes, 12.225 -> 12.070
# allocations, 588.8 -> 550.7 bytes, 1.0412 -> 1.0095 allocations per
# agent frame; cluster_churn per simulated ms: 15.89 -> 15.04 messages,
# 718.1 -> 702.8 control bytes, 36.80 -> 36.53 allocations. Every
# latency, failover hole, handover, retransmission, flow-mod and cache
# line is where it was. The ceilings follow.
#
# fabric_forward was bd2c3be80ca90123, reactive_churn bada1029b7db8f7f
# and cluster_churn 158f00c79ff5093d until the switch began arming its
# 10 ms expiry sweep only while a table holds an entry with a timeout,
# for the next instant of the same grid from boot: every expiry and
# FLOW_REMOVED lands where it did, and only the sweeps that could find
# nothing went. Only `sim.world.events_per_op` moved among the exact
# lines: seed 1 fabric_forward 1.18116 -> 1.18052, reactive_churn
# 15.178 -> 14.904, cluster_churn 20.667 -> 18.667. Of the gated
# counts, reactive_churn's allocations per setup also moved, 12.0703 ->
# 12.0693, and its bytes 550.7 -> 549.8. The ceilings follow.
#
# All four digests moved when discovery began sending one LLDP
# PACKET_OUT per switch, with an action pair per up port that names the
# port in the frame's Ethernet source and outputs it there, instead of
# one PACKET_OUT per up port. fabric_forward was 3478d0dd397c09d6,
# reactive_churn 39e77af025369c0b, cbench_closed 41e331e4b6dbcf15 and
# cluster_churn 9c789a59ccbc9694. Only control traffic moved: seed 1
# reactive_churn reads 12.642 messages and 709.4 control bytes per
# setup (13.112, 732.3), cluster_churn 11.650 messages and 565.1
# control bytes per simulated ms (15.044, 702.8), cbench_closed 3.25047
# messages and 324.533 bytes per setup (3.25072, 324.544). Every event,
# latency, failover hole, handover, retransmission, flow-mod and cache
# flush line is where it was. One cache line moved, up: reactive_churn's
# hit ratio, 0.046 -> 0.078, because the probes an aggregation switch
# gets from the edge switches of its pod now share a source address
# (the edge's uplink port number), and the megaflow an LLDP miss
# installs under the reactive (eth_src, eth_dst) rules covers them all.
# The ceilings follow.
#
# A change that moves a digest on purpose updates it below in the same
# commit and says why; a change that lowers a count lowers its ceiling.
set -eu

TABLE='
fabric_forward 477ffa737b3c5946 core.agent.allocs_per_frame<=1.01 dataplane.datapath.allocs_per_micro_hit<=2 sim.world.drops_queue<=0
reactive_churn 4465126eea3320ad core.controller.msgs_per_op<=12.65 sim.world.events_per_op<=14.91 sim.world.ctl_bytes_per_op<=710 trace.allocs_per_op<=12.07 trace.bytes_alloc_per_op<=550 core.controller.allocs_per_packet_in<=0.0027 core.agent.allocs_per_frame<=1.01
cbench_closed 0ae761518bdd9f62 core.controller.allocs_per_packet_in<=0 core.controller.decode_errors<=0 trace.allocs_per_op<=1.0002 trace.bytes_alloc_per_op<=36
cluster_churn 10a61941f780b769 trace.allocs_per_op<=36.54 core.controller.mods_retransmitted<=7090 core.controller.flow_mods_per_op<=1.32 sim.world.ctl_bytes_per_op<=566 dataplane.cache.invalidations<=40330 sim.failover_hole_ms<=11 core.controller.packet_ins<=0
'

fail() {
    echo "ledger_counts: $1" >&2
    exit 1
}

# The value of metric $1 in the run whose JSON lines are $OUT.
metric() {
    value=$(printf '%s\n' "$OUT" |
        sed -n "s/^{\"type\":\"metric\",.*\"name\":\"$1\",\"value\":\([^,]*\),.*/\1/p")
    [ -n "$value" ] || fail "$workload: no metric $1 in the run's output"
    printf '%s\n' "$value"
}

printf '%s\n' "$TABLE" | while read -r workload committed ceilings; do
    [ -n "$workload" ] || continue
    OUT=$(cargo run --release --offline --quiet -p zen-bench --bin ledger -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 1)

    printf '%s\n' "$OUT" | tail -n 1 | grep -q '"correct":true' ||
        fail "$workload: the run is not correct: $(printf '%s\n' "$OUT" | tail -n 1)"

    digest=$(printf '%s\n' "$OUT" |
        sed -n 's/^{"type":"sim_digest",.*"digest":"\([0-9a-f]*\)".*/\1/p' | sort -u)
    [ "$digest" = "$committed" ] ||
        fail "$workload: sim_digest is '$digest', committed $committed"
    echo "ledger_counts: $workload: sim_digest = $digest"

    for ceiling in $ceilings; do
        name=${ceiling%%<=*}
        max=${ceiling#*<=}
        value=$(metric "$name")
        awk -v v="$value" -v max="$max" 'BEGIN { exit !(v + 0 <= max + 0) }' ||
            fail "$workload: $name = $value, allowed at most $max"
        echo "ledger_counts: $workload: $name = $value (<= $max)"
    done
done
