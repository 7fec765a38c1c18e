//! Edge-case tests for flow-cache invalidation: timeouts firing
//! mid-burst, cookie deletes wiping megaflows that cover live traffic,
//! and port state changing while an output effect is cached. Each case
//! asserts both the cached datapath's observable behaviour and that the
//! invalidation counters moved.

use zen_dataplane::{
    Action, Datapath, Effect, FlowEntry, FlowKey, FlowMatch, FlowSpec, MissPolicy, RemovedReason,
};
use zen_wire::builder::PacketBuilder;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

const M1: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 1]);
const M2: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 2]);
const IP1: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
const IP2: Ipv4Address = Ipv4Address::new(10, 0, 1, 1);

fn udp(dst_port: u16) -> Vec<u8> {
    PacketBuilder::udp(M1, IP1, 999, M2, IP2, dst_port, b"burst")
}

fn dp() -> Datapath {
    let mut dp = Datapath::new(1, 1, MissPolicy::Drop);
    for p in 1..=3 {
        dp.add_port(p);
    }
    dp
}

/// One expiry sweep at `now`, collected.
fn expire(dp: &mut Datapath, now: u64) -> Vec<(u8, FlowEntry, RemovedReason)> {
    let mut removed = Vec::new();
    dp.expire(now, &mut removed);
    removed
}

fn out_ports(effects: &[Effect]) -> Vec<u32> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Output { port, .. } => Some(*port),
            _ => None,
        })
        .collect()
}

#[test]
fn idle_timeout_expiry_mid_burst_invalidates() {
    let mut dp = dp();
    dp.add_flow(
        0,
        FlowSpec::new(10, FlowMatch::ANY.with_l4_dst(53), vec![Action::Output(2)])
            .with_timeouts(100, 0),
        0,
    );
    // Burst: first packet takes the slow path, the rest hit the cache
    // and — critically — keep refreshing the entry's idle timer.
    for t in 0..5 {
        assert_eq!(out_ports(&dp.process(t * 10, 1, &udp(53))), vec![2]);
    }
    assert!(dp.cache_stats().hits() >= 4);
    // Replays bumped last_hit, so expiry at last_hit + idle - 1 is a
    // no-op: cached hits must count as activity exactly like slow-path
    // hits, or idle timeouts would fire under live traffic.
    assert!(expire(&mut dp, 40 + 99).is_empty());
    // Past the idle horizon the entry goes, and the cache goes with it.
    let gen_before = dp.cache_generation();
    let removed = expire(&mut dp, 40 + 100);
    assert_eq!(removed.len(), 1);
    assert_eq!(dp.cache_generation(), gen_before + 1);
    // The stale trajectory must not serve the next packet.
    assert!(dp.process(500, 1, &udp(53)).is_empty());
    assert_eq!(dp.pipeline_drops, 1);
}

#[test]
fn hard_timeout_expiry_mid_burst_invalidates() {
    let mut dp = dp();
    dp.add_flow(
        0,
        FlowSpec::new(10, FlowMatch::ANY, vec![Action::Output(2)]).with_timeouts(0, 50),
        0,
    );
    // Traffic right up to the hard deadline keeps hitting the cache but
    // cannot extend the entry's life.
    for t in 0..5 {
        assert_eq!(out_ports(&dp.process(t * 10, 1, &udp(1))), vec![2]);
    }
    let invalidations_before = dp.cache_stats().invalidations;
    assert_eq!(expire(&mut dp, 50).len(), 1);
    assert!(dp.process(51, 1, &udp(1)).is_empty());
    assert_eq!(dp.cache_stats().invalidations, invalidations_before + 1);
}

#[test]
fn delete_by_cookie_wipes_megaflow_covering_live_traffic() {
    let mut dp = dp();
    // A wildcard rule: the megaflow mask covers only l4_dst, so packets
    // to many different source ports share one megaflow entry.
    dp.add_flow(
        0,
        FlowSpec::new(10, FlowMatch::ANY.with_l4_dst(80), vec![Action::Output(2)])
            .with_cookie(0xfeed),
        0,
    );
    // Distinct flow keys (different dst ports on the builder vary the
    // key), same megaflow. Warm the cache with live traffic.
    for t in 0..20 {
        dp.process(t, 1, &udp(80));
    }
    assert!(dp.cache_stats().hits() >= 19);
    assert!(dp.cache_len() > 0);
    // Delete the rule by cookie while its megaflow is hot.
    assert_eq!(dp.delete_flows_by_cookie(0xfeed).len(), 1);
    assert_eq!(dp.cache_len(), 0, "live megaflow survived the delete");
    // The very next packet must see the post-delete tables.
    assert!(dp.process(100, 1, &udp(80)).is_empty());
    assert_eq!(dp.pipeline_drops, 1);
    // A cookie delete that removes nothing must not thrash the cache.
    dp.process(101, 1, &udp(80)); // re-warm (miss path)
    let gen = dp.cache_generation();
    assert!(dp.delete_flows_by_cookie(0xbeef).is_empty());
    assert_eq!(dp.cache_generation(), gen);
}

#[test]
fn port_down_with_cached_output_effect() {
    let mut dp = dp();
    dp.add_flow(
        0,
        FlowSpec::new(10, FlowMatch::ANY, vec![Action::Output(2)]),
        0,
    );
    assert_eq!(out_ports(&dp.process(0, 1, &udp(1))), vec![2]);
    assert_eq!(out_ports(&dp.process(1, 1, &udp(1))), vec![2]);
    assert_eq!(dp.cache_stats().micro_hits, 1);
    // Take the cached egress port down. The cache is invalidated and
    // the replayed/slow path both account the drop at egress.
    let gen = dp.cache_generation();
    dp.set_port_up(2, false);
    assert_eq!(dp.cache_generation(), gen + 1);
    let effects = dp.process(2, 1, &udp(1));
    assert_eq!(out_ports(&effects), vec![2], "intent is still reported");
    assert!(!dp.port_up(2), "the agent skips it");
    assert_eq!(dp.port_stats(2).tx_dropped, 1);
    // Setting the same state again is a no-op, not an invalidation.
    let gen = dp.cache_generation();
    dp.set_port_up(2, false);
    assert_eq!(dp.cache_generation(), gen);
    // Port back up: invalidate again, traffic flows, counters resume.
    dp.set_port_up(2, true);
    assert_eq!(out_ports(&dp.process(3, 1, &udp(1))), vec![2]);
    assert!(dp.port_up(2));
}

#[test]
fn flood_membership_tracks_port_changes_through_the_cache() {
    let mut dp = dp();
    dp.add_flow(0, FlowSpec::new(1, FlowMatch::ANY, vec![Action::Flood]), 0);
    assert_eq!(out_ports(&dp.process(0, 1, &udp(1))), vec![2, 3]);
    assert_eq!(out_ports(&dp.process(1, 1, &udp(1))), vec![2, 3]);
    dp.set_port_up(3, false);
    assert_eq!(out_ports(&dp.process(2, 1, &udp(1))), vec![2]);
    // A new port joins the flood set immediately, cached or not.
    dp.add_port(4);
    assert_eq!(out_ports(&dp.process(3, 1, &udp(1))), vec![2, 4]);
}

#[test]
fn add_flow_shadowing_a_cached_trajectory_takes_effect_immediately() {
    let mut dp = dp();
    dp.add_flow(
        0,
        FlowSpec::new(1, FlowMatch::ANY, vec![Action::Output(2)]),
        0,
    );
    for t in 0..3 {
        assert_eq!(out_ports(&dp.process(t, 1, &udp(53))), vec![2]);
    }
    // Higher-priority rule for the same traffic: the cached trajectory
    // for this exact key is now wrong and must not be served.
    dp.add_flow(
        0,
        FlowSpec::new(
            9,
            FlowMatch::ANY.with_ip_proto(17).with_l4_dst(53),
            vec![Action::Output(3)],
        ),
        0,
    );
    assert_eq!(out_ports(&dp.process(10, 1, &udp(53))), vec![3]);
}

#[test]
fn meter_state_is_shared_between_cached_and_slow_path() {
    let mut dp = dp();
    dp.set_meter(1, 8_000, 50); // one ~43-byte frame per burst
    dp.add_flow(
        0,
        FlowSpec::new(1, FlowMatch::ANY, vec![Action::Meter(1), Action::Output(2)]),
        0,
    );
    let small = PacketBuilder::udp(M1, IP1, 1, M2, IP2, 2, b"x");
    // First packet: slow path, passes the meter, gets cached.
    assert!(!dp.process(0, 1, &small).is_empty());
    // Second at the same instant: replay hits the same token bucket and
    // is dropped mid-replay — cached and uncached agree on metering.
    assert!(dp.process(0, 1, &small).is_empty());
    assert_eq!(dp.cache_stats().micro_hits, 1);
    assert_eq!(dp.meter(1).unwrap().dropped, 1);
    // Reconfiguring the meter invalidates cached trajectories.
    let gen = dp.cache_generation();
    dp.set_meter(1, 1_000_000, 10_000);
    assert_eq!(dp.cache_generation(), gen + 1);
    assert!(!dp.process(1_000_000_000, 1, &small).is_empty());
}

#[test]
fn megaflow_mask_does_not_overgeneralize_across_rules() {
    let mut dp = dp();
    // Rule consults l4_dst: the megaflow mask must include it, so a
    // packet to another port must NOT reuse the cached trajectory.
    dp.add_flow(
        0,
        FlowSpec::new(10, FlowMatch::ANY.with_l4_dst(53), vec![Action::Output(2)]),
        0,
    );
    dp.add_flow(
        0,
        FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(3)]),
        0,
    );
    assert_eq!(out_ports(&dp.process(0, 1, &udp(53))), vec![2]);
    assert_eq!(out_ports(&dp.process(1, 1, &udp(80))), vec![3]);
    assert_eq!(out_ports(&dp.process(2, 1, &udp(53))), vec![2]);
    assert_eq!(out_ports(&dp.process(3, 1, &udp(80))), vec![3]);
}

#[test]
fn extract_key_helper_reaches_cache_consistently() {
    // Sanity: the microflow key really is per-flow (src port varies the
    // key), while a pure-wildcard rule yields one megaflow for all.
    let mut dp = dp();
    dp.add_flow(
        0,
        FlowSpec::new(1, FlowMatch::ANY, vec![Action::Output(2)]),
        0,
    );
    let f1 = PacketBuilder::udp(M1, IP1, 1000, M2, IP2, 80, b"a");
    let f2 = PacketBuilder::udp(M1, IP1, 2000, M2, IP2, 80, b"a");
    assert_ne!(
        FlowKey::extract(1, &f1).unwrap(),
        FlowKey::extract(1, &f2).unwrap()
    );
    dp.process(0, 1, &f1);
    dp.process(1, 1, &f2); // distinct key, same megaflow
    assert_eq!(dp.cache_stats().mega_hits, 1);
    dp.process(2, 1, &f2); // now promoted to microflow
    assert_eq!(dp.cache_stats().micro_hits, 1);
    // And a prefix rule widens the mask only to the consulted bits.
    let mut dp2 = dp_with_prefix();
    let inside = PacketBuilder::udp(M1, Ipv4Address::new(10, 0, 0, 9), 1, M2, IP2, 2, b"a");
    let outside = PacketBuilder::udp(M1, Ipv4Address::new(10, 9, 0, 9), 1, M2, IP2, 2, b"a");
    assert_eq!(out_ports(&dp2.process(0, 1, &inside)), vec![2]);
    assert!(dp2.process(1, 1, &outside).is_empty());
    assert_eq!(out_ports(&dp2.process(2, 1, &inside)), vec![2]);
}

fn dp_with_prefix() -> Datapath {
    let mut dp = Datapath::new(2, 1, MissPolicy::Drop);
    for p in 1..=2 {
        dp.add_port(p);
    }
    dp.add_flow(
        0,
        FlowSpec::new(
            10,
            FlowMatch {
                ipv4_src: Some(Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 0), 16).unwrap()),
                ..FlowMatch::ANY
            },
            vec![Action::Output(2)],
        ),
        0,
    );
    dp
}
