//! The replicated intent log end to end: ACL policy riding consensus
//! across a controller cluster, leader failover without losing
//! intents, mastership pins overriding the hash assignment, and digest
//! gossip converging while sending fewer east-west entries than the
//! suffix resend it replaced did.

use std::any::Any;

use zen_cluster::GossipMode;
use zen_core::apps::acl::ACL_COOKIE;
use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::{Acl, ProactiveFabric};
use zen_core::harness::{announcer, build_fabric, Fabric, FabricOptions};
use zen_core::{App, Controller, Ctl, SwitchAgent};
use zen_dataplane::FlowMatch;
use zen_proto::Intent;
use zen_sim::{Duration, FaultPlan, Host, Instant, LinkParams, Topology, Window, Workload, World};
use zen_wire::Ipv4Address;

fn default_ip(i: usize) -> Ipv4Address {
    zen_core::harness::default_host_ip(i)
}

fn secs(s: u64) -> Instant {
    Instant::from_secs(s)
}

fn ms(v: u64) -> Instant {
    Instant::from_millis(v)
}

fn deny_udp(port: u16) -> FlowMatch {
    FlowMatch::ANY.with_ip_proto(17).with_l4_dst(port)
}

fn deny_udp_9() -> FlowMatch {
    deny_udp(9)
}

/// Spacing of a [`Proposer`]'s intents.
const PROPOSE_EVERY: Duration = Duration::from_millis(30);

/// A test app that proposes its intents one every [`PROPOSE_EVERY`]
/// from a scheduled instant — exercising `propose_intent` from an
/// arbitrary replica while the cluster is mid-flight.
struct Proposer {
    at: Instant,
    /// Still to propose.
    intents: std::vec::IntoIter<Intent>,
    /// Commit confirmations received back (owner callback).
    pub confirmed: u64,
}

impl Proposer {
    fn new(at: Instant, intents: Vec<Intent>) -> Proposer {
        Proposer {
            at,
            intents: intents.into_iter(),
            confirmed: 0,
        }
    }
}

impl App for Proposer {
    fn name(&self) -> &'static str {
        "proposer"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        while ctl.now() >= self.at {
            let Some(intent) = self.intents.next() else {
                break;
            };
            ctl.propose_intent("proposer", intent);
            self.at += PROPOSE_EVERY;
        }
    }

    fn on_update_committed(&mut self, _ctl: &mut Ctl<'_, '_>, owner: &'static str, _token: u64) {
        if owner == "proposer" {
            self.confirmed += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A test app that proposes a batch of intents at a scheduled instant
/// — bulk traffic for pushing the intent log's compaction floor.
struct BatchProposer {
    at: Instant,
    intents: Vec<Intent>,
}

impl App for BatchProposer {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        if ctl.now() >= self.at {
            for intent in std::mem::take(&mut self.intents) {
                ctl.propose_intent("batch", intent);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A 4-switch ring, hosts on 0 and 2, `n` replicas each running
/// ProactiveFabric + Acl + Proposer. Replica `acl_on` seeds the deny;
/// replica `propose_on` (if any) fires its intents from `propose_at`;
/// replica `batch_on` (if any) fires its whole intent batch at once.
#[allow(clippy::too_many_arguments)]
fn consensus_fabric(
    world: &mut World,
    n: usize,
    gossip: GossipMode,
    acl_on: Option<usize>,
    propose_on: Option<(usize, Instant, Vec<Intent>)>,
    batch_on: Option<(usize, Instant, Vec<Intent>)>,
    workload: Option<Workload>,
) -> Fabric {
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 2];
    let inventory = {
        let mut scratch = World::new(99);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };
    let opts = FabricOptions {
        n_controllers: n,
        cluster_gossip: gossip,
        ..FabricOptions::default()
    };
    let expected_switches = topo.switches;
    let expected_links = 2 * topo.links.len();
    build_fabric(
        world,
        &topo,
        |i| {
            let denies = if acl_on == Some(i) {
                vec![deny_udp_9()]
            } else {
                vec![]
            };
            let proposer = match &propose_on {
                Some((r, at, intents)) if *r == i => Proposer::new(*at, intents.clone()),
                _ => Proposer::new(Instant::ZERO, Vec::new()),
            };
            let batch = match &batch_on {
                Some((r, at, intents)) if *r == i => BatchProposer {
                    at: *at,
                    intents: intents.clone(),
                },
                _ => BatchProposer {
                    at: Instant::ZERO,
                    intents: Vec::new(),
                },
            };
            vec![
                Box::new(Acl::new(denies)),
                Box::new(ProactiveFabric::new(
                    inventory.clone(),
                    expected_switches,
                    expected_links,
                )),
                Box::new(proposer),
                Box::new(batch),
            ]
        },
        opts,
        move |i, mac, ip| {
            let host = Host::new(mac, ip).with_static_arp(default_ip(1 - i), FABRIC_MAC);
            match (&workload, i) {
                (Some(w), 0) => host.with_workload(w.clone()),
                _ => host,
            }
        },
    )
}

fn acl_committed(world: &World, fabric: &Fabric, replica: usize) -> Vec<FlowMatch> {
    world
        .node_as::<Controller>(fabric.controllers[replica])
        .find_app::<Acl>()
        .expect("acl app present")
        .committed()
        .to_vec()
}

/// Number of ACL-cookie entries installed in switch `i`'s table 0.
fn acl_rules_installed(world: &World, fabric: &Fabric, i: usize) -> usize {
    world
        .node_as::<SwitchAgent>(fabric.switches[i])
        .dp
        .table(0)
        .entries()
        .filter(|e| e.spec.cookie == ACL_COOKIE)
        .count()
}

#[test]
fn acl_intent_commits_on_every_replica_and_programs_all_switches() {
    let mut world = World::new(41);
    let fabric = consensus_fabric(
        &mut world,
        3,
        GossipMode::Digest,
        Some(0),
        None,
        None,
        Some(Workload::Udp {
            dst: default_ip(1),
            dst_port: 9, // denied network-wide
            size: 64,
            count: 20,
            interval: Duration::from_millis(20),
            start: secs(2),
        }),
    );
    world.run_until(secs(3));

    // One proposal, committed everywhere, in the same order.
    for r in 0..3 {
        assert_eq!(
            acl_committed(&world, &fabric, r),
            vec![deny_udp_9()],
            "replica {r} did not commit the deny"
        );
        let ctl = world.node_as::<Controller>(fabric.controllers[r]);
        assert!(
            ctl.stats.intents_committed >= 1,
            "replica {r} observed no commits"
        );
        let acl = ctl.find_app::<Acl>().unwrap();
        assert_eq!(acl.intents_proposed, u64::from(r == 0));
    }
    // Every switch carries the deny, pushed by whichever replica
    // masters it.
    for i in 0..fabric.switches.len() {
        assert_eq!(
            acl_rules_installed(&world, &fabric, i),
            1,
            "switch {i} missing the committed deny"
        );
    }
    // The deny is live in the data plane: none of the denied probes
    // arrived.
    let h1 = world.node_as::<Host>(fabric.hosts[1]);
    assert_eq!(h1.stats.udp_rx, 0, "denied traffic leaked through");
}

/// Replica 2 proposes `burst` denies from `first_at`; the consensus
/// leader (replica 0, the minimum live index) is killed at t=2s and
/// healed at 3.5s. Every deny must commit on every replica — the
/// healed victim included — be confirmed to its proposer exactly once,
/// and sit on every switch exactly once.
fn leader_kill_loses_no_intents(seed: u64, replicas: usize, burst: u16, first_at: Instant) {
    let mut world = World::new(seed);
    let denies: Vec<FlowMatch> = (0..burst).map(|k| deny_udp(9 + k)).collect();
    let intents = denies
        .iter()
        .map(|&matcher| Intent::AclDeny {
            priority: 900,
            matcher,
            install: true,
        })
        .collect();
    let fabric = consensus_fabric(
        &mut world,
        replicas,
        GossipMode::Digest,
        None,
        Some((2, first_at, intents)),
        None,
        None,
    );
    world.run_until(secs(2));
    world.set_fault_plan(
        FaultPlan::default().isolate(fabric.controllers[0], Window::new(secs(2), ms(3500))),
    );
    world.run_until(secs(6));

    for r in 0..replicas {
        let committed = acl_committed(&world, &fabric, r);
        assert_eq!(
            committed.len(),
            denies.len(),
            "replica {r} lost or repeated an intent: {committed:?}"
        );
        for deny in &denies {
            assert!(committed.contains(deny), "replica {r} lost {deny:?}");
        }
    }
    let proposer = world
        .node_as::<Controller>(fabric.controllers[2])
        .find_app::<Proposer>()
        .unwrap();
    assert_eq!(
        proposer.confirmed,
        u64::from(burst),
        "commits confirmed {} times",
        proposer.confirmed
    );
    for i in 0..fabric.switches.len() {
        assert_eq!(
            acl_rules_installed(&world, &fabric, i),
            denies.len(),
            "switch {i} deny count wrong after failover"
        );
    }
}

/// One deny proposed at t=1.95s: with a 50 ms controller tick it is in
/// flight or freshly appended at the leader, uncommitted, when the
/// leader dies. The proposer must carry it across the failover to the
/// new leader.
#[test]
fn leader_killed_mid_commit_loses_no_intents() {
    leader_kill_loses_no_intents(43, 3, 1, ms(1950));
}

/// E20's leader kill: 5 replicas, 20 denies 30 ms apart from t=1.8s,
/// so some are committed before the kill, some are in flight at it and
/// the rest are proposed while there is no leader.
#[test]
fn leader_killed_mid_burst_loses_no_intents() {
    leader_kill_loses_no_intents(0xE20_0001, 5, 20, ms(1800));
}

#[test]
fn mastership_pin_intent_overrides_hash_assignment() {
    let mut world = World::new(47);
    // The hash assignment gives switch 0 to replica 0. Pin it to
    // replica 2 through the intent log.
    let fabric = consensus_fabric(
        &mut world,
        3,
        GossipMode::Digest,
        None,
        Some((
            1,
            ms(1500),
            vec![Intent::MastershipPin {
                dpid: 0,
                replica: 2,
                pinned: true,
            }],
        )),
        None,
        None,
    );
    world.run_until(ms(1200));
    let before = world
        .node_as::<Controller>(fabric.controllers[0])
        .mastered();
    assert!(
        before.contains(&0),
        "hash assignment should give switch 0 to replica 0: {before:?}"
    );

    world.run_until(secs(4));
    let r0 = world
        .node_as::<Controller>(fabric.controllers[0])
        .mastered();
    let r2 = world
        .node_as::<Controller>(fabric.controllers[2])
        .mastered();
    assert!(
        !r0.contains(&0) && r2.contains(&0),
        "pin not enforced: replica0={r0:?} replica2={r2:?}"
    );
    // The agent followed the handover.
    let agent = world.node_as::<SwitchAgent>(fabric.switches[0]);
    assert_eq!(
        agent.master_node(),
        Some(fabric.controllers[2]),
        "switch 0 not homed to the pinned replica"
    );
    assert_eq!(agent.stats.nonmaster_rejected, 0);
}

/// What suffix resend — the gossip mode digest exchange replaced, gone
/// since PR 24 — pushed east-west on the run below, measured on the last
/// commit that had it.
const SUFFIX_ENTRIES_SENT: u64 = 80;

#[test]
fn digest_gossip_converges_like_suffix_with_fewer_entries_sent() {
    let mut world = World::new(53);
    let fabric = consensus_fabric(
        &mut world,
        3,
        GossipMode::Digest,
        Some(0),
        None,
        None,
        Some(Workload::Ping {
            dst: default_ip(1),
            count: 20,
            interval: Duration::from_millis(50),
            start: ms(1500),
        }),
    );
    world.run_until(secs(3));
    let replicas = fabric.controllers.iter();
    let replicas = replicas.map(|&c| world.node_as::<Controller>(c));
    let entries_sent: u64 = replicas.clone().map(|c| c.stats.ew_entries_sent).sum();
    let views: Vec<usize> = replicas.map(|c| c.view.links.len()).collect();
    let pings = world
        .node_as::<Host>(fabric.hosts[0])
        .stats
        .ping_rtts
        .count();

    // The replicated state fully converges…
    assert_eq!(views, vec![8, 8, 8]);
    for r in 0..3 {
        assert_eq!(acl_committed(&world, &fabric, r), vec![deny_udp_9()]);
    }
    assert_eq!(pings, 20);
    // …and each entry is pushed once, where suffix resend pushed the
    // unacked suffix every tick until the ack round-tripped.
    assert!(
        entries_sent < SUFFIX_ENTRIES_SENT,
        "digest gossip sent {entries_sent} entries, suffix {SUFFIX_ENTRIES_SENT}"
    );
}

/// A replica partitioned across an ACL withdrawal that the leader then
/// compacts out of the log must rejoin via snapshot and *drop* the
/// stale deny: the withdrawal exists only as absence from the
/// snapshot's active set, so patching (replaying entries) can never
/// retract it. Guards the rebuild contract of
/// [`App::on_intent_snapshot`] end to end, down to the switch tables.
#[test]
fn healed_replica_rebuilds_acl_from_snapshot_dropping_withdrawn_deny() {
    let mut world = World::new(59);
    // Replica 0 seeds the deny. While replica 2 is partitioned,
    // replica 1 withdraws it and then churns enough pin intents
    // through the log to push the leader's compaction floor past the
    // withdrawal.
    let mut batch = vec![Intent::AclDeny {
        priority: 900,
        matcher: deny_udp_9(),
        install: false,
    }];
    batch.extend((0..40).map(|k| Intent::MastershipPin {
        dpid: 1000,
        replica: 0,
        pinned: k % 2 == 0,
    }));
    let fabric = consensus_fabric(
        &mut world,
        3,
        GossipMode::Digest,
        Some(0),
        None,
        Some((1, ms(2500), batch)),
        None,
    );
    world.run_until(secs(2));
    for r in 0..3 {
        assert_eq!(
            acl_committed(&world, &fabric, r),
            vec![deny_udp_9()],
            "replica {r} missing the deny pre-partition"
        );
    }
    world.set_fault_plan(
        FaultPlan::default().isolate(fabric.controllers[2], Window::new(secs(2), secs(5))),
    );
    world.run_until(secs(8));

    // The healed replica converged on the leader's log despite its
    // inflated self-campaign term from the partition.
    let caught_up = world
        .node_as::<Controller>(fabric.controllers[2])
        .intent_replica()
        .unwrap();
    let leader_log = world
        .node_as::<Controller>(fabric.controllers[0])
        .intent_replica()
        .unwrap();
    assert_eq!(
        (caught_up.term(), caught_up.commit()),
        (leader_log.term(), leader_log.commit()),
        "replica 2 did not converge on the leader's term and commit"
    );
    // Replica 2 rejoined past the floor: it caught up by snapshot, not
    // by replaying every commit it missed.
    let replayed = world
        .node_as::<Controller>(fabric.controllers[2])
        .stats
        .intents_committed;
    let full = world
        .node_as::<Controller>(fabric.controllers[0])
        .stats
        .intents_committed;
    assert!(
        replayed < full,
        "replica 2 replayed {replayed}/{full} commits — snapshot path not exercised"
    );
    // The withdrawn deny is gone everywhere — including on the replica
    // that never saw the withdrawal — and off every switch table.
    for r in 0..3 {
        assert!(
            acl_committed(&world, &fabric, r).is_empty(),
            "replica {r} kept the withdrawn deny"
        );
    }
    for i in 0..fabric.switches.len() {
        assert_eq!(
            acl_rules_installed(&world, &fabric, i),
            0,
            "switch {i} still carries the withdrawn deny"
        );
    }
}

/// Fixed-seed consensus soak (CI runs this): ACL intents and a
/// mastership pin ride the log while the consensus leader is killed
/// and healed — twice, from the same seed — and the end states must be
/// byte-identical. Guards election, log replication, snapshot
/// catch-up, digest anti-entropy, and intent dispatch against
/// nondeterminism.
#[test]
#[ignore = "consensus soak: run explicitly (CI does) — simulates ~6 s of fabric time twice"]
fn fixed_seed_consensus_soak_is_deterministic() {
    fn run_soak(seed: u64) -> String {
        let mut world = World::new(seed);
        let fabric = consensus_fabric(
            &mut world,
            3,
            GossipMode::Digest,
            Some(0),
            Some((
                2,
                ms(1950),
                vec![Intent::MastershipPin {
                    dpid: 1,
                    replica: 2,
                    pinned: true,
                }],
            )),
            None,
            Some(Workload::Udp {
                dst: default_ip(1),
                dst_port: 7,
                size: 100,
                count: 4000,
                interval: Duration::from_millis(1),
                start: ms(1500),
            }),
        );
        world.set_fault_plan(
            FaultPlan::default().isolate(fabric.controllers[0], Window::new(secs(2), ms(3500))),
        );
        world.run_until(secs(6));

        let mut digest = String::new();
        for (i, &sw) in fabric.switches.iter().enumerate() {
            let agent = world.node_as::<SwitchAgent>(sw);
            digest.push_str(&format!(
                "switch {i}: mods={} acl_rules={} master={:?} claim={:?}\n",
                agent.stats.flow_mods,
                agent
                    .dp
                    .table(0)
                    .entries()
                    .filter(|e| e.spec.cookie == ACL_COOKIE)
                    .count(),
                agent.master_node(),
                agent.master_claim(),
            ));
        }
        for (i, &c) in fabric.controllers.iter().enumerate() {
            let ctl = world.node_as::<Controller>(c);
            digest.push_str(&format!(
                "replica {i}: mastered={:?} term={:?} committed={:?} stats={:?}\n",
                ctl.mastered(),
                ctl.cluster_term(),
                ctl.find_app::<Acl>().unwrap().committed(),
                ctl.stats,
            ));
        }
        digest.push_str(&format!(
            "rx={}\n",
            world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx
        ));
        digest
    }

    let first = run_soak(131);
    println!(
        "soak consensus {:016x}",
        zen_consensus::fnv1a(first.as_bytes())
    );
    let second = run_soak(131);
    assert_eq!(first, second, "consensus soak is nondeterministic");
}
