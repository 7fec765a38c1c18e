//! Proactive ECMP fabric programming.
//!
//! Given a host inventory (the fabric manager's source of truth, as in
//! a datacenter), this app waits for discovery to stabilize, then
//! pushes *all* forwarding state up front: per-destination /32 rules
//! pointing at SELECT groups whose buckets are the equal-cost next-hop
//! ports. Packets never visit the controller; failures are absorbed by
//! group-bucket liveness and a re-install on topology change.
//!
//! Senders address frames to [`FABRIC_MAC`]; the egress switch rewrites
//! the destination MAC to the real host before delivery (a common
//! fabric-anycast-gateway design).

use std::any::Any;
use std::hash::{Hash, Hasher};

use zen_consensus::{fnv1a_fold, CHAIN_SEED};
use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_graph::ecmp_next_hops;
use zen_sim::Instant;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

use crate::app::App;
use crate::controller::Ctl;
use crate::txn::Consistency;
use crate::view::{Dpid, NetworkView};

pub use crate::policy::{FABRIC_COOKIE, FABRIC_EPOCH_COOKIE, FABRIC_IMPORTANCE};

/// The virtual gateway MAC hosts send to.
pub const FABRIC_MAC: EthernetAddress = EthernetAddress([0x02, 0xfa, 0xb0, 0x00, 0x00, 0x01]);

/// One entry of the host inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticHost {
    /// Host IP.
    pub ip: Ipv4Address,
    /// Host MAC (written into delivered frames).
    pub mac: EthernetAddress,
    /// Attachment switch.
    pub dpid: Dpid,
    /// Attachment port.
    pub port: PortNo,
}

/// The proactive fabric application.
pub struct ProactiveFabric {
    hosts: Vec<StaticHost>,
    /// Number of switches expected before programming starts.
    pub expected_switches: usize,
    /// Number of directed links expected before programming starts.
    pub expected_links: usize,
    /// Priority of installed rules.
    pub priority: u16,
    /// How reprograms take effect: [`Consistency::Relaxed`] reinstalls
    /// in place (the classic delete-then-add burst), per-packet stages
    /// the whole fabric as one epoch-versioned two-phase update.
    pub consistency: Consistency,
    /// Decrement the IPv4 TTL on every transit hop, so packets caught
    /// in a transient forwarding loop self-terminate instead of
    /// circulating forever.
    pub dec_ttl: bool,
    /// A scheduled inventory change: at the given time, the host with
    /// the given IP moves to a new attachment point and the fabric
    /// reprograms (the update-consistency experiment's trigger).
    rehome: Option<(Instant, Ipv4Address, Dpid, PortNo)>,
    installed_version: Option<u64>,
    stable_ticks: u32,
    /// Parity-namespaced groups installed by the last epoch-mode
    /// reprogram, retired by the next one after its drain wave.
    epoch_groups: Vec<(Dpid, u32)>,
    /// Full reprogram passes performed (metric).
    pub installs: u64,
    /// Rules pushed in total (metric).
    pub rules_pushed: u64,
    /// Two-phase fabric updates committed (metric).
    pub txn_commits: u64,
    /// Two-phase fabric updates aborted (metric); each schedules a
    /// re-stage on the next tick.
    pub txn_aborts: u64,
}

impl ProactiveFabric {
    /// A fabric app for the given inventory and expected topology size.
    pub fn new(
        hosts: Vec<StaticHost>,
        expected_switches: usize,
        expected_links: usize,
    ) -> ProactiveFabric {
        ProactiveFabric {
            hosts,
            expected_switches,
            expected_links,
            priority: 200,
            consistency: Consistency::Relaxed,
            dec_ttl: false,
            rehome: None,
            installed_version: None,
            stable_ticks: 0,
            epoch_groups: Vec::new(),
            installs: 0,
            rules_pushed: 0,
            txn_commits: 0,
            txn_aborts: 0,
        }
    }

    /// Roll reprograms out as epoch-versioned two-phase updates.
    pub fn per_packet(mut self) -> ProactiveFabric {
        self.consistency = Consistency::PerPacket;
        self
    }

    /// Schedule a host re-home: at `at`, the host owning `ip` moves to
    /// `(dpid, port)` and the fabric reprograms.
    pub fn with_rehome(
        mut self,
        at: Instant,
        ip: Ipv4Address,
        dpid: Dpid,
        port: PortNo,
    ) -> ProactiveFabric {
        self.rehome = Some((at, ip, dpid, port));
        self
    }

    /// Whether the fabric has been programmed for the current topology.
    pub fn programmed(&self) -> bool {
        self.installed_version.is_some()
    }

    fn ready(&self, ctl: &Ctl<'_, '_>) -> bool {
        ctl.view.switches.len() >= self.expected_switches
            && ctl.view.links.len() >= self.expected_links
    }

    /// The forwarding program this app wants on `switch` given the
    /// current view: SELECT groups toward every other switch, then the
    /// per-host rules, in deterministic install order.
    fn desired_program(&self, view: &NetworkView, switch: Dpid) -> SwitchProgram {
        let mut program = SwitchProgram {
            groups: Vec::new(),
            flows: Vec::new(),
        };
        for (dst_dpid, buckets) in ecmp_buckets(view, switch) {
            program.groups.push((
                group_id_for(dst_dpid),
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets,
                },
            ));
        }
        for host in &self.hosts {
            let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(host.ip, 32).expect("/32 is valid"));
            let actions = if switch == host.dpid {
                vec![Action::SetEthDst(host.mac), Action::Output(host.port)]
            } else {
                let mut fwd = Vec::new();
                if self.dec_ttl {
                    fwd.push(Action::DecTtl);
                }
                fwd.push(Action::Group(group_id_for(host.dpid)));
                fwd
            };
            program.flows.push(
                // Fabric rules are the network's standing program:
                // mark them important so capacity eviction always
                // prefers reactive churn over infrastructure.
                FlowSpec::new(self.priority, matcher, actions)
                    .with_cookie(FABRIC_COOKIE)
                    .with_importance(FABRIC_IMPORTANCE),
            );
        }
        program
    }

    /// The stamp of the program this app wants on `switch` given
    /// `view` — what it records after programming the switch, and what
    /// a replica taking the switch over compares the record against.
    pub fn desired_stamp(&self, view: &NetworkView, switch: Dpid) -> u64 {
        program_hash(&self.desired_program(view, switch))
    }

    /// Reprogram a single switch from the current view.
    fn program_switch(&mut self, ctl: &mut Ctl<'_, '_>, switch: Dpid) {
        let program = self.desired_program(ctl.view, switch);
        let hash = program_hash(&program);
        self.install(ctl, switch, program, hash);
    }

    /// Push `program` to `switch`: wipe our cookie, reinstall its SELECT
    /// groups and per-host rules, and record `hash`, the program's
    /// stamp, in the replicated view so peer replicas can tell whether
    /// a takeover needs to reprogram at all.
    fn install(&mut self, ctl: &mut Ctl<'_, '_>, switch: Dpid, program: SwitchProgram, hash: u64) {
        // A single-switch transaction: even under per-packet
        // consistency this takes the planner's fast path (one switch
        // applies its mods in order).
        let mut txn = ctl.txn();
        txn.reserve(1 + program.groups.len() + program.flows.len());
        txn.delete_flows_by_cookie(switch, FABRIC_COOKIE);
        for (group_id, desc) in program.groups {
            txn.group(switch, group_id, desc);
        }
        for spec in program.flows {
            self.rules_pushed += 1;
            txn.flow(switch, 0, spec);
        }
        txn.commit(ctl);
        ctl.set_program_stamp(switch, FABRIC_COOKIE, hash);
    }

    fn install_all(&mut self, ctl: &mut Ctl<'_, '_>) {
        self.installs += 1;
        // Quarantined switches are unreachable; they get their state via
        // the resync handshake when they return. Switches mastered by a
        // peer replica are that replica's to program — our mods would be
        // filtered (and rejected by the agent) anyway.
        let switch_list: Vec<Dpid> = ctl
            .view
            .switches
            .keys()
            .copied()
            .filter(|&d| !ctl.view.is_quarantined(d) && ctl.is_master(d))
            .collect();
        if self.consistency == Consistency::PerPacket {
            self.install_all_epoch(ctl, &switch_list);
        } else {
            for switch in switch_list {
                self.program_switch(ctl, switch);
            }
        }
        self.installed_version = Some(ctl.view.version);
    }

    /// Stage the whole fabric as one epoch-versioned two-phase update.
    ///
    /// The program is a single table with two rules per destination on
    /// every switch (the datapath extracts its flow key once at
    /// ingress, so stamping and matching the stamp must happen on
    /// *different* switches — not in different tables of the same one):
    ///
    /// * an **internal** rule matching packets already stamped with
    ///   this epoch (the planner injects the qualifier), forwarding via
    ///   the parity-namespaced ECMP group or delivering locally with
    ///   the tag stripped;
    /// * an **edge** rule matching *unstamped* IPv4 from attached
    ///   hosts, with the same forwarding actions behind a `SetEpoch`
    ///   stamp the planner prepends at flip time. Its (priority, match)
    ///   is epoch-independent, so the flip replaces the previous
    ///   epoch's stamper in place — the per-switch atomic switchover.
    ///
    /// Cookies and group ids alternate by epoch parity, so the lame
    /// configuration stays addressable and is garbage-collected by the
    /// planner's retire wave after packets of its epoch have drained.
    fn install_all_epoch(&mut self, ctl: &mut Ctl<'_, '_>, switch_list: &[Dpid]) {
        let epoch = ctl.staged_epoch();
        let parity = (epoch % 2) as u32;
        let (cookie, old_cookie) = if parity == 0 {
            (FABRIC_COOKIE, FABRIC_EPOCH_COOKIE)
        } else {
            (FABRIC_EPOCH_COOKIE, FABRIC_COOKIE)
        };
        let old_groups = std::mem::take(&mut self.epoch_groups);
        let mut txn = ctl.txn().per_packet().owned_by("proactive-fabric", epoch);
        for &switch in switch_list {
            txn.retire_flows_by_cookie(switch, old_cookie);
            for (dst_dpid, buckets) in ecmp_buckets(ctl.view, switch) {
                let gid = group_id_for_epoch(dst_dpid, parity);
                txn.group(
                    switch,
                    gid,
                    GroupDesc {
                        group_type: GroupType::Select,
                        buckets,
                    },
                );
                self.epoch_groups.push((switch, gid));
            }
            for host in &self.hosts {
                let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(host.ip, 32).expect("/32 is valid"));
                let actions = if switch == host.dpid {
                    vec![
                        Action::PopEpoch,
                        Action::SetEthDst(host.mac),
                        Action::Output(host.port),
                    ]
                } else {
                    let mut fwd = Vec::new();
                    if self.dec_ttl {
                        fwd.push(Action::DecTtl);
                    }
                    fwd.push(Action::Group(group_id_for_epoch(host.dpid, parity)));
                    fwd
                };
                self.rules_pushed += 2;
                txn.internal_flow(
                    switch,
                    0,
                    FlowSpec::new(self.priority, matcher, actions.clone())
                        .with_cookie(cookie)
                        .with_importance(FABRIC_IMPORTANCE),
                );
                // The edge rule matches specifically un-stamped IPv4 —
                // traffic entering from attached hosts.
                let edge_matcher = FlowMatch {
                    epoch: Some(None),
                    ..matcher
                };
                txn.edge_flow(
                    switch,
                    0,
                    FlowSpec::new(self.priority, edge_matcher, actions)
                        .with_cookie(cookie)
                        .with_importance(FABRIC_IMPORTANCE),
                );
            }
        }
        for (dpid, gid) in old_groups {
            txn.retire_group(dpid, gid);
        }
        txn.commit(ctl);
    }
}

/// The SELECT buckets `switch` needs toward every other switch it can
/// reach, in the view's switch order: one watched output per live port
/// on each equal-cost next hop. The switch's usable ports are read off
/// the view once, not once per destination.
fn ecmp_buckets(view: &NetworkView, switch: Dpid) -> Vec<(Dpid, Vec<Bucket>)> {
    let routes = view.routes();
    let (graph, dpids) = (&routes.graph, &routes.dpids);
    let Some(&my_ix) = routes.index.get(&switch) else {
        return Vec::new();
    };
    let neighbours: Vec<(Dpid, PortNo)> = view.live_neighbours(switch).collect();
    let mut toward = Vec::new();
    for (dst_pos, &dst_dpid) in dpids.iter().enumerate() {
        if dst_dpid == switch {
            continue;
        }
        let mut buckets = Vec::new();
        for edge_ix in ecmp_next_hops(graph, my_ix, routes.dists_from(dst_pos as u32)) {
            let next_dpid = dpids[graph.edge(edge_ix).to as usize];
            let ports = neighbours.iter().filter(|&&(n, _)| n == next_dpid);
            buckets.extend(ports.map(|&(_, port)| Bucket::output(port)));
        }
        if !buckets.is_empty() {
            toward.push((dst_dpid, buckets));
        }
    }
    toward
}

/// The desired forwarding program for one switch, in install order.
struct SwitchProgram {
    groups: Vec<(u32, GroupDesc)>,
    flows: Vec<FlowSpec>,
}

/// The stamp a master records for the program it installed, through
/// [`Ctl::set_program_stamp`]: FNV-1a fed the program's own fields —
/// the groups, then the flows, each in install order, every list
/// preceded by its length — by way of the derived `Hash` of the
/// dataplane types. Nothing is rendered or allocated. Replicas run one
/// binary and derive the program from the same replicated view, so
/// equal programs stamp equal; any field a switch would forward
/// differently under moves the stamp.
fn program_hash(program: &SwitchProgram) -> u64 {
    let mut stamp = Fnv1a(CHAIN_SEED);
    program.groups.hash(&mut stamp);
    program.flows.hash(&mut stamp);
    stamp.finish()
}

/// FNV-1a as a [`Hasher`], so `#[derive(Hash)]` can drive it.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The group id used for routes toward `dst_dpid`.
pub fn group_id_for(dst_dpid: Dpid) -> u32 {
    0x1000 + dst_dpid as u32
}

/// The epoch-mode group id toward `dst_dpid`: namespaced by epoch
/// parity so consecutive configurations' groups coexist during a
/// two-phase update.
pub fn group_id_for_epoch(dst_dpid: Dpid, parity: u32) -> u32 {
    0x1000 + dst_dpid as u32 + parity * 0x4000
}

impl App for ProactiveFabric {
    fn name(&self) -> &'static str {
        "proactive-fabric"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        // A scheduled re-home fires exactly once: mutate the inventory
        // and reprogram immediately (deterministically, on this tick).
        if let Some((at, ip, dpid, port)) = self.rehome {
            if ctl.now() >= at {
                self.rehome = None;
                for host in &mut self.hosts {
                    if host.ip == ip {
                        host.dpid = dpid;
                        host.port = port;
                    }
                }
                if self.installed_version.is_some() {
                    self.install_all(ctl);
                    return;
                }
            }
        }
        // `ready` gates only the *initial* programming; once programmed,
        // any topology change (including lost links) must reprogram.
        if self.installed_version.is_none() && !self.ready(ctl) {
            return;
        }
        match self.installed_version {
            Some(v) if v == ctl.view.version => {}
            _ => {
                // Require two quiet ticks so discovery bursts settle.
                self.stable_ticks += 1;
                if self.stable_ticks >= 2 {
                    self.stable_ticks = 0;
                    self.install_all(ctl);
                }
            }
        }
    }

    fn on_port_status(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: Dpid, _port: PortNo, _up: bool) {
        // The view version bump makes the next tick reprogram; SELECT
        // group liveness already bypasses the dead port in the meantime.
        self.stable_ticks = 1; // accelerate reprogramming
    }

    fn on_switch_resync(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
        // A returning switch's state diverged from ours: rebuild just
        // that switch now instead of waiting out the stability window.
        // Epoch mode has no per-switch program (configurations are
        // network-wide); re-stage the whole fabric on the next tick.
        if self.installed_version.is_some() {
            if self.consistency == Consistency::PerPacket {
                self.installed_version = None;
                self.stable_ticks = 1;
            } else {
                self.program_switch(ctl, dpid);
            }
        }
    }

    fn on_update_committed(&mut self, _ctl: &mut Ctl<'_, '_>, owner: &'static str, _token: u64) {
        if owner == "proactive-fabric" {
            self.txn_commits += 1;
        }
    }

    fn on_update_aborted(&mut self, _ctl: &mut Ctl<'_, '_>, owner: &'static str, _token: u64) {
        if owner != "proactive-fabric" {
            return;
        }
        // The staged epoch was torn down (a touched switch died or
        // never acked). The old configuration still carries traffic;
        // re-stage against the current view on the next tick.
        self.txn_aborts += 1;
        self.installed_version = None;
        self.stable_ticks = 1;
    }

    fn on_mastership_change(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, is_master: bool) {
        if !is_master {
            return;
        }
        if self.installed_version.is_none() {
            // Not yet programmed anywhere; the regular tick path will
            // pick this switch up once discovery stabilizes.
            return;
        }
        if self.consistency == Consistency::PerPacket {
            // Epoch configurations are network-wide; re-stage fully.
            self.installed_version = None;
            self.stable_ticks = 1;
            return;
        }
        // Adopted an orphaned switch. If the previous master's stamped
        // program (replicated through the east-west store) already
        // matches what we would install, the takeover moves no flow
        // state at all; only a genuine divergence — the old master died
        // mid-convergence, or the topology changed since — reprograms.
        let program = self.desired_program(ctl.view, dpid);
        let desired = program_hash(&program);
        if ctl.program_stamp(dpid, FABRIC_COOKIE) != Some(desired) {
            self.install(ctl, dpid, program, desired);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> SwitchProgram {
        let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 7), 32).unwrap());
        SwitchProgram {
            groups: vec![(
                group_id_for(3),
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets: vec![Bucket::output(1), Bucket::output(2)],
                },
            )],
            flows: vec![
                FlowSpec::new(200, matcher, vec![Action::Group(group_id_for(3))])
                    .with_cookie(FABRIC_COOKIE)
                    .with_importance(FABRIC_IMPORTANCE),
                FlowSpec::new(
                    200,
                    FlowMatch::ANY,
                    vec![
                        Action::SetEthDst(EthernetAddress::from_id(9)),
                        Action::Output(4),
                    ],
                ),
            ],
        }
    }

    /// The stamp decides whether a takeover reprograms a switch: equal
    /// programs must stamp equal, and any change a switch would forward
    /// differently under must not.
    #[test]
    fn program_hash_tracks_every_forwarding_relevant_field() {
        let base = program_hash(&program());
        assert_eq!(
            base,
            program_hash(&program()),
            "equal programs, equal stamp"
        );

        type Perturb = fn(&mut SwitchProgram);
        let perturbations: [(&str, Perturb); 16] = [
            ("group id", |p| p.groups[0].0 += 1),
            ("group type", |p| {
                p.groups[0].1.group_type = GroupType::FastFailover
            }),
            ("bucket order", |p| p.groups[0].1.buckets.swap(0, 1)),
            ("bucket action", |p| {
                p.groups[0].1.buckets[1].actions = vec![Action::Output(3)]
            }),
            ("bucket watch port", |p| {
                p.groups[0].1.buckets[1].watch_port = None
            }),
            ("bucket count", |p| {
                p.groups[0].1.buckets.pop();
            }),
            ("priority", |p| p.flows[0].priority += 1),
            ("match field", |p| p.flows[0].matcher.l4_dst = Some(80)),
            ("match prefix", |p| {
                p.flows[0].matcher.ipv4_dst =
                    Some(Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 7), 24).unwrap())
            }),
            ("action order", |p| p.flows[1].actions.swap(0, 1)),
            ("action argument", |p| {
                p.flows[1].actions[1] = Action::Output(5)
            }),
            ("goto", |p| p.flows[0].goto_table = Some(1)),
            ("cookie", |p| p.flows[0].cookie ^= 1),
            ("importance", |p| p.flows[0].importance += 1),
            ("timeouts", |p| p.flows[1].idle_timeout = 5),
            ("flow order", |p| p.flows.swap(0, 1)),
        ];
        for (what, perturb) in perturbations {
            let mut changed = program();
            perturb(&mut changed);
            assert_ne!(base, program_hash(&changed), "{what} left the stamp alone");
        }
    }
}
