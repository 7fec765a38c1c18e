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
use std::collections::BTreeMap;

use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_graph::ecmp_next_hops;
use zen_sim::{CounterId, Instant};
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

use crate::app::App;
use crate::controller::Ctl;
use crate::southbound::{flows_stamp, ProgramBase};
use crate::txn::{Consistency, FlowRole};
use crate::view::{Dpid, NetworkView};

pub use crate::policy::{FABRIC_COOKIE, FABRIC_EPOCH_COOKIE, FABRIC_IMPORTANCE};

/// The sim counters [`ProactiveFabric::mods_pushed`], `full_loads` and
/// `switches_unchanged` are exported as.
const RECONCILE_COUNTERS: [&str; 3] = [
    "fabric.reconcile.mods_pushed",
    "fabric.reconcile.full_loads",
    "fabric.reconcile.switches_unchanged",
];

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
    /// How reprograms take effect: [`Consistency::Relaxed`] reconciles
    /// each switch in place (only what differs is sent), per-packet
    /// stages the whole fabric as one epoch-versioned two-phase update.
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
    /// The hashes of each switch's in-place program, and the
    /// [`Routes::generation`](crate::view::Routes::generation) they were
    /// worked out under, filled in as asked for. The groups depend on
    /// nothing in the view but the routing graph, so an entry stands
    /// while the generation does, and a pass over an unchanged graph
    /// renders no group; the flow half depends on the inventory alone,
    /// so a new generation keeps its stamp and a view change never
    /// re-renders a rule. Dropped when the inventory changes.
    desired: BTreeMap<Dpid, (u64, ProgramBase)>,
    /// Reprogram passes performed (metric).
    pub installs: u64,
    /// Rules pushed in total (metric).
    pub rules_pushed: u64,
    /// Messages a reconcile sent — group and flow mods alike (metric).
    pub mods_pushed: u64,
    /// Switches loaded whole behind a cookie wipe (metric).
    pub full_loads: u64,
    /// Switches a reconcile found already holding their program, and
    /// sent nothing (metric).
    pub switches_unchanged: u64,
    /// Handles of [`RECONCILE_COUNTERS`], registered on first use.
    counters: Option<[CounterId; 3]>,
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
            desired: BTreeMap::new(),
            installs: 0,
            rules_pushed: 0,
            mods_pushed: 0,
            full_loads: 0,
            switches_unchanged: 0,
            counters: None,
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

    /// The per-host rules this app wants on `switch`, in install order,
    /// each handed to `emit` with its role. They depend on the inventory
    /// and on nothing in the view. In place (`epoch` is `None`) that is
    /// one plain rule per host; under epoch parity `p`, the internal and
    /// the edge rule [`ProactiveFabric::install_all_epoch`] describes,
    /// naming parity `p`'s groups.
    fn flows(
        &self,
        switch: Dpid,
        cookie: u64,
        epoch: Option<u32>,
        mut emit: impl FnMut(FlowRole, FlowSpec),
    ) {
        for host in &self.hosts {
            let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(host.ip, 32).expect("/32 is valid"));
            let mut actions = Vec::with_capacity(3);
            if switch == host.dpid {
                if epoch.is_some() {
                    actions.push(Action::PopEpoch);
                }
                actions.extend([Action::SetEthDst(host.mac), Action::Output(host.port)]);
            } else {
                if self.dec_ttl {
                    actions.push(Action::DecTtl);
                }
                let parity = epoch.unwrap_or(0);
                actions.push(Action::Group(group_id_for_epoch(host.dpid, parity)));
            }
            // Fabric rules are the network's standing program: mark
            // them important so capacity eviction always prefers
            // reactive churn over infrastructure.
            let spec = |matcher, actions| {
                FlowSpec::new(self.priority, matcher, actions)
                    .with_cookie(cookie)
                    .with_importance(FABRIC_IMPORTANCE)
            };
            if epoch.is_none() {
                emit(FlowRole::Plain, spec(matcher, actions));
            } else {
                emit(FlowRole::Internal, spec(matcher, actions.clone()));
                let unstamped = FlowMatch {
                    epoch: Some(None),
                    ..matcher
                };
                emit(FlowRole::Edge, spec(unstamped, actions));
            }
        }
    }

    /// The flow half of the program installed in place on `switch`.
    fn plain_flows(&self, switch: Dpid) -> Vec<FlowSpec> {
        let mut flows = Vec::with_capacity(self.hosts.len());
        self.flows(switch, FABRIC_COOKIE, None, |_, spec| flows.push(spec));
        flows
    }

    /// The stamp of the flow half installed in place on `switch`.
    fn flows_stamp(&self, switch: Dpid) -> u64 {
        match self.desired.get(&switch) {
            Some((_, base)) => base.flows_stamp(),
            None => flows_stamp(&self.plain_flows(switch)),
        }
    }

    /// The stamp of the program this app wants on `switch` given
    /// `view` — what is recorded after programming the switch, and what
    /// a replica taking the switch over compares the record against.
    pub fn desired_stamp(&self, view: &NetworkView, switch: Dpid) -> u64 {
        ProgramBase::of(self.flows_stamp(switch), &groups(view, switch, 0)).stamp()
    }

    /// Bring one switch to the program the current view asks for —
    /// after a view change, when it returns diverged, when it is taken
    /// over. [`Ctl::reconcile`] works out what, if anything, to send.
    fn reconcile_switch(&mut self, ctl: &mut Ctl<'_, '_>, switch: Dpid) {
        let generation = ctl.view.routes().generation;
        // Groups rendered to work the hashes out are the ones sent, if
        // anything is.
        let mut rendered = None;
        if !matches!(self.desired.get(&switch), Some(&(at, _)) if at == generation) {
            let flows_stamp = self.flows_stamp(switch);
            let toward = groups(ctl.view, switch, 0);
            let base = ProgramBase::of(flows_stamp, &toward);
            self.desired.insert(switch, (generation, base));
            rendered = Some(toward);
        }
        let desired = &self.desired[&switch].1;
        let render_groups =
            |view: &NetworkView| rendered.unwrap_or_else(|| groups(view, switch, 0));
        let render_flows = || self.plain_flows(switch);
        let sent = ctl.reconcile(switch, FABRIC_COOKIE, desired, render_groups, render_flows);
        let counted = [
            sent.mods as u64,
            u64::from(sent.full),
            u64::from(sent.mods == 0),
        ];
        self.rules_pushed += sent.flows as u64;
        self.mods_pushed += counted[0];
        self.full_loads += counted[1];
        self.switches_unchanged += counted[2];
        let metrics = ctl.io.sink.metrics();
        let register = || RECONCILE_COUNTERS.map(|name| metrics.register_counter(name));
        let ids = *self.counters.get_or_insert_with(register);
        for (id, by) in ids.into_iter().zip(counted) {
            metrics.add(id, by);
        }
    }

    /// A switch needs looking at outside the tick's pass (it returned
    /// diverged, or was taken over). Epoch mode has no per-switch
    /// program — configurations are network-wide — so it re-stages the
    /// whole fabric on the next tick.
    fn reconcile_now(&mut self, ctl: &mut Ctl<'_, '_>, switch: Dpid) {
        if self.installed_version.is_none() {
            // Not programmed anywhere yet; the tick will get to it once
            // discovery stabilizes.
        } else if self.consistency == Consistency::PerPacket {
            self.installed_version = None;
            self.stable_ticks = 1;
        } else {
            self.reconcile_switch(ctl, switch);
        }
    }

    fn install_all(&mut self, ctl: &mut Ctl<'_, '_>) {
        self.installs += 1;
        // Quarantined switches are unreachable; they are reconciled when
        // they return. Switches mastered by a peer replica are that
        // replica's to program.
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
                self.reconcile_switch(ctl, switch);
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
            for (gid, desc) in groups(ctl.view, switch, parity) {
                txn.group(switch, gid, desc);
                self.epoch_groups.push((switch, gid));
            }
            self.flows(switch, cookie, Some(parity), |role, spec| {
                txn.flow_as(role, switch, 0, spec);
            });
            self.rules_pushed += 2 * self.hosts.len() as u64;
        }
        for (dpid, gid) in old_groups {
            txn.retire_group(dpid, gid);
        }
        txn.commit(ctl);
    }
}

/// The SELECT groups `switch` needs toward every other switch it can
/// reach, in the view's switch order, under group-id parity `parity`:
/// one watched output per live port on each equal-cost next hop. The
/// switch's usable ports are read off the view once, not once per
/// destination. What it returns is a function of the routing snapshot
/// alone: a next hop is a graph node, and every live neighbour that can
/// match one is an out-edge of the graph, leaving by the port the
/// snapshot's `edge_ports` holds for it — which is why
/// [`ProactiveFabric`] may keep the result's hashes for a generation.
fn groups(view: &NetworkView, switch: Dpid, parity: u32) -> Vec<(u32, GroupDesc)> {
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
            let group_type = GroupType::Select;
            let desc = GroupDesc {
                group_type,
                buckets,
            };
            toward.push((group_id_for_epoch(dst_dpid, parity), desc));
        }
    }
    toward
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
                self.desired.clear();
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
        self.reconcile_now(ctl, dpid);
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
        // Adopted an orphaned switch. If the stamp its previous master
        // recorded (replicated through the east-west store) is the one
        // we would, the takeover moves no state at all; only a genuine
        // divergence — the old master died mid-convergence, or the
        // topology changed since — loads it.
        if is_master {
            self.reconcile_now(ctl, dpid);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
