//! Proactive ECMP fabric programming.
//!
//! Given a host inventory (the fabric manager's source of truth, as in
//! a datacenter), this app waits for discovery to stabilize, then
//! pushes *all* forwarding state up front, sized by the destinations
//! that exist: one SELECT group toward each switch that has hosts, its
//! buckets the equal-cost next-hop ports, and per such switch the
//! fewest IPv4 prefixes that cover exactly its hosts' addresses,
//! pointing at that group (`.1 .2 .3 .4` is `.1/32`, `.2/31` and
//! `.4/32`). A switch's own hosts keep one `/32` each, which rewrites
//! the destination MAC and outputs. Packets never visit the
//! controller; failures are absorbed by group-bucket liveness and a
//! re-install on topology change.
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

use super::ProgramGate;
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

/// The priority of the fabric's rules.
const PRIORITY: u16 = 200;

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

/// The inventory's hosts on one switch, and the fewest prefixes that
/// cover exactly their addresses.
#[derive(Default)]
struct Destination {
    hosts: Vec<StaticHost>,
    cover: Vec<Ipv4Cidr>,
}

/// The inventory by attachment switch, in dpid order: the switches the
/// fabric routes toward.
fn destinations(hosts: &[StaticHost]) -> BTreeMap<Dpid, Destination> {
    let mut by_switch: BTreeMap<Dpid, Destination> = BTreeMap::new();
    for host in hosts {
        by_switch.entry(host.dpid).or_default().hosts.push(*host);
    }
    for destination in by_switch.values_mut() {
        let addresses: Vec<Ipv4Address> = destination.hosts.iter().map(|h| h.ip).collect();
        destination.cover = exact_cover(&addresses);
    }
    by_switch
}

/// The fewest IPv4 prefixes whose union is exactly `addresses`, in
/// address order. Each is a largest aligned block of consecutive
/// members, so they are disjoint and none reaches an address outside
/// the set.
fn exact_cover(addresses: &[Ipv4Address]) -> Vec<Ipv4Cidr> {
    let mut sorted: Vec<u64> = addresses.iter().map(|a| u64::from(a.to_u32())).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut cover = Vec::new();
    let mut at = 0;
    while at < sorted.len() {
        // The run of consecutive addresses `lo..hi` starting here.
        let mut end = at + 1;
        while end < sorted.len() && sorted[end] == sorted[end - 1] + 1 {
            end += 1;
        }
        let (mut lo, hi) = (sorted[at], sorted[end - 1] + 1);
        while lo < hi {
            // The largest block aligned at `lo` that ends by `hi`.
            let aligned = lo.trailing_zeros();
            let fits = 63 - (hi - lo).leading_zeros();
            let bits = aligned.min(fits);
            let network = Ipv4Address::from_u32(lo as u32);
            cover.push(Ipv4Cidr::new(network, (32 - bits) as u8).expect("at most /32"));
            lo += 1 << bits;
        }
        at = end;
    }
    cover
}

/// The proactive fabric application.
pub struct ProactiveFabric {
    hosts: Vec<StaticHost>,
    /// [`destinations`] of `hosts`, worked out when the inventory is
    /// set and again on a re-home.
    destinations: BTreeMap<Dpid, Destination>,
    /// When the fabric is programmed; a re-stage (an aborted epoch, a
    /// switch back diverged) goes at the next tick.
    gate: ProgramGate,
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
            destinations: destinations(&hosts),
            hosts,
            gate: ProgramGate::new(expected_switches, expected_links),
            consistency: Consistency::Relaxed,
            dec_ttl: false,
            rehome: None,
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
        self.gate.programmed()
    }

    /// The rules this app wants on `switch`, in install order, each
    /// handed to `emit` with its role. They depend on the inventory and
    /// on nothing in the view. In place (`epoch` is `None`) that is, per
    /// destination switch, one plain rule per prefix of its cover (one
    /// per host when it is `switch` itself); under epoch parity `p`, the
    /// same rules as internal ones naming parity `p`'s groups, then the
    /// per-host edge stampers [`ProactiveFabric::install_all_epoch`]
    /// describes.
    fn flows(
        &self,
        switch: Dpid,
        cookie: u64,
        epoch: Option<u32>,
        mut emit: impl FnMut(FlowRole, FlowSpec),
    ) {
        // Fabric rules are the network's standing program: mark them
        // important so capacity eviction always prefers reactive churn
        // over infrastructure.
        let spec = |matcher, actions| {
            FlowSpec::new(PRIORITY, matcher, actions)
                .with_cookie(cookie)
                .with_importance(FABRIC_IMPORTANCE)
        };
        let to = |ip| FlowMatch::ipv4_to(Ipv4Cidr::new(ip, 32).expect("/32 is valid"));
        let role = match epoch {
            None => FlowRole::Plain,
            Some(_) => FlowRole::Internal,
        };
        for (&dst, destination) in &self.destinations {
            if dst == switch {
                for host in &destination.hosts {
                    emit(role, spec(to(host.ip), self.actions(switch, host, epoch)));
                }
            } else {
                let actions = self.actions(switch, &destination.hosts[0], epoch);
                for &prefix in &destination.cover {
                    emit(role, spec(FlowMatch::ipv4_to(prefix), actions.clone()));
                }
            }
            if epoch.is_none() {
                continue;
            }
            for host in &destination.hosts {
                let unstamped = FlowMatch {
                    epoch: Some(None),
                    ..to(host.ip)
                };
                let actions = self.actions(switch, host, epoch);
                emit(FlowRole::Edge, spec(unstamped, actions));
            }
        }
    }

    /// What `switch` does with a packet for `host`: deliver it if the
    /// host is attached there, else hand it to the group toward the
    /// host's switch.
    fn actions(&self, switch: Dpid, host: &StaticHost, epoch: Option<u32>) -> Vec<Action> {
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
        actions
    }

    /// The flow half of the program installed in place on `switch`.
    fn plain_flows(&self, switch: Dpid) -> Vec<FlowSpec> {
        // A cover is never longer than its hosts.
        let mut flows = Vec::with_capacity(self.hosts.len());
        self.flows(switch, FABRIC_COOKIE, None, |_, spec| flows.push(spec));
        flows
    }

    /// The stamp of the flow half installed in place on `switch`. If
    /// the flows had to be rendered to work it out, they are left in
    /// `rendered`.
    fn flows_stamp(&self, switch: Dpid, rendered: &mut Option<Vec<FlowSpec>>) -> u64 {
        match self.desired.get(&switch) {
            Some((_, base)) => base.flows_stamp(),
            None => flows_stamp(rendered.insert(self.plain_flows(switch))),
        }
    }

    /// The stamp of the program this app wants on `switch` given
    /// `view` — what is recorded after programming the switch, and what
    /// a replica taking the switch over compares the record against.
    pub fn desired_stamp(&self, view: &NetworkView, switch: Dpid) -> u64 {
        let flows_stamp = self.flows_stamp(switch, &mut None);
        let groups = groups(view, switch, 0, &self.destinations);
        ProgramBase::of(flows_stamp, &groups).stamp()
    }

    /// Bring one switch to the program the current view asks for —
    /// after a view change, when it returns diverged, when it is taken
    /// over. [`Ctl::reconcile`] works out what, if anything, to send.
    fn reconcile_switch(&mut self, ctl: &mut Ctl<'_, '_>, switch: Dpid) {
        let generation = ctl.view.routes().generation;
        // Groups and flows rendered to work the hashes out are the ones
        // sent, if anything is.
        let (mut rendered, mut flows) = (None, None);
        if !matches!(self.desired.get(&switch), Some(&(at, _)) if at == generation) {
            let flows_stamp = self.flows_stamp(switch, &mut flows);
            let toward = groups(ctl.view, switch, 0, &self.destinations);
            let base = ProgramBase::of(flows_stamp, &toward);
            self.desired.insert(switch, (generation, base));
            rendered = Some(toward);
        }
        let desired = &self.desired[&switch].1;
        let render_groups = |view: &NetworkView| {
            rendered.unwrap_or_else(|| groups(view, switch, 0, &self.destinations))
        };
        let render_flows = || flows.unwrap_or_else(|| self.plain_flows(switch));
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
        if !self.programmed() {
            // Not programmed anywhere yet; the tick will get to it once
            // discovery stabilizes.
        } else if self.consistency == Consistency::PerPacket {
            self.gate.restage();
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
        self.gate.installed(ctl.view.version);
    }

    /// Stage the whole fabric as one epoch-versioned two-phase update.
    ///
    /// The program is a single table with two kinds of rule on every
    /// switch (the datapath extracts its flow key once at ingress, so
    /// stamping and matching the stamp must happen on *different*
    /// switches — not in different tables of the same one):
    ///
    /// * **internal** rules matching packets already stamped with this
    ///   epoch (the planner injects the qualifier), one per prefix of a
    ///   destination switch's cover, forwarding via the
    ///   parity-namespaced ECMP group, or one per local host,
    ///   delivering with the tag stripped;
    /// * one **edge** rule per host matching *unstamped* IPv4 to its
    ///   `/32`, with the same forwarding actions behind a `SetEpoch`
    ///   stamp the planner prepends at flip time. Its (priority, match)
    ///   is epoch-independent, so the flip replaces the previous
    ///   epoch's stamper in place — the per-switch atomic switchover.
    ///   The stampers are not compressed for that reason: a re-home
    ///   that changes a cover would leave the old epoch's wider
    ///   stamper beside the new one, and a same-priority tie goes to
    ///   the older entry, which would go on stamping the old epoch
    ///   after the flip.
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
            for (gid, desc) in groups(ctl.view, switch, parity, &self.destinations) {
                txn.group(switch, gid, desc);
                self.epoch_groups.push((switch, gid));
            }
            let mut rules = 0;
            self.flows(switch, cookie, Some(parity), |role, spec| {
                txn.flow_as(role, switch, 0, spec);
                rules += 1;
            });
            self.rules_pushed += rules;
        }
        for (dpid, gid) in old_groups {
            txn.retire_group(dpid, gid);
        }
        txn.commit(ctl);
    }
}

/// The SELECT groups `switch` needs toward every other switch in
/// `toward` (the switches with hosts) it can reach, in the view's
/// switch order, under group-id parity `parity`: one watched output per
/// live port on each equal-cost next hop. The
/// switch's usable ports are read off the view once, not once per
/// destination. What it returns is a function of the routing snapshot
/// and `toward` alone: a next hop is a graph node, and every live
/// neighbour that can match one is an out-edge of the graph, leaving by
/// the port the snapshot's `edge_ports` holds for it — which is why
/// [`ProactiveFabric`] may keep the result's hashes for a generation.
fn groups(
    view: &NetworkView,
    switch: Dpid,
    parity: u32,
    toward: &BTreeMap<Dpid, Destination>,
) -> Vec<(u32, GroupDesc)> {
    let routes = view.routes();
    let (graph, dpids) = (&routes.graph, &routes.dpids);
    let Some(&my_ix) = routes.index.get(&switch) else {
        return Vec::new();
    };
    let neighbours: Vec<(Dpid, PortNo)> = view.live_neighbours(switch).collect();
    let mut groups = Vec::new();
    for (dst_pos, &dst_dpid) in dpids.iter().enumerate() {
        if dst_dpid == switch || !toward.contains_key(&dst_dpid) {
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
            groups.push((group_id_for_epoch(dst_dpid, parity), desc));
        }
    }
    groups
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
                self.destinations = destinations(&self.hosts);
                if self.programmed() {
                    self.install_all(ctl);
                    return;
                }
            }
        }
        if self.gate.due(ctl.view) {
            self.install_all(ctl);
        }
    }

    fn on_port_status(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: Dpid, _port: PortNo, _up: bool) {
        // The view version bump makes the next tick reprogram; SELECT
        // group liveness already bypasses the dead port in the meantime.
        self.gate.nudge();
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
        self.gate.restage();
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

#[cfg(test)]
mod tests {
    use super::*;

    use zen_dataplane::key::Ipv4Key;
    use zen_dataplane::{AddOutcome, FlowKey, FlowTable};
    use zen_sim::{LinkParams, Topology, World};
    use zen_wire::lcg::Lcg;

    use crate::harness::{announcer, build_fabric, FabricOptions};

    /// The fewest disjoint prefixes covering exactly `members` of the
    /// `span` addresses from `base`, by trying every prefix: the lowest
    /// address left must start a prefix (one reaching below it would
    /// take a non-member or overlap one already used), so the best
    /// cover from each member on is the best over the prefixes it can
    /// start, worked out from the top down.
    fn fewest(base: u64, span: u64, members: &[bool]) -> usize {
        let member = |a: u64| a >= base && a < base + span && members[(a - base) as usize];
        let mut best = vec![0usize; span as usize + 1];
        for at in (0..span).rev() {
            let a = base + at;
            if !member(a) {
                best[at as usize] = best[at as usize + 1];
                continue;
            }
            let mut fewest = usize::MAX;
            for bits in 0..=32u32 {
                let size = 1u64 << bits;
                if !a.is_multiple_of(size) || at + size > span || !(a..a + size).all(member) {
                    continue;
                }
                fewest = fewest.min(1 + best[(at + size) as usize]);
            }
            best[at as usize] = fewest;
        }
        best[0]
    }

    /// Random sets of up to 64 addresses, some at the ends of the
    /// address space: the cover's union is the set, its prefixes are
    /// disjoint, and no cover has fewer.
    #[test]
    fn exact_cover_is_the_fewest_disjoint_prefixes() {
        let mut rng = Lcg::new(43);
        let span = 64u64;
        for case in 0..2_000 {
            let base = match case % 10 {
                0 => 0,
                1 => (1u64 << 32) - span,
                _ => rng.gen_range((1u64 << 32) - span),
            };
            let density = 1 + rng.gen_range(10);
            let members: Vec<bool> = (0..span).map(|_| rng.gen_ratio(density, 10)).collect();
            let addresses: Vec<Ipv4Address> = (0..span)
                .filter(|&i| members[i as usize])
                .map(|i| Ipv4Address::from_u32((base + i) as u32))
                .collect();
            let cover = exact_cover(&addresses);

            let mut covered = Vec::new();
            for prefix in &cover {
                let start = u64::from(prefix.network().to_u32());
                let size = 1u64 << (32 - prefix.prefix_len());
                assert_eq!(prefix.address(), prefix.network(), "case {case}: {prefix}");
                covered.extend((start..start + size).map(|a| Ipv4Address::from_u32(a as u32)));
            }
            let count = covered.len();
            covered.sort_unstable();
            covered.dedup();
            assert_eq!(covered.len(), count, "case {case}: prefixes overlap");
            assert_eq!(covered, addresses, "case {case}: {cover:?}");
            assert_eq!(cover.len(), fewest(base, span, &members), "case {case}");
        }
        let four = [1, 2, 3, 4].map(|d| Ipv4Address::new(10, 0, 0, d));
        let cover: Vec<String> = exact_cover(&four).iter().map(|p| p.to_string()).collect();
        assert_eq!(cover, ["10.0.0.1/32", "10.0.0.2/31", "10.0.0.4/32"]);
        let everything = exact_cover(&[Ipv4Address::from_u32(0)]);
        assert_eq!(everything[0].prefix_len(), 32);
        assert!(exact_cover(&[]).is_empty());
    }

    /// The host inventory of a k-ary fat-tree with one host per edge
    /// port, as the harness addresses it.
    fn fat_tree_inventory(k: usize) -> (usize, Vec<StaticHost>) {
        let topo = Topology::fat_tree(k, LinkParams::default());
        let mut world = World::new(1);
        let fabric = build_fabric(
            &mut world,
            &topo,
            |_| Vec::new(),
            FabricOptions::default(),
            announcer,
        );
        (topo.switches, fabric.static_hosts())
    }

    /// The program with no cover: one rule per host, delivering at the
    /// host's switch and handing the packet to the group toward it
    /// anywhere else.
    fn per_host(
        hosts: &[StaticHost],
        switch: Dpid,
        epoch: Option<u32>,
        dec_ttl: bool,
    ) -> FlowTable {
        let mut table = FlowTable::new();
        for host in hosts {
            let mut actions = Vec::new();
            if host.dpid == switch {
                actions.extend(epoch.map(|_| Action::PopEpoch));
                actions.extend([Action::SetEthDst(host.mac), Action::Output(host.port)]);
            } else {
                actions.extend(dec_ttl.then_some(Action::DecTtl));
                let group = 0x1000 + host.dpid as u32 + epoch.unwrap_or(0) * 0x4000;
                actions.push(Action::Group(group));
            }
            let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(host.ip, 32).unwrap());
            table.add(FlowSpec::new(PRIORITY, matcher, actions), 0);
        }
        table
    }

    /// What `table` does with an unstamped UDP datagram to `dst`.
    fn forwards(table: &mut FlowTable, dst: Ipv4Address) -> Option<Vec<Action>> {
        let key = FlowKey {
            in_port: 1,
            eth_src: EthernetAddress::from_id(7),
            eth_dst: FABRIC_MAC,
            ethertype: 0x0800,
            vlan: None,
            epoch: None,
            ipv4: Some(Ipv4Key {
                src: Ipv4Address::new(10, 0, 0, 7),
                dst,
                proto: 17,
                dscp_ecn: 0,
            }),
            l4: None,
        };
        table
            .lookup(&key, 64, 0)
            .map(|entry| entry.spec.actions.clone())
    }

    /// On every switch, every address of `10.0.0.0/23` and a few outside
    /// it meets the same actions, or the same miss, in the program with
    /// covers as in the one with a rule per host — in place and, for the
    /// internal rules, under either epoch parity; and the edge stampers
    /// are the per-host rules themselves. Over k=4 and k=8, and an
    /// inventory whose entries no longer sit in address order: an entry
    /// beside the last host moved to the first switch, and a host moved
    /// off its switch.
    #[test]
    fn covers_forward_every_address_as_per_host_rules_do() {
        let (switches, k4) = fat_tree_inventory(4);
        let (switches8, k8) = fat_tree_inventory(8);
        let mut moved = k8.clone();
        let (first, last) = (moved[0], moved[moved.len() - 1]);
        moved.push(StaticHost {
            ip: Ipv4Address::new(10, 0, 0, 129),
            port: 63,
            ..first
        });
        moved[5].dpid = last.dpid;
        moved[5].port = 62;
        let outside = [
            [10, 0, 2, 0],
            [10, 0, 2, 1],
            [10, 1, 0, 1],
            [9, 255, 255, 255],
            [0, 0, 0, 0],
            [255, 255, 255, 255],
            [172, 16, 0, 1],
        ];
        let addresses: Vec<Ipv4Address> = (0..512u32)
            .map(|i| Ipv4Address::from_u32(0x0a00_0000 + i))
            .chain(outside.map(|[a, b, c, d]| Ipv4Address::new(a, b, c, d)))
            .collect();
        for (what, switches, hosts, dec_ttl) in [
            ("k=4", switches, k4, false),
            ("k=8", switches8, k8, true),
            ("moved", switches8, moved, false),
        ] {
            let mut app = ProactiveFabric::new(hosts.clone(), switches, 0);
            app.dec_ttl = dec_ttl;
            for switch in 0..switches as Dpid {
                for epoch in [None, Some(0), Some(1)] {
                    let (mut covered, mut edges) = (FlowTable::new(), Vec::new());
                    app.flows(switch, FABRIC_COOKIE, epoch, |role, spec| match role {
                        FlowRole::Edge => edges.push(spec),
                        _ => assert!(matches!(covered.add(spec, 0), AddOutcome::Added)),
                    });
                    let mut reference = per_host(&hosts, switch, epoch, dec_ttl);
                    for &dst in &addresses {
                        assert_eq!(
                            forwards(&mut covered, dst),
                            forwards(&mut reference, dst),
                            "{what}: switch {switch}, epoch {epoch:?}, {dst}"
                        );
                    }
                    let unstamped: Vec<(FlowMatch, Vec<Action>)> = reference
                        .entries()
                        .map(|e| {
                            let matcher = FlowMatch {
                                epoch: Some(None),
                                ..e.spec.matcher
                            };
                            (matcher, e.spec.actions.clone())
                        })
                        .collect();
                    let mut stampers: Vec<(FlowMatch, Vec<Action>)> =
                        edges.into_iter().map(|e| (e.matcher, e.actions)).collect();
                    if epoch.is_none() {
                        assert!(stampers.is_empty(), "{what}: stampers in place");
                        continue;
                    }
                    let order = |s: &(FlowMatch, Vec<Action>)| s.0.ipv4_dst.map(|p| p.address());
                    stampers.sort_by_key(order);
                    let mut unstamped = unstamped;
                    unstamped.sort_by_key(order);
                    assert_eq!(stampers, unstamped, "{what}: switch {switch}, {epoch:?}");
                }
            }
        }
    }
}
