//! B4-style centralized traffic engineering.
//!
//! Sites are switches; each site owns an IPv4 prefix. Given a demand
//! matrix, the app runs the `zen-te` max-min allocator over the
//! discovered topology, then realizes the allocation with VLAN-labelled
//! tunnels:
//!
//! * Each (demand, path) pair gets a VLAN tag.
//! * The ingress switch classifies traffic by destination site prefix
//!   into a SELECT group whose buckets push a tunnel tag and forward;
//!   bucket multiplicity encodes the quantized split weights.
//! * Transit switches forward on the tag alone.
//! * The egress switch pops the tag and hands off to the local delivery
//!   table (table 1), which rewrites the destination MAC per host.
//!
//! Compare with `k = 1` (single shortest path) to reproduce the
//! "centralized TE drives utilization" experiment.
//!
//! ## Rollouts
//!
//! A reconfiguration (demand or topology change) is one
//! [`NetworkUpdate`](crate::txn::NetworkUpdate), staged in this order:
//! retire the live generation's cookie and groups, stage the new
//! generation's tunnels and SELECT groups under the cookie, VLAN tags
//! and group ids of its epoch's parity, then stage the ingress
//! classifiers as [`FlowRole::Cutover`] rules. [`consistency`] decides
//! what the controller makes of it:
//!
//! * [`Consistency::PerPacket`] — make-before-break, the
//!   consistency-aware scheme of the congestion-free-update literature
//!   (zUpdate/SWAN). The update planner sends the tunnels and groups,
//!   waits until every switch has acked them, then sends the
//!   classifiers, each replacing its predecessor in place (same
//!   priority and match), and retires the old generation after the
//!   drain wave. Every packet is handled entirely by one generation,
//!   so reconfiguration is hitless. The tags carry the version, so no
//!   epoch stamp is added.
//! * [`Consistency::Relaxed`] — teardown-first: every op goes out at
//!   once, in staging order, so the retires lead. Relaxed updates never
//!   move the epoch, so each generation replaces its own parity's.
//!   Under asynchronous rule application (control-channel jitter)
//!   switches transition at unpredictable relative times and traffic
//!   blackholes transiently.
//!
//! The local-delivery rules ([`TE_STATIC_COOKIE`]) are their own
//! relaxed update: an aborted rollout deletes every cookie it staged.
//!
//! [`consistency`]: TrafficEngineering::consistency

use std::any::Any;
use std::collections::BTreeMap;

use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_graph::Graph;
use zen_te::{allocate, quantize_splits, DemandMatrix};
use zen_wire::Ipv4Cidr;

use super::ProgramGate;
use crate::app::App;
use crate::apps::proactive::StaticHost;
use crate::controller::Ctl;
use crate::txn::{Consistency, FlowRole};
use crate::view::Dpid;

pub use crate::policy::{TE_GEN0_COOKIE, TE_GEN1_COOKIE, TE_STATIC_COOKIE};

/// The name rollouts are owned by.
const OWNER: &str = "traffic-engineering";

/// A generation's cookie, first VLAN tag and first group id, by its
/// epoch's parity: disjoint spaces, so two generations coexist.
const GEN_COOKIE: [u64; 2] = [TE_GEN0_COOKIE, TE_GEN1_COOKIE];
const GEN_TAG_BASE: [u16; 2] = [100, 2100];
const GEN_GID_BASE: [u32; 2] = [0x2000, 0x3000];

/// ECMP buckets a demand's split weights are quantized into.
const BUCKETS: u32 = 8;

/// A traffic demand between sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteDemand {
    /// Source site (switch).
    pub src: Dpid,
    /// Destination site (switch).
    pub dst: Dpid,
    /// Requested rate in bits/sec.
    pub rate_bps: u64,
}

/// The traffic-engineering application.
pub struct TrafficEngineering {
    /// Site prefixes.
    pub site_prefixes: BTreeMap<Dpid, Ipv4Cidr>,
    /// Host inventory for local delivery.
    pub hosts: Vec<StaticHost>,
    /// The demand matrix (aggregated per (src, dst) internally).
    pub demands: Vec<SiteDemand>,
    /// Uniform link capacity assumed by the allocator, bits/sec.
    pub capacity_bps: u64,
    /// Candidate paths per demand (1 = shortest-path baseline).
    pub k: usize,
    /// When a rollout is staged. A re-stage (the demands changed, or
    /// the last rollout was aborted) goes at the next tick.
    gate: ProgramGate,
    /// How a rollout takes effect: make-before-break under
    /// [`Consistency::PerPacket`] (the default), teardown-first under
    /// [`Consistency::Relaxed`] (see the module docs).
    pub consistency: Consistency,
    /// Swap the demand matrix at a scheduled time (nanoseconds), forcing
    /// a live reconfiguration — the trigger the update-disruption
    /// experiment uses.
    pub scheduled_demands: Option<(u64, Vec<SiteDemand>)>,
    /// The groups each parity's generation was last staged with, retired
    /// by the rollout that replaces it.
    groups: [Vec<(Dpid, u32)>; 2],
    /// Reprogram passes (metric).
    pub installs: u64,
    /// The most recent allocation's granted rates per aggregated demand.
    pub last_rates: Vec<u64>,
    /// The aggregated demands matching `last_rates`.
    pub last_demands: Vec<SiteDemand>,
}

impl TrafficEngineering {
    /// A TE app. See the struct fields for knob meanings.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        site_prefixes: BTreeMap<Dpid, Ipv4Cidr>,
        hosts: Vec<StaticHost>,
        demands: Vec<SiteDemand>,
        capacity_bps: u64,
        k: usize,
        expected_switches: usize,
        expected_links: usize,
    ) -> TrafficEngineering {
        TrafficEngineering {
            site_prefixes,
            hosts,
            demands,
            capacity_bps,
            k,
            gate: ProgramGate::new(expected_switches, expected_links),
            consistency: Consistency::PerPacket,
            scheduled_demands: None,
            groups: Default::default(),
            installs: 0,
            last_rates: Vec::new(),
            last_demands: Vec::new(),
        }
    }

    /// Whether tunnels are currently programmed.
    pub fn programmed(&self) -> bool {
        self.gate.programmed()
    }

    fn aggregated_demands(&self) -> Vec<SiteDemand> {
        let mut agg: BTreeMap<(Dpid, Dpid), u64> = BTreeMap::new();
        for d in &self.demands {
            if d.src != d.dst {
                *agg.entry((d.src, d.dst)).or_insert(0) += d.rate_bps;
            }
        }
        agg.into_iter()
            .map(|((src, dst), rate_bps)| SiteDemand { src, dst, rate_bps })
            .collect()
    }

    fn install_all(&mut self, ctl: &mut Ctl<'_, '_>) {
        self.installs += 1;
        let switch_list: Vec<Dpid> = ctl.view.switches.keys().copied().collect();

        // Own-site shortcut and local delivery, on every switch: outside
        // the rollout, whose abort deletes every cookie it staged.
        let mut statics = ctl.txn();
        for &switch in &switch_list {
            if let Some(&prefix) = self.site_prefixes.get(&switch) {
                let spec = FlowSpec::new(75, FlowMatch::ipv4_to(prefix), vec![])
                    .with_goto(1)
                    .with_cookie(TE_STATIC_COOKIE);
                statics.flow(switch, 0, spec);
            }
            for host in self.hosts.iter().filter(|h| h.dpid == switch) {
                let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(host.ip, 32).expect("/32 is valid"));
                let actions = vec![Action::SetEthDst(host.mac), Action::Output(host.port)];
                let spec = FlowSpec::new(10, matcher, actions).with_cookie(TE_STATIC_COOKIE);
                statics.flow(switch, 1, spec);
            }
        }
        statics.commit(ctl);

        // The new generation takes its epoch's parity; a relaxed one
        // moves no epoch and so replaces its own parity's.
        let epoch = ctl.staged_epoch();
        let live = match self.consistency {
            Consistency::PerPacket => epoch - 1,
            Consistency::Relaxed => epoch,
        };
        let (parity, live) = ((epoch % 2) as usize, (live % 2) as usize);
        let cookie = GEN_COOKIE[parity];
        let mut txn = ctl.txn().owned_by(OWNER, epoch);
        txn.consistency = self.consistency;
        for &switch in &switch_list {
            txn.retire_flows_by_cookie(switch, GEN_COOKIE[live]);
        }
        for (switch, gid) in std::mem::take(&mut self.groups[live]) {
            txn.retire_group(switch, gid);
        }
        // An aborted rollout's groups under this parity are gone.
        self.groups[parity].clear();

        // The shared topology with this app's line rate on every edge
        // (same edge order, so path edge indices agree).
        let routes = ctl.view.routes();
        let (dpids, index) = (&routes.dpids, &routes.index);
        let mut graph = Graph::with_nodes(dpids.len());
        for e in routes.graph.edges() {
            graph.add_edge(e.from, e.to, e.weight, self.capacity_bps);
        }

        // Allocate.
        let demands = self.aggregated_demands();
        let mut matrix = DemandMatrix::new();
        for d in &demands {
            let (Some(&s), Some(&t)) = (index.get(&d.src), index.get(&d.dst)) else {
                continue;
            };
            matrix.push(s, t, d.rate_bps);
        }
        // Allocated in steps of 1 % of the line rate.
        let quantum = (self.capacity_bps / 100).max(1);
        let alloc = allocate(&graph, &matrix, self.k, quantum);
        self.last_rates = alloc.rates.clone();
        self.last_demands = demands.clone();

        // Realize tunnels.
        let mut ingress_rules: Vec<(Dpid, FlowSpec)> = Vec::new();
        let mut next_tag: u16 = GEN_TAG_BASE[parity];
        for (di, demand) in demands.iter().enumerate() {
            let used_paths = &alloc.paths[di];
            if used_paths.is_empty() {
                continue;
            }
            let rates: Vec<u64> = used_paths.iter().map(|(_, r)| *r).collect();
            let weights = quantize_splits(&rates, BUCKETS);

            let mut buckets = Vec::new();
            for ((path, _), &weight) in used_paths.iter().zip(&weights) {
                if weight == 0 || path.nodes.len() < 2 {
                    continue;
                }
                let tag = next_tag;
                next_tag += 1;
                let hops: Vec<Dpid> = path.nodes.iter().map(|&ix| dpids[ix as usize]).collect();
                let Some(first_port) = ctl.view.port_toward(hops[0], hops[1]) else {
                    continue;
                };
                // Transit rules.
                for w in 1..hops.len() {
                    let here = hops[w];
                    let matcher = FlowMatch {
                        vlan: Some(Some(tag)),
                        ..FlowMatch::ANY
                    };
                    if w + 1 < hops.len() {
                        let Some(port) = ctl.view.port_toward(here, hops[w + 1]) else {
                            continue;
                        };
                        let spec = FlowSpec::new(80, matcher, vec![Action::Output(port)])
                            .with_cookie(cookie);
                        txn.flow(here, 0, spec);
                    } else {
                        // Egress: untag and deliver locally.
                        let spec = FlowSpec::new(80, matcher, vec![Action::PopVlan])
                            .with_goto(1)
                            .with_cookie(cookie);
                        txn.flow(here, 0, spec);
                    }
                }
                for _ in 0..weight {
                    buckets.push(Bucket {
                        actions: vec![Action::PushVlan(tag), Action::Output(first_port)],
                        watch_port: Some(first_port),
                    });
                }
            }
            if buckets.is_empty() {
                continue;
            }
            let gid = GEN_GID_BASE[parity] + di as u32;
            txn.group(
                demand.src,
                gid,
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets,
                },
            );
            self.groups[parity].push((demand.src, gid));

            // Ingress classification: replacing the live generation's
            // classifier in place (same priority and match) is the
            // switchover.
            if let Some(&prefix) = self.site_prefixes.get(&demand.dst) {
                let spec = FlowSpec::new(70, FlowMatch::ipv4_to(prefix), vec![Action::Group(gid)])
                    .with_cookie(cookie);
                ingress_rules.push((demand.src, spec));
            }
        }
        for (dpid, spec) in ingress_rules {
            txn.flow_as(FlowRole::Cutover, dpid, 0, spec);
        }
        txn.commit(ctl);
        self.gate.installed(ctl.view.version);
    }
}

impl App for TrafficEngineering {
    fn name(&self) -> &'static str {
        OWNER
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        // A scheduled demand change forces a live reconfiguration.
        if let Some((at, demands)) = self.scheduled_demands.take() {
            if ctl.now().as_nanos() >= at {
                self.demands = demands;
                self.gate.restage();
            } else {
                self.scheduled_demands = Some((at, demands));
            }
        }
        // One rollout at a time: the next is staged against the
        // generation the last one leaves.
        if ctl.staged_epoch() > ctl.config_epoch() + 1 {
            return;
        }
        if self.gate.due(ctl.view) {
            self.install_all(ctl);
        }
    }

    fn on_port_status(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: Dpid, _port: PortNo, _up: bool) {
        self.gate.nudge();
    }

    fn on_update_aborted(&mut self, _ctl: &mut Ctl<'_, '_>, owner: &'static str, _token: u64) {
        // The new generation was torn down and the live one still
        // carries traffic: stage the rollout again.
        if owner == OWNER {
            self.gate.restage();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
