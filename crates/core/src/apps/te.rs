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
//! ## Update strategies
//!
//! Reconfiguration (demand or topology change) can be applied two ways
//! ([`UpdateStrategy`]):
//!
//! * **TearDownFirst** — delete the old generation, then install the
//!   new one. Simple, but under asynchronous rule application (control
//!   channel jitter) switches transition at unpredictable relative
//!   times and traffic blackholes transiently.
//! * **MakeBeforeBreak** — the consistency-aware scheme of the
//!   congestion-free-update literature (zUpdate/SWAN): install the new
//!   generation's tunnels under fresh VLAN tags alongside the old,
//!   *then* atomically swap the ingress classifiers, *then* (one more
//!   round later) garbage-collect the old generation. Every packet is
//!   handled entirely by one generation, so reconfiguration is
//!   hitless.

use std::any::Any;
use std::collections::BTreeMap;

use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_graph::Graph;
use zen_te::{allocate, quantize_splits, DemandMatrix};
use zen_wire::Ipv4Cidr;

use crate::app::App;
use crate::apps::proactive::StaticHost;
use crate::controller::Ctl;
use crate::view::Dpid;

pub use crate::policy::{TE_GEN0_COOKIE, TE_GEN1_COOKIE, TE_STATIC_COOKIE};

/// How reconfigurations are rolled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// Delete the old rules, then install the new ones. Disruptive
    /// under asynchronous application.
    TearDownFirst,
    /// Install new-generation tunnels alongside the old, swap ingress
    /// classifiers one round later, collect garbage the round after —
    /// hitless.
    MakeBeforeBreak,
}

fn gen_cookie(generation: u8) -> u64 {
    if generation == 0 {
        TE_GEN0_COOKIE
    } else {
        TE_GEN1_COOKIE
    }
}

fn gen_tag_base(generation: u8) -> u16 {
    // Disjoint VLAN tag spaces per generation.
    if generation == 0 {
        100
    } else {
        2100
    }
}

fn gen_gid_base(generation: u8) -> u32 {
    if generation == 0 {
        0x2000
    } else {
        0x3000
    }
}

/// The deferred phases of a make-before-break rollout.
struct PendingSwap {
    /// Ingress classifier rules pointing at the new generation.
    ingress: Vec<(Dpid, zen_dataplane::FlowSpec)>,
    /// The previous generation's cookie to purge.
    old_cookie: u64,
    /// The previous generation's groups to delete.
    old_groups: Vec<(Dpid, u32)>,
    /// Whether the ingress swap has been sent (phase 2 of 3).
    swap_sent: bool,
}

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
    /// Allocation quantum, bits/sec.
    pub quantum: u64,
    /// ECMP bucket count used to quantize splits.
    pub buckets: u32,
    /// Expected switch count before programming.
    pub expected_switches: usize,
    /// Expected directed link count before programming.
    pub expected_links: usize,
    /// Rollout strategy for reconfigurations.
    pub strategy: UpdateStrategy,
    /// Swap the demand matrix at a scheduled time (nanoseconds), forcing
    /// a live reconfiguration — the trigger the update-disruption
    /// experiment uses.
    pub scheduled_demands: Option<(u64, Vec<SiteDemand>)>,
    installed_version: Option<u64>,
    stable_ticks: u32,
    installed_groups: Vec<(Dpid, u32)>,
    generation: u8,
    pending: Option<PendingSwap>,
    force_reinstall: bool,
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
            quantum: (capacity_bps / 100).max(1),
            buckets: 8,
            expected_switches,
            expected_links,
            strategy: UpdateStrategy::MakeBeforeBreak,
            scheduled_demands: None,
            installed_version: None,
            stable_ticks: 0,
            installed_groups: Vec::new(),
            generation: 1,
            pending: None,
            force_reinstall: false,
            installs: 0,
            last_rates: Vec::new(),
            last_demands: Vec::new(),
        }
    }

    /// Whether tunnels are currently programmed.
    pub fn programmed(&self) -> bool {
        self.installed_version.is_some()
    }

    fn ready(&self, ctl: &Ctl<'_, '_>) -> bool {
        ctl.view.switches.len() >= self.expected_switches
            && ctl.view.links.len() >= self.expected_links
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
        // The whole generation rollout is declared as one relaxed
        // transaction: operations go out in staging order, exactly as
        // the loose calls used to.
        let mut txn = ctl.txn();
        // The shared topology with this app's line rate on every edge
        // (same edge order, so path edge indices agree).
        let routes = ctl.view.routes();
        let (dpids, index) = (&routes.dpids, &routes.index);
        let mut graph = Graph::with_nodes(dpids.len());
        for e in routes.graph.edges() {
            graph.add_edge(e.from, e.to, e.weight, self.capacity_bps);
        }
        let switch_list: Vec<Dpid> = ctl.view.switches.keys().copied().collect();

        let new_gen = self.generation ^ 1;
        let cookie = gen_cookie(new_gen);
        let old_cookie = gen_cookie(self.generation);
        let old_groups = std::mem::take(&mut self.installed_groups);

        if self.strategy == UpdateStrategy::TearDownFirst {
            // Tear down the previous generation before building the new.
            for &switch in &switch_list {
                txn.delete_flows_by_cookie(switch, old_cookie);
            }
            for &(switch, gid) in &old_groups {
                txn.delete_group(switch, gid);
            }
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
        let alloc = allocate(&graph, &matrix, self.k, self.quantum);
        self.last_rates = alloc.rates.clone();
        self.last_demands = demands.clone();

        // Realize tunnels.
        let mut ingress_rules: Vec<(Dpid, FlowSpec)> = Vec::new();
        let mut next_tag: u16 = gen_tag_base(new_gen);
        for (di, demand) in demands.iter().enumerate() {
            let used_paths = &alloc.paths[di];
            if used_paths.is_empty() {
                continue;
            }
            let rates: Vec<u64> = used_paths.iter().map(|(_, r)| *r).collect();
            let weights = quantize_splits(&rates, self.buckets);

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
            let gid = gen_gid_base(new_gen) + di as u32;
            txn.group(
                demand.src,
                gid,
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets,
                },
            );
            self.installed_groups.push((demand.src, gid));

            // Ingress classification. Replacing the previous generation's
            // classifier is the atomic switchover point: FlowTable ADD
            // replaces an identical (priority, match) entry in place.
            if let Some(&prefix) = self.site_prefixes.get(&demand.dst) {
                let spec = FlowSpec::new(70, FlowMatch::ipv4_to(prefix), vec![Action::Group(gid)])
                    .with_cookie(cookie);
                ingress_rules.push((demand.src, spec));
            }
        }

        // Own-site shortcut and local delivery, on every switch.
        let hosts = self.hosts.clone();
        for &switch in &switch_list {
            if let Some(&prefix) = self.site_prefixes.get(&switch) {
                let spec = FlowSpec::new(75, FlowMatch::ipv4_to(prefix), vec![])
                    .with_goto(1)
                    .with_cookie(TE_STATIC_COOKIE);
                txn.flow(switch, 0, spec);
            }
            for host in hosts.iter().filter(|h| h.dpid == switch) {
                let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(host.ip, 32).expect("/32 is valid"));
                let spec = FlowSpec::new(
                    10,
                    matcher,
                    vec![Action::SetEthDst(host.mac), Action::Output(host.port)],
                )
                .with_cookie(TE_STATIC_COOKIE);
                txn.flow(switch, 1, spec);
            }
        }

        match self.strategy {
            UpdateStrategy::TearDownFirst => {
                // Swap immediately; old state is already gone.
                for (dpid, spec) in ingress_rules {
                    txn.flow(dpid, 0, spec);
                }
                txn.commit(ctl);
            }
            UpdateStrategy::MakeBeforeBreak => {
                // Fence phase 1, then defer the swap and the garbage
                // collection to the next two ticks, leaving room for
                // jittered installs to land everywhere first.
                txn.commit(ctl);
                for &switch in &switch_list {
                    ctl.barrier(switch);
                }
                self.pending = Some(PendingSwap {
                    ingress: ingress_rules,
                    old_cookie,
                    old_groups,
                    swap_sent: false,
                });
            }
        }
        self.generation = new_gen;
        self.installed_version = Some(ctl.view.version);
    }

    /// Advance a pending make-before-break rollout by one phase.
    fn advance_pending(&mut self, ctl: &mut Ctl<'_, '_>) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if !pending.swap_sent {
            // Phase 2: atomic ingress swap.
            let ingress = std::mem::take(&mut pending.ingress);
            pending.swap_sent = true;
            let mut txn = ctl.txn();
            for (dpid, spec) in ingress {
                txn.flow(dpid, 0, spec);
            }
            txn.commit(ctl);
            return;
        }
        // Phase 3: garbage-collect the old generation.
        let pending = self.pending.take().expect("checked above");
        let switches: Vec<Dpid> = ctl.view.switches.keys().copied().collect();
        let mut txn = ctl.txn();
        for dpid in switches {
            txn.delete_flows_by_cookie(dpid, pending.old_cookie);
        }
        for (dpid, gid) in pending.old_groups {
            txn.delete_group(dpid, gid);
        }
        txn.commit(ctl);
    }
}

impl App for TrafficEngineering {
    fn name(&self) -> &'static str {
        "traffic-engineering"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        // Finish any in-flight rollout before considering new work.
        if self.pending.is_some() {
            self.advance_pending(ctl);
            return;
        }
        // A scheduled demand change forces a live reconfiguration.
        if let Some((at, demands)) = self.scheduled_demands.take() {
            if ctl.now().as_nanos() >= at {
                self.demands = demands;
                self.force_reinstall = true;
            } else {
                self.scheduled_demands = Some((at, demands));
            }
        }
        // `ready` gates only the *initial* programming; once programmed,
        // any topology change (including lost links) must reprogram.
        if self.installed_version.is_none() && !self.ready(ctl) {
            return;
        }
        let version_stale = !matches!(self.installed_version, Some(v) if v == ctl.view.version);
        if version_stale || self.force_reinstall {
            self.stable_ticks += 1;
            if self.stable_ticks >= 2 || self.force_reinstall {
                self.stable_ticks = 0;
                self.force_reinstall = false;
                self.install_all(ctl);
            }
        }
    }

    fn on_port_status(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: Dpid, _port: PortNo, _up: bool) {
        self.stable_ticks = 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
