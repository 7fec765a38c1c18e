//! The controller's network view: switches, ports, links, and hosts.
//!
//! Everything in the view is *learned* — switches from FEATURES_REPLY,
//! links from LLDP round trips, hosts from the source addresses of
//! punted edge-port traffic — never taken from simulator ground truth.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use zen_dataplane::PortNo;
use zen_graph::{dijkstra, Graph, NodeIx, ShortestPaths};
use zen_proto::ViewEvent;
use zen_sim::{Duration, Instant};
use zen_wire::{EthernetAddress, Ipv4Address};

/// A datapath id.
pub type Dpid = u64;

/// What the controller knows about one switch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchInfo {
    /// Ports and their operational state.
    pub ports: BTreeMap<PortNo, bool>,
    /// Number of pipeline tables.
    pub n_tables: u8,
}

/// A learned host attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEntry {
    /// Switch the host hangs off.
    pub dpid: Dpid,
    /// Edge port it was seen on.
    pub port: PortNo,
    /// IP address, if any frame revealed one.
    pub ip: Option<Ipv4Address>,
    /// Last sighting.
    pub last_seen: Instant,
}

/// The routing snapshot of one routing graph: the graph
/// [`NetworkView::graph`] builds, its dpid↔index tables, and one
/// shortest-path tree per source switch, each computed the first time
/// it is asked for. Apps read it through [`NetworkView::routes`]
/// instead of rebuilding the graph per punt. It lives as long as the
/// graph does, not as long as one view version: a change that leaves
/// the graph as it was (a host learned, a port up with no link yet)
/// keeps it, trees and all.
#[derive(Debug)]
pub struct Routes {
    /// Moves when, and only when, the graph's content moves: two
    /// snapshots of one view with equal generations route alike.
    pub generation: u64,
    /// One node per known switch, one directed edge (weight 1,
    /// capacity 0) per discovered link whose source port is up and
    /// whose endpoints are live.
    pub graph: Graph,
    /// Node index → dpid.
    pub dpids: Vec<Dpid>,
    /// Dpid → node index.
    pub index: BTreeMap<Dpid, NodeIx>,
    /// Edge index → the port the link leaves its source switch by.
    edge_ports: Vec<PortNo>,
    trees: Vec<OnceCell<ShortestPaths>>,
}

impl Routes {
    /// The shortest-path tree rooted at node `src`.
    fn tree_from(&self, src: NodeIx) -> &ShortestPaths {
        self.trees[src as usize].get_or_init(|| dijkstra(&self.graph, src))
    }

    /// Hop counts from node `src` to every node (`u64::MAX` where
    /// unreachable), indexed by node, from the memoised tree. Once
    /// every link is known in both directions these are also the
    /// distances *to* `src`, which is what ECMP next-hop selection
    /// toward `src` reads.
    pub fn dists_from(&self, src: NodeIx) -> &[u64] {
        &self.tree_from(src).dist
    }

    /// Fill `path` with one shortest path from `from` to `to`, a
    /// `(switch, egress port)` pair per hop in travel order: towards
    /// the next switch the port is [`NetworkView::port_toward`]'s
    /// answer, the lowest live one; the last switch, `to`, gets
    /// `last_port`. `false`, and nothing in `path`, when either switch
    /// is unknown or `to` is unreachable.
    pub fn path(
        &self,
        from: Dpid,
        to: Dpid,
        last_port: PortNo,
        path: &mut Vec<(Dpid, PortNo)>,
    ) -> bool {
        path.clear();
        let (Some(&src), Some(&dst)) = (self.index.get(&from), self.index.get(&to)) else {
            return false;
        };
        let tree = self.tree_from(src);
        if !tree.reachable(dst) {
            return false;
        }
        path.push((to, last_port));
        let mut cur = dst;
        while let Some(e) = tree.parent_edge[cur as usize] {
            let prev = self.graph.edge(e).from;
            // Links enter the graph in port order, so of parallel
            // links the first found is the lowest port's.
            let lowest = self.graph.find_edge(prev, cur).unwrap_or(e);
            path.push((self.dpids[prev as usize], self.edge_ports[lowest as usize]));
            cur = prev;
        }
        path.reverse();
        true
    }
}

/// The controller's model of the network.
#[derive(Debug, Default)]
pub struct NetworkView {
    /// Known switches.
    pub switches: BTreeMap<Dpid, SwitchInfo>,
    /// Directed switch links: (src dpid, src port) → (dst dpid, dst port).
    pub links: BTreeMap<(Dpid, PortNo), (Dpid, PortNo)>,
    /// Last LLDP confirmation per directed link.
    pub link_seen: BTreeMap<(Dpid, PortNo), Instant>,
    /// Learned hosts keyed by MAC. Written only by
    /// [`NetworkView::learn_host`], which keeps `by_ip` in step.
    hosts: BTreeMap<EthernetAddress, HostEntry>,
    /// IP → the MAC that claimed it last. An entry `a → m` exists
    /// exactly when `hosts[m].ip == Some(a)`, so an IP resolves to one
    /// host and that host is the latest claimant.
    by_ip: BTreeMap<Ipv4Address, EthernetAddress>,
    /// Switches whose control session is presumed dead. They stay in
    /// `switches` (their last-known shape is still useful) but routing
    /// helpers and the graph route around them.
    quarantined: BTreeSet<Dpid>,
    /// Bumped on every structural change; apps compare against it to
    /// know when to recompute.
    pub version: u64,
    /// The routing snapshot of `version`, built on first use and set
    /// aside by the next `bump`.
    routes: OnceCell<Routes>,
    /// The snapshot the last `bump` set aside: the next `routes` takes
    /// it back if the graph it was built from still stands.
    set_aside: RefCell<Option<Routes>>,
    /// Snapshots built so far: the next one's generation.
    built: Cell<u64>,
}

impl NetworkView {
    /// An empty view.
    pub fn new() -> NetworkView {
        NetworkView::default()
    }

    fn bump(&mut self) {
        self.version += 1;
        if let Some(routes) = self.routes.take() {
            *self.set_aside.get_mut() = Some(routes);
        }
    }

    /// Register or refresh a switch. A refresh that confirms what we
    /// already know is a no-op — no version bump, so apps don't
    /// recompute over an unchanged view.
    pub fn add_switch(&mut self, dpid: Dpid, n_tables: u8, ports: &[(PortNo, bool)]) {
        let info = SwitchInfo {
            ports: ports.iter().copied().collect(),
            n_tables,
        };
        if self.switches.get(&dpid) != Some(&info) {
            self.switches.insert(dpid, info);
            self.bump();
        }
    }

    /// Record a port state change. Downed ports also tear down any link
    /// using them.
    pub fn set_port(&mut self, dpid: Dpid, port: PortNo, up: bool) {
        if let Some(info) = self.switches.get_mut(&dpid) {
            info.ports.insert(port, up);
        }
        if !up {
            if let Some(peer) = self.links.remove(&(dpid, port)) {
                self.links.remove(&peer);
                self.link_seen.remove(&peer);
            }
            self.link_seen.remove(&(dpid, port));
        }
        self.bump();
    }

    /// Record a discovered unidirectional link, confirming it at `now`.
    /// Returns `true` if new.
    pub fn add_link_at(&mut self, from: (Dpid, PortNo), to: (Dpid, PortNo), now: Instant) -> bool {
        self.link_seen.insert(from, now);
        let new = self.links.insert(from, to) != Some(to);
        if new {
            self.bump();
        }
        new
    }

    /// Record a discovered unidirectional link (unaged). Returns `true`
    /// if new.
    pub fn add_link(&mut self, from: (Dpid, PortNo), to: (Dpid, PortNo)) -> bool {
        self.add_link_at(from, to, Instant::ZERO)
    }

    /// Drop links not LLDP-confirmed within their maximum age — how the
    /// controller notices *silent* failures. `max_age(from, to)` gives
    /// each link its age, or `None` to leave it be: a clustered
    /// controller only ages links whose *destination* switch it
    /// masters, since LLDP confirmations arrive at the destination's
    /// master and everyone else's staleness clock says nothing about
    /// the link. One walk of `links` and `link_seen` in lockstep.
    /// Returns the removed links, the shortest maximum age first and in
    /// key order within one age.
    #[allow(clippy::type_complexity)]
    pub fn expire_links(
        &mut self,
        now: Instant,
        mut max_age: impl FnMut((Dpid, PortNo), (Dpid, PortNo)) -> Option<Duration>,
    ) -> Vec<((Dpid, PortNo), (Dpid, PortNo))> {
        let mut seen = self.link_seen.iter().peekable();
        let mut stale = Vec::new();
        for (&from, &to) in &self.links {
            let mut last = Instant::ZERO;
            while let Some((&key, &at)) = seen.peek() {
                if key > from {
                    break;
                }
                if key == from {
                    last = at;
                }
                seen.next();
            }
            if let Some(age) = max_age(from, to).filter(|&age| now.duration_since(last) >= age) {
                stale.push((age, from, to));
            }
        }
        if stale.is_empty() {
            return Vec::new();
        }
        stale.sort_by_key(|&(age, ..)| age);
        for &(_, from, _) in &stale {
            self.links.remove(&from);
            self.link_seen.remove(&from);
        }
        self.bump();
        stale.into_iter().map(|(_, from, to)| (from, to)).collect()
    }

    /// Reset the staleness clock of every link *into* `dpid` to `now`.
    /// Called on gaining mastership of `dpid`: the new master has not
    /// been receiving that switch's LLDP punts, so each link gets one
    /// full discovery round of grace before it can expire.
    pub fn refresh_links_to(&mut self, dpid: Dpid, now: Instant) {
        let into: Vec<(Dpid, PortNo)> = self
            .links
            .iter()
            .filter(|(_, &(to, _))| to == dpid)
            .map(|(&from, _)| from)
            .collect();
        for key in into {
            self.link_seen.insert(key, now);
        }
    }

    /// Remove one directed link (a replicated `LinkDel` observed by a
    /// peer replica). Returns its former destination, if present.
    pub fn remove_link(&mut self, from: (Dpid, PortNo)) -> Option<(Dpid, PortNo)> {
        self.link_seen.remove(&from);
        let to = self.links.remove(&from);
        if to.is_some() {
            self.bump();
        }
        to
    }

    /// Apply a view mutation a peer replica observed first-hand, at
    /// `now`. A shadow is a session's to keep, and a program stamp is
    /// kept where it is read, by `ClusterState`.
    pub(crate) fn apply(&mut self, event: &ViewEvent, now: Instant) {
        match *event {
            ViewEvent::LinkAdd {
                from_dpid,
                from_port,
                to_dpid,
                to_port,
            } => {
                self.add_link_at((from_dpid, from_port), (to_dpid, to_port), now);
            }
            ViewEvent::LinkDel {
                from_dpid,
                from_port,
            } => {
                self.remove_link((from_dpid, from_port));
            }
            ViewEvent::HostLearned {
                mac,
                dpid,
                port,
                ip,
            } => {
                self.learn_host(mac, dpid, port, ip, now);
            }
            ViewEvent::ShadowSet { .. } | ViewEvent::ProgramStamp { .. } => {}
        }
    }

    /// Record a host sighting, in one lookup when it repeats what is on
    /// record. Returns whether the host is new or moved (location
    /// change), which callers propagate to apps, and the IP it had on
    /// record before the sighting.
    ///
    /// A sighting makes `mac` the one claimant of the IP it carries,
    /// evicting the host that held it before (a NIC swap, or resync-era
    /// re-learning after a mastership handoff): left in place, that
    /// entry would keep answering [`NetworkView::host_by_ip`] with a
    /// dead attachment. A known host that *moves* without an IP in the
    /// frame (plain L2 traffic after a handoff) re-asserts the IP on
    /// record the same way, since a new master re-learns hosts from
    /// traffic that rarely repeats the ARP exchange.
    pub fn learn_host(
        &mut self,
        mac: EthernetAddress,
        dpid: Dpid,
        port: PortNo,
        ip: Option<Ipv4Address>,
        now: Instant,
    ) -> (bool, Option<Ipv4Address>) {
        // The common case, one lookup: a repeat sighting that tells the
        // index nothing new.
        let known = match self.hosts.get_mut(&mac) {
            Some(e) if e.dpid == dpid && e.port == port && (ip.is_none() || e.ip == ip) => {
                e.last_seen = now;
                return (false, e.ip);
            }
            other => other.map(|e| *e),
        };
        let moved = known.is_none_or(|e| e.dpid != dpid || e.port != port);
        let recorded = known.and_then(|e| e.ip);
        let entry = HostEntry {
            dpid,
            port,
            ip: ip.or(recorded),
            last_seen: now,
        };
        if let Some(addr) = entry.ip.filter(|_| ip.is_some() || moved) {
            if let Some(stale) = self.by_ip.insert(addr, mac).filter(|&m| m != mac) {
                self.hosts.remove(&stale);
                self.bump();
            }
        }
        // Re-addressed: the IP it gave up resolves to nobody.
        if let Some(old) = recorded.filter(|&old| Some(old) != entry.ip) {
            if self.by_ip.get(&old) == Some(&mac) {
                self.by_ip.remove(&old);
            }
        }
        self.hosts.insert(mac, entry);
        if moved {
            self.bump();
        }
        (moved, recorded)
    }

    /// Mark a switch's control session dead: routing helpers and the
    /// graph skip it until [`NetworkView::unquarantine`]. Returns `true`
    /// if newly quarantined.
    pub fn quarantine(&mut self, dpid: Dpid) -> bool {
        let new = self.quarantined.insert(dpid);
        if new {
            self.bump();
        }
        new
    }

    /// Lift a quarantine (the switch answered again). Returns `true` if
    /// it was quarantined.
    pub fn unquarantine(&mut self, dpid: Dpid) -> bool {
        let was = self.quarantined.remove(&dpid);
        if was {
            self.bump();
        }
        was
    }

    /// The currently quarantined switches.
    pub fn quarantined(&self) -> &BTreeSet<Dpid> {
        &self.quarantined
    }

    /// Whether a switch is quarantined.
    pub fn is_quarantined(&self, dpid: Dpid) -> bool {
        self.quarantined.contains(&dpid)
    }

    /// All discovered directed links from `a` to `b`, as
    /// `((a, a_port), (b, b_port))`. Empty when either endpoint is
    /// quarantined — a dead switch is not a usable hop.
    #[allow(clippy::type_complexity)]
    pub fn links_between(&self, a: Dpid, b: Dpid) -> Vec<((Dpid, PortNo), (Dpid, PortNo))> {
        if self.is_quarantined(a) || self.is_quarantined(b) {
            return Vec::new();
        }
        self.links_from(a)
            .filter(|&(_, (dst, _))| dst == b)
            .collect()
    }

    /// The discovered links leaving `from`, in port order: one range
    /// walk over `from`'s keys, not a scan of every link.
    #[allow(clippy::type_complexity)]
    fn links_from(
        &self,
        from: Dpid,
    ) -> impl Iterator<Item = ((Dpid, PortNo), (Dpid, PortNo))> + '_ {
        self.links
            .range((from, PortNo::MIN)..=(from, PortNo::MAX))
            .map(|(&src, &dst)| (src, dst))
    }

    /// The egress ports on `from` of discovered links to `to` whose
    /// port is up, in port order; empty when either switch is
    /// quarantined.
    fn live_ports_toward(&self, from: Dpid, to: Dpid) -> impl Iterator<Item = PortNo> + '_ {
        self.live_neighbours(from)
            .filter(move |&(neighbour, _)| neighbour == to)
            .map(|(_, port)| port)
    }

    /// Every usable direct hop out of `from`, as `(neighbour, egress
    /// port)` in port order: discovered links whose port is up, between
    /// switches that are not quarantined. One walk answers what
    /// [`NetworkView::ports_toward`] would for every neighbour.
    pub fn live_neighbours(&self, from: Dpid) -> impl Iterator<Item = (Dpid, PortNo)> + '_ {
        let live = !self.is_quarantined(from);
        self.links_from(from)
            .filter(move |&((_, sp), (dst, _))| {
                live && self.port_up(from, sp) && !self.is_quarantined(dst)
            })
            .map(|((_, sp), (dst, _))| (dst, sp))
    }

    /// Whether a port currently has no discovered switch link (i.e. may
    /// face hosts).
    pub fn is_edge_port(&self, dpid: Dpid, port: PortNo) -> bool {
        !self.links.contains_key(&(dpid, port))
    }

    /// Whether a port exists and is up.
    pub fn port_up(&self, dpid: Dpid, port: PortNo) -> bool {
        self.switches
            .get(&dpid)
            .and_then(|s| s.ports.get(&port))
            .copied()
            .unwrap_or(false)
    }

    /// All (dpid, port) edge ports that are up, on live (unquarantined)
    /// switches.
    pub fn edge_ports(&self) -> Vec<(Dpid, PortNo)> {
        let mut out = Vec::new();
        for (&dpid, info) in &self.switches {
            if self.is_quarantined(dpid) {
                continue;
            }
            for (&port, &up) in &info.ports {
                if up && self.is_edge_port(dpid, port) {
                    out.push((dpid, port));
                }
            }
        }
        out
    }

    /// The learned hosts, keyed by MAC.
    pub fn hosts(&self) -> &BTreeMap<EthernetAddress, HostEntry> {
        &self.hosts
    }

    /// Find a host by IP: the latest host seen claiming it.
    pub fn host_by_ip(&self, ip: Ipv4Address) -> Option<(EthernetAddress, HostEntry)> {
        let mac = *self.by_ip.get(&ip)?;
        self.hosts.get(&mac).map(|&e| (mac, e))
    }

    /// The egress port on `from` of the first discovered link toward
    /// `to`, considering only up ports on live switches.
    pub fn port_toward(&self, from: Dpid, to: Dpid) -> Option<PortNo> {
        self.live_ports_toward(from, to).next()
    }

    /// All egress ports on `from` leading directly to `to` (parallel
    /// links), up only, on live switches.
    pub fn ports_toward(&self, from: Dpid, to: Dpid) -> Vec<PortNo> {
        self.live_ports_toward(from, to).collect()
    }

    /// Build a routing graph: one node per switch, one directed edge per
    /// discovered link whose source port is up. Returns the graph, the
    /// index→dpid table, and the dpid→index map. Edge `capacity` is 0
    /// (the view does not know line rates; TE apps supply them).
    pub fn graph(&self) -> (Graph, Vec<Dpid>, BTreeMap<Dpid, u32>) {
        let (graph, dpids, index, _) = self.graph_with_ports();
        (graph, dpids, index)
    }

    /// [`NetworkView::graph`], and per edge the port it leaves by.
    #[allow(clippy::type_complexity)]
    fn graph_with_ports(&self) -> (Graph, Vec<Dpid>, BTreeMap<Dpid, u32>, Vec<PortNo>) {
        let dpids: Vec<Dpid> = self.switches.keys().copied().collect();
        let index: BTreeMap<Dpid, u32> = dpids
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        let mut graph = Graph::with_nodes(dpids.len());
        let mut edge_ports = Vec::new();
        for (a, b, port) in self.graph_edges(&index) {
            graph.add_edge(a, b, 1, 0);
            edge_ports.push(port);
        }
        (graph, dpids, index, edge_ports)
    }

    /// The routing graph's edges in the order they are added, as
    /// `(source index, destination index, source port)`: every
    /// discovered link whose source port is up, between switches in
    /// `index` that are not quarantined.
    fn graph_edges<'a>(
        &'a self,
        index: &'a BTreeMap<Dpid, u32>,
    ) -> impl Iterator<Item = (NodeIx, NodeIx, PortNo)> + 'a {
        self.links
            .iter()
            .filter_map(move |(&(src, sp), &(dst, _))| {
                if !self.port_up(src, sp) || self.is_quarantined(src) || self.is_quarantined(dst) {
                    return None;
                }
                Some((*index.get(&src)?, *index.get(&dst)?, sp))
            })
    }

    /// Whether `routes` is what [`NetworkView::graph_with_ports`] would
    /// build now: the same switches, and the same edges with the same
    /// ports in the same order. One walk in build order, allocating
    /// nothing.
    fn still_routes(&self, routes: &Routes) -> bool {
        if !self.switches.keys().eq(&routes.dpids) {
            return false;
        }
        let built = routes.graph.edges().iter().zip(&routes.edge_ports);
        let built = built.map(|(edge, &port)| (edge.from, edge.to, port));
        self.graph_edges(&routes.index).eq(built)
    }

    /// The routing snapshot of the current version: [`NetworkView::graph`]
    /// built once, shortest-path trees filled in as they are asked for.
    /// A structural change sets it aside, and the next call takes it
    /// back if the graph still is what it was built from, so what it
    /// answers is always what a fresh `graph()` + `dijkstra` would.
    pub fn routes(&self) -> &Routes {
        self.routes.get_or_init(|| {
            let set_aside = self.set_aside.borrow_mut().take();
            match set_aside {
                Some(routes) if self.still_routes(&routes) => routes,
                _ => {
                    let (graph, dpids, index, edge_ports) = self.graph_with_ports();
                    let trees = vec![OnceCell::new(); dpids.len()];
                    let generation = self.built.replace(self.built.get() + 1);
                    Routes {
                        generation,
                        graph,
                        dpids,
                        index,
                        edge_ports,
                        trees,
                    }
                }
            }
        })
    }
}

#[cfg(test)]
impl NetworkView {
    /// Plant a host entry without the eviction `learn_host` performs,
    /// claiming its IP in the index the way a sighting would — the one
    /// way a test may write `hosts`, so map and index cannot drift.
    fn insert_host_raw(&mut self, mac: EthernetAddress, entry: HostEntry) {
        if let Some(ip) = entry.ip {
            self.by_ip.insert(ip, mac);
        }
        self.hosts.insert(mac, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_view() -> NetworkView {
        let mut v = NetworkView::new();
        v.add_switch(1, 1, &[(1, true), (2, true)]);
        v.add_switch(2, 1, &[(1, true), (2, true)]);
        v.add_link((1, 2), (2, 1));
        v.add_link((2, 1), (1, 2));
        v
    }

    #[test]
    fn edge_port_classification() {
        let v = two_switch_view();
        assert!(v.is_edge_port(1, 1));
        assert!(!v.is_edge_port(1, 2));
        assert_eq!(v.edge_ports(), vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn port_down_tears_links() {
        let mut v = two_switch_view();
        v.set_port(1, 2, false);
        assert!(v.links.is_empty(), "both directions removed");
        assert!(!v.port_up(1, 2));
    }

    #[test]
    fn quarantine_hides_switch_from_routing() {
        let mut v = two_switch_view();
        assert_eq!(v.links_between(1, 2), vec![((1, 2), (2, 1))]);
        let before = v.version;
        assert!(v.quarantine(2));
        assert!(v.version > before, "quarantine is a structural change");
        assert!(!v.quarantine(2), "already quarantined");
        assert_eq!(v.quarantined().iter().copied().collect::<Vec<_>>(), [2]);

        // Routing helpers route around the dead switch; the raw link
        // tables are untouched (discovery state is still real).
        assert!(v.links_between(1, 2).is_empty());
        assert_eq!(v.port_toward(1, 2), None);
        assert!(v.ports_toward(1, 2).is_empty());
        assert_eq!(v.edge_ports(), vec![(1, 1)]);
        let (g, _, _) = v.graph();
        assert_eq!(g.edge_count(), 0);
        assert!(v.links.len() == 2, "discovery state preserved");

        assert!(v.unquarantine(2));
        assert!(!v.is_quarantined(2));
        assert_eq!(v.links_between(1, 2).len(), 1);
        assert_eq!(v.port_toward(1, 2), Some(2));
    }

    #[test]
    fn host_learning_and_moves() {
        let mut v = two_switch_view();
        let mac = EthernetAddress::from_id(5);
        let t = Instant::from_millis(1);
        let ip = Some(Ipv4Address::new(10, 0, 0, 1));
        assert_eq!(v.learn_host(mac, 1, 1, None, t), (true, None));
        assert_eq!(v.learn_host(mac, 1, 1, ip, t), (false, None));
        // IP was filled in without a "moved" signal.
        assert_eq!(
            v.host_by_ip(Ipv4Address::new(10, 0, 0, 1)).map(|(m, _)| m),
            Some(mac)
        );
        // Moving ports reports true, with the IP on record.
        assert_eq!(v.learn_host(mac, 2, 2, None, t), (true, ip));
        assert_eq!(v.hosts()[&mac].dpid, 2);
        // The IP survives the move.
        assert_eq!(v.hosts()[&mac].ip, Some(Ipv4Address::new(10, 0, 0, 1)));
    }

    #[test]
    fn ip_sighting_evicts_stale_claimants() {
        let mut v = two_switch_view();
        let old_mac = EthernetAddress::from_id(5);
        let new_mac = EthernetAddress::from_id(6);
        let ip = Ipv4Address::new(10, 0, 0, 1);
        let t = Instant::from_millis(1);
        v.learn_host(old_mac, 1, 1, Some(ip), t);
        // Same IP shows up under a different MAC (NIC swap, resync-era
        // re-learning after handoff): the stale entry must go, or
        // host_by_ip keeps answering with the dead attachment.
        let before = v.version;
        assert!(v.learn_host(new_mac, 2, 2, Some(ip), t).0);
        assert!(v.version > before);
        assert!(!v.hosts().contains_key(&old_mac), "stale claimant evicted");
        assert_eq!(
            v.host_by_ip(ip).map(|(m, e)| (m, e.dpid)),
            Some((new_mac, 2))
        );
        // An IP-less sighting of an unknown host never evicts (there is
        // no IP on record to arbitrate).
        v.learn_host(old_mac, 1, 1, None, t);
        assert_eq!(v.hosts().len(), 2);
    }

    #[test]
    fn move_without_ip_unshadows_host_by_ip() {
        // Mastership-handoff regression: a new master's view can hold a
        // stale MAC still claiming a live host's IP (resync-era events
        // replay out of order across replicas). The live host then
        // shows up via plain L2 traffic — a sighting that carries no
        // IP — at a new location. The stale claimant must go, or
        // `host_by_ip` keeps resolving to the dead attachment
        // indefinitely.
        let mut v = two_switch_view();
        let stale_mac = EthernetAddress::from_id(3); // sorts before live_mac
        let live_mac = EthernetAddress::from_id(9);
        let ip = Ipv4Address::new(10, 0, 0, 7);
        let t = Instant::from_millis(1);
        v.learn_host(live_mac, 1, 1, Some(ip), t);
        v.insert_host_raw(
            stale_mac,
            HostEntry {
                dpid: 1,
                port: 2,
                ip: Some(ip),
                last_seen: t,
            },
        );
        assert_eq!(
            v.host_by_ip(ip).map(|(m, _)| m),
            Some(stale_mac),
            "stale claimant shadows the live host before the move"
        );
        assert!(v.learn_host(live_mac, 2, 2, None, t).0, "location change");
        assert!(
            !v.hosts().contains_key(&stale_mac),
            "stale claim evicted on IP-less move"
        );
        assert_eq!(
            v.host_by_ip(ip).map(|(m, e)| (m, e.dpid)),
            Some((live_mac, 2))
        );
    }

    #[test]
    fn filtered_expiry_and_refresh() {
        let mut v = two_switch_view();
        let late = Instant::from_millis(500);
        let age = Duration::from_millis(100);
        // Only links *into* dpid 2 may expire: (1,2)->(2,1) goes, the
        // reverse direction stays even though it is just as stale.
        let removed = v.expire_links(late, |_, (to, _)| (to == 2).then_some(age));
        assert_eq!(removed, vec![((1, 2), (2, 1))]);
        assert!(v.links.contains_key(&(2, 1)));

        // refresh_links_to resets the staleness clock for inbound links.
        let mut v2 = two_switch_view();
        v2.refresh_links_to(1, late);
        let removed = v2.expire_links(late, |_, _| Some(age));
        assert_eq!(removed, vec![((1, 2), (2, 1))], "refreshed link survives");
        assert_eq!(v2.link_seen[&(2, 1)], late);

        // Removals come shortest maximum age first, key order within an
        // age, whatever the key order across ages; a link with no entry
        // in `link_seen` counts as last seen at zero.
        let mut v3 = two_switch_view();
        v3.add_switch(3, 1, &[(1, true)]);
        v3.add_link((3, 1), (1, 1));
        v3.link_seen.remove(&(3, 1));
        let before = v3.version;
        let removed = v3.expire_links(late, |(from, _), _| {
            Some(if from == 1 {
                Duration::from_millis(200)
            } else {
                age
            })
        });
        assert_eq!(
            removed,
            vec![((2, 1), (1, 2)), ((3, 1), (1, 1)), ((1, 2), (2, 1))]
        );
        assert_eq!(v3.version, before + 1, "one bump for the whole walk");
        assert!(v3.links.is_empty() && v3.link_seen.is_empty());
    }

    #[test]
    fn remove_link_is_directional() {
        let mut v = two_switch_view();
        let before = v.version;
        assert_eq!(v.remove_link((1, 2)), Some((2, 1)));
        assert!(v.version > before);
        assert!(v.links.contains_key(&(2, 1)), "reverse direction kept");
        assert_eq!(v.remove_link((1, 2)), None, "idempotent");
    }

    #[test]
    fn graph_reflects_links_and_port_state() {
        let v = two_switch_view();
        let (g, dpids, index) = v.graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(dpids.len(), 2);
        assert_eq!(index[&1], 0);

        let mut v2 = two_switch_view();
        v2.set_port(1, 2, false);
        let (g2, _, _) = v2.graph();
        assert_eq!(g2.edge_count(), 0);
    }

    #[test]
    fn ports_toward_and_version_bumps() {
        let mut v = two_switch_view();
        assert_eq!(v.port_toward(1, 2), Some(2));
        assert_eq!(v.ports_toward(1, 2), vec![2]);
        assert_eq!(v.port_toward(2, 1), Some(1));
        let before = v.version;
        v.add_link((1, 2), (2, 1)); // duplicate: no bump
        assert_eq!(v.version, before);
        v.set_port(2, 2, false);
        assert!(v.version > before);
    }

    #[test]
    fn ports_toward_walks_parallel_links_in_port_order() {
        let mut v = NetworkView::new();
        v.add_switch(1, 1, &[(1, true), (2, true), (3, true), (4, true)]);
        v.add_switch(2, 1, &[(1, true), (2, true), (3, true)]);
        v.add_switch(3, 1, &[(1, true)]);
        // Three parallel links 1→2 with a link to another switch
        // between them in key order, and a neighbouring switch's keys
        // on either side of switch 1's range.
        v.add_link((1, 1), (2, 1));
        v.add_link((1, 2), (3, 1));
        v.add_link((1, 3), (2, 2));
        v.add_link((1, 4), (2, 3));
        v.add_link((2, 1), (1, 1));
        assert_eq!(v.ports_toward(1, 2), vec![1, 3, 4]);
        assert_eq!(v.port_toward(1, 2), Some(1));
        assert_eq!(v.links_between(1, 2).len(), 3);
        assert_eq!(v.ports_toward(1, 3), vec![2]);
        assert_eq!(v.ports_toward(3, 1), Vec::<PortNo>::new());

        // The first port goes down without the link being torn (the
        // port map was refreshed wholesale): the next parallel link
        // takes over.
        v.add_switch(1, 1, &[(1, false), (2, true), (3, true), (4, true)]);
        assert_eq!(v.port_toward(1, 2), Some(3));
        assert_eq!(v.ports_toward(1, 2), vec![3, 4]);
        // PORT_STATUS down tears the link itself.
        v.set_port(1, 3, false);
        assert_eq!(v.ports_toward(1, 2), vec![4]);
        assert_eq!(
            v.links_between(1, 2),
            vec![((1, 1), (2, 1)), ((1, 4), (2, 3))]
        );
    }

    /// `learn_host` and `host_by_ip` as they were before the IP index:
    /// whole-map scans, first match by MAC order. The oracle for
    /// [`indexed_hosts_match_the_scan_model`].
    #[derive(Default)]
    struct ScanModel {
        hosts: BTreeMap<EthernetAddress, HostEntry>,
        version: u64,
    }

    impl ScanModel {
        fn evict_shadowers(&mut self, mac: EthernetAddress, addr: Ipv4Address) -> bool {
            let before = self.hosts.len();
            self.hosts.retain(|&m, e| m == mac || e.ip != Some(addr));
            self.hosts.len() != before
        }

        fn learn_host(
            &mut self,
            mac: EthernetAddress,
            dpid: Dpid,
            port: PortNo,
            ip: Option<Ipv4Address>,
            now: Instant,
        ) -> bool {
            if ip.is_some_and(|addr| self.evict_shadowers(mac, addr)) {
                self.version += 1;
            }
            let Some(entry) = self.hosts.get_mut(&mac) else {
                self.hosts.insert(
                    mac,
                    HostEntry {
                        dpid,
                        port,
                        ip,
                        last_seen: now,
                    },
                );
                self.version += 1;
                return true;
            };
            let moved = entry.dpid != dpid || entry.port != port;
            *entry = HostEntry {
                dpid,
                port,
                ip: ip.or(entry.ip),
                last_seen: now,
            };
            if moved {
                if let Some(addr) = entry.ip.filter(|_| ip.is_none()) {
                    self.evict_shadowers(mac, addr);
                }
                self.version += 1;
            }
            moved
        }

        fn host_by_ip(&self, ip: Ipv4Address) -> Option<(EthernetAddress, HostEntry)> {
            self.hosts
                .iter()
                .find(|(_, e)| e.ip == Some(ip))
                .map(|(&mac, &e)| (mac, e))
        }
    }

    #[test]
    fn indexed_hosts_match_the_scan_model() {
        const MACS: u64 = 24;
        const IPS: u8 = 12;
        let mut rng = zen_wire::lcg::Lcg::new(0x1d_ea5e);
        let mut view = NetworkView::new();
        let mut model = ScanModel::default();
        for step in 0..12_000u64 {
            let mac = EthernetAddress::from_id(rng.gen_range(MACS));
            // Half the sightings confirm the known attachment, the rest
            // are new hosts and moves; a third carry no IP, and IPs are
            // few enough that MACs keep taking them from each other.
            let (dpid, port) = match view.hosts().get(&mac) {
                Some(e) if rng.gen_ratio(1, 2) => (e.dpid, e.port),
                _ => (1 + rng.gen_range(4), 1 + rng.gen_range(4) as PortNo),
            };
            let ip = (!rng.gen_ratio(1, 3))
                .then(|| Ipv4Address::new(10, 0, 0, 1 + rng.gen_range(u64::from(IPS)) as u8));
            let now = Instant::from_millis(step);
            // A sighting also returns the IP the model held before it.
            let prior_ip = model.hosts.get(&mac).and_then(|e| e.ip);
            assert_eq!(
                view.learn_host(mac, dpid, port, ip, now),
                (model.learn_host(mac, dpid, port, ip, now), prior_ip),
                "step {step}: return value"
            );
            assert_eq!(view.hosts(), &model.hosts, "step {step}: hosts");
            assert_eq!(view.version, model.version, "step {step}: version");
            for last in 1..=IPS {
                let ip = Ipv4Address::new(10, 0, 0, last);
                assert_eq!(
                    view.host_by_ip(ip),
                    model.host_by_ip(ip),
                    "step {step}: {ip}"
                );
            }
            assert_eq!(
                view.by_ip.len(),
                view.hosts.values().filter(|e| e.ip.is_some()).count(),
                "step {step}: one index entry per addressed host"
            );
        }
        assert!(model.hosts.len() > 12, "the universe filled up");
    }
}
