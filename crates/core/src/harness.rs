//! Fabric construction: wire a [`Topology`] into a world as SDN
//! switches plus a controller, and attach instrumented hosts.
//!
//! [`build_fabric`] is the one constructor: the examples, the integration
//! tests and the experiment benches all build networks through it, with
//! one to many controller replicas and whatever hosts they need.

use zen_dataplane::PortNo;
use zen_sim::{Duration, Host, LinkId, LinkParams, NodeId, Topology, World};
use zen_wire::{EthernetAddress, Ipv4Address};

use zen_cluster::{ClusterConfig, GossipMode};

use crate::agent::{AgentConfig, SwitchAgent};
use crate::app::App;
use crate::apps::proactive::StaticHost;
use crate::controller::{Controller, ControllerConfig};

/// Options for [`build_fabric`].
#[derive(Debug, Clone, Copy)]
pub struct FabricOptions {
    /// Pipeline tables per switch (TE needs ≥ 2).
    pub n_tables: usize,
    /// Out-of-band control channel latency.
    pub control_latency: Duration,
    /// Controller timer configuration.
    pub controller_cfg: ControllerConfig,
    /// Switch-agent keepalive/policy configuration.
    pub agent_cfg: AgentConfig,
    /// Link parameters for host attachment links.
    pub host_link: LinkParams,
    /// Number of controller replicas. The default of 1 builds the
    /// classic single-controller fabric; above 1, [`build_fabric`] calls
    /// its `apps` once per replica.
    pub n_controllers: usize,
    /// Mastership lease for multi-controller fabrics: a replica silent
    /// for this long is presumed dead and its switches taken over.
    pub cluster_lease: Duration,
    /// East-west anti-entropy strategy for multi-controller fabrics.
    /// There is one; the field stays because the benchmark's surface
    /// list names it, until a `benchmark` PR drops it there.
    pub cluster_gossip: GossipMode,
}

impl Default for FabricOptions {
    fn default() -> FabricOptions {
        FabricOptions {
            n_tables: 2,
            control_latency: Duration::from_micros(50),
            controller_cfg: ControllerConfig::default(),
            agent_cfg: AgentConfig::default(),
            host_link: LinkParams::default(),
            n_controllers: 1,
            cluster_lease: Duration::from_millis(300),
            cluster_gossip: GossipMode::Digest,
        }
    }
}

/// A constructed fabric: node ids and host addressing.
pub struct Fabric {
    /// The first (or only) controller node.
    pub controller: NodeId,
    /// Every controller replica, in replica-index order. Length 1 for
    /// single-controller fabrics; `controllers[0] == controller`.
    pub controllers: Vec<NodeId>,
    /// Switch agents, indexed by topology switch index (== dpid).
    pub switches: Vec<NodeId>,
    /// Host nodes, indexed like `topo.hosts`.
    pub hosts: Vec<NodeId>,
    /// Host MACs.
    pub host_macs: Vec<EthernetAddress>,
    /// Host IPs.
    pub host_ips: Vec<Ipv4Address>,
    /// (switch index, switch-side port) for each host attachment.
    pub host_attach: Vec<(usize, PortNo)>,
    /// Switch-to-switch link ids, parallel to `topo.links`.
    pub switch_links: Vec<LinkId>,
}

impl Fabric {
    /// The host inventory in the form proactive apps consume.
    pub fn static_hosts(&self) -> Vec<StaticHost> {
        (0..self.hosts.len())
            .map(|i| StaticHost {
                ip: self.host_ips[i],
                mac: self.host_macs[i],
                dpid: self.host_attach[i].0 as u64,
                port: self.host_attach[i].1,
            })
            .collect()
    }
}

/// The default host MAC for host index `i`.
pub fn default_host_mac(i: usize) -> EthernetAddress {
    EthernetAddress::from_id(0x50_0000 + i as u64)
}

/// The default host IP for host index `i`: `10.0.x.y`.
pub fn default_host_ip(i: usize) -> Ipv4Address {
    Ipv4Address::new(10, 0, (i / 250) as u8, (i % 250 + 1) as u8)
}

/// A per-site host IP: `10.<site>.0.<n+1>` — used by TE scenarios where
/// each switch is a "site" owning `10.<site>.0.0/16`.
pub fn site_host_ip(site: usize, n: usize) -> Ipv4Address {
    Ipv4Address::new(10, site as u8, (n / 250) as u8, (n % 250 + 1) as u8)
}

/// The default host: a gratuitous-ARP announcer with no workload, at
/// the default addressing. Pass it as [`build_fabric`]'s `hosts` when the
/// hosts need nothing else.
pub fn announcer(_i: usize, mac: EthernetAddress, ip: Ipv4Address) -> Host {
    Host::new(mac, ip).with_gratuitous_arp()
}

/// Build an SDN fabric over `topo`: `opts.n_controllers` controller
/// replicas, one switch agent per topology switch, and one host per
/// topology host.
///
/// `apps(i)` builds replica `i`'s app stack; every replica must run the
/// same apps for takeover to be seamless. `hosts(i, mac, ip)` builds
/// host `i` from the default addressing ([`announcer`] for the default
/// host); it may choose other addressing, which the fabric records.
///
/// With one replica this is the classic fabric: a lone `Controller` with
/// no cluster state and single-homed agents. With more, every replica is
/// wired into the cluster, every agent is homed to all of them, and
/// mastership is negotiated at the features handshake.
pub fn build_fabric(
    world: &mut World,
    topo: &Topology,
    mut apps: impl FnMut(usize) -> Vec<Box<dyn App>>,
    opts: FabricOptions,
    mut hosts: impl FnMut(usize, EthernetAddress, Ipv4Address) -> Host,
) -> Fabric {
    let n_controllers = opts.n_controllers.max(1);
    let controllers: Vec<NodeId> = (0..n_controllers)
        .map(|i| {
            world.add_node(Box::new(Controller::with_config(
                apps(i),
                opts.controller_cfg,
            )))
        })
        .collect();
    if n_controllers > 1 {
        for (i, &id) in controllers.iter().enumerate() {
            let mut cfg = ClusterConfig::new(controllers.clone(), i);
            cfg.lease_timeout = opts.cluster_lease;
            cfg.gossip = opts.cluster_gossip;
            world.node_as_mut::<Controller>(id).enable_cluster(cfg);
        }
    }
    let controller = controllers[0];
    world.set_control_latency(opts.control_latency);

    let switches: Vec<NodeId> = (0..topo.switches)
        .map(|i| {
            if n_controllers == 1 {
                world.add_node(Box::new(SwitchAgent::with_config(
                    i as u64,
                    opts.n_tables,
                    controller,
                    opts.agent_cfg,
                )))
            } else {
                world.add_node(Box::new(SwitchAgent::with_controllers(
                    i as u64,
                    opts.n_tables,
                    controllers.clone(),
                    opts.agent_cfg,
                )))
            }
        })
        .collect();

    let switch_links: Vec<LinkId> = topo
        .links
        .iter()
        .map(|l| world.connect(switches[l.a], switches[l.b], l.params).0)
        .collect();

    let mut host_nodes = Vec::new();
    let mut host_macs = Vec::new();
    let mut host_ips = Vec::new();
    let mut host_attach = Vec::new();
    for (i, &sw) in topo.hosts.iter().enumerate() {
        let mac = default_host_mac(i);
        let ip = default_host_ip(i);
        let host = hosts(i, mac, ip);
        // The host may have chosen different addressing.
        let (mac, ip) = (host.mac(), host.ip());
        let node = world.add_node(Box::new(host));
        let (_, _, switch_port) = world.connect(node, switches[sw], opts.host_link);
        host_nodes.push(node);
        host_macs.push(mac);
        host_ips.push(ip);
        host_attach.push((sw, switch_port));
    }

    Fabric {
        controller,
        controllers,
        switches,
        hosts: host_nodes,
        host_macs,
        host_ips,
        host_attach,
        switch_links,
    }
}
