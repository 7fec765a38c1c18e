//! Fabric wiring with an optional span recorder around every node.
//!
//! `zen_core::harness` boxes the nodes itself, so a traced world cannot
//! be built through it. This is the same sequence of public calls as
//! `build_cluster_fabric_with_hosts`, with every node going through
//! [`span::boxed`]. Both the traced and the untraced run use it, so the
//! two simulate the same world (their `sim_digest`s are compared).

use zen_cluster::ClusterConfig;
use zen_core::apps::proactive::StaticHost;
use zen_core::harness::{default_host_ip, default_host_mac, Fabric, FabricOptions};
use zen_core::{App, Controller, SwitchAgent};
use zen_sim::{Host, NodeId, Topology, World};
use zen_wire::{EthernetAddress, Ipv4Address};

use crate::span::{boxed, Layer};

/// Build controllers, switch agents and hosts over `topo`.
pub fn build(
    world: &mut World,
    topo: &Topology,
    mut app_fn: impl FnMut(usize) -> Vec<Box<dyn App>>,
    opts: FabricOptions,
    mut host_fn: impl FnMut(usize, EthernetAddress, Ipv4Address) -> Host,
    trace: bool,
) -> Fabric {
    let n_controllers = opts.n_controllers.max(1);
    let controllers: Vec<NodeId> = (0..n_controllers)
        .map(|i| {
            let ctl = Controller::with_config(app_fn(i), opts.controller_cfg);
            world.add_node(boxed(ctl, Layer::Controller, trace))
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
    world.set_control_latency(opts.control_latency);

    let switches: Vec<NodeId> = (0..topo.switches)
        .map(|i| {
            let agent = if n_controllers == 1 {
                SwitchAgent::with_config(i as u64, opts.n_tables, controllers[0], opts.agent_cfg)
            } else {
                SwitchAgent::with_controllers(
                    i as u64,
                    opts.n_tables,
                    controllers.clone(),
                    opts.agent_cfg,
                )
            };
            world.add_node(boxed(agent, Layer::Agent, trace))
        })
        .collect();

    let switch_links = topo
        .links
        .iter()
        .map(|l| world.connect(switches[l.a], switches[l.b], l.params).0)
        .collect();

    let mut hosts = Vec::new();
    let mut host_macs = Vec::new();
    let mut host_ips = Vec::new();
    let mut host_attach = Vec::new();
    for (i, &sw) in topo.hosts.iter().enumerate() {
        let host = host_fn(i, default_host_mac(i), default_host_ip(i));
        host_macs.push(host.mac());
        host_ips.push(host.ip());
        let node = world.add_node(boxed(host, Layer::Host, trace));
        let (_, _, switch_port) = world.connect(node, switches[sw], opts.host_link);
        hosts.push(node);
        host_attach.push((sw, switch_port));
    }

    Fabric {
        controller: controllers[0],
        controllers,
        switches,
        hosts,
        host_macs,
        host_ips,
        host_attach,
        switch_links,
    }
}

/// The host inventory proactive apps need before the fabric exists:
/// wire a scratch world (no apps, default hosts) and read it back.
pub fn inventory(topo: &Topology, opts: FabricOptions) -> Vec<StaticHost> {
    let mut scratch = World::new(0);
    build(
        &mut scratch,
        topo,
        |_| Vec::new(),
        opts,
        |_, mac, ip| Host::new(mac, ip),
        false,
    )
    .static_hosts()
}
