//! A RIP-style distance-vector router.
//!
//! Routers multicast their full vector periodically and on change
//! (triggered updates), apply split horizon with poisoned reverse, and
//! treat metric 16 as infinity. Routes expire when their advertising
//! neighbor goes quiet. Slower to converge than link-state — which is
//! exactly what the convergence experiment measures.

use std::any::Any;
use std::collections::BTreeMap;

use zen_fib::Ipv4Cidr;
use zen_sim::{Context, CounterId, Duration, Instant, Node, PortNo};
use zen_wire::builder::PacketBuilder;
use zen_wire::ethernet::{EtherType, Frame};
use zen_wire::{EthernetAddress, Ipv4Address};

use crate::chassis::{Adjacency, Chassis};
use crate::proto::{RoutingMsg, ROUTERS_MULTICAST};
use crate::ROUTING_ETHERTYPE;

const TIMER_ADVERTISE: u64 = 1;
const TIMER_TRIGGERED: u64 = 2;
const TIMER_SWEEP: u64 = 3;

/// The unreachable metric.
pub const INFINITY: u8 = 16;

/// Full-table advertisement period.
const ADVERTISE_INTERVAL: Duration = Duration::from_millis(500);
/// Route expiry when its neighbor goes quiet.
const ROUTE_TIMEOUT: Duration = Duration::from_millis(1750);
/// Delay before a triggered update (batches bursts of changes).
const TRIGGERED_DELAY: Duration = Duration::from_millis(10);

#[derive(Debug, Clone, Copy)]
struct Route {
    metric: u8,
    /// The port the route was learned on; `None` for local hosts.
    via: Option<PortNo>,
    last_refresh: Instant,
}

/// The distance-vector router node.
pub struct DistanceVectorRouter {
    /// Forwarding machinery and counters.
    pub chassis: Chassis,
    routes: BTreeMap<Ipv4Address, Route>,
    /// MAC of the last router heard per port (the next hop for routes
    /// learned there).
    neighbor_mac: BTreeMap<PortNo, EthernetAddress>,
    triggered_pending: bool,
    /// Typed handle for the shared `routing.msgs` counter, registered
    /// at start so the send path never does a string lookup.
    msgs_id: Option<CounterId>,
    /// Routing-protocol messages sent (experiment metric).
    pub control_msgs_sent: u64,
}

impl DistanceVectorRouter {
    /// A router with the given id.
    pub fn new(router_id: u64) -> DistanceVectorRouter {
        DistanceVectorRouter {
            chassis: Chassis::new(router_id),
            routes: BTreeMap::new(),
            neighbor_mac: BTreeMap::new(),
            triggered_pending: false,
            msgs_id: None,
            control_msgs_sent: 0,
        }
    }

    /// This router's id.
    pub fn router_id(&self) -> u64 {
        self.chassis.router_id
    }

    /// The current metric to `addr`, if a live route exists.
    pub fn metric_to(&self, addr: Ipv4Address) -> Option<u8> {
        self.routes
            .get(&addr)
            .filter(|r| r.metric < INFINITY)
            .map(|r| r.metric)
    }

    fn advertise(&mut self, ctx: &mut Context<'_>) {
        // One vector per port with split horizon + poisoned reverse.
        for port in ctx.ports() {
            let entries: Vec<(Ipv4Address, u8)> = self
                .routes
                .iter()
                .map(|(&addr, route)| {
                    let metric = if route.via == Some(port) {
                        INFINITY // poisoned reverse
                    } else {
                        route.metric
                    };
                    (addr, metric)
                })
                .collect();
            let msg = RoutingMsg::Vector {
                sender: self.chassis.router_id,
                entries,
            };
            let frame = PacketBuilder::ethernet(
                self.chassis.mac,
                ROUTERS_MULTICAST,
                EtherType::Unknown(ROUTING_ETHERTYPE),
                &msg.encode(),
            );
            self.control_msgs_sent += 1;
            let id = *self
                .msgs_id
                .get_or_insert_with(|| ctx.metrics().register_counter("routing.msgs"));
            ctx.metrics().incr(id);
            ctx.transmit(port, frame);
        }
    }

    fn schedule_triggered(&mut self, ctx: &mut Context<'_>) {
        if !self.triggered_pending {
            self.triggered_pending = true;
            ctx.set_timer(TRIGGERED_DELAY, TIMER_TRIGGERED);
        }
    }

    fn rebuild_fib(&mut self) {
        let routes: Vec<(Ipv4Cidr, Adjacency)> = self
            .routes
            .iter()
            .filter(|(_, r)| r.metric < INFINITY)
            .filter_map(|(&addr, r)| {
                let port = r.via?;
                let mac = *self.neighbor_mac.get(&port)?;
                Some((
                    Ipv4Cidr::new(addr, 32).expect("/32"),
                    Adjacency { port, mac },
                ))
            })
            .collect();
        self.chassis.install_routes(&routes);
    }

    fn handle_vector(
        &mut self,
        ctx: &mut Context<'_>,
        port: PortNo,
        src: EthernetAddress,
        entries: &[(Ipv4Address, u8)],
    ) {
        self.neighbor_mac.insert(port, src);
        let now = ctx.now();
        let mut changed = false;
        for &(addr, advertised) in entries {
            let candidate = advertised.saturating_add(1).min(INFINITY);
            match self.routes.get_mut(&addr) {
                Some(route) if route.via == Some(port) => {
                    // Updates from the route's own next hop always apply
                    // (including worsening, which propagates failures).
                    route.last_refresh = now;
                    if route.metric != candidate {
                        route.metric = candidate;
                        changed = true;
                    }
                }
                Some(route) if candidate < route.metric => {
                    *route = Route {
                        metric: candidate,
                        via: Some(port),
                        last_refresh: now,
                    };
                    changed = true;
                }
                Some(_) => {}
                None if candidate < INFINITY => {
                    self.routes.insert(
                        addr,
                        Route {
                            metric: candidate,
                            via: Some(port),
                            last_refresh: now,
                        },
                    );
                    changed = true;
                }
                None => {}
            }
        }
        if changed {
            self.rebuild_fib();
            self.schedule_triggered(ctx);
        }
    }

    fn poison_port(&mut self, ctx: &mut Context<'_>, port: PortNo) {
        let mut changed = false;
        for route in self.routes.values_mut() {
            if route.via == Some(port) && route.metric < INFINITY {
                route.metric = INFINITY;
                changed = true;
            }
        }
        if changed {
            self.rebuild_fib();
            self.schedule_triggered(ctx);
        }
    }
}

impl Node for DistanceVectorRouter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.advertise(ctx);
        ctx.set_timer(ADVERTISE_INTERVAL, TIMER_ADVERTISE);
        ctx.set_timer(ROUTE_TIMEOUT, TIMER_SWEEP);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TIMER_ADVERTISE => {
                self.advertise(ctx);
                ctx.set_timer(ADVERTISE_INTERVAL, TIMER_ADVERTISE);
            }
            TIMER_TRIGGERED => {
                self.triggered_pending = false;
                self.advertise(ctx);
            }
            TIMER_SWEEP => {
                let now = ctx.now();
                let mut changed = false;
                // Expire quiet remote routes; drop fully aged poisoned ones.
                self.routes.retain(|_, route| {
                    if route.via.is_none() {
                        return true; // local hosts never expire
                    }
                    let age = now.duration_since(route.last_refresh);
                    if route.metric >= INFINITY {
                        // Garbage-collect after another timeout period.
                        if age >= ROUTE_TIMEOUT {
                            changed = true;
                            return false;
                        }
                        return true;
                    }
                    if age >= ROUTE_TIMEOUT {
                        route.metric = INFINITY;
                        changed = true;
                    }
                    true
                });
                if changed {
                    self.rebuild_fib();
                    self.schedule_triggered(ctx);
                }
                ctx.set_timer(ROUTE_TIMEOUT, TIMER_SWEEP);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
        let Ok(eth) = Frame::new_checked(frame) else {
            return;
        };
        match eth.ethertype() {
            EtherType::Unknown(ROUTING_ETHERTYPE) => {
                let src = eth.src_addr();
                let payload = eth.payload().to_vec();
                if let Some(RoutingMsg::Vector { entries, .. }) = RoutingMsg::decode(&payload) {
                    self.handle_vector(ctx, port, src, &entries);
                }
            }
            EtherType::Arp => {
                let payload = eth.payload().to_vec();
                if let Some(ip) = self.chassis.handle_arp(ctx, port, &payload) {
                    self.routes.insert(
                        ip,
                        Route {
                            metric: 1,
                            via: None,
                            last_refresh: ctx.now(),
                        },
                    );
                    self.schedule_triggered(ctx);
                }
            }
            EtherType::Ipv4 => {
                if !self.neighbor_mac.contains_key(&port) {
                    if let Ok(ip) = zen_wire::ipv4::Packet::new_checked(eth.payload()) {
                        if self.chassis.learn_host(ip.src_addr(), port, eth.src_addr()) {
                            self.routes.insert(
                                ip.src_addr(),
                                Route {
                                    metric: 1,
                                    via: None,
                                    last_refresh: ctx.now(),
                                },
                            );
                            self.schedule_triggered(ctx);
                        }
                    }
                }
                self.chassis.forward_ipv4(ctx, frame);
            }
            _ => {}
        }
    }

    fn on_link_status(&mut self, ctx: &mut Context<'_>, port: PortNo, up: bool) {
        if !up {
            self.poison_port(ctx, port);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_sim::{Host, LinkParams, Topology, World};

    fn build(topo: &Topology, seed: u64) -> (World, Vec<zen_sim::NodeId>, Vec<zen_sim::NodeId>) {
        let mut world = World::new(seed);
        let routers: Vec<_> = (0..topo.switches)
            .map(|i| world.add_node(Box::new(DistanceVectorRouter::new(i as u64))))
            .collect();
        for l in &topo.links {
            world.connect(routers[l.a], routers[l.b], l.params);
        }
        let hosts: Vec<_> = topo
            .hosts
            .iter()
            .enumerate()
            .map(|(i, &sw)| {
                let host = Host::new(
                    EthernetAddress::from_id(0x50_0000 + i as u64),
                    Ipv4Address::new(10, 0, 0, (i + 1) as u8),
                )
                .with_gratuitous_arp();
                let id = world.add_node(Box::new(host));
                world.connect(id, routers[sw], LinkParams::default());
                id
            })
            .collect();
        (world, routers, hosts)
    }

    #[test]
    fn vectors_propagate_along_a_line() {
        let mut topo = Topology::line(4, LinkParams::default());
        topo.hosts = vec![0, 3];
        let (mut world, routers, _) = build(&topo, 1);
        world.run_until(Instant::from_secs(5));
        // Router 0 must know host 2 (attached to router 3) at metric 4:
        // local(1) +1 per hop over three router-router links.
        let r0 = world.node_as::<DistanceVectorRouter>(routers[0]);
        let host2 = Ipv4Address::new(10, 0, 0, 2);
        assert_eq!(r0.metric_to(host2), Some(4));
        assert!(r0.chassis.route_for(host2).is_some());
    }

    #[test]
    fn split_horizon_poisons_reverse() {
        let mut topo = Topology::line(2, LinkParams::default());
        topo.hosts = vec![0];
        let (mut world, routers, _) = build(&topo, 1);
        world.run_until(Instant::from_secs(3));
        // r1 knows the host via r0; r1's advert back to r0 must poison it.
        let r1 = world.node_as::<DistanceVectorRouter>(routers[1]);
        let host = Ipv4Address::new(10, 0, 0, 1);
        assert_eq!(r1.metric_to(host), Some(2));
        // r0 must not have adopted a route via r1 (its own metric stays 1).
        let r0 = world.node_as::<DistanceVectorRouter>(routers[0]);
        assert_eq!(r0.metric_to(host), Some(1));
        assert!(r0.routes[&host].via.is_none(), "r0's route must stay local");
    }

    #[test]
    fn failure_poisons_and_recovers_alternate() {
        // Square 0-1-2-3-0, host at 0 and 2; cut 0-1 and the route flips
        // to the 0-3-2 side.
        let mut topo = Topology::ring(4, LinkParams::default());
        topo.hosts = vec![0, 2];
        let (mut world, routers, _) = build(&topo, 1);
        world.run_until(Instant::from_secs(5));

        let host_at_2 = Ipv4Address::new(10, 0, 0, 2);
        let before = world
            .node_as::<DistanceVectorRouter>(routers[0])
            .chassis
            .route_for(host_at_2)
            .expect("initial route");

        // Find and cut the link carrying it.
        let carrying = world
            .links()
            .find(|(_, link)| {
                (link.a.0 == routers[0] && link.a.1 == before.port)
                    || (link.b.0 == routers[0] && link.b.1 == before.port)
            })
            .map(|(id, _)| id)
            .expect("carrying link");
        world.schedule_link_state(
            carrying,
            false,
            Instant::from_secs(5) + Duration::from_millis(1),
        );
        world.run_until(Instant::from_secs(15));

        let after = world
            .node_as::<DistanceVectorRouter>(routers[0])
            .chassis
            .route_for(host_at_2)
            .expect("route after failure");
        assert_ne!(after.port, before.port);
        let r0 = world.node_as::<DistanceVectorRouter>(routers[0]);
        assert_eq!(r0.metric_to(host_at_2), Some(3), "longer way round");
    }

    #[test]
    fn unreachable_routes_garbage_collected() {
        let mut topo = Topology::line(2, LinkParams::default());
        topo.hosts = vec![1];
        let (mut world, routers, _) = build(&topo, 1);
        world.run_until(Instant::from_secs(3));
        let host = Ipv4Address::new(10, 0, 0, 1);
        assert!(world
            .node_as::<DistanceVectorRouter>(routers[0])
            .metric_to(host)
            .is_some());
        // Cut the only link: the route must eventually vanish entirely.
        let link = world.links().next().map(|(id, _)| id).unwrap();
        world.schedule_link_state(
            link,
            false,
            Instant::from_secs(3) + Duration::from_millis(1),
        );
        world.run_until(Instant::from_secs(12));
        let r0 = world.node_as::<DistanceVectorRouter>(routers[0]);
        assert_eq!(r0.metric_to(host), None);
        assert!(
            !r0.routes.contains_key(&host),
            "poisoned route must be GC'd"
        );
    }
}
