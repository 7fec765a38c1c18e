//! Reactive global shortest-path forwarding (ONOS `fwd` style).
//!
//! The first packet of a host pair is punted; the app computes the
//! shortest path over the discovered topology, installs an L2 flow on
//! every switch along it, and releases the packet at the punting
//! switch. Broadcast and unknown-destination frames are delivered to
//! every *edge* port in the network (never onto switch-switch links),
//! which is loop-free on any topology without needing a spanning tree.

use std::any::Any;

use zen_dataplane::{Action, FlowMatch, FlowSpec, PortNo};
use zen_wire::ethernet::Frame;

use super::TablePressure;
use crate::app::{App, Disposition};
use crate::controller::Ctl;
use crate::view::Dpid;

/// Priority of installed flows.
const PRIORITY: u16 = 100;

/// The reactive forwarding application.
pub struct ReactiveForwarding {
    /// Idle timeout for installed path flows, nanoseconds.
    pub idle_timeout: u64,
    /// The TABLE_FULL back-off.
    pressure: TablePressure,
    /// The path of the punt being handled; kept only to recycle its
    /// allocation from punt to punt.
    path: Vec<(Dpid, PortNo)>,
    /// Paths installed (metric).
    pub paths_installed: u64,
    /// Edge floods performed (metric).
    pub edge_floods: u64,
    /// TABLE_FULL bounces heard (metric).
    pub table_full_events: u64,
    /// Per-hop installs skipped while a switch was backing off (metric).
    pub installs_suppressed: u64,
}

impl ReactiveForwarding {
    /// A reactive forwarder with a 5-second idle timeout.
    pub fn new() -> ReactiveForwarding {
        ReactiveForwarding {
            idle_timeout: 5_000_000_000,
            pressure: TablePressure::default(),
            path: Vec::new(),
            paths_installed: 0,
            edge_floods: 0,
            table_full_events: 0,
            installs_suppressed: 0,
        }
    }

    /// Deliver a frame to every up edge port except the one it came in
    /// on — the controller-mediated broadcast primitive.
    fn flood_to_edges(&mut self, ctl: &mut Ctl<'_, '_>, ingress: (Dpid, PortNo), frame: &[u8]) {
        self.edge_floods += 1;
        for (dpid, port) in ctl.view.edge_ports() {
            if (dpid, port) != ingress {
                ctl.packet_out(dpid, 0, &[Action::Output(port)], frame);
            }
        }
    }
}

impl Default for ReactiveForwarding {
    fn default() -> ReactiveForwarding {
        ReactiveForwarding::new()
    }
}

impl App for ReactiveForwarding {
    fn name(&self) -> &'static str {
        "reactive-forwarding"
    }

    fn on_packet_in(
        &mut self,
        ctl: &mut Ctl<'_, '_>,
        dpid: Dpid,
        in_port: PortNo,
        frame: &[u8],
    ) -> Disposition {
        let Ok(eth) = Frame::new_checked(frame) else {
            return Disposition::Continue;
        };
        let dst = eth.dst_addr();
        if dst.is_multicast() {
            self.flood_to_edges(ctl, (dpid, in_port), frame);
            return Disposition::Handled;
        }
        let Some(&host) = ctl.view.hosts().get(&dst) else {
            // Unknown unicast: deliver everywhere a host could be.
            self.flood_to_edges(ctl, (dpid, in_port), frame);
            return Disposition::Handled;
        };

        // Shortest path from the punting switch to the host's switch,
        // with the port each hop sends out of; unknown switch or
        // partitioned: drop.
        let mut path = std::mem::take(&mut self.path);
        let routes = ctl.view.routes();
        if !routes.path(dpid, host.dpid, host.port, &mut path) {
            self.path = path;
            return Disposition::Handled;
        }

        // Install (eth_src, eth_dst) flows hop by hop. Switches inside
        // their table-full backoff window are skipped — the packet is
        // still released, so traffic keeps moving controller-mediated,
        // and the skipped hop re-punts once its table has drained.
        self.paths_installed += 1;
        let now = ctl.now();
        let matcher = FlowMatch {
            eth_src: Some(eth.src_addr()),
            eth_dst: Some(dst),
            ..FlowMatch::ANY
        };
        // One transaction per path: the whole hop-by-hop program is
        // declared (and sent) as a unit.
        let mut txn = ctl.txn();
        for &(hop, out_port) in &path {
            let Some(idle) = self.pressure.idle_for(hop, now, self.idle_timeout) else {
                self.installs_suppressed += 1;
                continue;
            };
            let out = ctl.actions(&[Action::Output(out_port)]);
            let spec = FlowSpec::new(PRIORITY, matcher, out)
                .with_timeouts(idle, 0)
                .with_cookie(REACTIVE_COOKIE);
            txn.flow(hop, 0, spec);
        }
        txn.commit(ctl);
        // Release the trigger packet along the fresh path.
        ctl.packet_out(dpid, in_port, &[Action::Output(path[0].1)], frame);
        self.path = path;
        Disposition::Handled
    }

    fn on_table_full(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
        self.table_full_events += 1;
        self.pressure.on_table_full(dpid, ctl.now());
    }

    fn on_port_status(&mut self, ctl: &mut Ctl<'_, '_>, _dpid: Dpid, _port: PortNo, up: bool) {
        // A port coming up leaves every installed path valid.
        if up {
            return;
        }
        // A port went down: our installed paths may now traverse a dead
        // link. Purge them everywhere; traffic re-punts and re-routes
        // over the updated view (ONOS flow re-computation, simplified).
        let switches: Vec<Dpid> = ctl.view.switches.keys().copied().collect();
        for dpid in switches {
            ctl.delete_flows_by_cookie(dpid, REACTIVE_COOKIE);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

pub use crate::policy::REACTIVE_COOKIE;
