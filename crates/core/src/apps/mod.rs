//! Built-in controller applications.
//!
//! * [`l2::L2Learning`] — per-switch MAC learning, the "hello world" of
//!   SDN controllers (Ryu's `simple_switch`).
//! * [`reactive::ReactiveForwarding`] — global shortest-path forwarding
//!   installed on first packet (ONOS `fwd`).
//! * [`proactive::ProactiveFabric`] — up-front ECMP rules for a fabric
//!   with a known host inventory.
//! * [`acl::Acl`] — drop rules installed on every switch at handshake.
//! * [`monitor::Monitor`] — periodic STATS collection into a queryable
//!   utilization snapshot.
//! * [`te::TrafficEngineering`] — B4-style bandwidth allocation onto
//!   VLAN-labelled tunnels with weighted ECMP groups.
//!
//! Two mechanisms are shared: the program gate of the apps that program
//! the whole network at once (proactive fabric, TE), and the table
//! pressure back-off of the apps that install on a punt (L2, reactive).

use std::collections::BTreeMap;

use zen_sim::{Duration, Instant};

use crate::view::{Dpid, NetworkView};

pub mod acl;
pub mod l2;
pub mod monitor;
pub mod proactive;
pub mod reactive;
pub mod te;

pub use acl::Acl;
pub use l2::L2Learning;
pub use monitor::{Monitor, TableSample};
pub use proactive::{ProactiveFabric, StaticHost};
pub use reactive::ReactiveForwarding;
pub use te::TrafficEngineering;

/// When a whole-network program goes out, asked once per tick: wait
/// once for the expected topology, then program after two quiet ticks
/// of a moved view. A port status makes the next tick the second; a
/// re-stage programs at the next tick though the view has not moved.
#[derive(Default)]
struct ProgramGate {
    /// Switches the view must hold before the first program.
    expected_switches: usize,
    /// Directed links the view must hold before the first program.
    expected_links: usize,
    /// The view version last programmed; `None` before the first.
    installed_version: Option<u64>,
    /// Ticks counted toward the next program.
    stable_ticks: u32,
    /// Program again though the view has not moved.
    restage: bool,
}

impl ProgramGate {
    fn new(expected_switches: usize, expected_links: usize) -> ProgramGate {
        ProgramGate {
            expected_switches,
            expected_links,
            ..ProgramGate::default()
        }
    }

    fn programmed(&self) -> bool {
        self.installed_version.is_some()
    }

    fn ready(&self, view: &NetworkView) -> bool {
        view.switches.len() >= self.expected_switches && view.links.len() >= self.expected_links
    }

    /// This tick's answer: program now? The expected topology gates
    /// only the first program; once programmed, any change must
    /// reprogram.
    fn due(&mut self, view: &NetworkView) -> bool {
        if !self.programmed() && !self.ready(view) {
            return false;
        }
        if self.installed_version == Some(view.version) && !self.restage {
            return false;
        }
        self.stable_ticks += 1;
        if self.stable_ticks < 2 {
            return false;
        }
        self.stable_ticks = 0;
        true
    }

    /// A port changed state: the next tick with a moved view programs.
    fn nudge(&mut self) {
        self.stable_ticks = 1;
    }

    /// Program at the next tick though the view has not moved.
    fn restage(&mut self) {
        self.restage = true;
        self.stable_ticks = 1;
    }

    /// The program for view `version` went out.
    fn installed(&mut self, version: u64) {
        self.installed_version = Some(version);
        self.restage = false;
    }
}

/// How long after a TABLE_FULL installs toward that switch are skipped;
/// frames still move by PACKET_OUT.
const PRESSURE_BACKOFF: Duration = Duration::from_millis(200);
/// How long after a TABLE_FULL installs there carry a shortened idle
/// timeout, so the congested table drains on its own.
const PRESSURE_WINDOW: Duration = Duration::from_secs(2);
/// The divisor of the idle timeout inside the pressure window.
const PRESSURE_IDLE_DIVISOR: u64 = 4;

/// The back-off of an app that installs on a punt, after a switch
/// bounced one of its adds with TABLE_FULL.
#[derive(Default)]
struct TablePressure {
    /// Last TABLE_FULL heard per switch.
    table_full_at: BTreeMap<Dpid, Instant>,
}

impl TablePressure {
    /// The idle timeout to install toward `dpid` at `now` for one of
    /// `idle` nanoseconds, or `None` while installs there are skipped.
    fn idle_for(&self, dpid: Dpid, now: Instant, idle: u64) -> Option<u64> {
        let since = |&at: &Instant| now.duration_since(at);
        match self.table_full_at.get(&dpid).map(since) {
            Some(since) if since < PRESSURE_BACKOFF => None,
            Some(since) if since < PRESSURE_WINDOW => Some(idle / PRESSURE_IDLE_DIVISOR),
            _ => Some(idle),
        }
    }

    fn on_table_full(&mut self, dpid: Dpid, now: Instant) {
        self.table_full_at.insert(dpid, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate's schedule, tick by tick: the first program waits for
    /// the expected topology and then two ticks of a moved view; a
    /// moved view waits two ticks, a port status one; a re-stage goes
    /// at the next tick; and a view that shrinks below the expected
    /// size once programmed still reprograms.
    #[test]
    fn the_program_gate_ticks() {
        let mut view = NetworkView::new();
        let mut gate = ProgramGate::new(2, 2);
        let tick = |gate: &mut ProgramGate, view: &NetworkView| {
            let due = gate.due(view);
            if due {
                gate.installed(view.version);
            }
            due
        };
        // Short of the expected topology, nothing counts.
        view.add_switch(1, 1, &[(1, true)]);
        view.add_switch(2, 1, &[(1, true)]);
        assert!(!tick(&mut gate, &view));
        assert!(!tick(&mut gate, &view));
        assert_eq!(gate.stable_ticks, 0);
        view.add_link((1, 1), (2, 1));
        view.add_link((2, 1), (1, 1));
        // Two ticks of the expected view, then the first program.
        assert!(!tick(&mut gate, &view));
        assert!(tick(&mut gate, &view));
        assert!(gate.programmed());
        // An unmoved view programs nothing.
        assert!(!tick(&mut gate, &view));
        assert!(!tick(&mut gate, &view));
        // A moved view waits two ticks.
        view.version += 1;
        assert!(!tick(&mut gate, &view));
        assert!(tick(&mut gate, &view));
        // A port status makes the next tick of a moved view program.
        gate.nudge();
        view.version += 1;
        assert!(tick(&mut gate, &view));
        // A nudge over an unmoved view programs nothing, and stays
        // armed for the next move.
        gate.nudge();
        assert!(!tick(&mut gate, &view));
        view.version += 1;
        assert!(tick(&mut gate, &view));
        // A re-stage programs at the next tick, once.
        gate.restage();
        assert!(tick(&mut gate, &view));
        assert!(!tick(&mut gate, &view));
        assert!(!tick(&mut gate, &view));
        // Once programmed, the expected topology is not waited for
        // again: a view that lost a link reprograms after two ticks.
        view.remove_link((1, 1));
        assert!(view.links.len() < gate.expected_links);
        assert!(!tick(&mut gate, &view));
        assert!(tick(&mut gate, &view));
    }

    /// Installs toward a switch that bounced an add are skipped for
    /// 200 ms, then carry a quarter of the idle timeout until 2 s have
    /// passed, then the whole of it; other switches are untouched.
    #[test]
    fn table_pressure_backs_off_then_drains() {
        let mut pressure = TablePressure::default();
        let ms = Instant::from_millis;
        assert_eq!(pressure.idle_for(3, ms(0), 1_000), Some(1_000));
        pressure.on_table_full(3, ms(100));
        let idles: Vec<Option<u64>> = [100, 299, 300, 2_099, 2_100, 5_000]
            .into_iter()
            .map(|at| pressure.idle_for(3, ms(at), 1_000))
            .collect();
        let want = [None, None, Some(250), Some(250), Some(1_000), Some(1_000)];
        assert_eq!(idles, want);
        assert_eq!(pressure.idle_for(4, ms(100), 1_000), Some(1_000));
        // A second bounce starts the back-off again.
        pressure.on_table_full(3, ms(5_000));
        assert_eq!(pressure.idle_for(3, ms(5_100), 1_000), None);
    }
}
