//! Network monitoring: periodic statistics collection.
//!
//! The observability half of a network OS: every N ticks the app sends
//! STATS_REQUESTs (port, table, flow, and cache) to every switch and
//! folds the replies into a queryable utilization snapshot — the data
//! source a TE app's demand estimator or an operator dashboard would
//! read.
//!
//! The fold methods are public and take plain record slices so the
//! estimators can be unit-tested without standing up a controller.

use std::any::Any;
use std::collections::BTreeMap;

use zen_dataplane::PortNo;
use zen_proto::{
    CacheStatsRec, FlowStats, Message, PortStatsRec, StatsBody, StatsKind, TableStats,
};
use zen_sim::Instant;

use crate::app::App;
use crate::controller::Ctl;
use crate::view::Dpid;

/// A port-counter snapshot with its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSample {
    /// When the sample arrived at the controller.
    pub at_nanos: u64,
    /// Frames received by the port.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames sent.
    pub tx_frames: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
}

/// A per-table occupancy/pressure snapshot with its arrival time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableSample {
    /// When the sample arrived at the controller.
    pub at_nanos: u64,
    /// Installed entries.
    pub active: u32,
    /// Configured capacity bound; 0 = unbounded.
    pub max_entries: u32,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries displaced by capacity eviction since table creation.
    pub evictions: u64,
    /// Adds bounced with `TABLE_FULL` under the refuse policy.
    pub refusals: u64,
}

/// Cumulative per-cookie traffic, aggregated over every table of one
/// switch from its latest flow-stats reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSample {
    /// Packets matched by entries carrying the cookie.
    pub packets: u64,
    /// Bytes matched by entries carrying the cookie.
    pub bytes: u64,
}

/// The statistics-collection application.
pub struct Monitor {
    /// Poll every `period_ticks` controller ticks.
    pub period_ticks: u32,
    tick_count: u32,
    /// Latest sample per (switch, port), plus the previous one for rate
    /// estimation.
    latest: BTreeMap<(Dpid, PortNo), PortSample>,
    previous: BTreeMap<(Dpid, PortNo), PortSample>,
    /// Latest per-table occupancy/pressure sample per switch, plus the
    /// previous one for eviction-rate estimation.
    pub tables: BTreeMap<(Dpid, u8), TableSample>,
    tables_prev: BTreeMap<(Dpid, u8), TableSample>,
    /// Latest per-cookie counters per switch (all tables aggregated).
    pub flows: BTreeMap<(Dpid, u64), FlowSample>,
    /// Latest flow-cache counters per switch.
    pub caches: BTreeMap<Dpid, CacheStatsRec>,
    /// Polls issued (metric).
    pub polls: u64,
    /// Replies folded in (metric).
    pub replies: u64,
}

impl Monitor {
    /// A monitor polling every `period_ticks` ticks.
    pub fn new(period_ticks: u32) -> Monitor {
        Monitor {
            period_ticks: period_ticks.max(1),
            tick_count: 0,
            latest: BTreeMap::new(),
            previous: BTreeMap::new(),
            tables: BTreeMap::new(),
            tables_prev: BTreeMap::new(),
            flows: BTreeMap::new(),
            caches: BTreeMap::new(),
            polls: 0,
            replies: 0,
        }
    }

    /// A switch's flow-cache hit rate over all traffic so far, in
    /// `[0, 1]`. `None` before the first sample or any traffic.
    pub fn cache_hit_rate(&self, dpid: Dpid) -> Option<f64> {
        let s = self.caches.get(&dpid)?;
        let hits = s.micro_hits + s.mega_hits;
        let total = hits + s.misses;
        if total == 0 {
            return None;
        }
        Some(hits as f64 / total as f64)
    }

    /// A table's occupancy as a fraction of its capacity bound, in
    /// `[0, 1]`. `None` before the first sample or when unbounded.
    pub fn table_occupancy(&self, dpid: Dpid, table_id: u8) -> Option<f64> {
        let s = self.tables.get(&(dpid, table_id))?;
        if s.max_entries == 0 {
            return None;
        }
        Some(f64::from(s.active) / f64::from(s.max_entries))
    }

    /// Estimated capacity-eviction rate of a table in evictions/sec,
    /// from the last two samples. `None` until two samples exist.
    pub fn eviction_rate(&self, dpid: Dpid, table_id: u8) -> Option<f64> {
        let new = self.tables.get(&(dpid, table_id))?;
        let old = self.tables_prev.get(&(dpid, table_id))?;
        let dt = new.at_nanos.saturating_sub(old.at_nanos);
        if dt == 0 {
            return None;
        }
        Some(new.evictions.saturating_sub(old.evictions) as f64 * 1e9 / dt as f64)
    }

    /// Capacity evictions network-wide (sum over latest table samples).
    pub fn total_evictions(&self) -> u64 {
        self.tables.values().map(|s| s.evictions).sum()
    }

    /// Estimated transmit rate of a port in bits/sec, from the last two
    /// samples. `None` until two samples exist.
    pub fn tx_rate_bps(&self, dpid: Dpid, port: PortNo) -> Option<f64> {
        let new = self.latest.get(&(dpid, port))?;
        let old = self.previous.get(&(dpid, port))?;
        let dt = new.at_nanos.saturating_sub(old.at_nanos);
        if dt == 0 {
            return None;
        }
        Some((new.tx_bytes.saturating_sub(old.tx_bytes)) as f64 * 8.0 * 1e9 / dt as f64)
    }

    /// Total bytes forwarded network-wide (sum of port tx counters).
    pub fn total_tx_bytes(&self) -> u64 {
        self.latest.values().map(|s| s.tx_bytes).sum()
    }

    /// Switch/port pairs sorted by estimated tx rate, busiest first;
    /// ties broken by ascending (dpid, port).
    pub fn busiest_ports(&self) -> Vec<((Dpid, PortNo), f64)> {
        let mut rates: Vec<((Dpid, PortNo), f64)> = self
            .latest
            .keys()
            .filter_map(|&key| self.tx_rate_bps(key.0, key.1).map(|r| (key, r)))
            .collect();
        rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        rates
    }

    /// The `n` heaviest cookies network-wide by cumulative bytes,
    /// heaviest first; ties broken by ascending (dpid, cookie).
    pub fn top_flows(&self, n: usize) -> Vec<((Dpid, u64), FlowSample)> {
        let mut flows: Vec<((Dpid, u64), FlowSample)> =
            self.flows.iter().map(|(&k, &v)| (k, v)).collect();
        flows.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        flows.truncate(n);
        flows
    }

    /// Fold a port-stats reply that arrived at `at`.
    pub fn fold_port_stats(&mut self, at: Instant, dpid: Dpid, records: &[PortStatsRec]) {
        self.replies += 1;
        for r in records {
            let key = (dpid, r.port_no);
            let sample = PortSample {
                at_nanos: at.as_nanos(),
                rx_frames: r.rx_frames,
                rx_bytes: r.rx_bytes,
                tx_frames: r.tx_frames,
                tx_bytes: r.tx_bytes,
            };
            if let Some(old) = self.latest.insert(key, sample) {
                self.previous.insert(key, old);
            }
        }
    }

    /// Fold a table-stats reply that arrived at `at`.
    pub fn fold_table_stats(&mut self, at: Instant, dpid: Dpid, records: &[TableStats]) {
        self.replies += 1;
        for r in records {
            let key = (dpid, r.table_id);
            let sample = TableSample {
                at_nanos: at.as_nanos(),
                active: r.active,
                max_entries: r.max_entries,
                hits: r.hits,
                misses: r.misses,
                evictions: r.evictions,
                refusals: r.refusals,
            };
            if let Some(old) = self.tables.insert(key, sample) {
                self.tables_prev.insert(key, old);
            }
        }
    }

    /// Fold an all-tables flow-stats reply: the switch's per-cookie
    /// aggregate is replaced wholesale (counters are cumulative, so the
    /// newest reply subsumes older ones).
    pub fn fold_flow_stats(&mut self, dpid: Dpid, records: &[FlowStats]) {
        self.replies += 1;
        self.flows.retain(|&(d, _), _| d != dpid);
        for r in records {
            let slot = self.flows.entry((dpid, r.cookie)).or_default();
            slot.packets += r.packets;
            slot.bytes += r.bytes;
        }
    }

    /// Fold a cache-stats reply.
    pub fn fold_cache_stats(&mut self, dpid: Dpid, record: &CacheStatsRec) {
        self.replies += 1;
        self.caches.insert(dpid, *record);
    }
}

impl App for Monitor {
    fn name(&self) -> &'static str {
        "monitor"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        self.tick_count += 1;
        if !self.tick_count.is_multiple_of(self.period_ticks) {
            return;
        }
        // Port 0 asks for every port, table 0xff for every table.
        let kinds = [
            StatsKind::Port { port_no: 0 },
            StatsKind::Table,
            StatsKind::Flow { table_id: 0xff },
            StatsKind::Cache,
        ];
        let switches: Vec<Dpid> = ctl.view.switches.keys().copied().collect();
        for dpid in switches {
            self.polls += 1;
            for kind in kinds {
                ctl.send(dpid, &Message::StatsRequest { kind });
            }
        }
    }

    fn on_stats(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, body: &StatsBody) {
        match body {
            StatsBody::Port(records) => self.fold_port_stats(ctl.now(), dpid, records),
            StatsBody::Table(records) => self.fold_table_stats(ctl.now(), dpid, records),
            StatsBody::Flow(records) => self.fold_flow_stats(dpid, records),
            StatsBody::Cache(record) => self.fold_cache_stats(dpid, record),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port_rec(port_no: PortNo, tx_bytes: u64) -> PortStatsRec {
        PortStatsRec {
            port_no,
            rx_frames: 0,
            rx_bytes: 0,
            tx_frames: tx_bytes / 100,
            tx_bytes,
        }
    }

    #[test]
    fn tx_rate_needs_two_samples() {
        let mut m = Monitor::new(1);
        m.fold_port_stats(Instant::from_secs(1), 1, &[port_rec(1, 1000)]);
        assert_eq!(m.tx_rate_bps(1, 1), None);
    }

    #[test]
    fn tx_rate_from_two_polls() {
        let mut m = Monitor::new(1);
        m.fold_port_stats(Instant::from_secs(1), 1, &[port_rec(1, 1000)]);
        m.fold_port_stats(Instant::from_secs(2), 1, &[port_rec(1, 2000)]);
        // 1000 bytes over 1 s = 8000 bits/s.
        let rate = m.tx_rate_bps(1, 1).unwrap();
        assert!((rate - 8000.0).abs() < 1e-6, "rate = {rate}");
        assert_eq!(m.replies, 2);
    }

    #[test]
    fn tx_rate_zero_dt_is_none() {
        let mut m = Monitor::new(1);
        m.fold_port_stats(Instant::from_secs(1), 1, &[port_rec(1, 1000)]);
        m.fold_port_stats(Instant::from_secs(1), 1, &[port_rec(1, 2000)]);
        assert_eq!(m.tx_rate_bps(1, 1), None);
    }

    #[test]
    fn busiest_ports_orders_by_rate_then_key() {
        let mut m = Monitor::new(1);
        // Two polls; port (1,1) moves 3000 B/s, (1,2) and (2,1) tie at
        // 1000 B/s, port (2,2) has only one sample (no rate).
        m.fold_port_stats(Instant::from_secs(1), 1, &[port_rec(1, 0), port_rec(2, 0)]);
        m.fold_port_stats(Instant::from_secs(1), 2, &[port_rec(1, 0)]);
        m.fold_port_stats(
            Instant::from_secs(2),
            1,
            &[port_rec(1, 3000), port_rec(2, 1000)],
        );
        m.fold_port_stats(
            Instant::from_secs(2),
            2,
            &[port_rec(1, 1000), port_rec(2, 9999)],
        );
        let busiest = m.busiest_ports();
        let keys: Vec<(Dpid, PortNo)> = busiest.iter().map(|&(k, _)| k).collect();
        // Fastest first; the 1000 B/s tie breaks by ascending key; the
        // single-sample port is absent entirely.
        assert_eq!(keys, vec![(1, 1), (1, 2), (2, 1)]);
        assert!(busiest[0].1 > busiest[1].1);
        assert_eq!(busiest[1].1, busiest[2].1);
    }

    #[test]
    fn cache_hit_rate_edge_cases() {
        let mut m = Monitor::new(1);
        // No sample yet.
        assert_eq!(m.cache_hit_rate(1), None);
        // A sample with no traffic: still None, not 0/0.
        let mut rec = CacheStatsRec {
            micro_hits: 0,
            mega_hits: 0,
            misses: 0,
            inserts: 0,
            invalidations: 0,
            micro_evictions: 0,
            mega_evictions: 0,
            generation: 0,
            entries: 0,
        };
        m.fold_cache_stats(1, &rec);
        assert_eq!(m.cache_hit_rate(1), None);
        // 6 hits (both tiers) out of 8 lookups.
        rec.micro_hits = 4;
        rec.mega_hits = 2;
        rec.misses = 2;
        m.fold_cache_stats(1, &rec);
        assert!((m.cache_hit_rate(1).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn table_occupancy_and_eviction_rate() {
        let mut m = Monitor::new(1);
        let rec = |active, evictions| TableStats {
            table_id: 0,
            active,
            max_entries: 256,
            hits: 0,
            misses: 0,
            evictions,
            refusals: 0,
        };
        // One sample: occupancy known, rate unknown.
        m.fold_table_stats(Instant::from_secs(1), 1, &[rec(64, 0)]);
        assert!((m.table_occupancy(1, 0).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(m.eviction_rate(1, 0), None);
        // Second sample 1 s later with 10 more evictions: 10/s.
        m.fold_table_stats(Instant::from_secs(2), 1, &[rec(256, 10)]);
        assert!((m.table_occupancy(1, 0).unwrap() - 1.0).abs() < 1e-12);
        assert!((m.eviction_rate(1, 0).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(m.total_evictions(), 10);
        // An unbounded table (max_entries = 0) has no occupancy.
        m.fold_table_stats(
            Instant::from_secs(2),
            2,
            &[TableStats {
                table_id: 0,
                active: 5,
                max_entries: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                refusals: 3,
            }],
        );
        assert_eq!(m.table_occupancy(2, 0), None);
    }

    #[test]
    fn flow_stats_aggregate_by_cookie_and_replace_on_repoll() {
        let mut m = Monitor::new(1);
        let recs = [
            FlowStats {
                table_id: 0,
                priority: 10,
                cookie: 7,
                packets: 3,
                bytes: 300,
            },
            FlowStats {
                table_id: 1,
                priority: 10,
                cookie: 7,
                packets: 2,
                bytes: 200,
            },
            FlowStats {
                table_id: 0,
                priority: 5,
                cookie: 9,
                packets: 1,
                bytes: 900,
            },
        ];
        m.fold_flow_stats(1, &recs);
        // Cookie 7 aggregates across tables.
        assert_eq!(
            m.flows[&(1, 7)],
            FlowSample {
                packets: 5,
                bytes: 500
            }
        );
        // Heaviest-first with (dpid, cookie) tie-break and truncation.
        let top = m.top_flows(1);
        assert_eq!(
            top,
            vec![(
                (1, 9),
                FlowSample {
                    packets: 1,
                    bytes: 900
                }
            )]
        );
        // A re-poll replaces the switch's aggregate (cumulative
        // counters), rather than double-counting.
        m.fold_flow_stats(
            1,
            &[FlowStats {
                table_id: 0,
                priority: 10,
                cookie: 7,
                packets: 6,
                bytes: 600,
            }],
        );
        assert_eq!(
            m.top_flows(10),
            vec![(
                (1, 7),
                FlowSample {
                    packets: 6,
                    bytes: 600
                }
            )]
        );
    }

    #[test]
    fn equal_byte_flows_tie_break_by_key() {
        let mut m = Monitor::new(1);
        let rec = |cookie| FlowStats {
            table_id: 0,
            priority: 1,
            cookie,
            packets: 1,
            bytes: 100,
        };
        m.fold_flow_stats(2, &[rec(1)]);
        m.fold_flow_stats(1, &[rec(2), rec(1)]);
        let keys: Vec<(Dpid, u64)> = m.top_flows(10).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(1, 1), (1, 2), (2, 1)]);
    }
}
