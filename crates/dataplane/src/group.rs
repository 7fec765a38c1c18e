//! Group tables: ALL, SELECT (ECMP), and FAST-FAILOVER.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::action::Action;
use crate::PortNo;

/// Group semantics, mirroring OpenFlow 1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupType {
    /// Execute every bucket (replication / broadcast trees).
    All,
    /// Execute one bucket chosen by flow hash over *live* buckets —
    /// equal-cost multipath that never splits a flow.
    Select,
    /// Execute the first bucket whose watch port is live — sub-RTT local
    /// repair without controller involvement.
    FastFailover,
}

/// One group bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// The actions this bucket executes.
    pub actions: Vec<Action>,
    /// The port whose liveness gates this bucket (SELECT and
    /// FAST-FAILOVER). `None` means always live.
    pub watch_port: Option<PortNo>,
}

impl Bucket {
    /// A bucket that outputs on `port` and watches it.
    pub fn output(port: PortNo) -> Bucket {
        Bucket {
            actions: vec![Action::Output(port)],
            watch_port: Some(port),
        }
    }
}

/// A group definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDesc {
    /// The semantics.
    pub group_type: GroupType,
    /// The buckets, in priority order for FAST-FAILOVER.
    pub buckets: Vec<Bucket>,
}

impl GroupDesc {
    /// Select the bucket(s) to execute for a frame with `flow_hash`,
    /// given a port-liveness oracle: indices into the bucket list, in
    /// order. Nothing is allocated; SELECT counts its live buckets,
    /// then walks to the chosen one.
    pub fn select_buckets<'a>(
        &'a self,
        flow_hash: u64,
        port_live: impl Fn(PortNo) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let live = move |b: &Bucket| b.watch_port.is_none_or(&port_live);
        // Which of the live buckets, counted in order, run.
        let (skip, take) = match self.group_type {
            GroupType::All => (0, usize::MAX),
            GroupType::FastFailover => (0, 1),
            GroupType::Select => match self.buckets.iter().filter(|b| live(b)).count() {
                0 => (0, 0),
                n => ((flow_hash % n as u64) as usize, 1),
            },
        };
        self.buckets
            .iter()
            .enumerate()
            .filter(move |(_, b)| live(b))
            .map(|(i, _)| i)
            .skip(skip)
            .take(take)
    }
}

/// The set of groups on a datapath.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    /// Shared so the pipeline can hold a group while its buckets run
    /// (they may recurse into the datapath that owns this table).
    groups: BTreeMap<u32, Arc<GroupDesc>>,
}

impl GroupTable {
    /// An empty group table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Install or replace a group.
    pub fn add(&mut self, id: u32, desc: GroupDesc) {
        self.groups.insert(id, Arc::new(desc));
    }

    /// Remove a group; returns whether it existed.
    pub fn remove(&mut self, id: u32) -> bool {
        self.groups.remove(&id).is_some()
    }

    /// Look up a group.
    pub fn get(&self, id: u32) -> Option<&GroupDesc> {
        self.groups.get(&id).map(|g| &**g)
    }

    /// A shared handle on a group, for executing it.
    pub(crate) fn shared(&self, id: u32) -> Option<Arc<GroupDesc>> {
        self.groups.get(&id).cloned()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups are installed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterate installed groups in id order (deterministic — used by
    /// tests that digest whole-switch forwarding state).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &GroupDesc)> {
        self.groups.iter().map(|(&id, desc)| (id, &**desc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `id` selects, collected; a missing group selects nothing.
    fn selected(
        table: &GroupTable,
        id: u32,
        flow_hash: u64,
        port_live: impl Fn(PortNo) -> bool,
    ) -> Vec<usize> {
        table
            .get(id)
            .map(|g| g.select_buckets(flow_hash, port_live).collect())
            .unwrap_or_default()
    }

    fn ecmp_group(ports: &[PortNo]) -> GroupDesc {
        GroupDesc {
            group_type: GroupType::Select,
            buckets: ports.iter().map(|&p| Bucket::output(p)).collect(),
        }
    }

    #[test]
    fn select_spreads_and_is_stable() {
        let mut table = GroupTable::new();
        table.add(1, ecmp_group(&[10, 11, 12]));
        let all_up = |_p: PortNo| true;
        let mut seen = std::collections::BTreeSet::new();
        for hash in 0..100u64 {
            let picks = selected(&table, 1, hash, all_up);
            assert_eq!(picks.len(), 1);
            seen.insert(picks[0]);
            // Stability: same hash, same bucket.
            assert_eq!(picks, selected(&table, 1, hash, all_up));
        }
        assert_eq!(seen.len(), 3, "hashing failed to cover all buckets");
    }

    #[test]
    fn select_avoids_dead_ports() {
        let mut table = GroupTable::new();
        table.add(1, ecmp_group(&[10, 11, 12]));
        let up = |p: PortNo| p != 11;
        for hash in 0..50u64 {
            let picks = selected(&table, 1, hash, up);
            assert_eq!(picks.len(), 1);
            assert_ne!(picks[0], 1, "selected the dead bucket");
        }
        // All dead: nothing selected.
        assert!(selected(&table, 1, 0, |_| false).is_empty());
    }

    #[test]
    fn fast_failover_prefers_first_live() {
        let mut table = GroupTable::new();
        table.add(
            2,
            GroupDesc {
                group_type: GroupType::FastFailover,
                buckets: vec![Bucket::output(5), Bucket::output(6)],
            },
        );
        assert_eq!(selected(&table, 2, 0, |_| true), vec![0]);
        assert_eq!(selected(&table, 2, 0, |p| p != 5), vec![1]);
        assert!(selected(&table, 2, 0, |_| false).is_empty());
    }

    #[test]
    fn all_executes_every_live_bucket() {
        let mut table = GroupTable::new();
        table.add(
            3,
            GroupDesc {
                group_type: GroupType::All,
                buckets: vec![Bucket::output(1), Bucket::output(2), Bucket::output(3)],
            },
        );
        assert_eq!(selected(&table, 3, 9, |_| true), vec![0, 1, 2]);
        assert_eq!(selected(&table, 3, 9, |p| p != 2), vec![0, 2]);
    }

    #[test]
    fn missing_group_selects_nothing() {
        let table = GroupTable::new();
        assert!(selected(&table, 9, 0, |_| true).is_empty());
    }

    #[test]
    fn add_remove() {
        let mut table = GroupTable::new();
        table.add(1, ecmp_group(&[1]));
        assert_eq!(table.len(), 1);
        assert!(table.remove(1));
        assert!(!table.remove(1));
        assert!(table.is_empty());
    }
}
