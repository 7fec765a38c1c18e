//! Priority-ordered flow tables with timeouts and counters.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::action::Action;
use crate::hash::BuildWordHasher;
use crate::key::FlowKey;
use crate::matching::{FlowMatch, KeyMask};
use crate::Nanos;

/// What a controller supplies when adding a flow.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Match priority; higher wins.
    pub priority: u16,
    /// The match.
    pub matcher: FlowMatch,
    /// Action list, applied in order.
    pub actions: Vec<Action>,
    /// Continue processing in a later table after the action list.
    pub goto_table: Option<u8>,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Evict if unmatched for this long. `0` = never.
    pub idle_timeout: Nanos,
    /// Evict this long after installation regardless of use. `0` = never.
    pub hard_timeout: Nanos,
    /// Eviction weight under [`OverflowPolicy::Evict`]: when the table is
    /// full, the entry with the lowest `(importance, last_hit)` goes
    /// first. Default 0 (evicted before anything marked important).
    pub importance: u16,
}

impl FlowSpec {
    /// A spec with the given priority, match and actions; no timeouts,
    /// no goto, cookie 0.
    pub fn new(priority: u16, matcher: FlowMatch, actions: Vec<Action>) -> FlowSpec {
        FlowSpec {
            priority,
            matcher,
            actions,
            goto_table: None,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            importance: 0,
        }
    }

    /// Builder: set timeouts.
    pub fn with_timeouts(mut self, idle: Nanos, hard: Nanos) -> FlowSpec {
        self.idle_timeout = idle;
        self.hard_timeout = hard;
        self
    }

    /// Builder: set the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> FlowSpec {
        self.cookie = cookie;
        self
    }

    /// Builder: continue in a later table.
    pub fn with_goto(mut self, table: u8) -> FlowSpec {
        self.goto_table = Some(table);
        self
    }

    /// Builder: set the eviction importance.
    pub fn with_importance(mut self, importance: u16) -> FlowSpec {
        self.importance = importance;
        self
    }

    /// Whether either timeout is set.
    fn is_timed(&self) -> bool {
        self.idle_timeout | self.hard_timeout != 0
    }
}

/// An installed entry: the spec plus its counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// The controller-supplied parameters.
    pub spec: FlowSpec,
    /// Installation time.
    pub installed_at: Nanos,
    /// Last packet hit (== `installed_at` when unused).
    pub last_hit: Nanos,
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
    /// Insertion sequence, breaking priority ties deterministically
    /// (earlier installation wins).
    seq: u64,
    /// [`identity`] of the spec, made once when the entry is added.
    id: u64,
}

/// A hash of what makes two specs the same entry — `(priority, match)`
/// — so the write side can tell entries apart by one word and compare
/// matches only when the word agrees.
fn identity(priority: u16, matcher: &FlowMatch) -> u64 {
    BuildWordHasher::default().hash_one((priority, matcher))
}

/// Why an entry was removed (reported to the controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovedReason {
    /// Idle timeout expired.
    IdleTimeout,
    /// Hard timeout expired.
    HardTimeout,
    /// Deleted by a controller request.
    Delete,
    /// Displaced by a capacity eviction ([`OverflowPolicy::Evict`]).
    Eviction,
}

/// What a full table does with a new install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Bounce the add; the agent reports `TABLE_FULL` to the controller.
    Refuse,
    /// Make room by evicting the entry with the lowest
    /// `(importance, last_hit)` — oldest install breaks remaining ties.
    Evict,
}

/// What [`FlowTable::add`] did with the spec.
#[derive(Debug, Clone, PartialEq)]
pub enum AddOutcome {
    /// Installed (or replaced an identical `(priority, match)` entry).
    Added,
    /// Table full under [`OverflowPolicy::Refuse`]; nothing changed.
    Refused,
    /// Installed after evicting the returned victims (normally one;
    /// more only if the limit was tightened below current occupancy).
    Evicted(Vec<FlowEntry>),
}

/// What a table keeps beside its entries so that neither a fresh add
/// nor an idle sweep has to walk them.
#[derive(Debug, Clone, Default)]
struct Census {
    /// How many entries hold each [`identity`] (two identities may
    /// share a hash): an add whose hash no entry holds is new.
    ids: HashMap<u64, u32, BuildWordHasher>,
    /// How many entries have an idle or a hard timeout.
    timed: usize,
}

impl Census {
    fn holds(&self, id: u64) -> bool {
        self.ids.contains_key(&id)
    }

    fn note(&mut self, e: &FlowEntry) {
        *self.ids.entry(e.id).or_insert(0) += 1;
        self.timed += usize::from(e.spec.is_timed());
    }

    fn forget(&mut self, e: &FlowEntry) {
        let held = self.ids.get_mut(&e.id).expect("a held entry is counted");
        *held -= 1;
        if *held == 0 {
            self.ids.remove(&e.id);
        }
        self.timed -= usize::from(e.spec.is_timed());
    }
}

/// A single flow table.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Sorted by (priority desc, seq asc).
    entries: Vec<FlowEntry>,
    census: Census,
    next_seq: u64,
    /// Capacity bound and overflow policy; `None` = unbounded.
    limit: Option<(usize, OverflowPolicy)>,
    /// Lookups that matched no entry.
    pub misses: u64,
    /// Lookups that matched an entry.
    pub hits: u64,
    /// Entries displaced by capacity eviction since creation.
    pub evictions: u64,
    /// Adds bounced by [`OverflowPolicy::Refuse`] since creation.
    pub refusals: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Bound the table at `max_entries` (clamped to ≥ 1) under `policy`.
    /// Existing excess entries stay until the next add forces the issue.
    pub fn set_limit(&mut self, max_entries: usize, policy: OverflowPolicy) {
        self.limit = Some((max_entries.max(1), policy));
    }

    /// The configured capacity bound, if any. `None` = unbounded.
    pub fn max_entries(&self) -> Option<usize> {
        self.limit.map(|(max, _)| max)
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries have an idle or a hard timeout: while none
    /// does, no expiry sweep can find anything due.
    pub fn timed(&self) -> usize {
        self.census.timed
    }

    /// Iterate entries in match order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Install `spec`. An entry with identical (priority, match) is
    /// replaced in place, preserving OpenFlow ADD semantics (counters
    /// reset) — replacement never counts against capacity. A fresh
    /// insert into a full table follows the configured
    /// [`OverflowPolicy`]; see [`AddOutcome`].
    ///
    /// The table counts the identities it holds, so an add of one it
    /// does not hold is known to be fresh without a look at any entry.
    pub fn add(&mut self, spec: FlowSpec, now: Nanos) -> AddOutcome {
        let id = identity(spec.priority, &spec.matcher);
        if let Some(pos) = self.position(id, spec.priority, &spec.matcher) {
            let existing = &mut self.entries[pos];
            self.census.timed -= usize::from(existing.spec.is_timed());
            self.census.timed += usize::from(spec.is_timed());
            *existing = FlowEntry {
                spec,
                installed_at: now,
                last_hit: now,
                packets: 0,
                bytes: 0,
                seq: existing.seq,
                id,
            };
            return AddOutcome::Added;
        }
        let mut victims = Vec::new();
        if let Some((max, policy)) = self.limit {
            while self.entries.len() >= max {
                match policy {
                    OverflowPolicy::Refuse => {
                        self.refusals += 1;
                        return AddOutcome::Refused;
                    }
                    OverflowPolicy::Evict => match self.pick_victim() {
                        Some(idx) => {
                            let victim = self.entries.remove(idx);
                            self.census.forget(&victim);
                            victims.push(victim);
                            self.evictions += 1;
                        }
                        None => break,
                    },
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = FlowEntry {
            spec,
            installed_at: now,
            last_hit: now,
            packets: 0,
            bytes: 0,
            seq,
            id,
        };
        self.census.note(&entry);
        // Insert keeping (priority desc, seq asc) order.
        let pos = self
            .entries
            .partition_point(|e| e.spec.priority >= entry.spec.priority);
        self.entries.insert(pos, entry);
        if victims.is_empty() {
            AddOutcome::Added
        } else {
            AddOutcome::Evicted(victims)
        }
    }

    /// Where the entry with exactly this (priority, match) sits: none
    /// if no entry holds its identity, else a scan of identities,
    /// confirmed field by field only where one agrees.
    fn position(&self, id: u64, priority: u16, matcher: &FlowMatch) -> Option<usize> {
        if !self.census.holds(id) {
            return None;
        }
        self.entries
            .iter()
            .position(|e| e.id == id && e.spec.priority == priority && e.spec.matcher == *matcher)
    }

    /// The eviction victim: lowest `(importance, last_hit, seq)`.
    fn pick_victim(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.spec.importance, e.last_hit, e.seq))
            .map(|(idx, _)| idx)
    }

    /// Delete the entry with exactly this (priority, match). Returns it if
    /// present.
    pub fn delete_strict(&mut self, priority: u16, matcher: &FlowMatch) -> Option<FlowEntry> {
        let pos = self.position(identity(priority, matcher), priority, matcher)?;
        let entry = self.entries.remove(pos);
        self.census.forget(&entry);
        Some(entry)
    }

    /// Delete every entry whose cookie equals `cookie`; returns them.
    pub fn delete_by_cookie(&mut self, cookie: u64) -> Vec<FlowEntry> {
        let census = &mut self.census;
        let gone = self.entries.extract_if(.., |e| e.spec.cookie == cookie);
        gone.inspect(|e| census.forget(e)).collect()
    }

    /// Delete all entries; returns them.
    pub fn clear(&mut self) -> Vec<FlowEntry> {
        self.census = Census::default();
        self.entries.drain(..).collect()
    }

    /// The highest-priority matching entry, updating its counters.
    pub fn lookup(&mut self, key: &FlowKey, frame_len: usize, now: Nanos) -> Option<&FlowEntry> {
        match self
            .entries
            .iter_mut()
            .find(|e| e.spec.matcher.matches(key))
        {
            Some(entry) => {
                entry.packets += 1;
                entry.bytes += frame_len as u64;
                entry.last_hit = now;
                self.hits += 1;
                Some(&*entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Like [`FlowTable::lookup`], but accumulates every key field the
    /// scan consulted — across non-matching higher-priority entries and
    /// the matching one — into `mask`, and also reports the matched
    /// entry's position for cache trajectory recording. The position is
    /// stable until the table is mutated (the flow cache invalidates on
    /// any mutation).
    pub fn lookup_with_mask(
        &mut self,
        key: &FlowKey,
        frame_len: usize,
        now: Nanos,
        mask: &mut KeyMask,
    ) -> Option<(usize, &FlowEntry)> {
        match self
            .entries
            .iter()
            .position(|e| e.spec.matcher.matches_masked(key, mask))
        {
            Some(idx) => {
                let entry = &mut self.entries[idx];
                entry.packets += 1;
                entry.bytes += frame_len as u64;
                entry.last_hit = now;
                self.hits += 1;
                Some((idx, &self.entries[idx]))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Credit a cache-replayed packet to the entry at `idx`, exactly as
    /// a slow-path [`FlowTable::lookup`] hit would — per-entry packet
    /// and byte counters, idle-timeout freshness, and the table hit
    /// counter — and lend the entry so the replay runs its actions in
    /// place. `None` if nothing sits at `idx` (the cache's generation
    /// invariant says something does).
    pub fn replay_hit(&mut self, idx: usize, frame_len: usize, now: Nanos) -> Option<&FlowEntry> {
        let entry = self.entries.get_mut(idx)?;
        entry.packets += 1;
        entry.bytes += frame_len as u64;
        entry.last_hit = now;
        self.hits += 1;
        Some(entry)
    }

    /// Credit a cache-replayed table miss, as a slow-path lookup would.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// A read-only lookup that leaves counters untouched (for stats and
    /// conflict analysis).
    pub fn peek(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.spec.matcher.matches(key))
    }

    /// Evict expired entries, handing each to `removed` with the reason
    /// (for FLOW_REMOVED notifications) as the scan comes to it. Most
    /// sweeps find nothing due: a table with no timed entry says so
    /// without a look, any other with a read-only one.
    pub fn expire_with(&mut self, now: Nanos, mut removed: impl FnMut(FlowEntry, RemovedReason)) {
        if self.census.timed == 0 || !self.entries.iter().any(|e| e.expiry(now).is_some()) {
            return;
        }
        for entry in self.entries.extract_if(.., |e| e.expiry(now).is_some()) {
            self.census.forget(&entry);
            let reason = entry.expiry(now).expect("extracted because it expired");
            removed(entry, reason);
        }
    }

    /// [`FlowTable::expire_with`], collected.
    pub fn expire(&mut self, now: Nanos) -> Vec<(FlowEntry, RemovedReason)> {
        let mut removed = Vec::new();
        self.expire_with(now, |entry, reason| removed.push((entry, reason)));
        removed
    }
}

impl FlowEntry {
    /// Why the entry is due for removal at `now`, if it is: the hard
    /// timeout is judged first.
    fn expiry(&self, now: Nanos) -> Option<RemovedReason> {
        let spec = &self.spec;
        if spec.hard_timeout > 0 && now >= self.installed_at + spec.hard_timeout {
            Some(RemovedReason::HardTimeout)
        } else if spec.idle_timeout > 0 && now >= self.last_hit + spec.idle_timeout {
            Some(RemovedReason::IdleTimeout)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_wire::builder::PacketBuilder;
    use zen_wire::{EthernetAddress, Ipv4Address};

    const M1: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 1]);
    const M2: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 2]);

    fn key(dst_port: u16) -> FlowKey {
        let frame = PacketBuilder::udp(
            M1,
            Ipv4Address::new(10, 0, 0, 1),
            999,
            M2,
            Ipv4Address::new(10, 0, 0, 2),
            dst_port,
            b"x",
        );
        FlowKey::extract(1, &frame).unwrap()
    }

    #[test]
    fn priority_order_wins() {
        let mut table = FlowTable::new();
        table.add(FlowSpec::new(1, FlowMatch::ANY, vec![Action::Output(1)]), 0);
        table.add(
            FlowSpec::new(
                10,
                FlowMatch::ANY.with_ip_proto(17),
                vec![Action::Output(2)],
            ),
            0,
        );
        let hit = table.lookup(&key(53), 60, 100).unwrap();
        assert_eq!(hit.spec.actions, vec![Action::Output(2)]);
        assert_eq!(table.hits, 1);
    }

    #[test]
    fn equal_priority_earlier_install_wins() {
        let mut table = FlowTable::new();
        table.add(
            FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(1)]).with_cookie(1),
            0,
        );
        table.add(
            FlowSpec::new(5, FlowMatch::ANY.with_ip_proto(17), vec![Action::Output(2)])
                .with_cookie(2),
            0,
        );
        let hit = table.lookup(&key(53), 60, 0).unwrap();
        assert_eq!(hit.spec.cookie, 1);
    }

    #[test]
    fn add_replaces_same_priority_and_match() {
        let mut table = FlowTable::new();
        table.add(FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(1)]), 0);
        table.lookup(&key(1), 60, 1);
        table.add(FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(9)]), 2);
        assert_eq!(table.len(), 1);
        let hit = table.lookup(&key(1), 60, 3).unwrap();
        assert_eq!(hit.spec.actions, vec![Action::Output(9)]);
        assert_eq!(hit.packets, 1, "counters reset on replace");
    }

    #[test]
    fn counters_accumulate() {
        let mut table = FlowTable::new();
        table.add(FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(1)]), 0);
        table.lookup(&key(1), 100, 1);
        table.lookup(&key(2), 50, 2);
        let entry = table.entries().next().unwrap();
        assert_eq!(entry.packets, 2);
        assert_eq!(entry.bytes, 150);
        assert_eq!(entry.last_hit, 2);
    }

    #[test]
    fn miss_counts() {
        let mut table = FlowTable::new();
        assert!(table.lookup(&key(1), 60, 0).is_none());
        assert_eq!(table.misses, 1);
    }

    #[test]
    fn idle_timeout_expires_only_when_idle() {
        let mut table = FlowTable::new();
        table.add(
            FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(1)]).with_timeouts(100, 0),
            0,
        );
        // Kept alive by hits.
        table.lookup(&key(1), 60, 50);
        assert!(table.expire(120).is_empty());
        // Goes idle.
        let removed = table.expire(160);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].1, RemovedReason::IdleTimeout);
        assert!(table.is_empty());
    }

    #[test]
    fn hard_timeout_expires_despite_hits() {
        let mut table = FlowTable::new();
        table.add(
            FlowSpec::new(5, FlowMatch::ANY, vec![Action::Output(1)]).with_timeouts(0, 100),
            0,
        );
        table.lookup(&key(1), 60, 99);
        let removed = table.expire(100);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].1, RemovedReason::HardTimeout);
    }

    #[test]
    fn delete_strict_and_by_cookie() {
        let mut table = FlowTable::new();
        let m = FlowMatch::ANY.with_ip_proto(17);
        table.add(FlowSpec::new(5, m, vec![]).with_cookie(7), 0);
        table.add(FlowSpec::new(6, FlowMatch::ANY, vec![]).with_cookie(7), 0);
        assert!(table.delete_strict(5, &m).is_some());
        assert!(table.delete_strict(5, &m).is_none());
        assert_eq!(table.delete_by_cookie(7).len(), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn peek_does_not_count() {
        let mut table = FlowTable::new();
        table.add(FlowSpec::new(5, FlowMatch::ANY, vec![]), 0);
        assert!(table.peek(&key(1)).is_some());
        assert_eq!(table.hits, 0);
        assert_eq!(table.entries().next().unwrap().packets, 0);
    }

    /// A spec distinguished by destination UDP port, so each is a fresh
    /// (priority, match) identity.
    fn port_spec(port: u16) -> FlowSpec {
        FlowSpec::new(
            5,
            FlowMatch::ANY.with_ip_proto(17).with_l4_dst(port),
            vec![Action::Output(1)],
        )
    }

    #[test]
    fn refuse_policy_bounces_add_and_counts() {
        let mut table = FlowTable::new();
        table.set_limit(2, OverflowPolicy::Refuse);
        assert_eq!(table.add(port_spec(1), 0), AddOutcome::Added);
        assert_eq!(table.add(port_spec(2), 1), AddOutcome::Added);
        assert_eq!(table.add(port_spec(3), 2), AddOutcome::Refused);
        assert_eq!(table.len(), 2);
        assert_eq!(table.refusals, 1);
        // A replace of an existing identity still goes through when full.
        assert_eq!(table.add(port_spec(2), 3), AddOutcome::Added);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn evict_policy_removes_lowest_importance_then_coldest() {
        let mut table = FlowTable::new();
        table.set_limit(3, OverflowPolicy::Evict);
        table.add(port_spec(1).with_importance(7), 0);
        table.add(port_spec(2), 0);
        table.add(port_spec(3), 0);
        // Warm up entry 2 so entry 3 is the coldest importance-0 entry.
        table.lookup(&key(2), 60, 50);
        match table.add(port_spec(4), 100) {
            AddOutcome::Evicted(victims) => {
                assert_eq!(victims.len(), 1);
                assert_eq!(
                    victims[0].spec.matcher,
                    port_spec(3).matcher,
                    "coldest importance-0 entry must go first"
                );
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(table.len(), 3);
        assert_eq!(table.evictions, 1);
        // The importance-7 entry survives further churn over importance-0
        // peers even though it is the coldest overall.
        table.add(port_spec(5), 200);
        table.add(port_spec(6), 300);
        assert!(table
            .entries()
            .any(|e| e.spec.importance == 7 && e.spec.matcher == port_spec(1).matcher));
        assert_eq!(table.evictions, 3);
    }

    #[test]
    fn evict_ties_break_by_oldest_install() {
        let mut table = FlowTable::new();
        table.set_limit(2, OverflowPolicy::Evict);
        table.add(port_spec(1), 10);
        table.add(port_spec(2), 10);
        match table.add(port_spec(3), 20) {
            AddOutcome::Evicted(victims) => {
                assert_eq!(victims[0].spec.matcher, port_spec(1).matcher);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn tightened_limit_evicts_down_to_bound() {
        let mut table = FlowTable::new();
        table.add(port_spec(1), 0);
        table.add(port_spec(2), 1);
        table.add(port_spec(3), 2);
        table.set_limit(2, OverflowPolicy::Evict);
        match table.add(port_spec(4), 3) {
            AddOutcome::Evicted(victims) => assert_eq!(victims.len(), 2),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(table.len(), 2);
        assert_eq!(table.max_entries(), Some(2));
    }

    /// The table as it was before entries carried an identity: an add
    /// and a strict delete compare (priority, match) field by field down
    /// the whole table. Kept as the oracle for the identity scan.
    #[derive(Default)]
    struct Scanning {
        entries: Vec<FlowEntry>,
        next_seq: u64,
        limit: Option<(usize, OverflowPolicy)>,
    }

    impl Scanning {
        fn entry(spec: FlowSpec, now: Nanos, seq: u64) -> FlowEntry {
            FlowEntry {
                spec,
                installed_at: now,
                last_hit: now,
                packets: 0,
                bytes: 0,
                seq,
                id: 0,
            }
        }

        fn add(&mut self, spec: FlowSpec, now: Nanos) -> AddOutcome {
            let same = |e: &&mut FlowEntry| {
                e.spec.priority == spec.priority && e.spec.matcher == spec.matcher
            };
            if let Some(existing) = self.entries.iter_mut().find(same) {
                *existing = Scanning::entry(spec, now, existing.seq);
                return AddOutcome::Added;
            }
            let mut victims = Vec::new();
            if let Some((max, policy)) = self.limit {
                while self.entries.len() >= max {
                    if policy == OverflowPolicy::Refuse {
                        return AddOutcome::Refused;
                    }
                    let coldest =
                        |(_, e): &(usize, &FlowEntry)| (e.spec.importance, e.last_hit, e.seq);
                    let victim = self.entries.iter().enumerate().min_by_key(coldest);
                    let Some((idx, _)) = victim else { break };
                    victims.push(self.entries.remove(idx));
                }
            }
            let entry = Scanning::entry(spec, now, self.next_seq);
            self.next_seq += 1;
            let pos = self
                .entries
                .partition_point(|e| e.spec.priority >= entry.spec.priority);
            self.entries.insert(pos, entry);
            if victims.is_empty() {
                AddOutcome::Added
            } else {
                AddOutcome::Evicted(victims)
            }
        }

        fn delete_strict(&mut self, priority: u16, matcher: &FlowMatch) -> Option<FlowEntry> {
            let same = |e: &FlowEntry| e.spec.priority == priority && e.spec.matcher == *matcher;
            let pos = self.entries.iter().position(same)?;
            Some(self.entries.remove(pos))
        }

        fn remove_where(&mut self, gone: impl Fn(&FlowEntry) -> bool) -> Vec<FlowEntry> {
            let (removed, kept) = self.entries.drain(..).partition(|e| gone(e));
            self.entries = kept;
            removed
        }
    }

    /// Everything about an entry but its identity, which the oracle
    /// does not make.
    fn without_id(e: &FlowEntry) -> FlowEntry {
        FlowEntry { id: 0, ..e.clone() }
    }

    /// 12 000 random ops on the table and on the oracle hold the same
    /// entries. After every op the table's census is a recount of its
    /// entries (the identities it holds, how many entries are timed),
    /// and a table it counts no timed entry in has none that could ever
    /// fall due.
    #[test]
    fn identity_scan_matches_the_scanning_table() {
        use zen_wire::lcg::Lcg;
        let mut rng = Lcg::new(0x1DE4717);
        let (mut ops, mut retimed, mut untimed) = (0, 0, 0);
        for case in 0..40 {
            let mut real = FlowTable::new();
            let mut model = Scanning::default();
            if case % 4 != 0 {
                let policy = [OverflowPolicy::Evict, OverflowPolicy::Refuse][case % 2];
                real.set_limit(10, policy);
                model.limit = Some((10, policy));
            }
            let mut now = 0;
            for op in 0..300 {
                now += rng.gen_range(30);
                let priority = rng.gen_range(3) as u16;
                let mut matcher = FlowMatch::ANY.with_l4_dst(rng.gen_range(6) as u16);
                if rng.gen_ratio(1, 2) {
                    matcher = matcher.with_ip_proto(17);
                }
                let cookie = rng.gen_range(3);
                let at = format!("case {case} op {op}");
                match rng.gen_index(10) {
                    // Adds: new, replacing (few identities, so often), and
                    // evicting or refused once the table is full.
                    0..=4 => {
                        let spec = FlowSpec::new(
                            priority,
                            matcher,
                            vec![Action::Output(rng.gen_range(9) as u32)],
                        )
                        .with_cookie(cookie)
                        .with_importance(rng.gen_range(2) as u16)
                        .with_timeouts(
                            *rng.choose(&[0, 50, 200]).unwrap(),
                            *rng.choose(&[0, 400]).unwrap(),
                        );
                        // Every third table is mostly programmed: no timeouts.
                        let spec = match case % 3 == 0 && !rng.gen_ratio(1, 8) {
                            true => spec.with_timeouts(0, 0),
                            false => spec,
                        };
                        let same = |e: &&FlowEntry| {
                            e.spec.priority == priority && e.spec.matcher == matcher
                        };
                        let replaced = model.entries.iter().find(same);
                        retimed += usize::from(
                            replaced.is_some_and(|e| e.spec.is_timed() != spec.is_timed()),
                        );
                        let (a, b) = (real.add(spec.clone(), now), model.add(spec, now));
                        let victims = |o: &AddOutcome| match o {
                            AddOutcome::Evicted(v) => Some(v.iter().map(without_id).collect()),
                            _ => None::<Vec<FlowEntry>>,
                        };
                        assert_eq!(
                            std::mem::discriminant(&a),
                            std::mem::discriminant(&b),
                            "{at}"
                        );
                        assert_eq!(victims(&a), victims(&b), "{at}");
                    }
                    5 => {
                        let a = real.delete_strict(priority, &matcher);
                        let b = model.delete_strict(priority, &matcher);
                        assert_eq!(a.as_ref().map(without_id), b, "{at}");
                    }
                    6 => {
                        let a = real.delete_by_cookie(cookie);
                        let b = model.remove_where(|e| e.spec.cookie == cookie);
                        assert_eq!(a.iter().map(without_id).collect::<Vec<_>>(), b, "{at}");
                    }
                    7 => {
                        let a = real.expire(now);
                        let b = model.remove_where(|e| e.expiry(now).is_some());
                        let a: Vec<_> = a.iter().map(|(e, _)| without_id(e)).collect();
                        assert_eq!(a, b, "{at}");
                    }
                    // A hit, so idle timers and eviction order move.
                    _ => {
                        if let Some(pos) = real.entries.len().checked_sub(1) {
                            let pos = rng.gen_index(pos + 1);
                            real.replay_hit(pos, 60, now);
                            let hit = &mut model.entries[pos];
                            (hit.packets, hit.bytes, hit.last_hit) =
                                (hit.packets + 1, hit.bytes + 60, now);
                        }
                    }
                }
                let held: Vec<_> = real.entries.iter().map(without_id).collect();
                assert_eq!(held, model.entries, "{at}");
                assert!(real
                    .entries
                    .iter()
                    .all(|e| { e.id == identity(e.spec.priority, &e.spec.matcher) }));
                let mut recount = Census::default();
                real.entries.iter().for_each(|e| recount.note(e));
                assert_eq!(real.census.ids, recount.ids, "{at}");
                assert_eq!(real.census.timed, recount.timed, "{at}");
                if real.census.timed == 0 {
                    assert!(real.entries.iter().all(|e| e.expiry(Nanos::MAX).is_none()));
                    untimed += usize::from(!real.is_empty());
                }
                ops += 1;
            }
        }
        assert!(ops >= 10_000);
        assert!(retimed > 200 && untimed > 1_000, "{retimed} {untimed}");
    }
}
