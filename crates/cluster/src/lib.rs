//! # zen-cluster — distributed control-plane substrate
//!
//! The mechanisms a controller replica needs to be part of an
//! ONOS-style cluster, independent of the controller itself:
//!
//! * [`Membership`] — lease-based liveness over east-west heartbeats
//!   plus a deterministic per-switch mastership function. There is no
//!   separate election protocol: every replica computes the same
//!   `master(dpid) = live_replicas[dpid % n_live]` assignment from its
//!   own live set, and divergent live sets (partitions) are resolved at
//!   the switch by comparing `(term, replica)` claims — the mastership
//!   **term** grows by the number of membership changes a replica has
//!   observed, so the replica that lost *more* peers (the minority side
//!   of a partition) always presents the strictly higher term.
//! * [`EwStore`] — per-origin monotonic event logs with digest-based
//!   anti-entropy. Every replica retains entries from **all** origins
//!   (so any live peer can repair any other), summarises each origin
//!   log as an [`OriginHead`] — retention floor, applied head, and a
//!   rolling chain hash over the entries — and peers compare digests to
//!   fetch exactly the missing ranges. A replica that has fallen behind
//!   a retention floor bootstraps from a checksummed snapshot of the
//!   winning entry per key instead of replaying the full log. Writes
//!   to the same logical key resolve last-writer-wins on `(term, seq,
//!   origin)`, like ONOS's eventually consistent maps.
//!
//! Everything is deterministic: no wall-clock time, no randomness, all
//! maps ordered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use zen_consensus::{chain_ew, CHAIN_SEED};
use zen_proto::{EwEntry, OriginHead, ViewEvent};
use zen_sim::{Duration, Instant, NodeId};

/// How replicas reconcile their east-west stores: one way. The enum
/// and [`ClusterConfig::gossip`] outlive the suffix-resend mode they
/// used to select only because the benchmark's surface list names them;
/// they go with the `benchmark` PR that drops them there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipMode {
    /// Digest anti-entropy: heartbeats carry per-origin
    /// `(floor, head, hash)` summaries and peers fetch exactly the
    /// missing ranges, falling back to a checksummed snapshot below
    /// the retention floor.
    Digest,
}

/// Static description of a cluster from one replica's point of view.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node ids of every replica, in replica-index order. All replicas
    /// must agree on this vector.
    pub replicas: Vec<NodeId>,
    /// This replica's index into `replicas`.
    pub index: usize,
    /// Silence threshold: a peer unheard from for this long is presumed
    /// dead and its switches are taken over.
    pub lease_timeout: Duration,
    /// How the east-west store reconciles with peers.
    pub gossip: GossipMode,
}

impl ClusterConfig {
    /// A config with the default 300 ms mastership lease and digest
    /// anti-entropy.
    pub fn new(replicas: Vec<NodeId>, index: usize) -> ClusterConfig {
        ClusterConfig {
            replicas,
            index,
            lease_timeout: Duration::from_millis(300),
            gossip: GossipMode::Digest,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the cluster is a single replica (degenerate).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica index of `node`, if it is a replica.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.replicas.iter().position(|&n| n == node)
    }
}

/// Lease-based membership and the deterministic mastership function.
#[derive(Debug)]
pub struct Membership {
    cfg: ClusterConfig,
    /// Last heartbeat per replica index; our own slot tracks `now`.
    last_heard: Vec<Instant>,
    alive: Vec<bool>,
    term: u64,
}

impl Membership {
    /// A membership view that starts with every replica presumed alive
    /// (bring-up grace: nobody has heartbeated yet at t=0).
    pub fn new(cfg: ClusterConfig, now: Instant) -> Membership {
        let n = cfg.replicas.len();
        Membership {
            cfg,
            last_heard: vec![now; n],
            alive: vec![true; n],
            term: 1,
        }
    }

    /// The cluster config.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// This replica's index.
    pub fn index(&self) -> usize {
        self.cfg.index
    }

    /// The current mastership term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Record a heartbeat from `replica` carrying its `term`. Terms
    /// merge by max, so a healed partition converges on the highest
    /// term either side reached.
    pub fn note_heartbeat(&mut self, replica: u32, term: u64, now: Instant) {
        if let Some(slot) = self.last_heard.get_mut(replica as usize) {
            *slot = now;
        }
        self.term = self.term.max(term);
    }

    /// Re-evaluate peer liveness against the lease. Each peer that
    /// flips (alive→dead or dead→alive) bumps the term by one, so the
    /// side of a partition that lost more peers claims with a strictly
    /// higher term. Returns `true` if any peer flipped.
    pub fn scan(&mut self, now: Instant) -> bool {
        let mut changed = false;
        for i in 0..self.cfg.replicas.len() {
            if i == self.cfg.index {
                self.last_heard[i] = now;
                continue;
            }
            let live = now.duration_since(self.last_heard[i]) < self.cfg.lease_timeout;
            if live != self.alive[i] {
                self.alive[i] = live;
                self.term += 1;
                changed = true;
            }
        }
        changed
    }

    /// Whether replica `i` is currently presumed alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive.get(i).copied().unwrap_or(false)
    }

    /// Indices of replicas currently presumed alive (always includes
    /// self), ascending.
    pub fn live(&self) -> Vec<usize> {
        self.live_indices().collect()
    }

    /// [`Membership::live`], without collecting it.
    fn live_indices(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.cfg.replicas.len()).filter(|&i| i == self.cfg.index || self.alive[i])
    }

    /// The replica index every replica with this live set would elect
    /// as master of `dpid`.
    pub fn master_index(&self, dpid: u64) -> usize {
        let mut live = self.live_indices();
        let at = dpid % live.clone().count() as u64;
        live.nth(at as usize).expect("a replica is live to itself")
    }

    /// Whether this replica's own assignment says it masters `dpid`.
    /// (A stronger claim observed at the switch may still override —
    /// that bookkeeping lives with the connection owner.)
    pub fn assigned_master(&self, dpid: u64) -> bool {
        self.master_index(dpid) == self.cfg.index
    }

    /// This replica's mastership claim, ordered lexicographically:
    /// the higher `(term, replica)` wins a contested switch.
    pub fn claim(&self) -> (u64, u32) {
        (self.term, self.cfg.index as u32)
    }
}

/// The logical key a [`ViewEvent`] writes, for last-writer-wins
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKey {
    /// A directed link, keyed by its source endpoint.
    Link(u64, u32),
    /// A host, keyed by MAC (as u64).
    Host(u64),
    /// One switch's cookie shadow.
    Shadow(u64),
    /// One (switch, app-cookie) program stamp.
    Stamp(u64, u64),
}

/// The key `event` writes.
pub fn event_key(event: &ViewEvent) -> EventKey {
    match event {
        ViewEvent::LinkAdd {
            from_dpid,
            from_port,
            ..
        }
        | ViewEvent::LinkDel {
            from_dpid,
            from_port,
        } => EventKey::Link(*from_dpid, *from_port),
        ViewEvent::HostLearned { mac, .. } => {
            let b = mac.as_bytes();
            let mut v = 0u64;
            for &x in b {
                v = (v << 8) | u64::from(x);
            }
            EventKey::Host(v)
        }
        ViewEvent::ShadowSet { dpid, .. } => EventKey::Shadow(*dpid),
        ViewEvent::ProgramStamp { dpid, cookie, .. } => EventKey::Stamp(*dpid, *cookie),
    }
}

/// What [`EwStore::admit`] decided about a received entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// New and the latest writer for its key: apply it.
    Apply,
    /// New but an already-applied write to the same key outranks it:
    /// record it, skip application.
    Stale,
    /// Already seen (duplicate delivery): ignore.
    Duplicate,
    /// Out of order (a gap before it): ignore; the origin resends the
    /// contiguous suffix on the next anti-entropy round.
    Gap,
}

/// Per-origin monotonic event logs with digest anti-entropy metadata.
/// See the crate docs for the protocol.
#[derive(Debug)]
pub struct EwStore {
    origin: u32,
    n_replicas: usize,
    /// Retained entries per origin, by seq. All origins are kept (not
    /// just our own) so any live replica can repair any other.
    logs: BTreeMap<u32, BTreeMap<u64, EwEntry>>,
    /// Retention floor per origin: seqs at or below it are pruned and
    /// only reachable through a snapshot.
    floors: BTreeMap<u32, u64>,
    /// Rolling chain hash per origin over entries `1..=applied_high`.
    hashes: BTreeMap<u32, u64>,
    next_seq: u64,
    /// Highest contiguous seq applied locally, per origin. Our own slot
    /// is `next_seq - 1`.
    applied: BTreeMap<u32, u64>,
    /// Per-origin high-water marks each peer has acknowledged.
    peer_acks: BTreeMap<u32, BTreeMap<u32, u64>>,
    /// Winning `(term, seq, origin)` stamp per logical key.
    stamps: BTreeMap<EventKey, (u64, u64, u32)>,
    /// The winning entry per logical key — the snapshot base.
    winners: BTreeMap<EventKey, EwEntry>,
}

impl EwStore {
    /// An empty store for replica `origin` of `n_replicas`.
    pub fn new(origin: u32, n_replicas: usize) -> EwStore {
        let mut applied = BTreeMap::new();
        let mut peer_acks = BTreeMap::new();
        for i in 0..n_replicas as u32 {
            applied.insert(i, 0);
            if i != origin {
                peer_acks.insert(i, BTreeMap::new());
            }
        }
        EwStore {
            origin,
            n_replicas,
            logs: BTreeMap::new(),
            floors: BTreeMap::new(),
            hashes: BTreeMap::new(),
            next_seq: 1,
            applied,
            peer_acks,
            stamps: BTreeMap::new(),
            winners: BTreeMap::new(),
        }
    }

    fn retain(&mut self, entry: EwEntry) {
        let h = self.hashes.entry(entry.origin).or_insert(CHAIN_SEED);
        *h = chain_ew(*h, &entry);
        self.logs
            .entry(entry.origin)
            .or_default()
            .insert(entry.seq, entry);
    }

    /// Log a local mutation under `term`, stamping its key. The caller
    /// has already applied it to local state (local observations are
    /// first-hand and always applied).
    pub fn append(&mut self, term: u64, event: ViewEvent) -> EwEntry {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.applied.insert(self.origin, seq);
        let key = event_key(&event);
        self.stamps.insert(key, (term, seq, self.origin));
        let entry = EwEntry {
            origin: self.origin,
            seq,
            term,
            event,
        };
        self.winners.insert(key, entry.clone());
        self.retain(entry.clone());
        entry
    }

    /// Decide what to do with a received entry and update the log
    /// metadata. On [`Admit::Apply`] the caller applies `entry.event`
    /// to its local state.
    pub fn admit(&mut self, entry: &EwEntry) -> Admit {
        if entry.origin == self.origin || entry.origin as usize >= self.n_replicas {
            return Admit::Duplicate;
        }
        let high = self.applied.get(&entry.origin).copied().unwrap_or(0);
        if entry.seq <= high {
            return Admit::Duplicate;
        }
        if entry.seq != high + 1 {
            return Admit::Gap;
        }
        self.applied.insert(entry.origin, entry.seq);
        self.retain(entry.clone());
        let key = event_key(&entry.event);
        let stamp = (entry.term, entry.seq, entry.origin);
        match self.stamps.get(&key) {
            Some(&existing) if existing > stamp => Admit::Stale,
            _ => {
                self.stamps.insert(key, stamp);
                self.winners.insert(key, entry.clone());
                Admit::Apply
            }
        }
    }

    /// Per-origin applied high-water marks to carry in a heartbeat,
    /// ascending by origin.
    pub fn acks(&self) -> Vec<(u32, u64)> {
        self.applied.iter().map(|(&o, &s)| (o, s)).collect()
    }

    /// Record the acks a peer's heartbeat carried. Pruning is a
    /// separate, liveness-aware step — [`prune_acked`](Self::prune_acked)
    /// — so a dead replica cannot pin the log forever.
    pub fn note_peer_acks(&mut self, peer: u32, acks: &[(u32, u64)]) {
        if peer == self.origin {
            return;
        }
        let slot = self.peer_acks.entry(peer).or_default();
        for &(origin, seq) in acks {
            let e = slot.entry(origin).or_insert(0);
            if seq > *e {
                *e = seq;
            }
        }
    }

    /// Prune every origin log up to the minimum applied mark across
    /// `live` replicas (self included). Dead replicas stop counting:
    /// when one returns below a retention floor it bootstraps from a
    /// snapshot instead of a replayed suffix.
    pub fn prune_acked(&mut self, live: &[usize]) {
        for (&o, log) in &mut self.logs {
            let mut min = self.applied.get(&o).copied().unwrap_or(0);
            for &p in live {
                let p = p as u32;
                if p == self.origin {
                    continue;
                }
                let acked = self
                    .peer_acks
                    .get(&p)
                    .and_then(|m| m.get(&o).copied())
                    .unwrap_or(0);
                min = min.min(acked);
            }
            if min == 0 {
                continue;
            }
            // The acked prefix goes in one split, not an entry-by-entry
            // walk of the whole log.
            if log.first_key_value().is_some_and(|(&seq, _)| seq <= min) {
                *log = log.split_off(&(min + 1));
            }
            let floor = self.floors.entry(o).or_insert(0);
            *floor = (*floor).max(min);
        }
    }

    /// Per-origin summaries (floor, applied head, chain hash) to carry
    /// in a heartbeat, ascending by origin. Two replicas with equal
    /// heads and hashes hold identical logs and exchange nothing.
    pub fn digest(&self) -> Vec<OriginHead> {
        (0..self.n_replicas as u32)
            .map(|o| OriginHead {
                origin: o,
                floor: self.floors.get(&o).copied().unwrap_or(0),
                head: self.applied_high(o),
                hash: self.hashes.get(&o).copied().unwrap_or(CHAIN_SEED),
            })
            .collect()
    }

    /// Compare a peer's digest to ours and compute the fetch request:
    /// `(origin, from, to)` for each range we are missing, or the
    /// `(origin, 0, 0)` snapshot sentinel when we are behind the peer's
    /// retention floor (or our chains diverged at an equal head).
    pub fn missing_ranges(&self, peer_heads: &[OriginHead]) -> Vec<(u32, u64, u64)> {
        let mut out = Vec::new();
        for h in peer_heads {
            if h.origin as usize >= self.n_replicas {
                continue;
            }
            if h.origin == self.origin {
                // A peer remembers more of our own origin log than we
                // do: we were wiped and restarted. Bootstrap from a
                // snapshot so `next_seq` resumes past the retired seqs
                // — otherwise every new local append is rejected by
                // peers as a duplicate and stops propagating. (This
                // must not wait for the floor-triggered path: before
                // any pruning, all floors are still 0.)
                if h.head > self.applied_high(self.origin) {
                    out.push((h.origin, 0, 0));
                }
                continue;
            }
            let mine = self.applied_high(h.origin);
            if h.head > mine {
                if mine < h.floor {
                    out.push((h.origin, 0, 0));
                } else {
                    out.push((h.origin, mine + 1, h.head));
                }
            } else if h.head == mine && h.head > 0 {
                let my_hash = self.hashes.get(&h.origin).copied().unwrap_or(CHAIN_SEED);
                if my_hash != h.hash {
                    out.push((h.origin, 0, 0));
                }
            }
        }
        out
    }

    /// Serve a peer's fetch request: the retained entries in each
    /// requested range, plus whether any `(origin, 0, 0)` sentinel
    /// asked for a full snapshot.
    pub fn serve_ranges(&self, ranges: &[(u32, u64, u64)]) -> (Vec<EwEntry>, bool) {
        let mut entries = Vec::new();
        let mut snapshot = false;
        for &(o, from, to) in ranges {
            if from == 0 && to == 0 {
                snapshot = true;
                continue;
            }
            if let Some(log) = self.logs.get(&o) {
                entries.extend(log.range(from..=to).map(|(_, e)| e.clone()));
            }
        }
        (entries, snapshot)
    }

    /// A checksummed snapshot: our digest heads, the winning entry per
    /// logical key, and a chain hash over those entries in key order.
    pub fn snapshot(&self) -> (Vec<OriginHead>, Vec<EwEntry>, u64) {
        let heads = self.digest();
        let entries: Vec<EwEntry> = self.winners.values().cloned().collect();
        let mut checksum = CHAIN_SEED;
        for e in &entries {
            checksum = chain_ew(checksum, e);
        }
        (heads, entries, checksum)
    }

    /// Install a peer's snapshot: merge each entry last-writer-wins and
    /// adopt the peer's heads (and chain state) for origins it is ahead
    /// on. Returns the entries that won and must be applied to local
    /// state, or `None` if the checksum does not match (frame dropped).
    pub fn install_snapshot(
        &mut self,
        heads: &[OriginHead],
        entries: Vec<EwEntry>,
        checksum: u64,
    ) -> Option<Vec<EwEntry>> {
        let mut c = CHAIN_SEED;
        for e in &entries {
            c = chain_ew(c, e);
        }
        if c != checksum {
            return None;
        }
        let mut to_apply = Vec::new();
        for e in entries {
            if e.origin as usize >= self.n_replicas {
                continue;
            }
            let key = event_key(&e.event);
            let stamp = (e.term, e.seq, e.origin);
            let outranks = match self.stamps.get(&key) {
                Some(&existing) => stamp > existing,
                None => true,
            };
            if outranks {
                self.stamps.insert(key, stamp);
                self.winners.insert(key, e.clone());
                if e.origin != self.origin {
                    to_apply.push(e);
                }
            }
        }
        for h in heads {
            if h.origin as usize >= self.n_replicas {
                continue;
            }
            if h.origin == self.origin {
                // A wiped replica resumes its own log after its prior
                // head instead of colliding with retired seqs.
                if h.head >= self.next_seq {
                    self.next_seq = h.head + 1;
                    self.applied.insert(self.origin, h.head);
                    self.hashes.insert(self.origin, h.hash);
                    let floor = self.floors.entry(self.origin).or_insert(0);
                    *floor = (*floor).max(h.head);
                }
                continue;
            }
            let mine = self.applied_high(h.origin);
            if h.head > mine {
                self.applied.insert(h.origin, h.head);
                self.hashes.insert(h.origin, h.hash);
                let floor = self.floors.entry(h.origin).or_insert(0);
                *floor = (*floor).max(h.head);
                if let Some(log) = self.logs.get_mut(&h.origin) {
                    log.retain(|&seq, _| seq > h.head);
                }
            }
        }
        Some(to_apply)
    }

    /// Total entries retained across all origin logs.
    pub fn log_len(&self) -> usize {
        self.logs.values().map(BTreeMap::len).sum()
    }

    /// Highest contiguous seq applied from `origin`.
    pub fn applied_high(&self, origin: u32) -> u64 {
        self.applied.get(&origin).copied().unwrap_or(0)
    }

    /// The retention floor for `origin`.
    pub fn floor_of(&self, origin: u32) -> u64 {
        self.floors.get(&origin).copied().unwrap_or(0)
    }

    /// The winning stamp recorded for `key`, if any.
    pub fn stamp(&self, key: EventKey) -> Option<(u64, u64, u32)> {
        self.stamps.get(&key).copied()
    }

    /// All per-key winning stamps, for convergence assertions in tests
    /// and benches.
    pub fn stamps(&self) -> &BTreeMap<EventKey, (u64, u64, u32)> {
        &self.stamps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, index: usize) -> ClusterConfig {
        ClusterConfig::new((0..n).map(|i| NodeId(i as u32)).collect(), index)
    }

    /// `store`'s own entries `from..=to`, as a fetch would carry them.
    fn own(store: &EwStore, from: u64, to: u64) -> Vec<EwEntry> {
        store.serve_ranges(&[(store.origin, from, to)]).0
    }

    fn link_add(from: u64, port: u32) -> ViewEvent {
        ViewEvent::LinkAdd {
            from_dpid: from,
            from_port: port,
            to_dpid: from + 1,
            to_port: 1,
        }
    }

    #[test]
    fn mastership_spreads_over_live_replicas() {
        let m = Membership::new(cfg(3, 0), Instant::ZERO);
        assert_eq!(m.master_index(0), 0);
        assert_eq!(m.master_index(1), 1);
        assert_eq!(m.master_index(2), 2);
        assert_eq!(m.master_index(3), 0);
        assert!(m.assigned_master(0));
        assert!(!m.assigned_master(1));
    }

    #[test]
    fn lease_lapse_bumps_term_and_reassigns() {
        let mut m = Membership::new(cfg(3, 0), Instant::ZERO);
        // Peer 1 keeps heartbeating, peer 2 goes silent.
        m.note_heartbeat(1, 1, Instant::from_millis(250));
        assert!(m.scan(Instant::from_millis(400)));
        assert_eq!(m.term(), 2);
        assert_eq!(m.live(), vec![0, 1]);
        // dpid 2 falls back to the survivors.
        assert_eq!(m.master_index(2), 0);
        // Revival flips it back and bumps the term again.
        m.note_heartbeat(2, 1, Instant::from_millis(500));
        assert!(m.scan(Instant::from_millis(510)));
        assert_eq!(m.term(), 3);
        assert_eq!(m.live(), vec![0, 1, 2]);
    }

    #[test]
    fn isolated_minority_claims_higher_term() {
        // Replica 2 loses both peers: +2. Replicas 0/1 lose one: +1.
        let mut minority = Membership::new(cfg(3, 2), Instant::ZERO);
        let mut majority = Membership::new(cfg(3, 0), Instant::ZERO);
        majority.note_heartbeat(1, 1, Instant::from_millis(400));
        minority.scan(Instant::from_millis(400));
        majority.scan(Instant::from_millis(400));
        assert!(minority.claim() > majority.claim());
        assert_eq!(minority.term(), 3);
        assert_eq!(majority.term(), 2);
    }

    #[test]
    fn store_gossip_roundtrip_with_dedup() {
        let mut a = EwStore::new(0, 2);
        let mut b = EwStore::new(1, 2);
        a.append(1, link_add(0, 1));
        a.append(1, link_add(1, 1));
        let batch = own(&a, 1, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(b.admit(&batch[0]), Admit::Apply);
        assert_eq!(b.admit(&batch[1]), Admit::Apply);
        // Redelivery is a no-op.
        assert_eq!(b.admit(&batch[0]), Admit::Duplicate);
        // b's acks let a prune.
        a.note_peer_acks(1, &b.acks());
        a.prune_acked(&[0, 1]);
        assert_eq!(a.log_len(), 0);
        assert!(own(&a, 1, 2).is_empty());
    }

    #[test]
    fn store_rejects_gaps_until_suffix_resent() {
        let mut a = EwStore::new(0, 2);
        let mut b = EwStore::new(1, 2);
        a.append(1, link_add(0, 1));
        a.append(1, link_add(1, 1));
        let batch = own(&a, 1, 2);
        // Entry 2 arrives first (reordered): held back.
        assert_eq!(b.admit(&batch[1]), Admit::Gap);
        assert_eq!(b.applied_high(0), 0);
        assert_eq!(b.admit(&batch[0]), Admit::Apply);
        assert_eq!(b.admit(&batch[1]), Admit::Apply);
        assert_eq!(b.applied_high(0), 2);
    }

    #[test]
    fn last_writer_wins_on_term_then_seq() {
        let mut c = EwStore::new(2, 3);
        // Origin 0 wrote the key at term 2.
        let e0 = EwEntry {
            origin: 0,
            seq: 1,
            term: 2,
            event: link_add(5, 1),
        };
        assert_eq!(c.admit(&e0), Admit::Apply);
        // Origin 1's older-term write to the same key loses.
        let e1 = EwEntry {
            origin: 1,
            seq: 1,
            term: 1,
            event: ViewEvent::LinkDel {
                from_dpid: 5,
                from_port: 1,
            },
        };
        assert_eq!(c.admit(&e1), Admit::Stale);
        // A higher-term write wins.
        let e2 = EwEntry {
            origin: 1,
            seq: 2,
            term: 3,
            event: ViewEvent::LinkDel {
                from_dpid: 5,
                from_port: 1,
            },
        };
        assert_eq!(c.admit(&e2), Admit::Apply);
        assert_eq!(c.stamp(EventKey::Link(5, 1)), Some((3, 2, 1)));
    }

    #[test]
    fn local_appends_stamp_keys() {
        let mut a = EwStore::new(0, 2);
        a.append(4, link_add(7, 2));
        assert_eq!(a.stamp(EventKey::Link(7, 2)), Some((4, 1, 0)));
        // A remote lower-term write to the same key is stale.
        let e = EwEntry {
            origin: 1,
            seq: 1,
            term: 3,
            event: ViewEvent::LinkDel {
                from_dpid: 7,
                from_port: 2,
            },
        };
        assert_eq!(a.admit(&e), Admit::Stale);
    }

    #[test]
    fn partition_blocks_pruning_then_drains() {
        let mut a = EwStore::new(0, 3);
        a.append(1, link_add(0, 1));
        a.append(1, link_add(1, 1));
        // Peer 1 acks everything; peer 2 is partitioned (acks nothing)
        // but still counts as live, so nothing is pruned.
        a.note_peer_acks(1, &[(0, 2)]);
        a.prune_acked(&[0, 1, 2]);
        assert_eq!(a.log_len(), 2);
        assert_eq!(own(&a, 1, 2).len(), 2);
        // Heal: peer 2 catches up.
        a.note_peer_acks(2, &[(0, 2)]);
        a.prune_acked(&[0, 1, 2]);
        assert_eq!(a.log_len(), 0);
    }

    #[test]
    fn dead_replica_no_longer_pins_log() {
        // Regression: retention used to take the min over *all* peers'
        // acks, so one permanently dead replica pinned the log forever.
        let mut a = EwStore::new(0, 3);
        a.append(1, link_add(0, 1));
        a.append(1, link_add(1, 1));
        a.note_peer_acks(1, &[(0, 2)]);
        // Replica 2 is expelled from the live set: pruning proceeds.
        a.prune_acked(&[0, 1]);
        assert_eq!(a.log_len(), 0);
        assert_eq!(a.floor_of(0), 2);
        // When 2 returns below the floor, the digest steers it to a
        // snapshot instead of an unavailable suffix.
        let late = EwStore::new(2, 3);
        assert_eq!(late.missing_ranges(&a.digest()), vec![(0, 0, 0)]);
    }

    #[test]
    fn digest_fetch_repairs_exact_gap() {
        let mut a = EwStore::new(0, 2);
        let mut b = EwStore::new(1, 2);
        for i in 0..10 {
            a.append(1, link_add(i, 1));
        }
        for e in own(&a, 1, 4) {
            assert_eq!(b.admit(&e), Admit::Apply);
        }
        // b compares digests and asks for exactly seqs 5..=10.
        let want = b.missing_ranges(&a.digest());
        assert_eq!(want, vec![(0, 5, 10)]);
        let (entries, snapshot) = a.serve_ranges(&want);
        assert!(!snapshot);
        assert_eq!(entries.len(), 6);
        for e in entries {
            assert_eq!(b.admit(&e), Admit::Apply);
        }
        // Converged: equal heads and hashes, nothing more to fetch.
        assert_eq!(b.digest()[0].head, 10);
        assert_eq!(b.digest()[0].hash, a.digest()[0].hash);
        assert!(b.missing_ranges(&a.digest()).is_empty());
        assert!(a.missing_ranges(&b.digest()).is_empty());
    }

    #[test]
    fn third_party_serves_anothers_origin() {
        // b holds origin-0 entries and can repair c even with a gone.
        let mut a = EwStore::new(0, 3);
        let mut b = EwStore::new(1, 3);
        let mut c = EwStore::new(2, 3);
        for i in 0..4 {
            a.append(1, link_add(i, 1));
        }
        for e in own(&a, 1, 4) {
            b.admit(&e);
        }
        let want = c.missing_ranges(&b.digest());
        assert_eq!(want, vec![(0, 1, 4)]);
        let (entries, _) = b.serve_ranges(&want);
        assert_eq!(entries.len(), 4);
        for e in entries {
            assert_eq!(c.admit(&e), Admit::Apply);
        }
        assert_eq!(c.applied_high(0), 4);
    }

    #[test]
    fn snapshot_bootstraps_fresh_replica() {
        let mut a = EwStore::new(0, 3);
        let mut b = EwStore::new(1, 3);
        for i in 0..6 {
            a.append(1, link_add(i, 1));
        }
        for e in own(&a, 1, 6) {
            b.admit(&e);
        }
        // Everyone live acked; a prunes everything.
        a.note_peer_acks(1, &[(0, 6)]);
        a.note_peer_acks(2, &[(0, 6)]);
        a.prune_acked(&[0, 1, 2]);
        assert_eq!(a.log_len(), 0);
        // A fresh replica 2 is behind the floor: snapshot requested.
        let mut c = EwStore::new(2, 3);
        assert!(c.missing_ranges(&a.digest()).contains(&(0, 0, 0)));
        let (heads, entries, checksum) = a.snapshot();
        let applied = c
            .install_snapshot(&heads, entries, checksum)
            .expect("checksum verifies");
        assert_eq!(applied.len(), 6);
        assert_eq!(c.applied_high(0), 6);
        assert_eq!(c.stamps(), a.stamps());
        // Converged: c asks for nothing further.
        assert!(c.missing_ranges(&a.digest()).is_empty());
        // A corrupt checksum is rejected outright.
        let (heads, entries, checksum) = a.snapshot();
        let mut d = EwStore::new(2, 3);
        assert!(d.install_snapshot(&heads, entries, checksum ^ 1).is_none());
    }

    #[test]
    fn wiped_replica_resumes_own_origin_before_any_pruning() {
        // Regression: a wiped replica rejoining while every floor was
        // still 0 never took the snapshot path, restarted its own log
        // at seq 1, and every new append died at peers as a duplicate.
        let mut a = EwStore::new(0, 2);
        let mut b = EwStore::new(1, 2);
        for i in 0..4 {
            a.append(1, link_add(i, 1));
        }
        for e in own(&a, 1, 4) {
            assert_eq!(b.admit(&e), Admit::Apply);
        }
        // Replica 0 loses its state and restarts. No pruning has
        // happened anywhere (all floors 0), yet b's digest must steer
        // it to a snapshot for its own origin.
        let mut a2 = EwStore::new(0, 2);
        let want = a2.missing_ranges(&b.digest());
        assert!(want.contains(&(0, 0, 0)), "got {want:?}");
        let (heads, entries, checksum) = b.snapshot();
        a2.install_snapshot(&heads, entries, checksum)
            .expect("checksum verifies");
        // Its own log resumes past the retired seqs, so new local
        // observations keep propagating cluster-wide.
        let e = a2.append(2, link_add(9, 1));
        assert_eq!(e.seq, 5);
        assert_eq!(b.admit(&e), Admit::Apply);
    }

    #[test]
    fn chain_divergence_flags_resync() {
        // Two stores with equal heads but different histories for an
        // origin disagree on the chain hash, which requests a snapshot.
        let mut b = EwStore::new(1, 3);
        let mut c = EwStore::new(2, 3);
        b.admit(&EwEntry {
            origin: 0,
            seq: 1,
            term: 1,
            event: link_add(1, 1),
        });
        c.admit(&EwEntry {
            origin: 0,
            seq: 1,
            term: 1,
            event: link_add(2, 1),
        });
        assert_eq!(c.missing_ranges(&b.digest()), vec![(0, 0, 0)]);
    }

    /// `prune_acked` as it was before it split the acked prefix off:
    /// the retention floor per origin, and a `retain` over every log.
    fn pruned_by_retain(
        store: &EwStore,
        live: &[usize],
    ) -> (BTreeMap<u32, Vec<u64>>, BTreeMap<u32, u64>) {
        let (mut logs, mut floors) = (BTreeMap::new(), store.floors.clone());
        for (&o, log) in &store.logs {
            let mut log = log.clone();
            let mut min = store.applied_high(o);
            for &p in live.iter().filter(|&&p| p as u32 != store.origin) {
                let acks = store.peer_acks.get(&(p as u32));
                min = min.min(acks.and_then(|m| m.get(&o).copied()).unwrap_or(0));
            }
            if min > 0 {
                log.retain(|&seq, _| seq > min);
                let floor = floors.entry(o).or_insert(0);
                *floor = (*floor).max(min);
            }
            logs.insert(o, log.into_keys().collect());
        }
        (logs, floors)
    }

    /// Three stores append, exchange entries and acknowledge them late
    /// and out of step, under a live set that comes and goes: after
    /// every prune each store holds the logs and floors the old `retain`
    /// would have left.
    #[test]
    fn prune_acked_leaves_what_retain_left() {
        let mut rng = zen_sim::Rng::new(0x9e_1d);
        let mut stores: Vec<EwStore> = (0..3).map(|o| EwStore::new(o, 3)).collect();
        let mut pruned = 0;
        for step in 0..3_000u64 {
            let i = rng.gen_index(3);
            match rng.gen_range(4) {
                0 | 1 => {
                    stores[i].append(1, link_add(step, 1));
                }
                2 => {
                    // Store `i` catches up on another origin's log.
                    let o = ((i + 1 + rng.gen_index(2)) % 3) as u32;
                    let from = stores[i].applied_high(o) + 1;
                    let (batch, _) = stores[o as usize].serve_ranges(&[(o, from, from + 8)]);
                    for entry in &batch {
                        stores[i].admit(entry);
                    }
                }
                _ => {
                    // A peer's heartbeat, carrying acks some way behind.
                    let peer = (i + 1 + rng.gen_index(2)) % 3;
                    let acks: Vec<(u32, u64)> = stores[peer]
                        .acks()
                        .into_iter()
                        .map(|(o, seq)| (o, seq - rng.gen_range(seq + 1).min(3)))
                        .collect();
                    stores[i].note_peer_acks(peer as u32, &acks);
                }
            }
            let live: Vec<usize> = (0..3).filter(|&r| r == i || rng.gen_bool(0.8)).collect();
            let want = pruned_by_retain(&stores[i], &live);
            let before = stores[i].log_len();
            stores[i].prune_acked(&live);
            pruned += before - stores[i].log_len();
            let logs = stores[i].logs.iter();
            let logs = logs.map(|(&o, log)| (o, log.keys().copied().collect()));
            let got = (logs.collect(), stores[i].floors.clone());
            assert_eq!(got, want, "step {step}: store {i}, live {live:?}");
        }
        assert!(pruned > 1_000, "only {pruned} entries pruned");
    }
}
