//! Consensus substrate for the zen cluster.
//!
//! Two layers, both deterministic and wall-clock free so the simulator
//! can replay them byte-identically:
//!
//! 1. **Chain-hash digests** ([`fnv1a_fold`], [`chain_ew`],
//!    [`CHAIN_SEED`]) — rolling FNV-1a hashes over canonical wire
//!    bytes. The east-west store summarises each per-origin log as a
//!    `(head, hash)` pair; two replicas with equal pairs hold
//!    byte-identical logs and exchange nothing, while a lagging peer
//!    fetches exactly the missing range instead of receiving blind
//!    suffix resends.
//!
//! 2. **A Raft-style replicated intent log** ([`IntentReplica`]) for
//!    the few control-plane writes that need linearizability — ACL
//!    policy and mastership pins. Leader election is deterministic
//!    (the minimum live replica index leads) and split-brain safe
//!    because the effective term ([`vterm`]) encodes the leader index:
//!    two rival leaders always carry distinct terms, and the higher
//!    one wins. A new leader first *syncs* — it fetches log suffixes
//!    from peers until a majority of the full cluster has reported,
//!    adopting any log more up-to-date than its own — then activates
//!    by appending a no-op barrier at its term, which lets earlier-term
//!    entries commit under the current-term-only commit rule. Followers
//!    that fall behind the compaction floor are re-seeded from a
//!    checksummed snapshot of the materialized committed state.
//!
//! The replica is a pure state machine: handlers consume decoded frame
//! fields and return [`Outbound`] messages for the controller to ship
//! over its east-west channels. Nothing here performs I/O.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use zen_proto::{
    ew_entry_bytes, intent_entry_bytes, match_bytes, EwEntry, Intent, IntentEntry, Message,
};

pub use zen_wire::fnv::{fnv1a, fnv1a_fold};

/// FNV-1a 64-bit offset basis; the seed of every chain hash.
pub const CHAIN_SEED: u64 = zen_wire::fnv::OFFSET_BASIS;

/// Uncommitted tail kept in the log after compaction, so peers lagging
/// by a few entries are served deltas instead of full snapshots.
pub const KEEP_TAIL: u64 = 32;

/// Advance an east-west chain hash by one log entry: the new state is
/// the old state folded with the entry's canonical wire bytes.
pub fn chain_ew(h: u64, entry: &EwEntry) -> u64 {
    fnv1a_fold(h, &ew_entry_bytes(entry))
}

/// Checksum pinning a catchup payload: a chain hash over the snapshot
/// token set, the snapshot state, and the trailing entries, in
/// transmission order.
pub fn catchup_checksum(
    tokens: &[(u32, u64)],
    snap: &[IntentEntry],
    entries: &[IntentEntry],
) -> u64 {
    let mut h = CHAIN_SEED;
    for &(origin, token) in tokens {
        h = fnv1a_fold(h, &origin.to_be_bytes());
        h = fnv1a_fold(h, &token.to_be_bytes());
    }
    for e in snap.iter().chain(entries.iter()) {
        h = fnv1a_fold(h, &intent_entry_bytes(e));
    }
    h
}

/// The effective consensus term for `leader` at membership term
/// `mterm` in a cluster of `n` replicas. Encoding the leader index
/// guarantees two rival leaders (possible under the deterministic
/// min-live-index election when views diverge) never share a term, and
/// one membership-term bump dominates every rival of the prior term.
pub fn vterm(mterm: u64, n: u32, leader: u32) -> u64 {
    mterm
        .wrapping_mul(n.max(1) as u64)
        .wrapping_add(leader as u64)
}

/// Quorum size for a cluster of `n` replicas (strict majority).
pub fn majority(n: u32) -> usize {
    n as usize / 2 + 1
}

/// The leader index an effective term encodes (see [`vterm`]): the
/// receiver of a frame can verify the sender is the term's leader
/// without any out-of-band leader table.
pub fn term_leader(term: u64, n: u32) -> u32 {
    (term % n.max(1) as u64) as u32
}

/// Stable key identifying the piece of state an intent mutates; the
/// materialized snapshot holds the latest committed entry per key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IntentKey {
    /// An ACL deny rule, keyed by priority and canonical match bytes.
    Acl {
        /// Rule priority.
        priority: u16,
        /// Canonical wire bytes of the flow match.
        matcher: Vec<u8>,
    },
    /// A mastership pin, keyed by switch.
    Pin {
        /// The pinned switch.
        dpid: u64,
    },
}

/// The state key an intent mutates and whether it asserts (`true`) or
/// retracts (`false`) that state. `None` for no-op barriers.
pub fn intent_key(i: &Intent) -> Option<(IntentKey, bool)> {
    match i {
        Intent::Noop => None,
        Intent::AclDeny {
            priority,
            matcher,
            install,
        } => Some((
            IntentKey::Acl {
                priority: *priority,
                matcher: match_bytes(matcher),
            },
            *install,
        )),
        Intent::MastershipPin { dpid, pinned, .. } => {
            Some((IntentKey::Pin { dpid: *dpid }, *pinned))
        }
    }
}

/// A frame the replica wants delivered to one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound {
    /// Destination replica index.
    pub to: u32,
    /// The frame to send.
    pub msg: Message,
}

/// What the replica's role in the cluster currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepting appends from the current leader.
    Follower,
    /// Elected but catching up: fetching peer logs until a majority of
    /// the full cluster has reported, so no committed entry is lost.
    Syncing,
    /// Active leader: appending, replicating, and committing.
    Leader,
}

/// A committed mutation surfaced to the embedding controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// One intent committed in log order (no-op barriers are elided).
    Entry(IntentEntry),
    /// The committed state was replaced wholesale by a snapshot
    /// install; the entries are the minimal replayable set. Derived
    /// state must be rebuilt from them, not patched.
    Snapshot(Vec<IntentEntry>),
}

/// One replica of the replicated intent log.
///
/// Drive it with [`tick`](Self::tick) once per control-plane round and
/// feed decoded `Intent*` frames to the `on_*` handlers; ship every
/// returned [`Outbound`]. Committed intents are collected with
/// [`take_applied`](Self::take_applied).
#[derive(Debug)]
pub struct IntentReplica {
    me: u32,
    n: u32,
    phase: Phase,
    term: u64,
    /// Log entries above the compaction floor, by index (contiguous).
    log: BTreeMap<u64, IntentEntry>,
    /// Entries at or below this index have been compacted away.
    floor: u64,
    floor_term: u64,
    commit: u64,
    applied: u64,
    /// Latest committed entry per state key — the snapshot base.
    active: BTreeMap<IntentKey, IntentEntry>,
    /// Committed (origin, token) pairs, for at-most-once apply.
    applied_tokens: BTreeSet<(u32, u64)>,
    /// Leader bookkeeping, valid only while `phase == Leader`.
    next_idx: BTreeMap<u32, u64>,
    match_idx: BTreeMap<u32, u64>,
    /// Peers heard from while `phase == Syncing` (includes self).
    sync_heard: BTreeSet<u32>,
    /// Our own proposals, resent every tick until observed committed.
    pending_local: Vec<(u64, Intent)>,
    applied_out: Vec<Applied>,
}

impl IntentReplica {
    /// A fresh replica `me` in a cluster of fixed size `n`.
    pub fn new(me: u32, n: u32) -> Self {
        IntentReplica {
            me,
            n: n.max(1),
            phase: Phase::Follower,
            term: 0,
            log: BTreeMap::new(),
            floor: 0,
            floor_term: 0,
            commit: 0,
            applied: 0,
            active: BTreeMap::new(),
            applied_tokens: BTreeSet::new(),
            next_idx: BTreeMap::new(),
            match_idx: BTreeMap::new(),
            sync_heard: BTreeSet::new(),
            pending_local: Vec::new(),
            applied_out: Vec::new(),
        }
    }

    /// This replica's index.
    pub fn me(&self) -> u32 {
        self.me
    }

    /// Highest term seen or adopted.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest committed log index.
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Index of the last log entry (the floor if the log is empty).
    pub fn last_index(&self) -> u64 {
        self.last_tuple().1
    }

    /// Number of entries currently held above the compaction floor.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The compaction floor: entries at or below it are snapshot-only.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Current role.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether this replica is the active leader.
    pub fn is_leader(&self) -> bool {
        matches!(self.phase, Phase::Leader)
    }

    /// Proposals of our own not yet observed committed.
    pub fn pending_len(&self) -> usize {
        self.pending_local.len()
    }

    /// The materialized committed state, one entry per live key.
    pub fn active(&self) -> &BTreeMap<IntentKey, IntentEntry> {
        &self.active
    }

    /// Drain mutations committed since the last call, in commit order.
    pub fn take_applied(&mut self) -> Vec<Applied> {
        std::mem::take(&mut self.applied_out)
    }

    /// Propose an intent from this replica. `token` must be a nonzero
    /// proposer-unique id (hash the intent payload); the proposal is
    /// retried across leader changes until `(me, token)` commits, then
    /// surfaced through [`take_applied`](Self::take_applied).
    pub fn propose_local(&mut self, token: u64, intent: Intent) {
        assert!(token != 0, "token 0 is reserved for leader no-ops");
        if self.applied_tokens.contains(&(self.me, token)) {
            return;
        }
        if self.pending_local.iter().any(|(t, _)| *t == token) {
            return;
        }
        self.pending_local.push((token, intent.clone()));
        if self.is_leader() {
            self.leader_append(self.me, token, intent);
        }
    }

    /// One control round. `mterm` is the Membership term, `live` the
    /// ascending live set (self included). Returns frames to ship.
    pub fn tick(&mut self, mterm: u64, live: &[u32]) -> Vec<Outbound> {
        let mut out = Vec::new();
        let leader = live.iter().copied().min().unwrap_or(self.me);
        if leader == self.me {
            let vt = vterm(mterm, self.n, self.me);
            // A sitting leader keeps its term across membership bumps;
            // otherwise (re)start the sync round under the new term.
            // `vt <= term` means a rival's term still dominates — wait
            // for the membership term to advance past it.
            if !matches!(self.phase, Phase::Leader) && vt > self.term {
                self.begin_sync(vt);
            }
            if matches!(self.phase, Phase::Syncing) {
                if self.sync_heard.len() >= majority(self.n) {
                    self.activate();
                } else {
                    for &p in live {
                        if p != self.me && !self.sync_heard.contains(&p) {
                            out.push(Outbound {
                                to: p,
                                msg: Message::IntentFetch {
                                    replica: self.me,
                                    term: self.term,
                                    from_index: self.commit,
                                },
                            });
                        }
                    }
                }
            }
            if self.is_leader() {
                let pending: Vec<(u64, Intent)> = self.pending_local.clone();
                for (token, intent) in pending {
                    self.leader_append(self.me, token, intent);
                }
                self.leader_advance_commit();
                let (_, last) = self.last_tuple();
                for &p in live {
                    if p == self.me {
                        continue;
                    }
                    let ni = *self.next_idx.get(&p).unwrap_or(&(last + 1));
                    if ni <= self.floor {
                        out.push(self.make_catchup(p, ni.saturating_sub(1)));
                    } else {
                        let prev = ni - 1;
                        let entries: Vec<IntentEntry> =
                            self.log.range(ni..).map(|(_, e)| e.clone()).collect();
                        out.push(Outbound {
                            to: p,
                            msg: Message::IntentAppend {
                                leader: self.me,
                                term: self.term,
                                prev_index: prev,
                                prev_term: self.term_at(prev),
                                commit: self.commit,
                                entries,
                            },
                        });
                    }
                }
            }
        } else {
            if !matches!(self.phase, Phase::Follower) {
                self.step_down();
            }
            for (token, intent) in &self.pending_local {
                out.push(Outbound {
                    to: leader,
                    msg: Message::IntentPropose {
                        replica: self.me,
                        token: *token,
                        intent: intent.clone(),
                    },
                });
            }
        }
        self.compact(KEEP_TAIL);
        out
    }

    /// A proposal forwarded by a peer. Leaders append (deduplicated by
    /// `(origin, token)`); everyone else drops it — the proposer
    /// resends to the current leader every tick.
    pub fn on_propose(&mut self, from: u32, token: u64, intent: Intent) {
        if self.is_leader() && token != 0 {
            self.leader_append(from, token, intent);
        }
    }

    /// An `IntentAppend` from `leader`. Returns the ack.
    pub fn on_append(
        &mut self,
        leader: u32,
        term: u64,
        prev_index: u64,
        prev_term: u64,
        leader_commit: u64,
        entries: Vec<IntentEntry>,
    ) -> Vec<Outbound> {
        if term < self.term {
            return vec![self.ack(leader, self.commit, false)];
        }
        self.term = term;
        if !matches!(self.phase, Phase::Follower) {
            self.step_down();
        }
        if !self.has_prev(prev_index, prev_term) {
            // The nack carries our commit index so the leader resumes
            // from the committed prefix in one round trip.
            return vec![self.ack(leader, self.commit, false)];
        }
        let confirmed = prev_index + entries.len() as u64;
        self.splice(entries);
        if leader_commit > self.commit {
            self.commit = leader_commit.min(self.last_tuple().1);
            self.advance_applied();
        }
        // Only indexes verified against the leader's log count as
        // matched; stale local entries beyond them do not.
        vec![self.ack(leader, confirmed.max(self.commit), true)]
    }

    /// An `IntentAck` from a follower.
    pub fn on_ack(
        &mut self,
        from: u32,
        term: u64,
        match_index: u64,
        success: bool,
    ) -> Vec<Outbound> {
        if term > self.term {
            self.term = term;
            self.step_down();
            return Vec::new();
        }
        if term < self.term || !self.is_leader() {
            return Vec::new();
        }
        if success {
            let m = self.match_idx.entry(from).or_insert(0);
            if match_index > *m {
                *m = match_index;
            }
            self.next_idx.insert(from, match_index + 1);
            self.leader_advance_commit();
        } else {
            self.next_idx.insert(from, match_index + 1);
        }
        Vec::new()
    }

    /// An `IntentFetch` from a syncing would-be leader: report our log
    /// from its commit point (with a snapshot if it is below our
    /// floor), adopting its term.
    pub fn on_fetch(&mut self, from: u32, term: u64, from_index: u64) -> Vec<Outbound> {
        if term > self.term {
            self.term = term;
            self.step_down();
        }
        vec![self.make_catchup(from, from_index)]
    }

    /// An `IntentCatchup`: either a peer's reply to our sync fetch, or
    /// a snapshot install from the leader for a follower that fell
    /// behind the compaction floor.
    #[allow(clippy::too_many_arguments)]
    pub fn on_catchup(
        &mut self,
        from: u32,
        term: u64,
        snap_index: u64,
        snap_term: u64,
        snap_state: Vec<IntentEntry>,
        snap_tokens: Vec<(u32, u64)>,
        entries: Vec<IntentEntry>,
        peer_commit: u64,
        checksum: u64,
    ) -> Vec<Outbound> {
        if catchup_checksum(&snap_tokens, &snap_state, &entries) != checksum {
            return Vec::new();
        }
        if term > self.term {
            self.term = term;
            self.step_down();
        }
        match self.phase {
            Phase::Syncing => {
                if term == self.term {
                    // Adopt the peer's log only if it is at least as
                    // up-to-date as ours (last term, then last index) —
                    // the Raft election restriction, enforced at merge
                    // time instead of vote time.
                    let incoming_last =
                        entries
                            .last()
                            .map(|e| (e.term, e.index))
                            .or(if snap_index > 0 {
                                Some((snap_term, snap_index))
                            } else {
                                None
                            });
                    if let Some(inc) = incoming_last {
                        if inc >= self.last_tuple() {
                            if snap_index > self.commit {
                                self.install_snapshot(
                                    snap_index,
                                    snap_term,
                                    snap_state,
                                    snap_tokens,
                                );
                            }
                            self.splice(entries);
                        }
                    }
                    if peer_commit > self.commit {
                        self.commit = peer_commit.min(self.last_tuple().1);
                        self.advance_applied();
                    }
                    self.sync_heard.insert(from);
                    if self.sync_heard.len() >= majority(self.n) {
                        self.activate();
                    }
                }
                Vec::new()
            }
            Phase::Follower => {
                if term < self.term {
                    // Nack so a stale-term leader learns it is
                    // superseded — it may have no append in flight to
                    // us (our next_idx below its floor routes every
                    // retry through this catchup path), and a silent
                    // drop would leave it sitting on the old term
                    // forever.
                    return vec![self.ack(from, self.commit, false)];
                }
                // Only the current term's leader installs state into a
                // follower. Stale replies to fetches we sent while
                // Syncing (from arbitrary peers) land here too, and
                // would otherwise splice unverified suffixes.
                if from != term_leader(term, self.n) {
                    return Vec::new();
                }
                if snap_index > self.commit {
                    self.install_snapshot(snap_index, snap_term, snap_state, snap_tokens);
                }
                // Splice only entries anchored to a verified prefix —
                // the snapshot just installed, or the committed prefix
                // itself — mirroring the prev_index/prev_term gate of
                // on_append; and ack only indexes so verified, never a
                // stale local suffix beyond them.
                let mut confirmed = self.commit;
                if entries.first().is_none_or(|f| f.index <= self.commit + 1) {
                    if let Some(e) = entries.last() {
                        confirmed = confirmed.max(e.index);
                    }
                    self.splice(entries);
                }
                if peer_commit > self.commit {
                    self.commit = peer_commit.min(self.last_tuple().1);
                    self.advance_applied();
                }
                vec![self.ack(from, confirmed.max(self.commit), true)]
            }
            // A sitting leader's log is append-only; stale catchup
            // replies (term already adopted above) carry nothing new.
            Phase::Leader => Vec::new(),
        }
    }

    /// Drop log entries at or below `applied - keep`, moving the
    /// compaction floor. Peers further behind are served snapshots.
    pub fn compact(&mut self, keep: u64) {
        let new_floor = self.applied.saturating_sub(keep);
        if new_floor <= self.floor {
            return;
        }
        self.floor_term = self.term_at(new_floor);
        let drop: Vec<u64> = self.log.range(..=new_floor).map(|(k, _)| *k).collect();
        for k in drop {
            self.log.remove(&k);
        }
        self.floor = new_floor;
    }

    fn ack(&self, to: u32, match_index: u64, success: bool) -> Outbound {
        Outbound {
            to,
            msg: Message::IntentAck {
                replica: self.me,
                term: self.term,
                match_index,
                success,
            },
        }
    }

    /// Last `(term, index)` of the log, falling back to the floor.
    fn last_tuple(&self) -> (u64, u64) {
        match self.log.iter().next_back() {
            Some((i, e)) => (e.term, *i),
            None => (self.floor_term, self.floor),
        }
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == self.floor {
            self.floor_term
        } else {
            self.log.get(&index).map(|e| e.term).unwrap_or(0)
        }
    }

    fn has_prev(&self, prev_index: u64, prev_term: u64) -> bool {
        if prev_index == 0 || prev_index <= self.commit {
            // Committed prefixes agree across replicas by commit safety.
            return true;
        }
        if prev_index == self.floor {
            return prev_term == self.floor_term;
        }
        match self.log.get(&prev_index) {
            Some(e) => e.term == prev_term,
            None => false,
        }
    }

    /// Merge replicated entries: skip what is already settled, and on
    /// the first term conflict truncate our suffix from there.
    fn splice(&mut self, entries: Vec<IntentEntry>) {
        for e in entries {
            if e.index <= self.commit || e.index <= self.floor {
                continue;
            }
            if let Some(existing) = self.log.get(&e.index) {
                if existing.term == e.term {
                    continue;
                }
                let drop: Vec<u64> = self.log.range(e.index..).map(|(k, _)| *k).collect();
                for k in drop {
                    self.log.remove(&k);
                }
            }
            self.log.insert(e.index, e);
        }
    }

    fn step_down(&mut self) {
        self.phase = Phase::Follower;
        self.next_idx.clear();
        self.match_idx.clear();
        self.sync_heard.clear();
    }

    fn begin_sync(&mut self, term: u64) {
        self.phase = Phase::Syncing;
        self.term = term;
        self.next_idx.clear();
        self.match_idx.clear();
        self.sync_heard.clear();
        self.sync_heard.insert(self.me);
    }

    fn activate(&mut self) {
        self.phase = Phase::Leader;
        self.sync_heard.clear();
        self.next_idx.clear();
        self.match_idx.clear();
        // The no-op barrier: committing it commits every adopted
        // earlier-term entry beneath it.
        self.leader_append(self.me, 0, Intent::Noop);
        self.leader_advance_commit();
    }

    fn leader_append(&mut self, origin: u32, token: u64, intent: Intent) {
        let is_noop = matches!(intent, Intent::Noop);
        if !is_noop {
            if self.applied_tokens.contains(&(origin, token)) {
                return;
            }
            if self
                .log
                .values()
                .any(|e| e.origin == origin && e.token == token)
            {
                return;
            }
        }
        let (_, last) = self.last_tuple();
        let e = IntentEntry {
            index: last + 1,
            term: self.term,
            origin,
            token,
            intent,
        };
        self.log.insert(e.index, e);
    }

    fn leader_advance_commit(&mut self) {
        let (_, last) = self.last_tuple();
        let mut new_commit = self.commit;
        let mut cand = self.commit + 1;
        while cand <= last {
            if let Some(e) = self.log.get(&cand) {
                // Only current-term entries commit by counting; older
                // entries commit transitively beneath them.
                if e.term == self.term {
                    let votes = 1 + self.match_idx.values().filter(|&&m| m >= cand).count();
                    if votes >= majority(self.n) {
                        new_commit = cand;
                    }
                }
            }
            cand += 1;
        }
        if new_commit > self.commit {
            self.commit = new_commit;
            self.advance_applied();
        }
    }

    fn advance_applied(&mut self) {
        while self.applied < self.commit {
            let next = self.applied + 1;
            let e = self
                .log
                .get(&next)
                .expect("committed entry above the floor")
                .clone();
            self.applied = next;
            if matches!(e.intent, Intent::Noop) {
                continue;
            }
            self.applied_tokens.insert((e.origin, e.token));
            if e.origin == self.me {
                self.pending_local.retain(|(t, _)| *t != e.token);
            }
            match intent_key(&e.intent) {
                Some((key, true)) => {
                    self.active.insert(key, e.clone());
                }
                Some((key, false)) => {
                    self.active.remove(&key);
                }
                None => {}
            }
            self.applied_out.push(Applied::Entry(e));
        }
    }

    fn applied_term(&self) -> u64 {
        self.term_at(self.applied)
    }

    fn make_catchup(&self, to: u32, from_index: u64) -> Outbound {
        let (snap_index, snap_term, snap_state, snap_tokens) = if from_index < self.floor {
            (
                self.applied,
                self.applied_term(),
                self.active.values().cloned().collect::<Vec<_>>(),
                self.applied_tokens.iter().copied().collect::<Vec<_>>(),
            )
        } else {
            (0, 0, Vec::new(), Vec::new())
        };
        let start = if snap_index > 0 {
            self.applied
        } else {
            from_index
        };
        let entries: Vec<IntentEntry> = self
            .log
            .range(start + 1..)
            .map(|(_, e)| e.clone())
            .collect();
        let checksum = catchup_checksum(&snap_tokens, &snap_state, &entries);
        Outbound {
            to,
            msg: Message::IntentCatchup {
                replica: self.me,
                term: self.term,
                snap_index,
                snap_term,
                snap_state,
                snap_tokens,
                entries,
                commit: self.commit,
                checksum,
            },
        }
    }

    fn install_snapshot(
        &mut self,
        snap_index: u64,
        snap_term: u64,
        snap_state: Vec<IntentEntry>,
        snap_tokens: Vec<(u32, u64)>,
    ) {
        self.log.clear();
        self.floor = snap_index;
        self.floor_term = snap_term;
        self.commit = snap_index;
        self.applied = snap_index;
        self.active.clear();
        for e in &snap_state {
            if let Some((key, _)) = intent_key(&e.intent) {
                self.active.insert(key, e.clone());
            }
            self.applied_tokens.insert((e.origin, e.token));
        }
        // The carried token set covers committed-but-superseded intents
        // that `snap_state` (latest entry per key) cannot reconstruct —
        // without it, a proposer that never observed its commit would
        // re-propose past the snapshot and commit a second time. Union
        // with what we already hold: tokens only ever enter this set on
        // commit, so nothing stale can survive the merge.
        self.applied_tokens.extend(snap_tokens);
        let toks = &self.applied_tokens;
        let me = self.me;
        self.pending_local
            .retain(|(t, _)| !toks.contains(&(me, *t)));
        self.applied_out.push(Applied::Snapshot(snap_state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use zen_dataplane::FlowMatch;

    /// Route one decoded frame into the receiving replica's handler.
    fn deliver(rep: &mut IntentReplica, msg: Message) -> Vec<Outbound> {
        match msg {
            Message::IntentPropose {
                replica,
                token,
                intent,
            } => {
                rep.on_propose(replica, token, intent);
                Vec::new()
            }
            Message::IntentAppend {
                leader,
                term,
                prev_index,
                prev_term,
                commit,
                entries,
            } => rep.on_append(leader, term, prev_index, prev_term, commit, entries),
            Message::IntentAck {
                replica,
                term,
                match_index,
                success,
            } => rep.on_ack(replica, term, match_index, success),
            Message::IntentFetch {
                replica,
                term,
                from_index,
            } => rep.on_fetch(replica, term, from_index),
            Message::IntentCatchup {
                replica,
                term,
                snap_index,
                snap_term,
                snap_state,
                snap_tokens,
                entries,
                commit,
                checksum,
            } => rep.on_catchup(
                replica,
                term,
                snap_index,
                snap_term,
                snap_state,
                snap_tokens,
                entries,
                commit,
                checksum,
            ),
            _ => Vec::new(),
        }
    }

    /// A tiny deterministic cluster: synchronous delivery within a
    /// tick, liveness and partition groups controlled by the test, a
    /// single membership term bumped at every topology event (as the
    /// real Membership does on liveness flips).
    struct Net {
        reps: Vec<IntentReplica>,
        up: Vec<bool>,
        /// Partition groups; replicas talk only within their group.
        groups: Vec<Vec<u32>>,
        mterm: u64,
        /// Replicas whose outbound acks are dropped (for mid-commit
        /// scenarios).
        drop_acks: BTreeSet<u32>,
        /// Replicas that receive nothing at all, while their own
        /// outbound frames still flow (a one-way partition: the
        /// proposer never observes its commit).
        drop_to: BTreeSet<u32>,
    }

    impl Net {
        fn new(n: u32) -> Net {
            Net {
                reps: (0..n).map(|i| IntentReplica::new(i, n)).collect(),
                up: vec![true; n as usize],
                groups: vec![(0..n).collect()],
                mterm: 1,
                drop_acks: BTreeSet::new(),
                drop_to: BTreeSet::new(),
            }
        }

        fn partition(&mut self, groups: Vec<Vec<u32>>) {
            self.groups = groups;
            self.mterm += 1;
        }

        fn kill(&mut self, i: u32) {
            self.up[i as usize] = false;
            self.mterm += 1;
        }

        fn revive(&mut self, i: u32) {
            self.up[i as usize] = true;
            self.mterm += 1;
        }

        fn can_talk(&self, a: u32, b: u32) -> bool {
            if !self.up[a as usize] || !self.up[b as usize] {
                return false;
            }
            self.groups.iter().any(|g| g.contains(&a) && g.contains(&b))
        }

        fn live_view(&self, i: u32) -> Vec<u32> {
            let mut v: Vec<u32> = (0..self.reps.len() as u32)
                .filter(|&j| j == i || self.can_talk(i, j))
                .collect();
            v.sort_unstable();
            v
        }

        fn tick(&mut self) {
            let mut queue: VecDeque<(u32, Outbound)> = VecDeque::new();
            for i in 0..self.reps.len() as u32 {
                if !self.up[i as usize] {
                    continue;
                }
                let live = self.live_view(i);
                for o in self.reps[i as usize].tick(self.mterm, &live) {
                    queue.push_back((i, o));
                }
            }
            let mut budget = 100_000usize;
            while let Some((from, o)) = queue.pop_front() {
                budget = budget.checked_sub(1).expect("delivery loop diverged");
                if !self.can_talk(from, o.to) {
                    continue;
                }
                if self.drop_acks.contains(&from) && matches!(o.msg, Message::IntentAck { .. }) {
                    continue;
                }
                if self.drop_to.contains(&o.to) {
                    continue;
                }
                for r in deliver(&mut self.reps[o.to as usize], o.msg) {
                    queue.push_back((o.to, r));
                }
            }
        }

        fn run(&mut self, ticks: usize) {
            for _ in 0..ticks {
                self.tick();
            }
        }
    }

    fn deny(id: u8) -> Intent {
        Intent::AclDeny {
            priority: 900,
            matcher: FlowMatch {
                in_port: Some(id as u32),
                ..FlowMatch::ANY
            },
            install: true,
        }
    }

    fn applied_tokens_of(applied: &[Applied]) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for a in applied {
            match a {
                Applied::Entry(e) => out.push((e.origin, e.token)),
                Applied::Snapshot(es) => out.extend(es.iter().map(|e| (e.origin, e.token))),
            }
        }
        out
    }

    #[test]
    fn vterm_orders_rivals_and_membership_bumps() {
        // Two rivals at one membership term never tie, and one
        // membership bump dominates every rival of the prior term.
        assert!(vterm(7, 5, 4) > vterm(7, 5, 0));
        assert!(vterm(8, 5, 0) > vterm(7, 5, 4));
    }

    #[test]
    fn happy_path_commits_on_every_replica() {
        let mut net = Net::new(3);
        net.run(3);
        assert!(net.reps[0].is_leader());
        net.reps[0].propose_local(fnv1a(b"r0"), deny(1));
        net.run(3);
        for r in &net.reps {
            assert_eq!(r.commit(), net.reps[0].commit(), "replica {}", r.me());
            assert_eq!(r.active().len(), 1, "replica {}", r.me());
        }
        let applied = net.reps[2].take_applied();
        assert_eq!(applied_tokens_of(&applied), vec![(0, fnv1a(b"r0"))]);
        assert_eq!(net.reps[0].pending_len(), 0);
    }

    #[test]
    fn duplicate_proposals_commit_once() {
        let mut net = Net::new(3);
        net.run(3);
        let tok = fnv1a(b"dup");
        net.reps[1].propose_local(tok, deny(2));
        net.run(2);
        net.reps[1].propose_local(tok, deny(2));
        // A stale direct re-send to the leader must also dedup.
        net.reps[0].on_propose(1, tok, deny(2));
        net.run(3);
        let applied = net.reps[0].take_applied();
        assert_eq!(applied_tokens_of(&applied), vec![(1, tok)]);
    }

    #[test]
    fn leader_kill_mid_commit_loses_nothing() {
        let mut net = Net::new(5);
        net.run(3);
        assert!(net.reps[0].is_leader());
        // Replicate to a majority but drop every ack, so the entry is
        // in-flight: on disk at 3 replicas, committed nowhere.
        net.drop_acks = (1..5).collect();
        let tok = fnv1a(b"mid");
        net.reps[0].propose_local(tok, deny(3));
        net.run(2);
        assert_eq!(net.reps[0].commit(), net.reps[1].commit());
        assert!(net.reps[1].last_index() > net.reps[1].commit());
        // Kill the leader; the survivors elect replica 1, which must
        // preserve the majority-replicated entry and commit it under
        // its no-op barrier.
        net.drop_acks.clear();
        net.kill(0);
        net.run(6);
        assert!(net.reps[1].is_leader());
        for i in 1..5u32 {
            let applied = net.reps[i as usize].take_applied();
            assert_eq!(
                applied_tokens_of(&applied),
                vec![(0, tok)],
                "replica {i} lost the mid-commit entry"
            );
        }
    }

    #[test]
    fn minority_partition_cannot_commit_and_heals_clean() {
        let mut net = Net::new(5);
        net.run(3);
        net.partition(vec![vec![0, 1], vec![2, 3, 4]]);
        let tok_min = fnv1a(b"minority");
        let tok_maj = fnv1a(b"majority");
        net.reps[0].propose_local(tok_min, deny(4));
        net.reps[3].propose_local(tok_maj, deny(5));
        net.run(6);
        // The stranded leader replicates but cannot commit; the
        // majority side elects replica 2 at a higher term and commits.
        assert_eq!(net.reps[0].take_applied(), Vec::new());
        assert!(net.reps[2].is_leader());
        assert!(applied_tokens_of(&net.reps[2].take_applied()).contains(&(3, tok_maj)));
        net.partition(vec![vec![0, 1, 2, 3, 4]]);
        net.run(8);
        // Replica 0 retakes the lead at a fresh term, adopts the
        // majority log, and its stranded proposal finally commits.
        assert!(net.reps[0].is_leader());
        for r in &net.reps {
            assert_eq!(r.commit(), net.reps[0].commit(), "replica {}", r.me());
            assert_eq!(r.active().len(), 2, "replica {}", r.me());
        }
        let mut all = applied_tokens_of(&net.reps[4].take_applied());
        all.sort_unstable();
        let mut want = vec![(0, tok_min), (3, tok_maj)];
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn lagging_replica_bootstraps_from_snapshot() {
        let mut net = Net::new(3);
        net.run(3);
        net.kill(2);
        // Commit enough entries to push the compaction floor well past
        // the dead replica's position.
        for i in 0..(3 * KEEP_TAIL as usize) {
            let tok = fnv1a(format!("bulk{i}").as_bytes());
            net.reps[0].propose_local(tok, deny((i % 200) as u8));
            net.run(1);
        }
        assert!(net.reps[0].floor() > 0);
        net.revive(2);
        net.run(4);
        assert_eq!(net.reps[2].commit(), net.reps[0].commit());
        assert_eq!(net.reps[2].active(), net.reps[0].active());
        let got_snapshot = net.reps[2]
            .take_applied()
            .iter()
            .any(|a| matches!(a, Applied::Snapshot(_)));
        assert!(
            got_snapshot,
            "rejoin below the floor must install a snapshot"
        );
    }

    #[test]
    fn snapshot_carries_superseded_tokens_for_dedup() {
        // Regression: the snapshot used to rebuild `applied_tokens`
        // from the active entries only, forgetting tokens of
        // committed-but-superseded intents. A proposer that never
        // observed its commit then re-proposed past the snapshot and
        // the intent committed twice — resurrecting a withdrawn deny.
        let mut net = Net::new(3);
        net.run(3);
        assert!(net.reps[0].is_leader());
        // Replica 1 proposes an install but hears nothing back (its
        // own frames still flow out).
        net.drop_to.insert(1);
        let tok_in = fnv1a(b"install");
        net.reps[1].propose_local(tok_in, deny(1));
        net.run(3);
        assert_eq!(net.reps[1].pending_len(), 1);
        // The deny is withdrawn, then bulk commits push the leader's
        // compaction floor past both entries.
        let withdraw = match deny(1) {
            Intent::AclDeny {
                priority, matcher, ..
            } => Intent::AclDeny {
                priority,
                matcher,
                install: false,
            },
            _ => unreachable!(),
        };
        net.reps[0].propose_local(fnv1a(b"withdraw"), withdraw);
        net.run(2);
        for i in 0..(3 * KEEP_TAIL as usize) {
            let tok = fnv1a(format!("bulk{i}").as_bytes());
            net.reps[0].propose_local(tok, deny((10 + i % 200) as u8));
            net.run(1);
        }
        assert!(net.reps[0].floor() > 2);
        // Heal: replica 1 bootstraps from a snapshot whose active set
        // contains neither the install nor the withdraw, but whose
        // token set must still cover the proposal — dropping it from
        // the pending queue.
        net.drop_to.clear();
        net.run(4);
        assert_eq!(net.reps[1].commit(), net.reps[0].commit());
        assert_eq!(
            net.reps[1].pending_len(),
            0,
            "snapshot token set must absorb the unobserved proposal"
        );
        // Failover to the replica that installed the snapshot: it must
        // not re-append its old proposal.
        net.kill(0);
        net.run(6);
        assert!(net.reps[1].is_leader());
        let key = intent_key(&deny(1)).expect("acl key").0;
        for i in 1..3u32 {
            assert!(
                !net.reps[i as usize].active().contains_key(&key),
                "replica {i} resurrected the withdrawn deny"
            );
        }
        let count = applied_tokens_of(&net.reps[2].take_applied())
            .iter()
            .filter(|&&t| t == (1, tok_in))
            .count();
        assert_eq!(count, 1, "intent must commit exactly once");
    }

    #[test]
    fn follower_ignores_catchup_from_non_leader() {
        let mut net = Net::new(3);
        net.run(3);
        net.reps[0].propose_local(fnv1a(b"base"), deny(1));
        net.run(3);
        // A stale reply from replica 2 (not the term's leader) carrying
        // a fabricated uncommitted suffix must not splice into replica
        // 1's log, checksum notwithstanding.
        let term = net.reps[1].term();
        let commit = net.reps[1].commit();
        let bogus = vec![IntentEntry {
            index: net.reps[1].last_index() + 1,
            term,
            origin: 2,
            token: 99,
            intent: deny(9),
        }];
        let checksum = catchup_checksum(&[], &[], &bogus);
        let outs = net.reps[1].on_catchup(2, term, 0, 0, vec![], vec![], bogus, commit, checksum);
        assert!(outs.is_empty());
        assert_eq!(net.reps[1].last_index(), commit);
    }

    #[test]
    fn withdraw_removes_active_state() {
        let mut net = Net::new(3);
        net.run(3);
        net.reps[0].propose_local(fnv1a(b"in"), deny(6));
        net.run(3);
        assert_eq!(net.reps[1].active().len(), 1);
        let withdraw = match deny(6) {
            Intent::AclDeny {
                priority, matcher, ..
            } => Intent::AclDeny {
                priority,
                matcher,
                install: false,
            },
            _ => unreachable!(),
        };
        net.reps[0].propose_local(fnv1a(b"out"), withdraw);
        net.run(3);
        for r in &net.reps {
            assert_eq!(r.active().len(), 0, "replica {}", r.me());
        }
    }

    #[test]
    fn pin_intents_round_trip_through_active() {
        let mut net = Net::new(3);
        net.run(3);
        net.reps[1].propose_local(
            fnv1a(b"pin"),
            Intent::MastershipPin {
                dpid: 9,
                replica: 2,
                pinned: true,
            },
        );
        net.run(4);
        let key = IntentKey::Pin { dpid: 9 };
        for r in &net.reps {
            let e = r.active().get(&key).expect("pin present");
            assert_eq!(
                e.intent,
                Intent::MastershipPin {
                    dpid: 9,
                    replica: 2,
                    pinned: true
                }
            );
        }
    }
}
