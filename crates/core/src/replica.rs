//! One replica's share of a controller cluster: membership, the
//! east-west store, the intent log, and who masters what.
//!
//! The state owns its code. A peer's message, the gossip round and the
//! mastership decision are methods of [`ClusterState`]; what they cannot
//! do themselves — touch the view, a switch session or the app chain,
//! write a frame — they hand back for `Controller` to act on.

use std::collections::{BTreeMap, BTreeSet};

use zen_cluster::{Admit, ClusterConfig, EwStore, Membership};
use zen_consensus::{Applied, IntentReplica, Outbound, KEEP_TAIL};
use zen_proto::{Intent, Message, Role, ViewEvent};
use zen_sim::{Instant, NodeId};
use zen_telemetry::TraceEvent;

use crate::controller::CtlStats;
use crate::view::Dpid;

/// Cap on east-west entries pushed to one peer per tick; the rest go
/// out on following ticks.
const EW_BATCH: usize = 64;

/// Runtime state of one replica in a controller cluster.
pub(crate) struct ClusterState {
    pub(crate) membership: Membership,
    pub(crate) store: EwStore,
    /// Switches this replica currently exercises mastership over.
    my_masters: BTreeSet<Dpid>,
    /// Claims observed at switches that outrank ours: dpid → the
    /// `(term, replica)` that won. Cleared once our own claim grows
    /// past the recorded one.
    deferred: BTreeMap<Dpid, (u64, u32)>,
    /// Replicated program stamps: (dpid, app cookie) → content hash of
    /// the owning app's desired program. A replica gaining mastership
    /// reprograms only when its own desired hash disagrees.
    program_stamps: BTreeMap<(Dpid, u64), u64>,
    /// Replicated intent log: leader election, append/ack replication,
    /// and snapshot catch-up for linearizable control intents.
    pub(crate) intents: IntentReplica,
    /// Committed mastership pins: dpid → replica index. Overrides the
    /// hash-based assignment while the pinned replica is alive.
    pins: BTreeMap<Dpid, u32>,
    /// Per-peer high-water mark of own-origin entries eagerly pushed:
    /// peer → highest own seq already sent.
    pushed_high: BTreeMap<u32, u64>,
}

/// What a peer's message leaves for the controller to do, beside the
/// frames it answers with.
#[derive(Default)]
pub(crate) struct PeerEffects {
    /// Replicated view mutations that won admission, to apply in order.
    pub(crate) events: Vec<ViewEvent>,
    /// What to flight-record on the network-wide control timeline.
    pub(crate) trace: Option<TraceEvent>,
    /// Whether the intent log may have committed entries to surface.
    pub(crate) committed: bool,
}

/// What one east-west round decided beyond its gossip, in the order it
/// is acted on (the gossip goes out first).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Round {
    /// This replica's `(term, replica)` claim, for the role requests.
    pub(crate) claim: (u64, u32),
    /// Switches kept through a change of the live set: say who we are.
    pub(crate) reassert: Vec<Dpid>,
    /// Switches kept while a peer came back: their port maps, bases and
    /// programs may be stale.
    pub(crate) refresh: Vec<Dpid>,
    /// The intent log's frames for this round, written after the
    /// re-asserts and refreshes.
    pub(crate) frames: Vec<(NodeId, Message)>,
    pub(crate) lost: Vec<Dpid>,
    pub(crate) gained: Vec<Dpid>,
}

impl ClusterState {
    pub(crate) fn new(cfg: ClusterConfig) -> ClusterState {
        ClusterState {
            store: EwStore::new(cfg.index as u32, cfg.len()),
            intents: IntentReplica::new(cfg.index as u32, cfg.len() as u32),
            membership: Membership::new(cfg, Instant::ZERO),
            my_masters: BTreeSet::new(),
            deferred: BTreeMap::new(),
            program_stamps: BTreeMap::new(),
            pins: BTreeMap::new(),
            pushed_high: BTreeMap::new(),
        }
    }

    /// This replica's index.
    pub(crate) fn me(&self) -> u32 {
        self.membership.index() as u32
    }

    /// Whether `from` is another replica of this cluster.
    pub(crate) fn is_peer(&self, from: NodeId) -> bool {
        let index = self.membership.config().index_of(from);
        index.is_some_and(|i| i != self.membership.index())
    }

    pub(crate) fn is_master(&self, dpid: Dpid) -> bool {
        self.my_masters.contains(&dpid)
    }

    /// The switches this replica masters.
    pub(crate) fn masters(&self) -> &BTreeSet<Dpid> {
        &self.my_masters
    }

    /// Log a local view mutation into the east-west store.
    pub(crate) fn log(&mut self, event: ViewEvent) {
        self.store.append(self.membership.term(), event);
    }

    /// The replicated program stamp for `(dpid, cookie)`.
    pub(crate) fn stamp(&self, dpid: Dpid, cookie: u64) -> Option<u64> {
        self.program_stamps.get(&(dpid, cookie)).copied()
    }

    /// Record, and replicate if it is news, the stamp of the program
    /// just sent to `dpid`.
    pub(crate) fn set_stamp(&mut self, dpid: Dpid, cookie: u64, hash: u64) {
        if self.program_stamps.insert((dpid, cookie), hash) != Some(hash) {
            self.log(ViewEvent::ProgramStamp { dpid, cookie, hash });
        }
    }

    /// `dpid`'s bases were dropped because it may not hold what they
    /// said. The stamps this replica recorded for it go too: they are a
    /// takeover's shortcut past the full load, and nothing vouches for
    /// them now.
    pub(crate) fn forget_stamps(&mut self, dpid: Dpid) {
        if self.is_master(dpid) {
            self.program_stamps.retain(|&(d, _), _| d != dpid);
        }
    }

    /// Whether this replica should exercise mastership over `dpid`:
    /// a live committed pin wins, otherwise the hash assignment.
    fn wants_mastership(&self, dpid: Dpid) -> bool {
        if let Some(&r) = self.pins.get(&dpid) {
            if self.membership.is_alive(r as usize) {
                return r as usize == self.membership.config().index;
            }
        }
        self.membership.assigned_master(dpid)
    }

    /// The role to take at `dpid`'s handshake, settled before any app
    /// traffic — the deterministic assignment needs no negotiation,
    /// everyone computes the same one — and whether it is a first
    /// claim: a reply can also be a mid-mastership refresh, and only a
    /// first claim is a handover.
    pub(crate) fn role_at_handshake(&mut self, dpid: Dpid) -> (Role, bool) {
        let claim = self.wants_mastership(dpid) && !self.deferred.contains_key(&dpid);
        let newly = claim && self.my_masters.insert(dpid);
        (if claim { Role::Master } else { Role::Equal }, newly)
    }

    /// `dpid` answered a role request. Only losing claims need
    /// bookkeeping: the switch names the `(term, replica)` that
    /// outranked us, and we defer to it until our own claim grows past
    /// it. Returns whether this replica thereby stepped down.
    pub(crate) fn role_reply(&mut self, dpid: Dpid, role: Role, term: u64, replica: u32) -> bool {
        if role == Role::Master || replica == self.me() {
            return false;
        }
        self.deferred.insert(dpid, (term, replica));
        self.my_masters.remove(&dpid)
    }

    /// The node replica `index` runs on, if there is such a replica.
    fn node_of(&self, index: u32) -> Option<NodeId> {
        let replicas = &self.membership.config().replicas;
        replicas.get(index as usize).copied()
    }

    /// Consensus frames, each with the node of the replica it is for
    /// (collected in the allocation of `outs`).
    fn route(&self, outs: Vec<Outbound>, stats: &mut CtlStats) -> Vec<(NodeId, Message)> {
        let routed = outs.into_iter();
        let routed = routed.filter_map(|out| Some((self.node_of(out.to)?, out.msg)));
        let frames: Vec<_> = routed.collect();
        stats.intent_msgs_sent += frames.len() as u64;
        frames
    }

    /// A replicated mutation that won admission: a program stamp is
    /// this state's own, anything else is the controller's to apply.
    fn admit(&mut self, event: ViewEvent, stats: &mut CtlStats, fx: &mut PeerEffects) {
        stats.ew_events_applied += 1;
        if let ViewEvent::ProgramStamp { dpid, cookie, hash } = event {
            self.program_stamps.insert((dpid, cookie), hash);
        } else {
            fx.events.push(event);
        }
    }

    /// East-west traffic from a peer replica, at `now`; the frames it
    /// answers with go onto `out`.
    pub(crate) fn on_peer(
        &mut self,
        now: Instant,
        stats: &mut CtlStats,
        msg: Message,
        out: &mut Vec<(NodeId, Message)>,
    ) -> PeerEffects {
        let mut fx = PeerEffects::default();
        let me = self.me();
        let outs = match msg {
            Message::EwEvents { entries, .. } => {
                for entry in entries {
                    if self.store.admit(&entry) == Admit::Apply {
                        self.admit(entry.event, stats, &mut fx);
                    } else {
                        stats.ew_events_skipped += 1;
                    }
                }
                return fx;
            }
            Message::EwDigest {
                replica,
                term,
                heads,
            } => {
                self.membership.note_heartbeat(replica, term, now);
                // A digest head doubles as an applied-mark ack: the
                // chain hash guarantees the peer holds everything up
                // to it contiguously.
                let acks: Vec<(u32, u64)> = heads.iter().map(|h| (h.origin, h.head)).collect();
                self.store.note_peer_acks(replica, &acks);
                let ranges = self.store.missing_ranges(&heads);
                if let Some(node) = self.node_of(replica).filter(|_| !ranges.is_empty()) {
                    stats.ew_fetches_sent += 1;
                    let fetch = Message::EwFetch {
                        replica: me,
                        ranges,
                    };
                    out.push((node, fetch));
                }
                return fx;
            }
            Message::EwFetch { replica, ranges } => {
                let Some(node) = self.node_of(replica) else {
                    return fx;
                };
                let (entries, want_snapshot) = self.store.serve_ranges(&ranges);
                if want_snapshot {
                    let (heads, entries, checksum) = self.store.snapshot();
                    stats.ew_snapshots_sent += 1;
                    let snapshot = Message::EwSnapshot {
                        replica: me,
                        heads,
                        entries,
                        checksum,
                    };
                    out.push((node, snapshot));
                }
                for chunk in entries.chunks(EW_BATCH) {
                    stats.ew_entries_sent += chunk.len() as u64;
                    let events = Message::EwEvents {
                        replica: me,
                        entries: chunk.to_vec(),
                    };
                    out.push((node, events));
                }
                return fx;
            }
            Message::EwSnapshot {
                replica,
                heads,
                entries,
                checksum,
            } => {
                let carried = entries.len() as u64;
                // A checksum mismatch drops the snapshot; the next
                // digest round re-requests it.
                let Some(won) = self.store.install_snapshot(&heads, entries, checksum) else {
                    return fx;
                };
                stats.ew_snapshots_installed += 1;
                fx.trace = Some(TraceEvent::EwSnapshotInstalled {
                    from_replica: replica,
                    entries: carried,
                });
                for e in won {
                    self.admit(e.event, stats, &mut fx);
                }
                return fx;
            }
            Message::IntentPropose {
                replica,
                token,
                intent,
            } => {
                self.intents.on_propose(replica, token, intent);
                return fx;
            }
            Message::IntentAppend {
                leader,
                term,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                fx.committed = true;
                self.intents
                    .on_append(leader, term, prev_index, prev_term, commit, entries)
            }
            Message::IntentAck {
                replica,
                term,
                match_index,
                success,
            } => {
                fx.committed = true;
                self.intents.on_ack(replica, term, match_index, success)
            }
            Message::IntentFetch {
                replica,
                term,
                from_index,
            } => self.intents.on_fetch(replica, term, from_index),
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
            } => {
                fx.committed = true;
                self.intents.on_catchup(
                    replica,
                    term,
                    snap_index,
                    snap_term,
                    snap_state,
                    snap_tokens,
                    entries,
                    commit,
                    checksum,
                )
            }
            // Peers speak only the east-west subset.
            _ => return fx,
        };
        out.extend(self.route(outs, stats));
        fx
    }

    /// The intents committed since the last call, with the mastership
    /// pins among them already taken in.
    pub(crate) fn take_applied(&mut self) -> Vec<Applied> {
        let applied = self.intents.take_applied();
        for a in &applied {
            match a {
                Applied::Entry(e) => {
                    if let Intent::MastershipPin {
                        dpid,
                        replica,
                        pinned,
                    } = e.intent
                    {
                        if pinned {
                            self.pins.insert(dpid, replica);
                        } else {
                            self.pins.remove(&dpid);
                        }
                    }
                }
                // The snapshot's active set replaces the pins wholesale.
                Applied::Snapshot(entries) => {
                    let pinned = entries.iter().filter_map(|e| match e.intent {
                        Intent::MastershipPin {
                            dpid,
                            replica,
                            pinned: true,
                        } => Some((dpid, replica)),
                        _ => None,
                    });
                    self.pins = pinned.collect();
                }
            }
        }
        applied
    }

    /// One east-west round at `now`: refresh peer liveness, gossip to
    /// every peer onto `gossip`, tick the intent log, and reconcile
    /// this replica's mastership set over `switches` against the
    /// deterministic assignment.
    pub(crate) fn tick(
        &mut self,
        now: Instant,
        stats: &mut CtlStats,
        switches: impl Iterator<Item = Dpid>,
        gossip: &mut Vec<(NodeId, Message)>,
    ) -> Round {
        let (flipped, peer_revived) = self.scan(now);
        self.gossip(stats, gossip);
        // Retention: prune only what every *live* replica has applied,
        // so one dead replica cannot pin the log forever (a revived one
        // bootstraps from a snapshot instead).
        self.store.prune_acked(&self.membership.live());

        // Intent-log round: deterministic leader election over the live
        // set, replication heartbeats, proposal retries, compaction.
        let live: Vec<u32> = self.membership.live().iter().map(|&i| i as u32).collect();
        let outs = self.intents.tick(self.membership.term(), &live);
        self.intents.compact(KEEP_TAIL);

        let mut round = self.rebalance(flipped, peer_revived, switches);
        round.frames = self.route(outs, stats);
        round
    }

    /// Re-evaluate the leases: whether any peer flipped, and whether one
    /// came back from the dead.
    fn scan(&mut self, now: Instant) -> (bool, bool) {
        let live_before = self.membership.live();
        let flipped = self.membership.scan(now);
        let live = self.membership.live();
        (flipped, live.iter().any(|i| !live_before.contains(i)))
    }

    /// Anti-entropy to every peer, every tick: each new own-origin
    /// entry is pushed once, then a digest, which is also the peer's
    /// keepalive and carries our per-origin applied marks as acks.
    /// Losses (and remote-origin gaps) are repaired through the digest
    /// / fetch exchange.
    fn gossip(&mut self, stats: &mut CtlStats, out: &mut Vec<(NodeId, Message)>) {
        let (me, term) = (self.me(), self.membership.term());
        let replicas = self.membership.config().replicas.clone();
        for (i, &node) in replicas.iter().enumerate() {
            let peer = i as u32;
            if peer == me {
                continue;
            }
            let head = self.store.applied_high(me);
            let pushed = self.pushed_high.entry(peer).or_insert(0);
            if head > *pushed {
                let lo = (*pushed + 1).max(self.store.floor_of(me) + 1);
                let hi = head.min(lo + EW_BATCH as u64 - 1);
                let (entries, _) = self.store.serve_ranges(&[(me, lo, hi)]);
                if !entries.is_empty() {
                    stats.ew_entries_sent += entries.len() as u64;
                    let events = Message::EwEvents {
                        replica: me,
                        entries,
                    };
                    out.push((node, events));
                }
                *pushed = hi;
            }
            stats.ew_digests_sent += 1;
            let digest = Message::EwDigest {
                replica: me,
                term,
                heads: self.store.digest(),
            };
            out.push((node, digest));
        }
    }

    /// Settle who this replica masters among `switches`, after a scan
    /// that found a peer `flipped` or `peer_revived`.
    ///
    /// A peer that flipped was cut off from us, and we from it: each
    /// side presumes the other dead and claims its switches. Every
    /// switch kept is one to say who we are at, so whichever claim
    /// ranks higher holds it and the other side hears that it lost — a
    /// controller that programs by difference may not send a mod (whose
    /// bounce would tell it) for a long while.
    ///
    /// A peer coming back from the dead usually means a partition
    /// healed — and if *we* were the isolated side, we missed every
    /// PORT_STATUS broadcast in the window (we kept mastering our
    /// switches throughout, so the takeover-path refresh never runs),
    /// and whoever adopted our switches in the meantime pointed their
    /// groups by its own view. Every switch kept is one to refresh.
    fn rebalance(
        &mut self,
        flipped: bool,
        peer_revived: bool,
        switches: impl Iterator<Item = Dpid>,
    ) -> Round {
        let claim = self.membership.claim();
        // Deferred overrides die once our claim outgrows them (a healed
        // partition converges on the merged term, and the canonical
        // assignment reasserts itself).
        self.deferred.retain(|_, o| *o >= claim);
        let wanted = |d: &Dpid| self.wants_mastership(*d) && !self.deferred.contains_key(d);
        let desired: BTreeSet<Dpid> = switches.filter(wanted).collect();
        // The freshly gained are settled by their takeover path.
        let kept = |when: bool| -> Vec<Dpid> {
            let kept = desired.iter().filter(|d| when && self.is_master(**d));
            kept.copied().collect()
        };
        let round = Round {
            claim,
            reassert: kept(flipped),
            refresh: kept(peer_revived),
            frames: Vec::new(),
            lost: self.my_masters.difference(&desired).copied().collect(),
            gained: desired.difference(&self.my_masters).copied().collect(),
        };
        self.my_masters = desired;
        round
    }
}

#[cfg(test)]
mod tests {
    use zen_proto::OriginHead;

    use super::*;

    /// Replica 0 of three, on nodes 10, 11 and 12, with `events` view
    /// mutations of its own logged.
    fn replica_with(events: u32) -> ClusterState {
        let replicas = vec![NodeId(10), NodeId(11), NodeId(12)];
        let mut cl = ClusterState::new(ClusterConfig::new(replicas, 0));
        for port in 0..events {
            let (from_dpid, from_port) = (1, port);
            cl.log(ViewEvent::LinkDel {
                from_dpid,
                from_port,
            });
        }
        cl
    }

    /// A peer's digest that shows it holds entries we lack is answered
    /// with one fetch for exactly those, to that peer, and nothing else.
    #[test]
    fn a_digest_that_shows_a_gap_yields_one_fetch_to_that_peer() {
        let mut cl = replica_with(0);
        let (mut stats, mut out) = (CtlStats::default(), Vec::new());
        let head = |origin, head| OriginHead {
            origin,
            floor: 0,
            head,
            hash: 7,
        };
        let digest = Message::EwDigest {
            replica: 1,
            term: 1,
            heads: vec![head(0, 0), head(1, 5), head(2, 0)],
        };
        let now = Instant::from_millis(10);
        let fx = cl.on_peer(now, &mut stats, digest, &mut out);
        let fetch = Message::EwFetch {
            replica: 0,
            ranges: vec![(1, 1, 5)],
        };
        assert_eq!(out, [(NodeId(11), fetch)]);
        assert!(fx.events.is_empty() && fx.trace.is_none() && !fx.committed);
        assert_eq!((stats.ew_fetches_sent, stats.msgs_sent), (1, 0));
    }

    /// A fetch from a peer below our floor asks for the snapshot beside
    /// the ranges it can take from the log: the snapshot goes first, then
    /// the entries in chunks of `EW_BATCH`.
    #[test]
    fn a_fetch_below_the_floor_yields_the_snapshot_then_batched_events() {
        let mut cl = replica_with(100);
        let (heads, entries, checksum) = cl.store.snapshot();
        let (logged, _) = cl.store.serve_ranges(&[(0, 1, 100)]);
        let (mut stats, mut out) = (CtlStats::default(), Vec::new());
        let fetch = Message::EwFetch {
            replica: 2,
            ranges: vec![(1, 0, 0), (0, 1, 100)],
        };
        cl.on_peer(Instant::from_millis(10), &mut stats, fetch, &mut out);
        let snapshot = Message::EwSnapshot {
            replica: 0,
            heads,
            entries,
            checksum,
        };
        let events = |entries: &[zen_proto::EwEntry]| Message::EwEvents {
            replica: 0,
            entries: entries.to_vec(),
        };
        let expected = [
            (NodeId(12), snapshot),
            (NodeId(12), events(&logged[..EW_BATCH])),
            (NodeId(12), events(&logged[EW_BATCH..])),
        ];
        assert_eq!(out, expected);
        let sent = (stats.ew_snapshots_sent, stats.ew_entries_sent);
        assert_eq!((sent, stats.msgs_sent), ((1, 100), 0));
    }

    /// A tick's gossip goes to each peer in ascending order — at most
    /// `EW_BATCH` of our new entries, then a digest — and the intent
    /// log's frames come back beside it, in the round.
    #[test]
    fn a_tick_yields_per_peer_gossip_in_order_then_the_intent_frames() {
        let mut cl = replica_with(70);
        let (mut stats, mut gossip) = (CtlStats::default(), Vec::new());
        let heads = cl.store.digest();
        let (logged, _) = cl.store.serve_ranges(&[(0, 1, 70)]);
        let round = cl.tick(Instant::from_millis(50), &mut stats, 1..=6, &mut gossip);
        let term = cl.membership.term();
        let to_peer = |node, entries: &[zen_proto::EwEntry]| {
            let events = Message::EwEvents {
                replica: 0,
                entries: entries.to_vec(),
            };
            let digest = Message::EwDigest {
                replica: 0,
                term,
                heads: heads.clone(),
            };
            [(node, events), (node, digest)]
        };
        let pushed = &logged[..EW_BATCH];
        let expected = [to_peer(NodeId(11), pushed), to_peer(NodeId(12), pushed)];
        assert_eq!(gossip, expected.concat());
        let fetch = |to: &(NodeId, Message), node| {
            let fetch = matches!(to.1, Message::IntentFetch { replica: 0, .. });
            fetch && to.0 == node
        };
        let frames = &round.frames;
        assert!(
            frames.len() == 2 && fetch(&frames[0], NodeId(11)) && fetch(&frames[1], NodeId(12))
        );
        let ew = (stats.ew_entries_sent, stats.ew_digests_sent);
        assert_eq!(
            (ew, stats.intent_msgs_sent, stats.msgs_sent),
            ((128, 2), 2, 0)
        );

        // The rest of our entries go out on the next tick.
        gossip.clear();
        cl.tick(Instant::from_millis(100), &mut stats, 1..=6, &mut gossip);
        let rest = |at: usize| match &gossip[at].1 {
            Message::EwEvents { entries, .. } => entries.clone(),
            other => panic!("events expected, got {other:?}"),
        };
        assert_eq!(
            (rest(0), rest(2)),
            (logged[EW_BATCH..].to_vec(), logged[EW_BATCH..].to_vec())
        );
    }

    /// Peers that send only digests stay live, and each digest's heads
    /// ack what that peer holds: the log is pruned to the lowest head
    /// among the live peers. One that falls silent is presumed dead a
    /// lease later and holds the log back no longer.
    #[test]
    fn digests_alone_keep_peers_live_and_ack_their_heads() {
        let mut cl = replica_with(70);
        let (mut stats, mut out) = (CtlStats::default(), Vec::new());
        let digest = |replica, held| {
            let head = |origin, head| OriginHead {
                origin,
                floor: 0,
                head,
                hash: 0,
            };
            let heads = vec![head(0, held), head(1, 0), head(2, 0)];
            #[rustfmt::skip]
            let digest = Message::EwDigest { replica, term: 1, heads };
            digest
        };
        let lease = cl.membership.config().lease_timeout.as_millis();
        for at in (50..=1_000).step_by(50) {
            let now = Instant::from_millis(at);
            cl.on_peer(now, &mut stats, digest(1, 60), &mut out);
            if at <= 500 {
                cl.on_peer(now, &mut stats, digest(2, 40), &mut out);
            }
            cl.tick(now, &mut stats, 1..=6, &mut out);
            let live = (cl.membership.live(), cl.membership.term());
            let pruned = (cl.store.floor_of(0), cl.store.log_len());
            let want = if at < 500 + lease {
                ((vec![0, 1, 2], 1), (40, 30))
            } else {
                ((vec![0, 1], 2), (60, 10))
            };
            assert_eq!((live, pruned), want, "at {at} ms");
        }
        let fetch = |(_, msg): &(NodeId, Message)| matches!(msg, Message::EwFetch { .. });
        assert!(!out.iter().any(fetch), "the digests showed nothing missing");
    }

    /// Replica 0 of three, with six switches, through a partition that
    /// cuts it off from both peers and a heal that brings one back: the
    /// lists each round hands `Controller::cluster_tick`.
    #[test]
    fn a_partition_and_its_heal_yield_the_lists_the_tick_acts_on() {
        let replicas = vec![NodeId(10), NodeId(11), NodeId(12)];
        let mut cl = ClusterState::new(ClusterConfig::new(replicas, 0));
        let ms = Instant::from_millis;
        let round = |cl: &mut ClusterState, at: Instant| {
            let (flipped, revived) = cl.scan(at);
            cl.rebalance(flipped, revived, 1..=6)
        };
        let quiet = |claim, gained: &[Dpid], lost: &[Dpid]| Round {
            claim,
            gained: gained.to_vec(),
            lost: lost.to_vec(),
            ..Round::default()
        };

        // Everyone presumed alive: dpid % 3 == 0 is ours.
        assert_eq!(round(&mut cl, ms(50)), quiet((1, 0), &[3, 6], &[]));
        assert_eq!(round(&mut cl, ms(100)), quiet((1, 0), &[], &[]));

        // Both leases lapse (300 ms of silence): two flips, two terms,
        // every switch is ours, and the two kept are re-asserted.
        let alone = round(&mut cl, ms(300));
        let expected = Round {
            reassert: vec![3, 6],
            ..quiet((3, 0), &[1, 2, 4, 5], &[])
        };
        assert_eq!(alone, expected);
        assert_eq!(cl.masters().len(), 6);

        // Replica 1 is heard again: the live set {0, 1} splits the
        // switches by parity. The evens stay, are re-asserted and
        // refreshed; the odds go back.
        cl.membership.note_heartbeat(1, 2, ms(390));
        let healed = round(&mut cl, ms(400));
        let expected = Round {
            reassert: vec![2, 4, 6],
            refresh: vec![2, 4, 6],
            ..quiet((4, 0), &[], &[1, 3, 5])
        };
        assert_eq!(healed, expected);

        // A switch that names a higher claim is deferred to until our
        // own outgrows it.
        assert!(cl.role_reply(2, Role::Equal, 9, 1));
        assert!(!cl.role_reply(2, Role::Equal, 9, 1), "stepped down once");
        cl.membership.note_heartbeat(1, 2, ms(440));
        assert_eq!(round(&mut cl, ms(450)), quiet((4, 0), &[], &[]));
        assert_eq!(cl.role_at_handshake(2), (Role::Equal, false));
        cl.membership.note_heartbeat(1, 10, ms(490));
        assert_eq!(round(&mut cl, ms(500)), quiet((10, 0), &[2], &[]));
    }
}
