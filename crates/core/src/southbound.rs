//! Southbound: one session per connected switch, reliable delivery over
//! it, and everything a switch's messages do to it.
//!
//! A [`Session`] is the controller's one record of a switch. It is
//! opened when the FEATURES_REPLY handshake names the switch's dpid —
//! [`Southbound::open`], the only writer of the sessions and of the
//! `Dpid → NodeId` registry beside them — and everything the controller
//! keeps per switch lives in it: when the switch was last heard, what it
//! is believed to hold, what it has been sent and not acknowledged, and
//! admission control's meter and queue.
//!
//! [`Southbound`] is the session protocol, a pure core: it takes the
//! time and decoded fields, and hands back what only the controller can
//! act on. Every end of a tracked mod is recorded as it is decided, for
//! the controller to settle in one place ([`Southbound::ends`]).
//!
//! State-programming messages (flow/group/meter mods) are tracked from
//! the moment they are sent until a barrier acknowledges them, and are
//! retransmitted on timeout — mods are idempotent by cookie, so a
//! duplicate is harmless while a loss would silently diverge switch
//! state from the controller's.
//!
//! Each session keeps its own unacked mods in transmission order. Xids
//! come from one rising counter, so that order is also xid order, and a
//! barrier is fully described by the last xid it covers: the mods it
//! fences are whatever is still queued at or below that xid. Flushing a
//! barrier, answering a reply and sweeping dead barriers therefore
//! touch one session's queue head and nothing else.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

use zen_consensus::{fnv1a_fold, CHAIN_SEED};
use zen_dataplane::{FlowSpec, GroupDesc, Meter, PortNo};
use zen_proto::{CookieCount, FlowModCmd, GroupModCmd, Message, RemovedReason, XidList};
use zen_sim::{Duration, Instant, NodeId};

use crate::ctl::Body;
use crate::view::Dpid;

/// What a barrier-acked mod, or a FLOW_REMOVED, does to the cookie
/// shadow (cookie → entry count believed installed).
///
/// The shadow is an approximation — strict deletes and replacing adds
/// can drift it — but drift only ever causes a *dirty* resync verdict,
/// which reprograms the switch: safe, merely less frugal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowOp {
    /// One more entry under this cookie.
    Add(u64),
    /// Every entry under this cookie is gone.
    DeleteByCookie(u64),
    /// One entry under this cookie timed out or was evicted.
    Removed(u64),
}

impl ShadowOp {
    fn of(msg: &Message) -> Option<ShadowOp> {
        match msg {
            Message::FlowMod {
                cmd: FlowModCmd::Add(spec),
                ..
            } => Some(ShadowOp::Add(spec.cookie)),
            Message::FlowMod {
                cmd: FlowModCmd::DeleteByCookie { cookie },
                ..
            } => Some(ShadowOp::DeleteByCookie(*cookie)),
            _ => None,
        }
    }

    /// Fold the op into one switch's shadow; whether that changed what
    /// it lists, the positive counts. A removal can overtake the ack of
    /// its add: the count dips below zero until the two have cancelled.
    fn apply(self, shadow: &mut BTreeMap<u64, i64>) -> bool {
        let (cookie, step) = match self {
            ShadowOp::Add(cookie) => (cookie, 1),
            ShadowOp::Removed(cookie) => (cookie, -1),
            ShadowOp::DeleteByCookie(cookie) => return shadow.remove(&cookie).is_some(),
        };
        let count = shadow.entry(cookie).or_insert(0);
        *count += step;
        let listed = (*count).max(*count - step) > 0;
        if *count == 0 {
            shadow.remove(&cookie);
        }
        listed
    }
}

/// What a shadow lists, in wire form: its positive counts, by cookie.
fn listed(shadow: &BTreeMap<u64, i64>) -> impl Iterator<Item = CookieCount> + '_ {
    shadow.iter().filter_map(|(&cookie, &count)| {
        let count = u32::try_from(count).ok()?;
        Some(CookieCount { cookie, count })
    })
}

/// A shadow as a peer replicated it, or a switch reported it.
fn shadow_of(cookies: &[CookieCount]) -> BTreeMap<u64, i64> {
    cookies.iter().map(|c| (c.cookie, c.count.into())).collect()
}

/// How a tracked mod ended ([`Southbound::ends`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// A barrier confirmed it applied on this switch.
    Acked(Dpid),
    /// Out of retries, or bounced for want of table room.
    Failed,
    /// Dropped with the world it was computed against.
    Superseded,
}

/// What a FEATURES_REPLY is ([`Southbound::open`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opened {
    /// A dpid another node holds, or a node that gave another dpid.
    Refused,
    /// The handshake: the session is new.
    First,
    /// A reply from an open session: a port map, nothing more (asked
    /// for by a refresh, or a re-solicit that crossed the handshake).
    Repeat,
}

/// Whether a request last made at `last` may be made again at `now`, at
/// most one per `every`; if so, it is taken to be made now.
fn throttle(last: &mut Option<Instant>, now: Instant, every: Duration) -> bool {
    let due = last.is_none_or(|last| now.duration_since(last) >= every);
    if due {
        *last = Some(now);
    }
    due
}

/// FNV-1a as a [`Hasher`], so `#[derive(Hash)]` can drive it. A byte
/// slice is folded byte by byte; an integer field is mixed in one step,
/// as one word: a stamp is only ever compared with another one made
/// here.
struct Fnv1a(u64);

/// FNV's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a fed `item`'s own fields by way of its derived `Hash`: nothing
/// is rendered or allocated, lists are preceded by their length.
fn stamp_of(item: &(impl Hash + ?Sized)) -> u64 {
    let mut stamp = Fnv1a(CHAIN_SEED);
    item.hash(&mut stamp);
    stamp.finish()
}

/// The stamp of a program's flow half: its flows in install order.
pub fn flows_stamp(flows: &[FlowSpec]) -> u64 {
    stamp_of(flows)
}

/// What a switch holds under one program cookie, as hashes: the stamp
/// of the flow half and one `(group id, content hash)` per group, in
/// install order. The controller keeps one per `(switch, cookie)` it
/// has programmed — the *base* the next program is diffed against — and
/// a copy of the program itself would cost a fabric's worth of specs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramBase {
    flows: u64,
    groups: Vec<(u32, u64)>,
}

impl ProgramBase {
    /// The hashes of a program whose flow half stamps `flows_stamp`.
    pub fn of(flows_stamp: u64, groups: &[(u32, GroupDesc)]) -> ProgramBase {
        ProgramBase {
            flows: flows_stamp,
            groups: groups.iter().map(|g| (g.0, stamp_of(g))).collect(),
        }
    }

    /// The stamp of the flow half.
    pub fn flows_stamp(&self) -> u64 {
        self.flows
    }

    /// The program's stamp — what a master records through
    /// [`crate::controller::Ctl::reconcile`] and a replica taking the
    /// switch over compares its own against: the fold of the per-entry
    /// hashes. Replicas run one binary and derive the program from the
    /// same replicated view, so equal programs stamp equal; any field a
    /// switch would forward differently under, and the order of the
    /// groups or of the flows, moves it.
    pub fn stamp(&self) -> u64 {
        stamp_of(self)
    }

    /// The hash held for group `id`, looked for first at `hint` — where
    /// it sits when the two programs list the same groups.
    fn group(&self, id: u32, hint: usize) -> Option<u64> {
        let at = |&(held, hash): &(u32, u64)| (held == id).then_some(hash);
        let hinted = self.groups.get(hint).and_then(at);
        hinted.or_else(|| self.groups.iter().find_map(at))
    }
}

/// What one [`crate::controller::Ctl::reconcile`] put on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reconciled {
    /// Messages sent; 0 when the switch already held the program.
    pub mods: usize,
    /// Of those, flow adds.
    pub flows: usize,
    /// Whether the whole program was loaded behind a cookie wipe.
    pub full: bool,
}

/// The messages that take a switch holding `base` under `cookie` to the
/// program `desired` hashes, in the order they must apply. While the
/// flow half stands, that is an add (which replaces) for every group
/// the base lacks or holds differently. When it moved, or nothing is
/// known of the switch, it is the one full load: the cookie wiped, then
/// every group and every flow `flows` renders. Also returned: the ids
/// of the groups the base holds and `desired` does not — not deleted
/// here, see [`Southbound::rebase`].
pub(crate) fn delta(
    base: Option<&ProgramBase>,
    desired: &ProgramBase,
    cookie: u64,
    groups: Vec<(u32, GroupDesc)>,
    flows: impl FnOnce() -> Vec<FlowSpec>,
) -> (Vec<Message>, Reconciled, Vec<u32>) {
    let add_group = |(group_id, desc)| {
        let cmd = GroupModCmd::Add(desc);
        Message::GroupMod { group_id, cmd }
    };
    let flow_mod = |cmd| Message::FlowMod { table_id: 0, cmd };
    let mut sent = Reconciled::default();
    let mut msgs = Vec::new();
    match base {
        Some(base) if base.flows == desired.flows => {
            let hashes = desired.groups.iter().enumerate();
            for (group, (i, &(id, hash))) in groups.into_iter().zip(hashes) {
                if base.group(id, i) != Some(hash) {
                    msgs.push(add_group(group));
                }
            }
        }
        _ => {
            let flows = flows();
            sent.full = true;
            sent.flows = flows.len();
            msgs.reserve(1 + groups.len() + flows.len());
            msgs.push(flow_mod(FlowModCmd::DeleteByCookie { cookie }));
            msgs.extend(groups.into_iter().map(add_group));
            let adds = flows.into_iter().map(FlowModCmd::Add);
            msgs.extend(adds.map(flow_mod));
        }
    }
    sent.mods = msgs.len();
    let held = base.iter().flat_map(|b| b.groups.iter().enumerate());
    let left = held.filter(|&(i, g)| desired.group(g.0, i).is_none());
    (msgs, sent, left.map(|(_, g)| g.0).collect())
}

/// A flow/group/meter mod awaiting barrier acknowledgement.
struct PendingMod {
    xid: u32,
    /// The encoded frame (original xid), resent verbatim on timeout.
    /// The buffer is one of [`Southbound::spare`]'s, and goes back there
    /// when the mod is acknowledged.
    bytes: Vec<u8>,
    /// Applied to the cookie shadow once acked.
    shadow: Option<ShadowOp>,
    /// Whether the mod is a step of a reconciled program: should it
    /// never land, the session's bases are no longer true.
    program: bool,
    sent_at: Instant,
    retries: u32,
}

/// The one record of a connected switch.
#[derive(Default)]
pub(crate) struct Session {
    pub(crate) dpid: Dpid,
    /// The last time anything at all arrived from the switch.
    last_heard: Instant,
    /// What the switch is believed to have installed: cookie → entry
    /// count, maintained from barrier-acked mods and FLOW_REMOVED
    /// notices, and diffed against HELLO_RESYNC digests on reconnect.
    shadow: BTreeMap<u64, i64>,
    /// Throttle: the last RESYNC_REQUEST sent while quarantined.
    resync_requested: Option<Instant>,
    /// Admission control's punt meter (a packet-rate token bucket) and
    /// deferred punts, `(ingress port, owned frame)`, when it is on.
    pub(crate) punt_meter: Option<Meter>,
    pub(crate) deferred: VecDeque<(PortNo, Vec<u8>)>,
    /// Unacked mods, oldest first (rising xid).
    pending: VecDeque<PendingMod>,
    /// Outstanding barriers, oldest first (rising xid): `(barrier xid,
    /// last mod xid it covers)`.
    barriers: Vec<(u32, u32)>,
    /// Mods tracked since the last fence, and when the first was.
    unfenced: usize,
    unfenced_since: Instant,
    /// What the switch holds once every pending mod has landed, per
    /// program cookie. Dropped the moment that stops being known: a
    /// program mod failed, or the session's mods were superseded.
    bases: BTreeMap<u64, ProgramBase>,
    /// Groups the switch holds that no program does any more, and
    /// since when: deleted once that has lasted [`GROUP_HOLD`].
    doomed: Vec<(u32, Instant)>,
    /// The least the switch's mutation generation can be, short of a
    /// reboot: what it last reported in HELLO_RESYNC, plus one for
    /// every mod it has acknowledged since.
    generation: u64,
}

impl Session {
    /// Stop tracking the mod at `i`. If it was a step of a program the
    /// bases go with it; returns whether it was.
    fn abandon(&mut self, i: usize) -> bool {
        let program = self.pending.remove(i).is_some_and(|p| p.program);
        if program {
            self.bases.clear();
        }
        program
    }

    /// Drop the program mods still pending, superseded: they are steps
    /// between programs no longer known to be there.
    fn give_up_programs(&mut self, ends: &mut Vec<(u32, End)>) {
        let steps = self.pending.iter().filter(|p| p.program);
        ends.extend(steps.map(|p| (p.xid, End::Superseded)));
        self.pending.retain(|p| !p.program);
    }

    /// Drop every pending mod, oldest first, superseded, and every base
    /// with them: they were computed against a world that no longer
    /// holds (dirty resync, lapsed mastership).
    fn supersede(&mut self, ends: &mut Vec<(u32, End)>) {
        self.bases.clear();
        ends.extend(self.pending.drain(..).map(|p| (p.xid, End::Superseded)));
    }
}

/// How long a group outlives the last program that held it. A program
/// follows the view, and a view can lose its way to a destination that
/// is still there — links age out of it while a handover or a healed
/// partition settles. Removing the group then turns every flow that
/// names it into a black hole; leaving it costs nothing, the flows are
/// there either way. The hold outlasts such gaps.
pub(crate) const GROUP_HOLD: Duration = Duration::from_secs(1);

/// A fence is for whoever waits on an acknowledgement. Nobody waits on
/// *soft* state, a flow add that times out — a lost one is punted for
/// and installed again — so it rides unfenced until this many mods have
/// (the depth one closed-loop delivery of punts reaches) or
/// [`Southbound::fence_aged`] says so. Anything else is *hard*: its
/// session is fenced at the next flush, soft mods and all.
const FENCE_BURST: usize = 8;

/// How many acknowledged mods' buffers are kept for the mods to come,
/// and the largest one worth keeping: a flow or group mod is some
/// hundred bytes, and each of a fabric's tens of sessions has up to a
/// burst of them unfenced or fenced and in flight (under 128 at k=4).
const SPARE_BUFFERS: usize = 128;
const SPARE_BUFFER_MAX: usize = 1 << 10;

/// Every opened session, at its node's index: node ids are dense, so
/// one is found without a search, and a walk goes in node order.
#[derive(Default)]
struct Sessions(Vec<Option<Session>>);

impl Sessions {
    fn get(&self, node: NodeId) -> Option<&Session> {
        self.0.get(node.0 as usize)?.as_ref()
    }

    fn get_mut(&mut self, node: NodeId) -> Option<&mut Session> {
        self.0.get_mut(node.0 as usize)?.as_mut()
    }

    fn insert(&mut self, node: NodeId, session: Session) {
        let at = node.0 as usize;
        if at >= self.0.len() {
            self.0.resize_with(at + 1, || None);
        }
        self.0[at] = Some(session);
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, &Session)> {
        let sessions = self.0.iter().enumerate();
        sessions.filter_map(|(i, s)| Some((NodeId(i as u32), s.as_ref()?)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut Session)> {
        let sessions = self.0.iter_mut().enumerate();
        sessions.filter_map(|(i, s)| Some((NodeId(i as u32), s.as_mut()?)))
    }
}

/// Every connected switch's session, and the protocol over them.
#[derive(Default)]
pub(crate) struct Southbound {
    sessions: Sessions,
    /// Where each dpid's switch answers: the index an app's dpid is
    /// looked up in, and the order of every walk that goes on the wire
    /// in dpid order. Written with the session, by [`Southbound::open`].
    registry: BTreeMap<Dpid, NodeId>,
    /// Parked until the handshake: the cookie shadow a peer replicated
    /// for a dpid whose switch has no session here yet. The session
    /// adopts it when it opens, and its first HELLO_RESYNC is compared
    /// against it.
    parked: BTreeMap<Dpid, BTreeMap<u64, i64>>,
    /// Parked for want of a session: the last FEATURES_REQUEST
    /// re-solicitation per node that talks without having shaken hands
    /// (the handshake itself can be lost on a faulty channel).
    solicited: BTreeMap<NodeId, Instant>,
    /// Tracked mods whose end has been decided and not yet settled, in
    /// the order decided; kept for its allocation.
    ends: Vec<(u32, End)>,
    /// Sessions marked for a fence, awaiting a covering barrier: noted
    /// as they are marked, put in order when flushed.
    dirty: Vec<NodeId>,
    /// Emptied buffers of acknowledged mods, at most [`SPARE_BUFFERS`].
    spare: Vec<Vec<u8>>,
    /// How many sessions have unfenced mods.
    pub(crate) unfenced_sessions: usize,
}

impl Southbound {
    /// Mods sent but not yet barrier-acknowledged, over all sessions.
    pub(crate) fn pending_mods(&self) -> usize {
        self.sessions.iter().map(|(_, s)| s.pending.len()).sum()
    }

    /// A FEATURES_REPLY from `node` naming `dpid`, at `now`. One switch,
    /// one record: a dpid stays with the node that first claimed it, and
    /// a node with the dpid it first gave — or every later mod, probe
    /// and PACKET_OUT for the first one's switch would go to a second
    /// claimant. The first reply opens the session, which adopts a
    /// shadow parked for the dpid.
    pub(crate) fn open(&mut self, node: NodeId, dpid: Dpid, now: Instant) -> Opened {
        if let Some(session) = self.sessions.get(node) {
            return match session.dpid == dpid {
                false => Opened::Refused,
                true => Opened::Repeat,
            };
        }
        if self.registry.contains_key(&dpid) {
            return Opened::Refused;
        }
        self.registry.insert(dpid, node);
        self.solicited.remove(&node);
        let shadow = self.parked.remove(&dpid).unwrap_or_default();
        let session = Session {
            dpid,
            last_heard: now,
            shadow,
            ..Session::default()
        };
        self.sessions.insert(node, session);
        // Room for a burst's acks, settled before the next call.
        self.ends.reserve(FENCE_BURST);
        Opened::First
    }

    /// Where `dpid`'s switch answers, once it has shaken hands.
    pub(crate) fn node(&self, dpid: Dpid) -> Option<NodeId> {
        self.registry.get(&dpid).copied()
    }

    /// Every switch that has shaken hands, in dpid order.
    pub(crate) fn dpids(&self) -> impl Iterator<Item = Dpid> + '_ {
        self.registry.keys().copied()
    }

    /// `dpid`'s session, if its switch has shaken hands.
    fn by_dpid(&mut self, dpid: Dpid) -> Option<&mut Session> {
        self.sessions.get_mut(*self.registry.get(&dpid)?)
    }

    /// `node` was heard from at `now` — any bytes at all prove the
    /// channel works. Its switch's dpid, if it has shaken hands.
    pub(crate) fn heard(&mut self, node: NodeId, now: Instant) -> Option<Dpid> {
        let session = self.sessions.get_mut(node)?;
        session.last_heard = now;
        Some(session.dpid)
    }

    /// The switches not heard from for `after` by `now`, in dpid order.
    pub(crate) fn silent(&self, now: Instant, after: Duration) -> impl Iterator<Item = Dpid> + '_ {
        self.registry.iter().filter_map(move |(&dpid, node)| {
            let last = self.sessions.get(*node).map_or(now, |s| s.last_heard);
            (now.duration_since(last) >= after).then_some(dpid)
        })
    }

    /// Whether `node`, talking without having shaken hands, is due a
    /// FEATURES_REQUEST at `now`: at most one per `every`.
    pub(crate) fn resolicit(&mut self, node: NodeId, now: Instant, every: Duration) -> bool {
        let due = throttle(&mut self.solicited.get(&node).copied(), now, every);
        if due {
            self.solicited.insert(node, now);
        }
        due
    }

    /// Whether `node`'s switch, speaking while quarantined, is due a
    /// RESYNC_REQUEST at `now`: at most one per `every`.
    pub(crate) fn resync_due(&mut self, node: NodeId, now: Instant, every: Duration) -> bool {
        let session = self.sessions.get_mut(node);
        session.is_some_and(|s| throttle(&mut s.resync_requested, now, every))
    }

    /// The tracked mods whose end was decided since the last call, in
    /// the order decided, for the caller to settle.
    pub(crate) fn ends(&mut self) -> std::vec::Drain<'_, (u32, End)> {
        self.ends.drain(..)
    }

    /// What `dpid`'s switch is believed to hold, in wire form: what its
    /// session's shadow lists, or the one parked for it.
    pub(crate) fn shadow_cookies(&self, dpid: Dpid) -> Vec<CookieCount> {
        let session = self.registry.get(&dpid).and_then(|&n| self.sessions.get(n));
        let shadow = session.map(|s| &s.shadow).or(self.parked.get(&dpid));
        shadow.map_or_else(Vec::new, |shadow| listed(shadow).collect())
    }

    /// A peer replica's word on what `dpid`'s switch holds: the
    /// session's shadow from now on, or parked until it has one.
    pub(crate) fn shadow_set(&mut self, dpid: Dpid, cookies: &[CookieCount]) {
        let shadow = shadow_of(cookies);
        match self.by_dpid(dpid) {
            Some(session) => session.shadow = shadow,
            None => _ = self.parked.insert(dpid, shadow),
        }
    }

    /// `node`'s switch removed an entry under `cookie` for `reason`.
    /// Unless it was deleted — deletions the controller ordered are
    /// folded in when acknowledged — the shadow loses it; returns
    /// whether what the shadow lists changed.
    pub(crate) fn removed(&mut self, node: NodeId, cookie: u64, reason: RemovedReason) -> bool {
        let session = self.sessions.get_mut(node);
        let removed = ShadowOp::Removed(cookie);
        reason != RemovedReason::Delete && session.is_some_and(|s| removed.apply(&mut s.shadow))
    }

    /// `node`'s switch resyncs: it reports `generation`, the mods it has
    /// applied since boot, and what it `held`, per cookie. The verdict
    /// is clean if the shadow lists that and the switch has not
    /// restarted: its unacked mods stay pending and retransmit.
    /// Otherwise they, and the bases, were computed against a stale
    /// world: they are superseded, and the report becomes the shadow.
    /// Returns whether it was clean.
    pub(crate) fn resync(&mut self, node: NodeId, generation: u64, held: &[CookieCount]) -> bool {
        let Some(session) = self.sessions.get_mut(node) else {
            return true;
        };
        // Fewer than it is known to have applied: a switch that
        // restarted, and holds nothing of what it held — groups
        // included, which the cookie digest does not see.
        let restarted = generation < std::mem::replace(&mut session.generation, generation);
        if !restarted && listed(&session.shadow).eq(held.iter().copied()) {
            return true;
        }
        session.supersede(&mut self.ends);
        session.shadow = shadow_of(held);
        false
    }

    /// `dpid`'s switch is another replica's to program now. Its pending
    /// mods were issued under the lapsed mastership and are superseded;
    /// its doomed groups are the new master's to delete.
    pub(crate) fn step_down(&mut self, dpid: Dpid) {
        let node = self.registry.get(&dpid);
        if let Some(session) = node.and_then(|&node| self.sessions.get_mut(node)) {
            session.supersede(&mut self.ends);
            session.doomed.clear();
        }
    }

    /// `from`'s switch bounced a mod with an ERROR whose bytes, `data`,
    /// carry the mod's xid: it ends as `end` — failed for TABLE_FULL
    /// (resending cannot create capacity), superseded for a NOT_MASTER
    /// after stepping down (it is the new master's world now).
    pub(crate) fn bounce(&mut self, from: NodeId, data: &[u8], end: End) {
        let (Ok(xid), Some(session)) = (data.try_into(), self.sessions.get_mut(from)) else {
            return;
        };
        let xid = u32::from_be_bytes(xid);
        if let Ok(i) = session.pending.binary_search_by_key(&xid, |p| p.xid) {
            session.abandon(i);
            self.ends.push((xid, end));
        }
    }

    pub(crate) fn session_mut(&mut self, node: NodeId) -> Option<&mut Session> {
        self.sessions.get_mut(node)
    }

    /// Every session, in ascending node order.
    pub(crate) fn sessions_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut Session)> {
        self.sessions.iter_mut()
    }

    /// The base of `cookie`'s program on `node`'s switch, if known.
    pub(crate) fn base(&self, node: NodeId, cookie: u64) -> Option<&ProgramBase> {
        self.sessions.get(node)?.bases.get(&cookie)
    }

    /// Record what `node`'s switch holds under `cookie` once the mods
    /// just tracked for that program have landed. The groups in `left`
    /// — held before, in no program now — are doomed from `now`; one
    /// the program holds again is reprieved.
    pub(crate) fn rebase(
        &mut self,
        node: NodeId,
        cookie: u64,
        base: ProgramBase,
        left: Vec<u32>,
        now: Instant,
    ) {
        let Some(session) = self.sessions.get_mut(node) else {
            return;
        };
        session
            .doomed
            .retain(|d| base.group(d.0, usize::MAX).is_none());
        session.doomed.extend(left.into_iter().map(|id| (id, now)));
        session.bases.insert(cookie, base);
    }

    /// The groups doomed for [`GROUP_HOLD`] by `now`, with their
    /// switches, on sessions `live` accepts; they are doomed no more.
    pub(crate) fn condemned(
        &mut self,
        now: Instant,
        live: impl Fn(Dpid) -> bool,
    ) -> Vec<(Dpid, u32)> {
        let mut out = Vec::new();
        for (_, session) in self.sessions.iter_mut().filter(|(_, s)| live(s.dpid)) {
            let dpid = session.dpid;
            session.doomed.retain(|&(id, since)| {
                let due = now.duration_since(since) >= GROUP_HOLD;
                if due {
                    out.push((dpid, id));
                }
                !due
            });
        }
        out
    }

    /// A buffer for the next mod to be tracked: one an acknowledged mod
    /// left behind, where one is kept, else an empty one the writer
    /// allocates once, at its frame's size class ([`Body::Tracked`]).
    pub(crate) fn spare(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    /// Start tracking `msg`, just sent to `node` as `xid` and encoded —
    /// the only time it ever is — into `bytes`, which the session keeps
    /// to resend. `program` marks a step of a reconciled program. The
    /// caller found `node` in the registry, which names only opened
    /// sessions.
    pub(crate) fn track(
        &mut self,
        node: NodeId,
        xid: u32,
        msg: &Message,
        bytes: Vec<u8>,
        program: bool,
        now: Instant,
    ) {
        let soft = matches!(msg, Message::FlowMod { cmd: FlowModCmd::Add(spec), .. }
            if !program && spec.idle_timeout | spec.hard_timeout != 0);
        let session = self.sessions.get_mut(node);
        let session = session.expect("the registry names only opened sessions");
        session.unfenced += 1;
        if session.unfenced == 1 {
            session.unfenced_since = now;
            self.unfenced_sessions += 1;
        }
        if !(soft && session.unfenced < FENCE_BURST) && self.dirty.last() != Some(&node) {
            self.dirty.push(node);
        }
        debug_assert!(session.pending.back().is_none_or(|p| p.xid < xid));
        session.pending.push_back(PendingMod {
            xid,
            bytes,
            shadow: ShadowOp::of(msg),
            program,
            sent_at: now,
            retries: 0,
        });
    }

    /// Have the next flush fence every session whose oldest unfenced
    /// mod was sent `age` before `now`; returns how long the oldest one
    /// left unfenced has waited.
    pub(crate) fn fence_aged(&mut self, now: Instant, age: Duration) -> Option<Duration> {
        let mut left = None;
        for (node, session) in self.sessions.iter().filter(|s| s.1.unfenced > 0) {
            let waited = now.duration_since(session.unfenced_since);
            if waited >= age {
                self.dirty.push(node);
            } else {
                left = left.max(Some(waited));
            }
        }
        left
    }

    /// Fence every session marked since the last flush, in ascending
    /// node order: one BARRIER_REQUEST naming all its currently unacked
    /// mods, handed to `write`, which returns the xid it took. The reply
    /// proves everything before it was applied.
    pub(crate) fn flush_barriers(
        &mut self,
        mut write: impl FnMut((NodeId, Dpid), Body<'_>) -> u32,
    ) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        for node in self.dirty.drain(..) {
            let Some(session) = self.sessions.get_mut(node) else {
                continue;
            };
            self.unfenced_sessions -= usize::from(std::mem::take(&mut session.unfenced) > 0);
            let Some(last) = session.pending.back() else {
                continue;
            };
            let mut covered = session.pending.iter().map(|p| p.xid);
            let xid = write((node, session.dpid), Body::Barrier(&mut covered));
            session.barriers.push((xid, last.xid));
        }
    }

    /// A BARRIER_REPLY from `from`: retire the covered mods the switch
    /// confirmed, oldest first, folding each into the session's shadow,
    /// acknowledged; returns the session's dpid if any moved what the
    /// shadow lists.
    ///
    /// Only an in-order prefix is retired. Mods apply in transmission
    /// order, so if an earlier mod is still in flight (say a lost
    /// cookie-delete), a later already-applied mod must stay pending:
    /// the retransmit path then replays it *after* the missing one.
    /// Retiring it here would let the delete land last and silently
    /// wipe state the shadow believes installed.
    ///
    /// The switch lists what it applied in the order the fence named
    /// it, which is queue order, so each head is first looked for at
    /// the index just past where the last one was found: a reply in
    /// queue order retires its whole list in one pass. A list in any
    /// other order (or naming xids twice, or ones that are not this
    /// session's) costs a search of the list per head that is not
    /// where expected, nothing else.
    pub(crate) fn barrier_reply(
        &mut self,
        from: NodeId,
        xid: u32,
        applied: XidList<'_>,
    ) -> Option<Dpid> {
        let session = self.sessions.get_mut(from)?;
        let at = session.barriers.iter().position(|b| b.0 == xid)?;
        let (_, covered) = session.barriers.remove(at);
        let before = session.pending.len();
        let mut shadow_moved = false;
        // Where the next head sits in a list that kept queue order.
        let mut next = 0;
        while let Some(head) = session.pending.front().filter(|p| p.xid <= covered) {
            let at = match applied.get(next) {
                Some(x) if x == head.xid => Some(next),
                _ => applied.iter().position(|x| x == head.xid),
            };
            let Some(at) = at else {
                break;
            };
            next = at + 1;
            let mut p = session.pending.pop_front().expect("front checked");
            self.ends.push((p.xid, End::Acked(session.dpid)));
            if let Some(op) = p.shadow {
                shadow_moved |= op.apply(&mut session.shadow);
            }
            if self.spare.len() < SPARE_BUFFERS && p.bytes.capacity() <= SPARE_BUFFER_MAX {
                p.bytes.clear();
                self.spare.push(p.bytes);
            }
        }
        let retired = before - session.pending.len();
        session.generation += retired as u64;
        shadow_moved.then_some(session.dpid)
    }

    /// A peer replica may have programmed `dpid`'s switch since this
    /// controller last did. Whoever did worked from the same inventory,
    /// so the flow half stands (the cookie digest of a resync would
    /// show otherwise); the groups follow the view and may have been
    /// pointed anywhere. Forget what each base says of them: the next
    /// reconcile re-asserts every one, which replaces it in place.
    pub(crate) fn distrust_groups(&mut self, dpid: Dpid) {
        let bases = self.by_dpid(dpid).map(|s| s.bases.values_mut());
        bases.into_iter().flatten().for_each(|b| b.groups.clear());
    }

    /// Resend unacked mods sent `timeout` before `now` or earlier, and
    /// with each every mod queued behind it, oldest xid first over all
    /// sessions, handing each to `write`; abandon ones already resent
    /// `max_retries` times, failed. Mods to switches `quarantined` names
    /// wait (the resync handshake decides their fate when the switch
    /// returns). Then forget barriers with nothing left to ack: a reply
    /// to one would find no mod at or below its mark.
    ///
    /// A program mod that never landed leaves its switch short of the
    /// program the controller believed it was getting. Such a session
    /// gives up on its other program mods on the spot, superseded, and
    /// the switches are returned for their apps to rebuild.
    pub(crate) fn retransmit_scan(
        &mut self,
        now: Instant,
        quarantined: impl Fn(Dpid) -> bool,
        timeout: Duration,
        max_retries: u32,
        mut write: impl FnMut((NodeId, Dpid), Body<'_>) -> u32,
    ) -> Vec<Dpid> {
        let mut due: Vec<(u32, NodeId)> = Vec::new();
        for (node, session) in self.sessions.iter() {
            if quarantined(session.dpid) {
                continue;
            }
            // The queue replays from its first overdue mod on: what
            // follows it was sent after it and must land after it, or
            // the switch stops vouching for it (`AppliedXids`).
            let overdue = |p: &PendingMod| now.duration_since(p.sent_at) >= timeout;
            let from = session.pending.iter().position(overdue);
            let replay = session.pending.iter().skip(from.unwrap_or(usize::MAX));
            due.extend(replay.map(|p| (p.xid, node)));
        }
        due.sort_unstable();
        let mut short = Vec::new();
        for (xid, node) in due {
            let session = self.sessions.get_mut(node).expect("collected above");
            // Gone already if a sibling's failure distrusted the session.
            let Ok(i) = session.pending.binary_search_by_key(&xid, |p| p.xid) else {
                continue;
            };
            let dpid = session.dpid;
            let p = &mut session.pending[i];
            if p.retries >= max_retries {
                self.ends.push((xid, End::Failed));
                if session.abandon(i) {
                    session.give_up_programs(&mut self.ends);
                    short.push(dpid);
                }
                continue;
            }
            p.retries += 1;
            p.sent_at = now;
            write((node, dpid), Body::Resent(&p.bytes));
            self.dirty.push(node);
        }
        for (_, session) in self.sessions.iter_mut() {
            let oldest = session.pending.front().map(|p| p.xid);
            session
                .barriers
                .retain(|&(_, covered)| oldest.is_some_and(|x| x <= covered));
        }
        short
    }
}

#[cfg(test)]
mod tests {
    use zen_dataplane::{FlowMatch, FlowSpec, PortNo};
    use zen_proto::{decode, decode_view, encode, encode_into, frames, MessageView};
    use zen_sim::Metrics;
    use zen_telemetry::Recorder;

    use super::*;
    use crate::agent::{SwitchAgent, SwitchIo};
    use crate::ControlIo;

    /// A writer that numbers what it is handed the way the controller's
    /// does, and keeps each frame: its node, xid and message.
    struct Wire {
        next: u32,
        sent: Vec<(NodeId, u32, Message)>,
    }

    impl Wire {
        fn new(next: u32) -> Wire {
            let sent = Vec::new();
            Wire { next, sent }
        }

        fn write(&mut self, (node, _): (NodeId, Dpid), mut body: Body<'_>) -> u32 {
            let mut xid = 0;
            if body.numbered() {
                xid = self.next;
                self.next += 1;
            }
            let mut bytes = Vec::new();
            body.put(&mut bytes, xid);
            let (msg, xid, _) = decode(&bytes).expect("one whole frame");
            self.sent.push((node, xid, msg));
            xid
        }

        /// What `node` was sent, in order.
        fn to(&self, node: NodeId) -> Vec<(u32, Message)> {
            let sent = self.sent.iter().filter(|(to, ..)| *to == node);
            sent.map(|(_, xid, msg)| (*xid, msg.clone())).collect()
        }

        /// The fences `node` was sent: each one's xid and list.
        fn barriers(&self, node: NodeId) -> Vec<(u32, Vec<u32>)> {
            let fences = self.to(node).into_iter();
            let fences = fences.filter_map(|(xid, msg)| match msg {
                Message::BarrierRequest { xids } => Some((xid, xids)),
                _ => None,
            });
            fences.collect()
        }
    }

    /// Flush the fences through `wire`.
    fn fence(sb: &mut Southbound, wire: &mut Wire) {
        sb.flush_barriers(|to, body| wire.write(to, body));
    }

    /// A retransmit scan through `wire` at `now`, with a 150 ms timeout
    /// and dpid 8 quarantined: the switches it left short, the mods it
    /// ended, and how many it resent.
    fn scan(
        sb: &mut Southbound,
        wire: &mut Wire,
        now: Instant,
        max_retries: u32,
    ) -> (Vec<Dpid>, Vec<(u32, End)>, usize) {
        let before = wire.sent.len();
        let timeout = Duration::from_millis(150);
        let short = sb.retransmit_scan(
            now,
            |dpid| dpid == 8,
            timeout,
            max_retries,
            |to, body| wire.write(to, body),
        );
        (short, sb.ends().collect(), wire.sent.len() - before)
    }

    /// The dpid `node`'s switch gives at its handshake: 7 for `A`, 17
    /// for `B`.
    fn dpid(node: NodeId) -> Dpid {
        7 + 10 * u64::from(node.0)
    }

    fn add(cookie: u64) -> Message {
        Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::Add(FlowSpec::new(1, FlowMatch::ANY, vec![]).with_cookie(cookie)),
        }
    }

    /// Track `msg`, sent to `node` as `xid` at `now`, the way the
    /// controller's writer leaves it to the session.
    fn track(
        sb: &mut Southbound,
        node: NodeId,
        xid: u32,
        msg: &Message,
        program: bool,
        now: Instant,
    ) {
        let mut bytes = sb.spare();
        encode_into(&mut bytes, msg, xid);
        sb.track(node, xid, msg, bytes, program, now);
    }

    /// Send `msg` as `xid` to `node` at `now`, shaken hands with first
    /// if this is the first, the way `Ctl::send` does.
    fn send(
        sb: &mut Southbound,
        wire: &mut Wire,
        node: NodeId,
        xid: u32,
        msg: &Message,
        now: Instant,
    ) {
        sb.open(node, dpid(node), now);
        track(sb, node, xid, msg, false, now);
        wire.sent.push((node, xid, msg.clone()));
    }

    /// `barrier_reply` as the controller calls it: on the list of a
    /// BARRIER_REPLY naming `applied`, read where it was received. Also
    /// the xids it acknowledged, each of them `from`'s.
    fn reply(
        sb: &mut Southbound,
        from: NodeId,
        xid: u32,
        applied: &[u32],
    ) -> (Option<Dpid>, Vec<u32>) {
        let applied = applied.to_vec();
        let wire = encode(&Message::BarrierReply { applied }, xid);
        let Ok((MessageView::BarrierReply { applied }, ..)) = decode_view(&wire) else {
            panic!("a BARRIER_REPLY decodes to its view");
        };
        let moved = sb.barrier_reply(from, xid, applied);
        let acked = sb.ends().map(|(xid, end)| {
            assert_eq!(end, End::Acked(dpid(from)));
            xid
        });
        (moved, acked.collect())
    }

    /// What a real switch answers with, driven without a world: the
    /// bytes it writes. It has no ports, and its frames and timers go
    /// nowhere.
    #[derive(Default)]
    struct Answers {
        bytes: Vec<u8>,
        recorder: Recorder,
        metrics: Metrics,
    }

    impl ControlIo for Answers {
        fn send_control_with(&mut self, _: NodeId, put: &mut dyn FnMut(&mut Vec<u8>)) {
            put(&mut self.bytes);
        }
        fn set_timer(&mut self, _: Duration, _: u64) {}
        fn recorder(&self) -> &Recorder {
            &self.recorder
        }
        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }
    }

    impl SwitchIo for Answers {
        fn transmit(&mut self, _: PortNo, _: Vec<u8>) {}
        fn ports(&self) -> Vec<PortNo> {
            Vec::new()
        }
        fn port_up(&self, _: PortNo) -> bool {
            false
        }
    }

    /// The node the real switches are homed to.
    const CONTROLLER: NodeId = NodeId(9);

    /// Deliver to `switch`, `node`'s real agent, what `wire` sent `node`
    /// past its first `skip` frames, as one delivery at `now`. Each
    /// BARRIER_REPLY it answers goes to `barrier_reply` as the
    /// controller hands it; returned are the xids acknowledged, each
    /// `node`'s.
    fn relay(
        sb: &mut Southbound,
        wire: &Wire,
        (node, switch): (NodeId, &mut SwitchAgent),
        skip: usize,
        now: Instant,
    ) -> Vec<u32> {
        let mut bytes = Vec::new();
        for (xid, msg) in wire.to(node).iter().skip(skip) {
            encode_into(&mut bytes, msg, *xid);
        }
        let mut answers = Answers::default();
        switch.control(now, CONTROLLER, &bytes, &mut answers);
        let mut acked = Vec::new();
        for frame in frames(&answers.bytes) {
            if let Ok((MessageView::BarrierReply { applied }, xid)) = frame {
                sb.barrier_reply(node, xid, applied);
                acked.extend(sb.ends().map(|(xid, end)| {
                    assert_eq!(end, End::Acked(dpid(node)));
                    xid
                }));
            }
        }
        acked
    }

    /// A bounce of `xid` from `node`, its xid in the ERROR's bytes.
    fn bounce(sb: &mut Southbound, node: NodeId, xid: u32, end: End) -> Vec<(u32, End)> {
        sb.bounce(node, &xid.to_be_bytes(), end);
        sb.ends().collect()
    }

    /// The switches the tests talk to, and the times their steps run at.
    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);
    fn at(step: u64) -> Instant {
        Instant::from_millis(100 * step)
    }

    /// What a message does, in a word.
    fn kind(msg: &Message) -> String {
        match msg {
            Message::GroupMod { group_id, cmd } => match cmd {
                GroupModCmd::Add(_) => format!("group {group_id}"),
                GroupModCmd::Delete => format!("no group {group_id}"),
            },
            Message::FlowMod { cmd, .. } => match cmd {
                FlowModCmd::Add(_) => "flow".to_string(),
                _ => "wipe".to_string(),
            },
            other => format!("{other:?}"),
        }
    }

    /// A program of SELECT groups `id -> ports` whose flow half stamps
    /// `flows`: its hashes, the messages from `base` to it, and the
    /// groups it leaves behind.
    fn step(
        base: Option<&ProgramBase>,
        flows: u64,
        groups: &[(u32, &[PortNo])],
    ) -> (ProgramBase, Vec<String>, Reconciled, Vec<u32>) {
        let select = |ports: &[PortNo]| GroupDesc {
            group_type: zen_dataplane::GroupType::Select,
            buckets: ports
                .iter()
                .map(|&p| zen_dataplane::Bucket::output(p))
                .collect(),
        };
        let groups: Vec<_> = groups.iter().map(|&(id, p)| (id, select(p))).collect();
        let desired = ProgramBase::of(flows, &groups);
        let render = || vec![FlowSpec::new(1, FlowMatch::ANY, vec![]).with_cookie(9)];
        let (msgs, sent, left) = delta(base, &desired, 9, groups, render);
        (desired, msgs.iter().map(kind).collect(), sent, left)
    }

    /// The diff a reconcile sends, and the fix for the groups that used
    /// to leak: an id the program no longer holds is doomed, deleted
    /// once it has been out of every program for the hold, and
    /// reprieved if a program takes it back first.
    #[test]
    fn delta_sends_what_differs_and_dooms_what_left() {
        // Nothing known of the switch: the full load.
        let (held, msgs, sent, left) = step(None, 7, &[(1, &[1, 2]), (2, &[3]), (3, &[4])]);
        assert_eq!(msgs, ["wipe", "group 1", "group 2", "group 3", "flow"]);
        assert_eq!((sent.mods, sent.flows, sent.full), (5, 1, true));
        assert!(left.is_empty());

        // Group 1 re-pointed, 2 as it was, 3 left the program.
        let wanted: [(u32, &[PortNo]); 2] = [(1, &[2]), (2, &[3])];
        let (next, msgs, sent, left) = step(Some(&held), 7, &wanted);
        assert_eq!((msgs, left), (vec!["group 1".to_string()], vec![3]));
        assert_eq!((sent.mods, sent.flows, sent.full), (1, 0, false));
        // The same groups listed the other way round: another stamp,
        // nothing to send.
        let (swapped, msgs, ..) = step(Some(&next), 7, &[wanted[1], wanted[0]]);
        assert!(msgs.is_empty() && swapped.stamp() != next.stamp());
        // The flow half moved too: the one full load.
        let (_, msgs, sent, left) = step(Some(&held), 8, &wanted);
        assert_eq!(msgs, ["wipe", "group 1", "group 2", "flow"]);
        assert!(sent.full && left == [3]);
        // What the base says of the groups forgotten: each re-asserted.
        let mut suspect = next.clone();
        suspect.groups.clear();
        assert_eq!(step(Some(&suspect), 7, &wanted).1, ["group 1", "group 2"]);

        // Group 3 is deleted when it has been out of the program for
        // the hold, on a session that is live — not before, and not
        // if a program holds it again by then.
        let mut sb = Southbound::default();
        let (node, t0) = (NodeId(4), Instant::from_secs(10));
        sb.open(node, 7, t0);
        sb.rebase(node, 9, next.clone(), vec![3], t0);
        let early = t0 + Duration::from_millis(999);
        assert!(sb.condemned(early, |_| true).is_empty());
        assert!(sb.condemned(t0 + GROUP_HOLD, |_| false).is_empty());
        assert_eq!(sb.condemned(t0 + GROUP_HOLD, |_| true), [(7, 3)]);
        assert!(sb.condemned(t0 + GROUP_HOLD, |_| true).is_empty());
        sb.rebase(node, 9, next, vec![3], t0);
        sb.rebase(node, 9, held, vec![], t0 + Duration::from_millis(500));
        assert!(sb.condemned(t0 + GROUP_HOLD, |_| true).is_empty());
    }

    #[test]
    fn barrier_retires_only_an_in_order_prefix() {
        let (mut sb, mut wire, now) = (Southbound::default(), Wire::new(50), at(1));
        for xid in [10, 11, 12] {
            send(&mut sb, &mut wire, A, xid, &add(u64::from(xid)), now);
        }
        fence(&mut sb, &mut wire);
        fence(&mut sb, &mut wire); // nothing new: no second fence
        assert_eq!((wire.next, wire.barriers(A).len()), (51, 1));

        // 11 never arrived; the switch lists what did, in any
        // order, twice over, with xids that are nobody's here.
        let listed = [12, 999, 10, 12, 10];
        let (dpid, acked) = reply(&mut sb, A, 50, &listed);
        assert_eq!((dpid, acked, sb.pending_mods()), (Some(7), vec![10], 2));
        // A barrier answers once, and only to the switch it fenced.
        assert_eq!(reply(&mut sb, A, 50, &[11]), (None, vec![]));
        assert_eq!(reply(&mut sb, NodeId(9), 51, &[11]), (None, vec![]));

        // The next fence covers the survivors and the newcomer; a
        // bounced mod in the middle is not a gap.
        send(&mut sb, &mut wire, A, 13, &add(13), now);
        fence(&mut sb, &mut wire);
        assert_eq!(bounce(&mut sb, A, 12, End::Failed), [(12, End::Failed)]);
        assert_eq!(bounce(&mut sb, A, 12, End::Failed), []);
        let (moved, _) = reply(&mut sb, A, 51, &[13, 12, 11]);
        assert_eq!(moved, Some(7), "an add moves the shadow");
        let shadow = &sb.sessions.get(A).expect("opened").shadow;
        assert_eq!(*shadow, BTreeMap::from([(10, 1), (11, 1), (13, 1)]));
        assert_eq!(sb.pending_mods(), 0);

        // A fence covers what was pending when it went out: a
        // reply naming a later mod does not retire it.
        send(&mut sb, &mut wire, A, 14, &add(14), now);
        fence(&mut sb, &mut wire);
        send(&mut sb, &mut wire, A, 15, &add(15), now);
        let (_, acked) = reply(&mut sb, A, 52, &[14, 15]);
        assert_eq!((acked, sb.pending_mods()), (vec![14], 1));

        assert_eq!(
            wire.barriers(A),
            vec![
                (50, vec![10, 11, 12]),
                (51, vec![11, 12, 13]),
                (52, vec![14])
            ]
        );
    }

    /// A fence of 4 096 mods answered in queue order retires all of
    /// them; a reply shuffled, repeating xids, naming foreign ones or
    /// missing some retires exactly the prefix that looking for each
    /// head in the whole list would.
    #[test]
    fn a_reply_retires_the_prefix_a_naive_search_would() {
        let (mut sb, mut wire, now) = (Southbound::default(), Wire::new(1 << 20), at(1));
        for xid in 1..=4096 {
            send(&mut sb, &mut wire, A, xid, &add(u64::from(xid)), now);
        }
        fence(&mut sb, &mut wire);
        let [(fence_xid, listed)] = &wire.barriers(A)[..] else {
            panic!("one fence");
        };
        let (_, acked) = reply(&mut sb, A, *fence_xid, listed);
        assert_eq!((acked, sb.pending_mods()), (listed.clone(), 0));

        let mut rng = zen_wire::lcg::Lcg::new(0xba441e5);
        for case in 0..500 {
            let (mut sb, mut wire) = (Southbound::default(), Wire::new(1 << 20));
            let n = 1 + rng.gen_index(40) as u32;
            for xid in 100..100 + n {
                send(&mut sb, &mut wire, A, xid, &add(u64::from(xid)), now);
            }
            fence(&mut sb, &mut wire);
            let (fence_xid, mut applied) = wire.barriers(A).remove(0);
            // Lose some, repeat some, name some nobody sent, then swap
            // a few pairs.
            applied.retain(|_| !rng.gen_ratio(1, 12));
            for _ in 0..rng.gen_index(4) {
                if let Some(&again) = rng.choose(&applied) {
                    let at = rng.gen_index(applied.len() + 1);
                    applied.insert(at, again);
                }
            }
            for _ in 0..rng.gen_index(3) {
                let at = rng.gen_index(applied.len() + 1);
                applied.insert(at, 10_000 + rng.next_u32() % 100);
            }
            for _ in 0..rng.gen_index(3) {
                if !applied.is_empty() {
                    let (i, j) = (rng.gen_index(applied.len()), rng.gen_index(applied.len()));
                    applied.swap(i, j);
                }
            }
            let naive: Vec<u32> = (100..100 + n)
                .take_while(|xid| applied.contains(xid))
                .collect();
            let (_, acked) = reply(&mut sb, A, fence_xid, &applied);
            assert_eq!(acked, naive, "case {case}: {applied:?}");
            assert_eq!(sb.pending_mods(), (n as usize) - naive.len(), "case {case}");
        }
    }

    /// A flow add that times out: soft state.
    fn soft(cookie: u64) -> Message {
        let spec = FlowSpec::new(1, FlowMatch::ANY, vec![]).with_timeouts(20_000_000, 0);
        let cmd = FlowModCmd::Add(spec.with_cookie(cookie));
        Message::FlowMod { table_id: 0, cmd }
    }

    /// Soft mods ride unfenced until the session has a burst of them;
    /// one hard mod, or someone waiting, has the session fenced in the
    /// same dispatch; a fence names everything pending either way.
    #[test]
    fn soft_state_is_fenced_by_the_burst_or_with_hard_state() {
        let (mut sb, mut wire, now) = (Southbound::default(), Wire::new(50), at(1));
        for xid in 10..17 {
            send(&mut sb, &mut wire, A, xid, &soft(1), now);
        }
        fence(&mut sb, &mut wire);
        let fenced = |wire: &Wire| wire.barriers(A).len();
        assert_eq!((wire.next, fenced(&wire), sb.unfenced_sessions), (50, 0, 1));
        // The eighth brings the fence, for all eight.
        send(&mut sb, &mut wire, A, 17, &soft(1), now);
        fence(&mut sb, &mut wire);
        assert_eq!((wire.next, fenced(&wire), sb.unfenced_sessions), (51, 1, 0));
        let all: Vec<u32> = (10..18).collect();
        let (_, acked) = reply(&mut sb, A, 50, &all);
        assert_eq!((acked.len(), sb.pending_mods()), (8, 0));

        // A hard mod behind three soft ones: all four, at once.
        for xid in 20..23 {
            send(&mut sb, &mut wire, A, xid, &soft(1), now);
        }
        send(&mut sb, &mut wire, A, 23, &add(2), now);
        fence(&mut sb, &mut wire);
        // A step of a program is hard whatever its timeouts.
        track(&mut sb, A, 24, &soft(3), true, now);
        fence(&mut sb, &mut wire);
        // Someone waits on an ack (a two-phase transaction is
        // outstanding): what would have ridden is fenced at once.
        send(&mut sb, &mut wire, A, 25, &soft(1), now);
        assert_eq!(sb.fence_aged(now, Duration::ZERO), None);
        fence(&mut sb, &mut wire);
        assert_eq!((wire.next, sb.unfenced_sessions), (54, 0));

        assert_eq!(
            wire.barriers(A),
            vec![
                (50, (10..18).collect()),
                (51, vec![20, 21, 22, 23]),
                (52, vec![20, 21, 22, 23, 24]),
                (53, vec![20, 21, 22, 23, 24, 25]),
            ]
        );
    }

    /// The fence interval: a session is marked when its oldest unfenced
    /// mod has waited that long, and the caller is told how long the
    /// oldest one left has, to come back for it.
    #[test]
    fn soft_state_is_fenced_when_it_has_waited_the_interval() {
        let interval = Duration::from_millis(100);
        let (mut sb, mut wire) = (Southbound::default(), Wire::new(100));
        let fence = |sb: &mut Southbound, wire: &mut Wire, now| {
            let left = sb.fence_aged(now, interval);
            wire.next = 100;
            fence(sb, wire);
            (left, sb.unfenced_sessions)
        };
        send(&mut sb, &mut wire, A, 1, &soft(1), at(1));
        assert_eq!(fence(&mut sb, &mut wire, at(1)), (Some(Duration::ZERO), 1));
        send(&mut sb, &mut wire, A, 2, &soft(1), at(2));
        send(&mut sb, &mut wire, B, 3, &soft(1), at(2));
        assert_eq!(fence(&mut sb, &mut wire, at(2)), (Some(Duration::ZERO), 1));
        assert_eq!(fence(&mut sb, &mut wire, at(3)), (None, 0));
        assert_eq!(wire.barriers(A), vec![(100, vec![1, 2])]);
        assert_eq!(wire.barriers(B), vec![(100, vec![3])]);
    }

    /// A fence over a burst of soft mods is lost: the queue is replayed
    /// once when its head comes due, fenced again, and acknowledged.
    #[test]
    fn a_lost_fence_costs_one_replay_of_its_queue() {
        let (mut sb, mut wire) = (Southbound::default(), Wire::new(100));
        for xid in 1..9 {
            send(&mut sb, &mut wire, A, xid, &soft(1), at(1));
        }
        fence(&mut sb, &mut wire);

        let (short, ended, resent) = scan(&mut sb, &mut wire, at(3), 8);
        fence(&mut sb, &mut wire);
        assert_eq!((resent, ended.len()), (8, 0));
        assert!(short.is_empty());
        let all: Vec<u32> = (1..9).collect();
        let (moved, acked) = reply(&mut sb, A, 101, &all);
        assert_eq!(moved, Some(7));
        assert_eq!((acked.len(), sb.pending_mods()), (8, 0));

        assert_eq!(
            wire.barriers(A),
            vec![(100, all.clone()), (101, all.clone())]
        );
        let received = wire.to(A);
        let mods = received
            .iter()
            .filter(|(_, m)| matches!(m, Message::FlowMod { .. }));
        let sent: Vec<u32> = mods.map(|&(xid, _)| xid).collect();
        assert_eq!(sent, [all.clone(), all].concat());
    }

    /// An acknowledged mod's buffer serves the next mod tracked, on any
    /// session, and holds that mod only: what is resent from it is the
    /// new mod, whole, however long the old one was.
    #[test]
    fn a_reused_buffer_resends_only_its_own_mod() {
        let long = Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::Add(
                FlowSpec::new(1, FlowMatch::ANY.with_l4_dst(53), vec![]).with_cookie(1),
            ),
        };
        let short = Message::GroupMod {
            group_id: 3,
            cmd: GroupModCmd::Delete,
        };
        let (mut sb, mut wire, now) = (Southbound::default(), Wire::new(100), at(1));
        send(&mut sb, &mut wire, A, 1, &long, now);
        send(&mut sb, &mut wire, A, 2, &add(2), now);
        fence(&mut sb, &mut wire);
        // Bounced from the middle of the queue, then the
        // head acknowledged: one buffer comes back.
        assert_eq!(bounce(&mut sb, A, 2, End::Failed), [(2, End::Failed)]);
        assert_eq!(reply(&mut sb, A, 100, &[1]), (Some(7), vec![1]));
        assert_eq!((sb.pending_mods(), sb.spare.len()), (0, 1));
        let held = sb.spare[0].capacity();
        send(&mut sb, &mut wire, B, 3, &short, now);
        assert!(sb.spare.is_empty(), "the spare buffer is in use");
        let reused = &sb.sessions.get(B).expect("opened").pending[0].bytes;
        assert_eq!((reused.capacity(), reused.len()), (held, 15));

        let (_, failed, resent) = scan(&mut sb, &mut wire, at(3), 1);
        assert_eq!((resent, failed), (1, vec![]));
        assert_eq!(wire.to(A)[0], (1, long));
        let second = wire.to(B);
        let resent: Vec<_> = second.iter().filter(|(xid, _)| *xid == 3).collect();
        assert_eq!(resent, [&(3, short.clone()), &(3, short)]);
    }

    #[test]
    fn retransmit_resends_then_gives_up_in_xid_order() {
        let (mut sb, mut wire, now) = (Southbound::default(), Wire::new(100), at(1));
        send(&mut sb, &mut wire, A, 1, &add(1), now);
        send(&mut sb, &mut wire, B, 2, &add(2), now);
        send(&mut sb, &mut wire, A, 3, &add(3), now);
        // A quarantined switch's mods wait for its resync.
        sb.open(NodeId(9), 8, now);
        track(&mut sb, NodeId(9), 4, &add(4), false, now);
        fence(&mut sb, &mut wire);
        let mut scan = |at| {
            let (short, ended, resent) = scan(&mut sb, &mut wire, at, 1);
            assert!(short.is_empty(), "no program mod among them");
            let failed = ended.iter().map(|&(xid, end)| {
                assert_eq!(end, End::Failed);
                xid
            });
            (failed.collect::<Vec<_>>(), resent)
        };

        // 100 ms old: not due yet.
        assert_eq!(scan(at(2)), (vec![], 0));
        // 200 ms old: everything live is resent, once.
        assert_eq!(scan(at(3)), (vec![], 3));
        // 200 ms after the resend, out of retries: abandoned
        // oldest xid first whichever session holds it, and the
        // fences over them are forgotten.
        assert_eq!(scan(at(5)), (vec![1, 2, 3], 0));
        assert_eq!(sb.pending_mods(), 1);
        assert_eq!(reply(&mut sb, A, 100, &[1, 3]), (None, vec![]));

        let flow_mod_xids = |received: Vec<(u32, Message)>| -> Vec<u32> {
            let mods = received
                .into_iter()
                .filter(|(_, m)| matches!(m, Message::FlowMod { .. }));
            mods.map(|(xid, _)| xid).collect()
        };
        assert_eq!(flow_mod_xids(wire.to(A)), vec![1, 3, 1, 3]);
        assert_eq!(flow_mod_xids(wire.to(B)), vec![2, 2]);
    }

    impl Southbound {
        /// The dpids with a shadow parked for their handshake.
        pub(crate) fn parked(&self) -> impl Iterator<Item = Dpid> + '_ {
            self.parked.keys().copied()
        }
    }

    /// What a switch reports, or a peer replicates: `count` entries under
    /// `cookie`.
    fn held(cookie: u64, count: u32) -> Vec<CookieCount> {
        vec![CookieCount { cookie, count }]
    }

    /// Every way a tracked mod ends — acknowledged, out of retries, a
    /// dirty resync, a lost mastership, NOT_MASTER, TABLE_FULL — is
    /// listed once, as it is decided, and only once however often the
    /// deciding message comes again. A's acknowledgement is a real
    /// switch's answer to what the southbound wrote it; the frames to
    /// the other switches are lost.
    #[test]
    fn every_end_of_a_tracked_mod_is_settled_once() {
        let (mut sb, mut wire) = (Southbound::default(), Wire::new(100));
        let (c, d) = (NodeId(2), NodeId(3));
        // B's mod goes first, so that it alone is overdue at step 2.
        send(&mut sb, &mut wire, B, 1, &add(1), at(0));
        for (node, xid) in [(A, 2), (c, 3), (d, 4)] {
            send(&mut sb, &mut wire, node, xid, &add(u64::from(xid)), at(1));
        }
        fence(&mut sb, &mut wire);
        let mut switch_a = SwitchAgent::new(dpid(A), 1, CONTROLLER);
        let mut ended = Vec::new();
        for skip in 0..2 {
            // A's switch gets its mod and fence, then the fence alone
            // again: its reply lists 2, acknowledged once.
            let acked = relay(&mut sb, &wire, (A, &mut switch_a), skip, at(2));
            ended.extend(acked.into_iter().map(|xid| (xid, End::Acked(7))));
            // B's 1 is out of retries.
            ended.extend(scan(&mut sb, &mut wire, at(2), 0).1);
            // c resyncs dirty and its 3 is superseded; so is d's 4 when
            // this replica steps down as its master.
            sb.resync(c, 0, &held(9, 1));
            ended.extend(sb.ends());
            sb.step_down(dpid(d));
            ended.extend(sb.ends());
        }
        // Bounced: 5 after stepping down, 6 for want of table room.
        for (xid, end) in [(5, End::Superseded), (6, End::Failed)] {
            send(&mut sb, &mut wire, A, xid, &add(u64::from(xid)), at(2));
            for _ in 0..2 {
                ended.extend(bounce(&mut sb, A, xid, end));
            }
        }
        assert_eq!(
            ended,
            [
                (2, End::Acked(7)),
                (1, End::Failed),
                (3, End::Superseded),
                (4, End::Superseded),
                (5, End::Superseded),
                (6, End::Failed),
            ]
        );
        assert_eq!(sb.pending_mods(), 0);
    }

    /// The handshake, parked shadows and the two throttles, at the core:
    /// one dpid per node and one node per dpid; a reply from an open
    /// session is a port map only, however often it comes; a peer's
    /// shadow waits for the switch's handshake and meets its first
    /// resync clean; a re-solicit and a quarantined resync request go
    /// out at most once per interval.
    #[test]
    fn the_session_core_shakes_hands_once_and_throttles() {
        let mut sb = Southbound::default();
        let (c, stranger, t0) = (NodeId(2), NodeId(5), at(1));
        assert_eq!(sb.open(A, 7, t0), Opened::First);
        assert_eq!(sb.open(B, 7, t0), Opened::Refused, "a second claimant");
        assert_eq!(sb.open(A, 8, t0), Opened::Refused, "a second dpid");
        assert_eq!(sb.open(A, 7, t0), Opened::Repeat, "a port map only");
        assert_eq!(sb.open(A, 7, t0), Opened::Repeat);
        assert_eq!((sb.node(7), sb.node(8)), (Some(A), None));

        // Parked, adopted at the handshake, met clean.
        sb.shadow_set(17, &held(5, 3));
        assert_eq!(sb.parked().collect::<Vec<_>>(), [17]);
        assert_eq!(sb.shadow_cookies(17), held(5, 3));
        assert_eq!(sb.open(B, 17, t0), Opened::First);
        assert_eq!(sb.parked().count(), 0);
        assert!(sb.resync(B, 0, &held(5, 3)), "clean");
        // With nothing parked the same report diverges, and is taken
        // for the truth.
        assert_eq!(sb.open(c, 27, t0), Opened::First);
        assert!(!sb.resync(c, 0, &held(5, 3)), "dirty");
        assert_eq!(sb.shadow_cookies(27), held(5, 3));
        assert_eq!(sb.dpids().collect::<Vec<_>>(), [7, 17, 27]);

        // Throttles: once per interval, from the first.
        let every = Duration::from_millis(50);
        let just_short = at(1) + Duration::from_millis(49);
        let due = |sb: &mut Southbound, now| {
            let resync = sb.resync_due(A, now, every);
            (sb.resolicit(stranger, now, every), resync)
        };
        assert_eq!(due(&mut sb, at(1)), (true, true));
        assert_eq!(due(&mut sb, just_short), (false, false));
        assert_eq!(due(&mut sb, at(1) + every), (true, true));
        assert!(!sb.resync_due(stranger, at(9), every), "no session");
        // The stranger's handshake ends its throttle.
        assert_eq!(sb.open(stranger, 57, at(9)), Opened::First);
        assert!(sb.solicited.is_empty());

        // Last heard: A at 9, the rest at their handshakes.
        assert_eq!(sb.heard(A, at(9)), Some(7));
        assert_eq!(sb.heard(NodeId(6), at(9)), None);
        let silent: Vec<Dpid> = sb.silent(at(10), Duration::from_millis(150)).collect();
        assert_eq!(silent, [17, 27]);
    }
}
