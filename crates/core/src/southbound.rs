//! Southbound reliable delivery: one session per switch.
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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

use zen_consensus::{fnv1a_fold, CHAIN_SEED};
use zen_dataplane::{FlowSpec, GroupDesc};
use zen_proto::{encode_barrier_request_into, encode_into, FlowModCmd, Message};
use zen_sim::{Context, Duration, Instant, NodeId};

use crate::controller::CtlStats;
use crate::view::{Dpid, NetworkView};

/// What a barrier-acked mod does to the cookie shadow (cookie → entry
/// count believed installed).
///
/// The shadow is an approximation — strict deletes and replacing adds
/// can drift it — but drift only ever causes a *dirty* resync verdict,
/// which reprograms the switch: safe, merely less frugal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowOp {
    /// One more entry under this cookie.
    Add(u64),
    /// Every entry under this cookie is gone.
    DeleteByCookie(u64),
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

    /// Fold the op into one switch's shadow.
    pub(crate) fn apply(self, shadow: &mut BTreeMap<u64, u32>) {
        match self {
            ShadowOp::Add(cookie) => *shadow.entry(cookie).or_insert(0) += 1,
            ShadowOp::DeleteByCookie(cookie) => {
                shadow.remove(&cookie);
            }
        }
    }
}

/// FNV-1a as a [`Hasher`], so `#[derive(Hash)]` can drive it.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
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

    /// The program's stamp — what a master records through
    /// [`crate::controller::Ctl::set_program_stamp`] and a replica
    /// taking the switch over compares its own against: the fold of the
    /// per-entry hashes. Replicas run one binary and derive the program
    /// from the same replicated view, so equal programs stamp equal;
    /// any field a switch would forward differently under, and the
    /// order of the groups or of the flows, moves it.
    pub fn stamp(&self) -> u64 {
        stamp_of(self)
    }
}

/// A flow/group/meter mod awaiting barrier acknowledgement.
pub(crate) struct PendingMod {
    pub(crate) xid: u32,
    /// The encoded frame (original xid), resent verbatim on timeout.
    bytes: Vec<u8>,
    /// Applied to the cookie shadow once acked.
    pub(crate) shadow: Option<ShadowOp>,
    /// The cookie of the program this mod is a step of, if it is one:
    /// should it never land, that program's base is no longer true.
    program: Option<u64>,
    sent_at: Instant,
    retries: u32,
}

struct Session {
    dpid: Dpid,
    /// Unacked mods, oldest first (rising xid).
    pending: VecDeque<PendingMod>,
    /// Outstanding barriers: barrier xid → last mod xid it covers.
    barriers: BTreeMap<u32, u32>,
    /// What the switch holds once every pending mod has landed, per
    /// program cookie. An entry is dropped the moment that stops being
    /// known: one of the program's mods failed, or the session's mods
    /// were superseded.
    bases: BTreeMap<u64, ProgramBase>,
}

impl Session {
    fn new(dpid: Dpid) -> Session {
        Session {
            dpid,
            pending: VecDeque::new(),
            barriers: BTreeMap::new(),
            bases: BTreeMap::new(),
        }
    }

    /// Stop tracking the mod at `i`; its program's base goes with it.
    fn abandon(&mut self, i: usize) {
        if let Some(cookie) = self.pending.remove(i).and_then(|p| p.program) {
            self.bases.remove(&cookie);
        }
    }
}

/// Reliable delivery of state mods to every connected switch.
#[derive(Default)]
pub(crate) struct Southbound {
    sessions: BTreeMap<NodeId, Session>,
    /// Sessions with newly pending mods, awaiting a covering barrier.
    dirty: BTreeSet<NodeId>,
}

impl Southbound {
    /// Mods sent but not yet barrier-acknowledged, over all sessions.
    pub(crate) fn pending_mods(&self) -> usize {
        self.sessions.values().map(|s| s.pending.len()).sum()
    }

    /// The base of `cookie`'s program on `node`'s switch, if known.
    pub(crate) fn base(&self, node: NodeId, cookie: u64) -> Option<&ProgramBase> {
        self.sessions.get(&node)?.bases.get(&cookie)
    }

    /// Record what `node`'s switch holds under `cookie` once the mods
    /// just tracked for that program have landed.
    pub(crate) fn set_base(&mut self, node: NodeId, dpid: Dpid, cookie: u64, base: ProgramBase) {
        let session = self.sessions.entry(node);
        session
            .or_insert_with(|| Session::new(dpid))
            .bases
            .insert(cookie, base);
    }

    /// Start tracking a mod about to be sent to `node`: encode it — the
    /// only time it ever is — into the buffer the session keeps, and
    /// lend that buffer back for the caller to put on the channel.
    /// `program` is the cookie of the program the mod is a step of.
    pub(crate) fn track(
        &mut self,
        node: NodeId,
        dpid: Dpid,
        xid: u32,
        msg: &Message,
        program: Option<u64>,
        now: Instant,
    ) -> &[u8] {
        // Room for a typical flow or group mod without regrowing.
        let mut bytes = Vec::with_capacity(96);
        encode_into(&mut bytes, msg, xid);
        let session = self.sessions.entry(node);
        let session = session.or_insert_with(|| Session::new(dpid));
        debug_assert!(session.pending.back().is_none_or(|p| p.xid < xid));
        session.pending.push_back(PendingMod {
            xid,
            bytes,
            shadow: ShadowOp::of(msg),
            program,
            sent_at: now,
            retries: 0,
        });
        self.dirty.insert(node);
        &session.pending.back().expect("just pushed").bytes
    }

    /// Fence every session that acquired pending mods since the last
    /// flush: one BARRIER_REQUEST naming all its currently unacked
    /// mods. The reply proves everything before it was applied.
    pub(crate) fn flush_barriers(
        &mut self,
        ctx: &mut Context<'_>,
        xid: &mut u32,
        stats: &mut CtlStats,
    ) {
        while let Some(node) = self.dirty.pop_first() {
            let Some(session) = self.sessions.get_mut(&node) else {
                continue;
            };
            let Some(last) = session.pending.back() else {
                continue;
            };
            session.barriers.insert(*xid, last.xid);
            stats.msgs_sent += 1;
            let covered = session.pending.iter().map(|p| p.xid);
            ctx.send_control_with(node, |buf| encode_barrier_request_into(buf, covered, *xid));
            *xid += 1;
        }
    }

    /// A BARRIER_REPLY from `from`: retire the covered mods the switch
    /// confirmed, oldest first, handing each to `acked`; returns the
    /// session's dpid if any were.
    ///
    /// Only an in-order prefix is retired. Mods apply in transmission
    /// order, so if an earlier mod is still in flight (say a lost
    /// cookie-delete), a later already-applied mod must stay pending:
    /// the retransmit path then replays it *after* the missing one.
    /// Retiring it here would let the delete land last and silently
    /// wipe state the shadow believes installed.
    pub(crate) fn barrier_reply(
        &mut self,
        from: NodeId,
        xid: u32,
        mut applied: Vec<u32>,
        mut acked: impl FnMut(Dpid, PendingMod),
    ) -> Option<Dpid> {
        let session = self.sessions.get_mut(&from)?;
        let covered = session.barriers.remove(&xid)?;
        applied.sort_unstable();
        let before = session.pending.len();
        while let Some(head) = session.pending.front() {
            if head.xid > covered || applied.binary_search(&head.xid).is_err() {
                break;
            }
            let p = session.pending.pop_front().expect("front checked");
            acked(session.dpid, p);
        }
        (session.pending.len() < before).then_some(session.dpid)
    }

    /// Stop tracking one mod `from` bounced (TABLE_FULL, NOT_MASTER).
    pub(crate) fn retire(&mut self, from: NodeId, xid: u32) -> bool {
        self.sessions.get_mut(&from).is_some_and(|s| {
            let at = s.pending.binary_search_by_key(&xid, |p| p.xid);
            at.is_ok_and(|i| {
                s.abandon(i);
                true
            })
        })
    }

    /// Drop every pending mod of `node`'s session, and every base with
    /// them — they were computed against a world that no longer holds
    /// (dirty resync, lapsed mastership). Yields the mods' xids, oldest
    /// first.
    pub(crate) fn supersede(&mut self, node: NodeId) -> impl Iterator<Item = u32> + '_ {
        self.sessions.get_mut(&node).into_iter().flat_map(|s| {
            s.bases.clear();
            s.pending.drain(..).map(|p| p.xid)
        })
    }

    /// Resend unacked mods older than `timeout`, oldest xid first over
    /// all sessions; abandon ones already resent `max_retries` times,
    /// handing their xids to `failed`. Mods to quarantined switches
    /// wait (the resync handshake decides their fate when the switch
    /// returns). Then forget barriers with nothing left to ack: a
    /// reply to one would find no mod at or below its mark.
    pub(crate) fn retransmit_scan(
        &mut self,
        ctx: &mut Context<'_>,
        view: &NetworkView,
        timeout: Duration,
        max_retries: u32,
        stats: &mut CtlStats,
        mut failed: impl FnMut(u32),
    ) {
        let now = ctx.now();
        let mut due: Vec<(u32, NodeId)> = Vec::new();
        for (&node, session) in &self.sessions {
            if view.is_quarantined(session.dpid) {
                continue;
            }
            due.extend(
                session
                    .pending
                    .iter()
                    .filter(|p| now.duration_since(p.sent_at) >= timeout)
                    .map(|p| (p.xid, node)),
            );
        }
        due.sort_unstable();
        for (xid, node) in due {
            let session = self.sessions.get_mut(&node).expect("collected above");
            let i = session
                .pending
                .binary_search_by_key(&xid, |p| p.xid)
                .expect("collected above");
            let p = &mut session.pending[i];
            if p.retries >= max_retries {
                session.abandon(i);
                stats.mods_failed += 1;
                failed(xid);
                continue;
            }
            p.retries += 1;
            p.sent_at = now;
            stats.mods_retransmitted += 1;
            stats.msgs_sent += 1;
            ctx.send_control_with(node, |buf| buf.extend_from_slice(&p.bytes));
            self.dirty.insert(node);
        }
        for session in self.sessions.values_mut() {
            let oldest = session.pending.front().map(|p| p.xid);
            session
                .barriers
                .retain(|_, &mut covered| oldest.is_some_and(|x| x <= covered));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use zen_dataplane::{FlowMatch, FlowSpec, PortNo};
    use zen_proto::decode;
    use zen_sim::{Node, World};

    use super::*;

    type Step = Box<dyn FnMut(&mut Southbound, &mut Context<'_>)>;

    /// Runs one scripted step against its `Southbound` every 100 ms.
    struct Driver {
        southbound: Southbound,
        steps: Vec<Step>,
    }

    /// A switch stand-in that keeps every control message it is sent.
    #[derive(Default)]
    struct Sink(Vec<(u32, Message)>);

    macro_rules! node_boilerplate {
        () => {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        };
    }

    impl Node for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, step: u64) {
            (self.steps[step as usize])(&mut self.southbound, ctx);
            if (step as usize) + 1 < self.steps.len() {
                ctx.set_timer(Duration::from_millis(100), step + 1);
            }
        }
        node_boilerplate!();
    }

    impl Node for Sink {
        fn on_control(&mut self, _: &mut Context<'_>, _: NodeId, mut bytes: &[u8]) {
            while let Ok((msg, xid, used)) = decode(bytes) {
                self.0.push((xid, msg));
                bytes = &bytes[used..];
            }
        }
        node_boilerplate!();
    }

    fn add(cookie: u64) -> Message {
        Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::Add(FlowSpec::new(1, FlowMatch::ANY, vec![]).with_cookie(cookie)),
        }
    }

    /// Send `msg` as `xid` to `node` the way `Ctl::send` does.
    fn send(sb: &mut Southbound, ctx: &mut Context<'_>, node: NodeId, xid: u32, msg: &Message) {
        let bytes = sb.track(node, 7, xid, msg, None, ctx.now());
        ctx.send_control_with(node, |buf| buf.extend_from_slice(bytes));
    }

    /// Run `steps` against two sinks; returns what each sink received.
    fn run(steps: impl FnOnce(NodeId, NodeId) -> Vec<Step>) -> [Vec<(u32, Message)>; 2] {
        let mut world = World::new(1);
        let sinks = [
            world.add_node(Box::new(Sink::default())),
            world.add_node(Box::new(Sink::default())),
        ];
        world.add_node(Box::new(Driver {
            southbound: Southbound::default(),
            steps: steps(sinks[0], sinks[1]),
        }));
        world.run_until(Instant::from_secs(5));
        sinks.map(|id| std::mem::take(&mut world.node_as_mut::<Sink>(id).0))
    }

    fn barrier_xids(received: &[(u32, Message)]) -> Vec<(u32, Vec<u32>)> {
        received
            .iter()
            .filter_map(|(xid, msg)| match msg {
                Message::BarrierRequest { xids } => Some((*xid, xids.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn barrier_retires_only_an_in_order_prefix() {
        let [received, _] = run(|switch, _| {
            let mut next = 50;
            let mut stats = CtlStats::default();
            vec![Box::new(move |sb, ctx| {
                for xid in [10, 11, 12] {
                    send(sb, ctx, switch, xid, &add(u64::from(xid)));
                }
                sb.flush_barriers(ctx, &mut next, &mut stats);
                sb.flush_barriers(ctx, &mut next, &mut stats); // nothing new: no second fence
                assert_eq!((next, stats.msgs_sent), (51, 1));

                // 11 never arrived; the switch lists what did, in any order.
                let mut acked = Vec::new();
                let dpid = sb.barrier_reply(switch, 50, vec![12, 10], |_, p| acked.push(p.xid));
                assert_eq!((dpid, acked, sb.pending_mods()), (Some(7), vec![10], 2));
                // A barrier answers once, and only to the switch it fenced.
                assert_eq!(
                    sb.barrier_reply(switch, 50, vec![11], |_, _| panic!()),
                    None
                );
                assert_eq!(
                    sb.barrier_reply(NodeId(9), 51, vec![11], |_, _| panic!()),
                    None
                );

                // The next fence covers the survivors and the newcomer; a
                // bounced mod in the middle is not a gap.
                send(sb, ctx, switch, 13, &add(13));
                sb.flush_barriers(ctx, &mut next, &mut stats);
                assert!(sb.retire(switch, 12) && !sb.retire(switch, 12));
                let mut shadow = BTreeMap::new();
                sb.barrier_reply(switch, 51, vec![11, 12, 13], |_, p| {
                    p.shadow
                        .expect("flow adds carry a shadow op")
                        .apply(&mut shadow)
                });
                assert_eq!(shadow, BTreeMap::from([(11, 1), (13, 1)]));
                assert_eq!(sb.pending_mods(), 0);
            })]
        });
        assert_eq!(
            barrier_xids(&received),
            vec![(50, vec![10, 11, 12]), (51, vec![11, 12, 13])]
        );
    }

    #[test]
    fn retransmit_resends_then_gives_up_in_xid_order() {
        let timeout = Duration::from_millis(150);
        let [first, second] = run(|a, b| {
            let view = std::rc::Rc::new({
                let mut view = NetworkView::new();
                view.quarantine(8);
                view
            });
            let scan = move |sb: &mut Southbound, ctx: &mut Context<'_>| {
                let mut failed = Vec::new();
                let mut stats = CtlStats::default();
                sb.retransmit_scan(ctx, &view, timeout, 1, &mut stats, |x| failed.push(x));
                (failed, stats.mods_retransmitted)
            };
            let (scan1, scan2, scan3) = (scan.clone(), scan.clone(), scan);
            vec![
                Box::new(move |sb, ctx| {
                    send(sb, ctx, a, 1, &add(1));
                    send(sb, ctx, b, 2, &add(2));
                    send(sb, ctx, a, 3, &add(3));
                    // A quarantined switch's mods wait for its resync.
                    sb.track(NodeId(9), 8, 4, &add(4), None, ctx.now());
                    sb.flush_barriers(ctx, &mut 100, &mut CtlStats::default());
                }),
                // 100 ms old: not due yet.
                Box::new(move |sb, ctx| assert_eq!(scan1(sb, ctx), (vec![], 0))),
                // 200 ms old: everything live is resent, once.
                Box::new(move |sb, ctx| assert_eq!(scan2(sb, ctx), (vec![], 3))),
                Box::new(|_, _| {}),
                // 200 ms after the resend, out of retries: abandoned
                // oldest xid first whichever session holds it, and the
                // fences over them are forgotten.
                Box::new(move |sb, ctx| {
                    assert_eq!(scan3(sb, ctx), (vec![1, 2, 3], 0));
                    assert_eq!(sb.pending_mods(), 1);
                    assert_eq!(sb.barrier_reply(a, 100, vec![1, 3], |_, _| panic!()), None);
                }),
            ]
        });
        let flow_mod_xids = |received: &[(u32, Message)]| -> Vec<u32> {
            let mods = received
                .iter()
                .filter(|(_, m)| matches!(m, Message::FlowMod { .. }));
            mods.map(|&(xid, _)| xid).collect()
        };
        assert_eq!(flow_mod_xids(&first), vec![1, 3, 1, 3]);
        assert_eq!(flow_mod_xids(&second), vec![2, 2]);
    }
}
