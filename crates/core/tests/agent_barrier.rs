//! What a BARRIER_REPLY says: exactly which of the fenced state mods
//! took effect at the switch, from the agent's window of recently
//! applied xids; and what a request naming a missing table gets. The
//! switch is the real agent, driven directly: each test hands it
//! deliveries and reads back what it wrote.

use zen_core::agent::SwitchIo;
use zen_core::{AgentConfig, ControlIo, SwitchAgent};
use zen_dataplane::{Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_proto::{
    decode, encode_into, ErrorCode, FlowModCmd, GroupModCmd, Message, Role, StatsBody, StatsKind,
};
use zen_sim::{Duration, Instant, Metrics, NodeId};
use zen_telemetry::Recorder;

/// Where a switch driven without a world writes: every control message,
/// decoded, with the node it went to. It has no ports, and its frames
/// and timers go nowhere.
#[derive(Default)]
struct Wire {
    sent: Vec<(NodeId, u32, Message)>,
    recorder: Recorder,
    metrics: Metrics,
}

impl ControlIo for Wire {
    fn send_control_with(&mut self, to: NodeId, put: &mut dyn FnMut(&mut Vec<u8>)) {
        let mut bytes = Vec::new();
        put(&mut bytes);
        let (msg, xid, used) = decode(&bytes).expect("a whole message");
        assert_eq!(used, bytes.len(), "one message per write");
        self.sent.push((to, xid, msg));
    }
    fn set_timer(&mut self, _: Duration, _: u64) {}
    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }
}

impl SwitchIo for Wire {
    fn transmit(&mut self, _: PortNo, _: Vec<u8>) {}
    fn ports(&self) -> Vec<PortNo> {
        Vec::new()
    }
    fn port_up(&self, _: PortNo) -> bool {
        false
    }
}

impl Wire {
    /// The BARRIER_REPLYs `to` was sent: each one's xid and list.
    fn barrier_replies(&self, to: NodeId) -> Vec<(u32, Vec<u32>)> {
        let sent = self.sent.iter().filter(|(node, ..)| *node == to);
        let replies = sent.filter_map(|(_, xid, msg)| match msg {
            Message::BarrierReply { applied } => Some((*xid, applied.clone())),
            _ => None,
        });
        replies.collect()
    }

    /// The xids of the ERRORs `to` was sent.
    fn errors(&self, to: NodeId) -> Vec<u32> {
        let sent = self.sent.iter().filter(|(node, ..)| *node == to);
        let errors = sent.filter(|(.., msg)| matches!(msg, Message::Error { .. }));
        errors.map(|(_, xid, _)| *xid).collect()
    }
}

/// Hand `agent` the burst `from` sends at `ms` milliseconds, as one
/// delivery: the channel joins the writes of one handler.
fn deliver(
    agent: &mut SwitchAgent,
    wire: &mut Wire,
    from: NodeId,
    ms: u64,
    burst: &[(u32, Message)],
) {
    let mut bytes = Vec::new();
    for (xid, msg) in burst {
        encode_into(&mut bytes, msg, *xid);
    }
    agent.control(Instant::from_millis(ms), from, &bytes, wire);
}

/// The controllers the tests speak as.
const CONTROLLER: NodeId = NodeId(1);
const NEW_MASTER: NodeId = NodeId(2);

fn flow_add(table_id: u8, cookie: u64) -> Message {
    let matcher = FlowMatch::ANY.with_ip_proto(cookie as u8);
    Message::FlowMod {
        table_id,
        cmd: FlowModCmd::Add(FlowSpec::new(1, matcher, vec![]).with_cookie(cookie)),
    }
}

fn group_add(group_id: u32) -> Message {
    Message::GroupMod {
        group_id,
        cmd: GroupModCmd::Add(GroupDesc {
            group_type: GroupType::Select,
            buckets: vec![Bucket::output(1)],
        }),
    }
}

fn barrier(xids: &[u32]) -> Message {
    Message::BarrierRequest {
        xids: xids.to_vec(),
    }
}

fn claim_master(term: u64, replica: u32) -> Message {
    Message::RoleRequest {
        role: Role::Master,
        term,
        replica,
    }
}

#[test]
fn barrier_reply_lists_exactly_the_applied_subset() {
    let (mut agent, mut wire) = (SwitchAgent::new(7, 1, CONTROLLER), Wire::default());
    agent.start(&mut wire);
    let burst = [
        (12, flow_add(0, 12)),
        // Table 9 does not exist: bounced, never applied.
        (13, flow_add(9, 13)),
        (14, group_add(14)),
        // A retransmission of 12 applies again, idempotently.
        (12, flow_add(0, 12)),
        // Older than everything before it, and still remembered.
        (3, flow_add(0, 3)),
        // 15 was lost on the way; 12 is named twice.
        (50, barrier(&[12, 13, 14, 15, 3, 12])),
    ];
    deliver(&mut agent, &mut wire, CONTROLLER, 1, &burst);
    // A later fence over the same mods answers the same.
    deliver(
        &mut agent,
        &mut wire,
        CONTROLLER,
        2,
        &[(51, barrier(&[3, 15, 14]))],
    );

    assert_eq!(wire.errors(CONTROLLER), vec![13]);
    assert_eq!(
        wire.barrier_replies(CONTROLLER),
        vec![(50, vec![12, 14, 3, 12]), (51, vec![3, 14])]
    );
    assert_eq!(agent.stats.flow_mods, 3);
    assert_eq!(agent.dp.flow_count(), 2);
}

/// Xids rise per controller, not per switch. After a handover the new
/// master's counter is usually *behind* the old one's; a window that
/// evicts the smallest xid would then drop each of the new master's
/// mods the moment it was recorded, no barrier would ever acknowledge
/// them, and the controller would retransmit until it gave up. The
/// window evicts by age, so the new master's mods are acknowledged.
#[test]
fn a_new_master_with_lower_xids_is_still_acknowledged() {
    let (old_master, new_master) = (CONTROLLER, NEW_MASTER);
    let controllers = vec![old_master, new_master];
    let mut agent = SwitchAgent::with_controllers(7, 1, controllers, AgentConfig::default());
    let mut wire = Wire::default();
    agent.start(&mut wire);
    // The old master has been at it a while: 5 000 mods, xids from a
    // million up — more than the window holds.
    let mut long_reign = vec![(1, claim_master(1, 0))];
    long_reign.extend((0..5_000).map(|i| (1_000_000 + i, group_add(i % 8))));
    long_reign.push((2_000_000, barrier(&[1_004_999])));
    deliver(&mut agent, &mut wire, old_master, 1, &long_reign);
    // The new master's counter has barely started.
    let takeover = [
        (1, claim_master(2, 1)),
        (10, group_add(1)),
        (11, flow_add(0, 11)),
        (12, group_add(2)),
        (13, barrier(&[10, 11, 12])),
    ];
    deliver(&mut agent, &mut wire, new_master, 2, &takeover);

    let old = wire.barrier_replies(old_master);
    assert_eq!(old, vec![(2_000_000, vec![1_004_999])]);
    assert!(
        wire.errors(new_master).is_empty(),
        "the takeover was granted"
    );
    assert_eq!(
        wire.barrier_replies(new_master),
        vec![(13, vec![10, 11, 12])]
    );
}

/// A controller numbers its mods in the order it wants them applied;
/// the channel may deliver them in another (a lost copy resent, or
/// jitter). Two cases where the order matters. A cookie wipe that lands
/// behind the adds that followed it removes them, so the switch stops
/// vouching for them until they are replayed — the controller holds
/// them pending behind the wipe. And a group mod overtaken by a later
/// one for the same group leaves the later one's word standing.
#[test]
fn a_mod_that_lands_late_neither_hides_a_loss_nor_undoes_its_successor() {
    let (mut agent, mut wire) = (SwitchAgent::new(7, 1, CONTROLLER), Wire::default());
    agent.start(&mut wire);
    let wipe = |cookie| Message::FlowMod {
        table_id: 0,
        cmd: FlowModCmd::DeleteByCookie { cookie },
    };
    let repoint = |port| Message::GroupMod {
        group_id: 5,
        cmd: GroupModCmd::Add(GroupDesc {
            group_type: GroupType::Select,
            buckets: vec![Bucket::output(port)],
        }),
    };
    let burst = [
        // Wipe 20 was lost; the adds behind it were not.
        (21, flow_add(0, 7)),
        (22, flow_add(0, 8)),
        (50, barrier(&[20, 21, 22])),
        // Its resent copy lands, then only one of theirs does.
        (20, wipe(7)),
        (22, flow_add(0, 8)),
        (51, barrier(&[20, 21, 22])),
        (21, flow_add(0, 7)),
        (52, barrier(&[21])),
    ];
    deliver(&mut agent, &mut wire, CONTROLLER, 1, &burst);
    // Group 5 to port 2, then to port 3 — delivered the other way round.
    let burst = [(31, repoint(3)), (30, repoint(2)), (53, barrier(&[30, 31]))];
    deliver(&mut agent, &mut wire, CONTROLLER, 2, &burst);

    assert_eq!(
        wire.barrier_replies(CONTROLLER),
        vec![
            (50, vec![21, 22]),
            (51, vec![20, 22]),
            (52, vec![21]),
            (53, vec![30, 31])
        ]
    );
    assert_eq!(agent.dp.flow_count(), 2);
    let (_, group) = agent.dp.groups().iter().next().expect("group 5");
    assert_eq!(group.buckets, vec![Bucket::output(3)]);
}

/// A flow-stats request names one table, or 0xff for all of them. One
/// the switch lacks is a bad request, answered as a flow mod for it is:
/// an ERROR carrying the table id, and no other table's flows.
#[test]
fn flow_stats_for_a_table_the_switch_lacks_are_refused() {
    let (mut agent, mut wire) = (SwitchAgent::new(7, 2, CONTROLLER), Wire::default());
    agent.start(&mut wire);
    let flows = |table_id| Message::StatsRequest {
        kind: StatsKind::Flow { table_id },
    };
    let burst = [
        (10, flow_add(0, 10)),
        (11, flow_add(1, 11)),
        (30, flows(9)),
        (40, flows(1)),
        (50, flows(0xff)),
    ];
    deliver(&mut agent, &mut wire, CONTROLLER, 1, &burst);

    let answer = |xid| {
        let answers = wire.sent.iter().filter(|(_, x, _)| *x == xid);
        let answers: Vec<&Message> = answers.map(|(.., msg)| msg).collect();
        assert_eq!(answers.len(), 1, "one answer to {xid}");
        answers[0].clone()
    };
    let error = Message::Error {
        code: ErrorCode::BadRequest,
        data: vec![9],
    };
    assert_eq!(answer(30), error);
    let listed = |xid| -> Vec<(u8, u64)> {
        match answer(xid) {
            Message::StatsReply {
                body: StatsBody::Flow(records),
            } => records.iter().map(|r| (r.table_id, r.cookie)).collect(),
            other => panic!("{xid} answered {other:?}"),
        }
    };
    assert_eq!(listed(40), vec![(1, 11)]);
    assert_eq!(listed(50), vec![(0, 10), (1, 11)]);
}
