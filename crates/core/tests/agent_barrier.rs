//! What a BARRIER_REPLY says: exactly which of the fenced state mods
//! took effect at the switch, from the agent's window of recently
//! applied xids.

use std::any::Any;

use zen_core::{AgentConfig, SwitchAgent};
use zen_dataplane::{Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_proto::{decode, encode_into, FlowModCmd, GroupModCmd, Message, Role};
use zen_sim::{Context, Duration, Instant, Node, NodeId, World};

/// A stand-in controller: sends each scripted burst at its time, and
/// keeps every BARRIER_REPLY and ERROR the switch answers with.
struct Script {
    switch: NodeId,
    bursts: Vec<(Duration, Vec<(u32, Message)>)>,
    barrier_replies: Vec<(u32, Vec<u32>)>,
    errors: Vec<u32>,
}

impl Script {
    fn new(switch: NodeId, bursts: Vec<(Duration, Vec<(u32, Message)>)>) -> Script {
        Script {
            switch,
            bursts,
            barrier_replies: Vec::new(),
            errors: Vec::new(),
        }
    }
}

impl Node for Script {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, (at, _)) in self.bursts.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, burst: u64) {
        for (xid, msg) in &self.bursts[burst as usize].1 {
            ctx.send_control_with(self.switch, |buf| encode_into(buf, msg, *xid));
        }
    }

    fn on_control(&mut self, _: &mut Context<'_>, _: NodeId, mut bytes: &[u8]) {
        while let Ok((msg, xid, used)) = decode(bytes) {
            match msg {
                Message::BarrierReply { applied } => self.barrier_replies.push((xid, applied)),
                Message::Error { .. } => self.errors.push(xid),
                _ => {}
            }
            bytes = &bytes[used..];
        }
    }

    fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

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

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

#[test]
fn barrier_reply_lists_exactly_the_applied_subset() {
    let mut world = World::new(1);
    // Node ids are handed out in order: the switch is 0, the script 1.
    let (switch, controller) = (NodeId(0), NodeId(1));
    world.add_node(Box::new(SwitchAgent::new(7, 1, controller)));
    let script = vec![
        (
            ms(1),
            vec![
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
            ],
        ),
        // A later fence over the same mods answers the same.
        (ms(2), vec![(51, barrier(&[3, 15, 14]))]),
    ];
    world.add_node(Box::new(Script::new(switch, script)));
    world.run_until(Instant::from_millis(5));

    let script = world.node_as::<Script>(controller);
    assert_eq!(script.errors, vec![13]);
    assert_eq!(
        script.barrier_replies,
        vec![(50, vec![12, 14, 3, 12]), (51, vec![3, 14])]
    );
    let agent = world.node_as::<SwitchAgent>(switch);
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
    let mut world = World::new(1);
    let (switch, old_master, new_master) = (NodeId(0), NodeId(1), NodeId(2));
    world.add_node(Box::new(SwitchAgent::with_controllers(
        7,
        1,
        vec![old_master, new_master],
        AgentConfig::default(),
    )));
    // The old master has been at it a while: 5 000 mods, xids from a
    // million up — more than the window holds.
    let mut long_reign = vec![(1, claim_master(1, 0))];
    long_reign.extend((0..5_000).map(|i| (1_000_000 + i, group_add(i % 8))));
    long_reign.push((2_000_000, barrier(&[1_004_999])));
    world.add_node(Box::new(Script::new(switch, vec![(ms(1), long_reign)])));
    // The new master's counter has barely started.
    let takeover = vec![
        (1, claim_master(2, 1)),
        (10, group_add(1)),
        (11, flow_add(0, 11)),
        (12, group_add(2)),
        (13, barrier(&[10, 11, 12])),
    ];
    world.add_node(Box::new(Script::new(switch, vec![(ms(2), takeover)])));
    world.run_until(Instant::from_millis(5));

    let old = world.node_as::<Script>(old_master);
    assert_eq!(old.barrier_replies, vec![(2_000_000, vec![1_004_999])]);
    let new = world.node_as::<Script>(new_master);
    assert!(new.errors.is_empty(), "the takeover was granted");
    assert_eq!(new.barrier_replies, vec![(13, vec![10, 11, 12])]);
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
    let mut world = World::new(1);
    let (switch, controller) = (NodeId(0), NodeId(1));
    world.add_node(Box::new(SwitchAgent::new(7, 1, controller)));
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
    let script = vec![
        (
            ms(1),
            vec![
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
            ],
        ),
        (
            ms(2),
            vec![
                // Group 5 to port 2, then to port 3 — delivered the
                // other way round.
                (31, repoint(3)),
                (30, repoint(2)),
                (53, barrier(&[30, 31])),
            ],
        ),
    ];
    world.add_node(Box::new(Script::new(switch, script)));
    world.run_until(Instant::from_millis(5));

    let script = world.node_as::<Script>(controller);
    assert_eq!(
        script.barrier_replies,
        vec![
            (50, vec![21, 22]),
            (51, vec![20, 22]),
            (52, vec![21]),
            (53, vec![30, 31])
        ]
    );
    let agent = world.node_as::<SwitchAgent>(switch);
    assert_eq!(agent.dp.flow_count(), 2);
    let (_, group) = agent.dp.groups().iter().next().expect("group 5");
    assert_eq!(group.buckets, vec![Bucket::output(3)]);
}
