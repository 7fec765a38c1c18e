//! A delivery is whole frames (`Context::send_control_with` appends
//! complete messages) and nothing keeps a remainder for a retry, so a
//! short frame behind a good one is damage: the good one is handled and
//! the tail is counted, at both ends of the channel.

use std::any::Any;

use zen_core::{Controller, SwitchAgent};
use zen_dataplane::PortNo;
use zen_proto::{decode, encode_into, Message};
use zen_sim::{Context, Instant, Node, NodeId, World};

const TOKEN: u64 = 0xEC40;

/// Sends one delivery — a good ECHO_REQUEST, then 5 bytes of a header —
/// and counts the ECHO_REPLYs that come back.
struct Peer {
    to: NodeId,
    echoes: u32,
}

impl Node for Peer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send_control_with(self.to, |buf| {
            let start = buf.len();
            encode_into(buf, &Message::EchoRequest { token: TOKEN }, 7);
            buf.extend_from_within(start..start + 5);
        });
    }

    fn on_control(&mut self, _: &mut Context<'_>, _: NodeId, mut bytes: &[u8]) {
        while let Ok((msg, _, used)) = decode(bytes) {
            if msg == (Message::EchoReply { token: TOKEN }) {
                self.echoes += 1;
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

/// Node ids are handed out in order: the endpoint is 0, the peer 1.
fn deliver_to(endpoint: Box<dyn Node>) -> World {
    let mut world = World::new(1);
    let to = world.add_node(endpoint);
    let peer = world.add_node(Box::new(Peer { to, echoes: 0 }));
    world.run_until(Instant::from_millis(5));
    assert_eq!(world.node_as::<Peer>(peer).echoes, 1, "echo not answered");
    world
}

#[test]
fn controller_counts_a_short_frame_behind_a_good_one() {
    let world = deliver_to(Box::new(Controller::new(vec![])));
    let stats = world.node_as::<Controller>(NodeId(0)).stats;
    assert_eq!(stats.decode_errors, 1);
}

#[test]
fn agent_counts_a_short_frame_behind_a_good_one() {
    let world = deliver_to(Box::new(SwitchAgent::new(7, 1, NodeId(1))));
    let stats = world.node_as::<SwitchAgent>(NodeId(0)).stats;
    assert_eq!(stats.decode_errors, 1);
}
