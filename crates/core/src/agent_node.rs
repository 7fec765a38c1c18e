//! The switch agent as a simulator node: each callback is one call into
//! the agent, with the node's `Context` as its [`SwitchIo`], and then
//! publishes what the call moved of the counters the world mirrors.

use std::any::Any;

use zen_dataplane::PortNo;
use zen_sim::{Context, Node, NodeId};

use crate::agent::{AgentStats, SwitchAgent, SwitchIo};

/// The switch's own part of its I/O; the part any protocol end asks of
/// its node is `controller_node.rs`'s.
impl SwitchIo for Context<'_> {
    fn transmit(&mut self, port: PortNo, frame: Vec<u8>) {
        Context::transmit(self, port, frame);
    }
    fn ports(&self) -> Vec<PortNo> {
        Context::ports(self)
    }
    fn port_up(&self, port: PortNo) -> bool {
        Context::port_up(self, port)
    }
}

/// The agent counters the world's metrics mirror, by metric name.
fn mirrored(stats: &AgentStats) -> [(&'static str, u64); 3] {
    [
        ("defense.agent_punts_shed", stats.punts_metered),
        ("fault.nonmaster_mod_rejected", stats.nonmaster_rejected),
        ("pressure.table_full_rejected", stats.table_full_rejected),
    ]
}

/// Run `call` on `agent`, then add what it moved of each [`mirrored`]
/// counter to its metric, registered the first time it moves.
fn published(
    agent: &mut SwitchAgent,
    ctx: &mut Context<'_>,
    call: impl FnOnce(&mut SwitchAgent, &mut Context<'_>),
) {
    let before = mirrored(&agent.stats);
    call(agent, ctx);
    for ((name, was), (_, is)) in before.into_iter().zip(mirrored(&agent.stats)) {
        if is > was {
            let cid = ctx.metrics().register_counter(name);
            ctx.metrics().add(cid, is - was);
        }
    }
}

impl Node for SwitchAgent {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Share the world's flight recorder with the embedded datapath
        // so cache-tier, group, and meter events carry trace ids.
        self.dp.set_recorder(ctx.recorder().clone());
        published(self, ctx, |agent, ctx| agent.start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
        published(self, ctx, |agent, ctx| {
            agent.packet(ctx.now(), port, frame, ctx)
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        published(self, ctx, |agent, ctx| agent.timer(ctx.now(), token, ctx));
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        published(self, ctx, |agent, ctx| {
            agent.control(ctx.now(), from, bytes, ctx)
        });
    }

    fn on_link_status(&mut self, ctx: &mut Context<'_>, port: PortNo, up: bool) {
        published(self, ctx, |agent, ctx| agent.link_status(port, up, ctx));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
