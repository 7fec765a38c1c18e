//! The controller as a simulator node: each callback is one call into
//! the controller, with the node's `Context` as its [`ControlIo`].

use std::any::Any;

use zen_sim::{Context, Duration, Metrics, Node, NodeId, PortNo};
use zen_telemetry::Recorder;

use crate::controller::Controller;
use crate::ControlIo;

impl ControlIo for Context<'_> {
    fn send_control_with(&mut self, to: NodeId, put: &mut dyn FnMut(&mut Vec<u8>)) {
        Context::send_control_with(self, to, put);
    }
    fn set_timer(&mut self, delay: Duration, token: u64) {
        Context::set_timer(self, delay, token);
    }
    fn recorder(&self) -> &Recorder {
        Context::recorder(self)
    }
    fn metrics(&mut self) -> &mut Metrics {
        Context::metrics(self)
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.timer(ctx.now(), token, ctx);
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        self.control(ctx.now(), from, bytes, ctx);
    }

    /// The controller has no data-plane ports (out-of-band control).
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
