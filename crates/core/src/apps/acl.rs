//! Network-wide access control, committed through the replicated
//! intent log.
//!
//! Deny rules are a security boundary, so they take the linearizable
//! path: a rule queued here is proposed as an [`Intent::AclDeny`] and
//! installed only once the cluster commits it — every replica then
//! materializes the same rule set in the same order, and a failover
//! can never resurrect a withdrawn deny. Standalone controllers commit
//! locally on the next tick, preserving the same observable sequence.
//!
//! Installed denies are plain high-priority flow entries with an empty
//! action list — matching traffic dies in the data plane of the first
//! switch it touches, with zero controller involvement afterwards.

use std::any::Any;

use zen_dataplane::{FlowMatch, FlowSpec};
use zen_proto::Intent;

use crate::app::App;
use crate::controller::Ctl;
use crate::view::Dpid;

pub use crate::policy::{ACL_COOKIE, ACL_IMPORTANCE};

/// Priority of deny rules (must beat forwarding apps).
const PRIORITY: u16 = 900;

/// The ACL application.
pub struct Acl {
    /// Rules awaiting proposal (drained into the intent log on tick).
    queued: Vec<(FlowMatch, bool)>,
    /// Rules the cluster has committed, in commit order.
    committed: Vec<FlowMatch>,
    /// Rules pushed to switches (metric).
    pub rules_pushed: u64,
    /// Intents proposed (metric).
    pub intents_proposed: u64,
}

impl Acl {
    /// An ACL denying the given matches everywhere.
    pub fn new(denies: Vec<FlowMatch>) -> Acl {
        Acl {
            queued: denies.into_iter().map(|m| (m, true)).collect(),
            committed: Vec::new(),
            rules_pushed: 0,
            intents_proposed: 0,
        }
    }

    /// Queue a deny rule for commitment through the intent log. It
    /// takes effect network-wide once committed (next tick standalone,
    /// one consensus round clustered).
    pub fn deny(&mut self, matcher: FlowMatch) {
        self.queued.push((matcher, true));
    }

    /// Queue the withdrawal of a previously committed deny rule.
    pub fn allow(&mut self, matcher: FlowMatch) {
        self.queued.push((matcher, false));
    }

    /// The committed deny set (post-run inspection).
    pub fn committed(&self) -> &[FlowMatch] {
        &self.committed
    }

    /// Push every committed rule to `dpid` in one transaction.
    fn program_switch(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
        if self.committed.is_empty() || !ctl.is_master(dpid) {
            return;
        }
        let mut txn = ctl.txn();
        for &matcher in &self.committed {
            self.rules_pushed += 1;
            txn.flow(dpid, 0, deny(matcher));
        }
        txn.commit(ctl);
    }

    /// Replace the ACL rules on every switch this replica masters with
    /// the committed set: a cookie-scoped delete, then the set whole.
    fn reload(&mut self, ctl: &mut Ctl<'_, '_>) {
        for dpid in mastered(ctl) {
            ctl.delete_flows_by_cookie(dpid, ACL_COOKIE);
            self.program_switch(ctl, dpid);
        }
    }
}

/// The deny rule for `matcher`. Deny rules are a security boundary:
/// never the first thing a full table sheds.
fn deny(matcher: FlowMatch) -> FlowSpec {
    FlowSpec::new(PRIORITY, matcher, vec![])
        .with_cookie(ACL_COOKIE)
        .with_importance(ACL_IMPORTANCE)
}

/// The switches in the view this replica masters.
fn mastered(ctl: &Ctl<'_, '_>) -> Vec<Dpid> {
    let mut dpids: Vec<Dpid> = ctl.view.switches.keys().copied().collect();
    dpids.retain(|&dpid| ctl.is_master(dpid));
    dpids
}

impl App for Acl {
    fn name(&self) -> &'static str {
        "acl"
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        for (matcher, install) in std::mem::take(&mut self.queued) {
            self.intents_proposed += 1;
            ctl.propose_intent(
                "acl",
                Intent::AclDeny {
                    priority: PRIORITY,
                    matcher,
                    install,
                },
            );
        }
    }

    fn on_intent_committed(&mut self, ctl: &mut Ctl<'_, '_>, intent: &Intent) {
        let Intent::AclDeny {
            priority,
            matcher,
            install,
        } = *intent
        else {
            return;
        };
        if install {
            if PRIORITY == priority && !self.committed.contains(&matcher) {
                self.committed.push(matcher);
                for dpid in mastered(ctl) {
                    self.rules_pushed += 1;
                    let mut txn = ctl.txn();
                    txn.flow(dpid, 0, deny(matcher));
                    txn.commit(ctl);
                }
            }
        } else if let Some(pos) = self.committed.iter().position(|m| *m == matcher) {
            self.committed.remove(pos);
            // The survivors are re-pushed, so the withdrawn matcher is
            // the only observable change.
            self.reload(ctl);
        }
    }

    fn on_intent_snapshot(&mut self, ctl: &mut Ctl<'_, '_>, intents: &[Intent]) {
        // Rebuild, never patch: the snapshot's active set is the whole
        // committed rule set. A withdraw compacted out of the log shows
        // up only as absence here, so a rule carried over from before
        // the partition must be dropped, not kept.
        self.committed = intents
            .iter()
            .filter_map(|i| match *i {
                Intent::AclDeny {
                    priority,
                    matcher,
                    install: true,
                } if priority == PRIORITY => Some(matcher),
                _ => None,
            })
            .collect();
        // What the pre-partition rule set left behind goes with it.
        self.reload(ctl);
    }

    fn on_switch_up(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
        self.program_switch(ctl, dpid);
    }

    fn on_mastership_change(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, is_master: bool) {
        // A takeover re-asserts the committed denies; the duplicate
        // adds are idempotent by cookie and spec.
        if is_master {
            self.program_switch(ctl, dpid);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
