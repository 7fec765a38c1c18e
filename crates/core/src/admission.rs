//! Controller-side PACKET_IN admission control: who is admitted, who
//! waits, who is shed, and whom to push back on. The meter and the
//! deferred queue of each switch live in its [`Session`]; the decisions
//! over them are [`AdmissionState`]'s, and the controller acts on them
//! (dispatches what is admitted, installs the drop rule).

use std::collections::BTreeMap;

use zen_dataplane::{FlowMatch, FlowSpec, Meter, PortNo};
use zen_sim::{Duration, Instant, NodeId};
use zen_telemetry::{control_trace, trace_id_for_frame, Recorder, TraceEvent};
use zen_wire::EthernetAddress;

use crate::controller::{CtlStats, Punt};
use crate::is_lldp;
pub use crate::policy::{PUSHBACK_COOKIE, PUSHBACK_IMPORTANCE, PUSHBACK_PRIORITY};
use crate::southbound::{Session, Southbound};
use crate::view::Dpid;

/// Controller-side PACKET_IN admission control: per-switch token
/// buckets with fair-queued overflow, so one switch's punt storm can
/// neither starve the other switches nor monopolize the controller.
///
/// Punts within a switch's budget dispatch immediately. Over-budget
/// punts are *deferred* into that switch's bounded queue and released
/// by a round-robin drain timer — every switch gets an equal share of
/// leftover capacity regardless of who is noisiest. When a queue
/// overflows, the excess is *shed*, and each shed or deferred punt is
/// charged to its `(ingress port, source MAC)`; past
/// [`AdmissionConfig::pushback_threshold`] the controller *pushes
/// back*, installing a targeted drop rule (cookie
/// [`PUSHBACK_COOKIE`]) on the offending ingress so the storm dies at
/// the edge instead of in the control plane. LLDP discovery returns
/// bypass the meter entirely: topology must stay alive precisely when
/// the fleet is under attack.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Sustained PACKET_INs per second admitted directly, per switch.
    pub rate_pps: u64,
    /// Burst allowance per switch, in PACKET_INs.
    pub burst: u64,
    /// Per-switch deferred-punt queue capacity; overflow is shed.
    pub queue_cap: usize,
    /// Period of the fair-queue drain timer.
    pub drain_interval: Duration,
    /// Deferred punts released per drain, round-robin across switches.
    pub drain_batch: usize,
    /// Deferred-or-shed punts charged to one `(ingress, source MAC)`
    /// within [`AdmissionConfig::pushback_window`] before a drop rule
    /// is installed there. `0` disables push-back.
    pub pushback_threshold: u64,
    /// Offender accounting window (counts reset at this period).
    pub pushback_window: Duration,
    /// Hard timeout of installed push-back drop rules; a persistent
    /// attacker is re-pinned when the rule lapses and the storm
    /// resumes.
    pub pushback_hold: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            rate_pps: 2_000,
            burst: 256,
            queue_cap: 512,
            drain_interval: Duration::from_millis(1),
            drain_batch: 64,
            pushback_threshold: 200,
            pushback_window: Duration::from_millis(1_000),
            pushback_hold: Duration::from_millis(2_000),
        }
    }
}

/// An offender: `(switch, ingress port, source MAC)`.
type Offender = (NodeId, PortNo, [u8; 6]);

/// Runtime state of PACKET_IN admission control
/// ([`crate::ControllerConfig::admission`]): what is kept per offender
/// and for the fleet. What is kept per switch is in its session.
#[derive(Default)]
pub(crate) struct AdmissionState {
    pub(crate) cfg: AdmissionConfig,
    /// Round-robin position: the switch served last; the drain resumes
    /// after it.
    cursor: Option<NodeId>,
    /// Deferred-or-shed punt counts in the current push-back window.
    offenders: BTreeMap<Offender, u64>,
    /// When the current offender window opened.
    window_started: Instant,
    /// Push-back rules believed live, and when each was installed. An
    /// entry lapses with the rule's hard timeout, so a persistent
    /// offender is re-pinned on its next threshold cross.
    active_pushbacks: BTreeMap<Offender, Instant>,
}

impl AdmissionState {
    pub(crate) fn new(cfg: AdmissionConfig) -> AdmissionState {
        let empty = AdmissionState::default();
        AdmissionState { cfg, ..empty }
    }

    /// Charge one delivery's `punts` from `from` to its switch's budget
    /// at `now`, before anything downstream costs a cycle; what is
    /// deferred or shed is flight-recorded to `rec`. Returns the punts to
    /// dispatch now, and the `(ingress, source MAC)`s this delivery
    /// took over the push-back threshold. Over-budget punts are
    /// deferred to the session's queue; queue overflow is shed.
    pub(crate) fn admit(
        &mut self,
        (now, rec): (Instant, &Recorder),
        stats: &mut CtlStats,
        from: NodeId,
        session: &mut Session,
        bytes: &[u8],
        punts: &[Punt],
    ) -> (Vec<Punt>, Vec<(PortNo, [u8; 6])>) {
        let recording = rec.is_enabled();
        let cfg = self.cfg;
        let meter = session
            .punt_meter
            .get_or_insert_with(|| Meter::per_packet(cfg.rate_pps, cfg.burst));
        let mut admitted = Vec::with_capacity(punts.len());
        let mut over = Vec::new();
        for &punt in punts {
            let (in_port, frame) = (punt.in_port, punt.frame(bytes));
            // Discovery returns bypass the meter: losing topology
            // under attack would turn one hostile port into a
            // fabric-wide outage.
            if is_lldp(frame) {
                admitted.push(punt);
                continue;
            }
            if meter.allow_one(now.as_nanos()) {
                admitted.push(punt);
                stats.punts_admitted += 1;
                continue;
            }
            // Over budget: defer or shed, and charge the offender.
            let src_mac: [u8; 6] = frame
                .get(6..12)
                .and_then(|b| b.try_into().ok())
                .unwrap_or([0u8; 6]);
            let deferred = session.deferred.len() < cfg.queue_cap;
            if deferred {
                session.deferred.push_back((in_port, frame.to_vec()));
                stats.punts_deferred += 1;
            } else {
                stats.punts_shed += 1;
            }
            if recording {
                let dpid = session.dpid;
                let tid = trace_id_for_frame(frame).unwrap_or_else(|| control_trace(dpid));
                let event = if deferred {
                    TraceEvent::PuntDeferred { dpid }
                } else {
                    let at_agent = false;
                    TraceEvent::PuntShed { dpid, at_agent }
                };
                rec.record(now.as_nanos(), tid, event);
            }
            if cfg.pushback_threshold > 0 {
                let count = self.offenders.entry((from, in_port, src_mac)).or_insert(0);
                *count += 1;
                if *count == cfg.pushback_threshold {
                    over.push((in_port, src_mac));
                }
            }
        }
        (admitted, over)
    }

    /// Release deferred punts, one per switch per round (round-robin
    /// from the cursor), up to `drain_batch` per call — the fair share
    /// of leftover controller capacity — each with its switch's dpid.
    /// Also rolls the offender window.
    pub(crate) fn drain(
        &mut self,
        now: Instant,
        southbound: &mut Southbound,
    ) -> Vec<(Dpid, PortNo, Vec<u8>)> {
        if now.duration_since(self.window_started) >= self.cfg.pushback_window {
            self.offenders.clear();
            self.window_started = now;
        }
        let mut budget = self.cfg.drain_batch;
        let mut drained = Vec::new();
        while budget > 0 {
            let waiting = southbound
                .sessions_mut()
                .filter(|(_, s)| !s.deferred.is_empty());
            let keys: Vec<NodeId> = waiting.map(|(node, _)| node).collect();
            if keys.is_empty() {
                break;
            }
            let start = match self.cursor {
                Some(c) => keys.iter().position(|&k| k > c).unwrap_or(0),
                None => 0,
            };
            for i in 0..keys.len().min(budget) {
                let k = keys[(start + i) % keys.len()];
                let Some(session) = southbound.session_mut(k) else {
                    continue;
                };
                if let Some((port, frame)) = session.deferred.pop_front() {
                    drained.push((session.dpid, port, frame));
                    budget -= 1;
                    self.cursor = Some(k);
                }
            }
        }
        drained
    }

    /// Push back on an offender that crossed the threshold at `now`:
    /// the drop rule pinning its (ingress port, source MAC) at the
    /// switch for `pushback_hold`. `None` while the last one installed
    /// should still be live (the agent hard-expires it at the hold, and
    /// this bookkeeping lapses on the same clock).
    pub(crate) fn push_back(&mut self, offender: Offender, now: Instant) -> Option<FlowSpec> {
        let hold = self.cfg.pushback_hold;
        let last = self.active_pushbacks.get(&offender);
        if last.is_some_and(|&at| now.duration_since(at) < hold) {
            return None;
        }
        self.active_pushbacks.insert(offender, now);
        let (_, port, mac) = offender;
        let matcher = FlowMatch {
            in_port: Some(port),
            eth_src: Some(EthernetAddress(mac)),
            ..FlowMatch::ANY
        };
        // No actions = drop.
        let spec = FlowSpec::new(PUSHBACK_PRIORITY, matcher, Vec::new())
            .with_timeouts(0, hold.as_nanos())
            .with_cookie(PUSHBACK_COOKIE)
            .with_importance(PUSHBACK_IMPORTANCE);
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An Ethernet header of `ethertype` from source MAC `src`.
    fn frame(ethertype: [u8; 2], src: u8) -> Vec<u8> {
        let mut frame = vec![0xff; 6];
        frame.extend([2, 0, 0, 0, 0, src]);
        frame.extend(ethertype);
        frame
    }

    const LLDP: [u8; 2] = [0x88, 0xcc];
    const IPV4: [u8; 2] = [0x08, 0x00];

    /// LLDP bypasses the meter: discovery returns are admitted, and cost
    /// no budget, whether the bucket is full or dry; everything else is
    /// admitted while tokens last, then deferred while the queue has
    /// room, then shed.
    #[test]
    fn lldp_bypasses_the_meter() {
        let cfg = AdmissionConfig {
            rate_pps: 1,
            burst: 2,
            queue_cap: 1,
            ..AdmissionConfig::default()
        };
        let mut adm = AdmissionState::new(cfg);
        let mut southbound = Southbound::default();
        let (from, mut stats) = (NodeId(7), CtlStats::default());
        let (now, rec) = (Instant::ZERO, Recorder::default());
        southbound.open(from, 70, now);
        let session = southbound.session_mut(from).expect("opened");

        let kinds = [LLDP, IPV4, IPV4, LLDP, IPV4, IPV4, LLDP];
        let frames: Vec<Vec<u8>> = kinds.iter().map(|&k| frame(k, 1)).collect();
        let bytes = frames.concat();
        let punts: Vec<Punt> = (0..kinds.len())
            .map(|i| Punt::of(&bytes, i as PortNo, &bytes[14 * i..14 * (i + 1)]))
            .collect();
        let at = (now, &rec);
        let (admitted, over) = adm.admit(at, &mut stats, from, session, &bytes, &punts);
        let ports: Vec<PortNo> = admitted.iter().map(|p| p.in_port).collect();
        assert_eq!(ports, [0, 1, 2, 3, 6], "three probes, and a burst of two");
        let counted = (stats.punts_admitted, stats.punts_deferred, stats.punts_shed);
        assert_eq!(counted, (2, 1, 1), "probes are not counted against anyone");
        assert_eq!(session.deferred.len(), 1);
        assert!(over.is_empty());

        // The bucket is dry and the queue full: probes still pass.
        let (admitted, _) = adm.admit(at, &mut stats, from, session, &bytes, &punts[..1]);
        assert_eq!(admitted.len(), 1);
        assert_eq!((stats.punts_admitted, stats.punts_shed), (2, 1));
    }

    /// The drain serves the switches with punts waiting one each per
    /// round, in node order from the one after the last served — across
    /// drains too — and names each punt's switch.
    #[test]
    fn the_drain_is_round_robin_and_resumes_after_the_cursor() {
        let cfg = AdmissionConfig {
            drain_batch: 2,
            ..AdmissionConfig::default()
        };
        let mut adm = AdmissionState::new(cfg);
        let mut southbound = Southbound::default();
        let now = Instant::from_millis(5);
        for (node, waiting) in [(3, 3), (5, 1), (9, 2)] {
            southbound.open(NodeId(node), u64::from(node) * 10, now);
            let session = southbound.session_mut(NodeId(node)).expect("opened");
            let punts = (0..waiting).map(|i| (i, vec![node as u8, i as u8]));
            session.deferred.extend(punts);
        }
        let mut drain = || -> Vec<(Dpid, PortNo)> {
            let drained = adm.drain(now, &mut southbound);
            drained.iter().map(|(d, port, _)| (*d, *port)).collect()
        };
        assert_eq!(drain(), [(30, 0), (50, 0)]);
        // Node 5 has nothing left: after it comes 9, then round to 3.
        assert_eq!(drain(), [(90, 0), (30, 1)]);
        assert_eq!(drain(), [(90, 1), (30, 2)]);
        assert!(drain().is_empty());
    }

    /// A push-back is not issued again while the last one for the same
    /// offender should still be live, and is once its hold has run out.
    #[test]
    fn a_push_back_is_held_for_the_hold() {
        let mut adm = AdmissionState::new(AdmissionConfig::default());
        let hold = adm.cfg.pushback_hold;
        let offender = (NodeId(4), 2, [2, 0, 0, 0, 0, 9]);
        let t0 = Instant::from_millis(100);
        let rule = adm.push_back(offender, t0).expect("the first crossing");
        assert_eq!(rule.matcher.in_port, Some(2));
        assert_eq!(rule.matcher.eth_src, Some(EthernetAddress(offender.2)));
        assert_eq!(
            (rule.hard_timeout, rule.cookie),
            (hold.as_nanos(), PUSHBACK_COOKIE)
        );
        assert!(rule.actions.is_empty(), "no actions: drop");

        let inside = t0 + (hold - Duration::from_nanos(1));
        assert!(adm.push_back(offender, inside).is_none());
        // Another port on the same switch is another offender.
        assert!(adm.push_back((NodeId(4), 3, offender.2), inside).is_some());
        assert!(adm.push_back(offender, t0 + hold).is_some());
        assert!(adm.push_back(offender, t0 + hold + hold.div(2)).is_none());
    }
}
