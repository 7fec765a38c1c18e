//! Reprogramming by reconciling against a base: the program stamp's
//! contract, what a flap costs on the wire, and the oracle — whatever
//! happened on the way, a quiet fabric holds exactly what a fresh load
//! of the desired program would have put there.

use zen_core::apps::proactive::{group_id_for, FABRIC_COOKIE, FABRIC_IMPORTANCE};
use zen_core::{flows_stamp, ProgramBase};
use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType};
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

/// A program in the shape the fabric app renders: groups, then flows.
#[derive(Clone)]
struct Program {
    groups: Vec<(u32, GroupDesc)>,
    flows: Vec<FlowSpec>,
}

impl Program {
    fn stamp(&self) -> u64 {
        ProgramBase::of(flows_stamp(&self.flows), &self.groups).stamp()
    }
}

fn program() -> Program {
    let select = |buckets| GroupDesc {
        group_type: GroupType::Select,
        buckets,
    };
    let matcher = FlowMatch::ipv4_to(Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 7), 32).unwrap());
    Program {
        groups: vec![
            (
                group_id_for(3),
                select(vec![Bucket::output(1), Bucket::output(2)]),
            ),
            (group_id_for(4), select(vec![Bucket::output(2)])),
        ],
        flows: vec![
            FlowSpec::new(200, matcher, vec![Action::Group(group_id_for(3))])
                .with_cookie(FABRIC_COOKIE)
                .with_importance(FABRIC_IMPORTANCE),
            FlowSpec::new(
                200,
                FlowMatch::ANY,
                vec![
                    Action::SetEthDst(EthernetAddress::from_id(9)),
                    Action::Output(4),
                ],
            ),
        ],
    }
}

/// The stamp decides whether a takeover reprograms a switch, and it is
/// the fold of the hashes a reconcile diffs: equal programs must stamp
/// equal — on any replica, they run one binary — and any change a
/// switch would forward differently under must not, the order of the
/// groups and of the flows included.
#[test]
fn program_stamp_tracks_every_forwarding_relevant_field() {
    let base = program().stamp();
    assert_eq!(base, program().stamp(), "equal programs, equal stamp");

    type Perturb = fn(&mut Program);
    let perturbations: [(&str, Perturb); 18] = [
        ("group id", |p| p.groups[0].0 += 1),
        ("group type", |p| {
            p.groups[0].1.group_type = GroupType::FastFailover
        }),
        ("bucket order", |p| p.groups[0].1.buckets.swap(0, 1)),
        ("bucket action", |p| {
            p.groups[0].1.buckets[1].actions = vec![Action::Output(3)]
        }),
        ("bucket watch port", |p| {
            p.groups[0].1.buckets[1].watch_port = None
        }),
        ("bucket count", |p| {
            p.groups[0].1.buckets.pop();
        }),
        ("group count", |p| {
            p.groups.pop();
        }),
        ("group order", |p| p.groups.swap(0, 1)),
        ("priority", |p| p.flows[0].priority += 1),
        ("match field", |p| p.flows[0].matcher.l4_dst = Some(80)),
        ("match prefix", |p| {
            p.flows[0].matcher.ipv4_dst =
                Some(Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 7), 24).unwrap())
        }),
        ("action order", |p| p.flows[1].actions.swap(0, 1)),
        ("action argument", |p| {
            p.flows[1].actions[1] = Action::Output(5)
        }),
        ("goto", |p| p.flows[0].goto_table = Some(1)),
        ("cookie", |p| p.flows[0].cookie ^= 1),
        ("importance", |p| p.flows[0].importance += 1),
        ("timeouts", |p| p.flows[1].idle_timeout = 5),
        ("flow order", |p| p.flows.swap(0, 1)),
    ];
    for (what, perturb) in perturbations {
        let mut changed = program();
        perturb(&mut changed);
        assert_ne!(base, changed.stamp(), "{what} left the stamp alone");
    }
}
