//! Reprogramming by reconciling against a base: the program stamp's
//! contract, what a flap costs on the wire, and the oracle — whatever
//! happened on the way, a quiet fabric holds exactly what a fresh load
//! of the desired program would have put there.

use std::any::Any;
use std::collections::BTreeSet;

use zen_core::apps::proactive::{group_id_for, FABRIC_COOKIE, FABRIC_IMPORTANCE, FABRIC_MAC};
use zen_core::apps::ProactiveFabric;
use zen_core::harness::{build_cluster_fabric_with_hosts, build_fabric, default_host_ip};
use zen_core::{
    flows_stamp, App, Controller, ControllerConfig, Ctl, Dpid, Fabric, FabricOptions, ProgramBase,
    SwitchAgent,
};
use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType};
use zen_sim::{
    Duration, FaultPlan, Host, Instant, LinkParams, NodeId, Topology, Window, Workload, World,
};
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

fn ms(v: u64) -> Instant {
    Instant::from_millis(v)
}

/// Counts the FLOW_REMOVED notices a controller is sent.
#[derive(Default)]
struct RemovedCounter(u64);

impl App for RemovedCounter {
    fn name(&self) -> &'static str {
        "removed-counter"
    }
    fn on_flow_removed(&mut self, _: &mut Ctl<'_, '_>, _: Dpid, _: u8, _: u16, _: u64) {
        self.0 += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A k=4 fat-tree under `opts.n_controllers` controllers, each running
/// the fabric app (and a [`RemovedCounter`]) over the full inventory. Hosts say
/// nothing unasked; host `speaker` pings host 0 from `speak_at` without
/// knowing its MAC, so its ARP request is the first the controllers
/// hear of it.
fn fat_tree_fabric(
    world: &mut World,
    opts: FabricOptions,
    speaker: usize,
    speak_at: Instant,
) -> (Topology, Fabric) {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let inventory = {
        let mut scratch = World::new(99);
        build_fabric(&mut scratch, &topo, vec![], FabricOptions::default()).static_hosts()
    };
    let (switches, links) = (topo.switches, 2 * topo.links.len());
    let fabric = build_cluster_fabric_with_hosts(
        world,
        &topo,
        |_| {
            vec![
                Box::new(ProactiveFabric::new(inventory.clone(), switches, links)),
                Box::new(RemovedCounter::default()),
            ]
        },
        opts,
        |i, mac, ip| {
            let host = Host::new(mac, ip);
            if i == speaker {
                host.with_workload(Workload::Ping {
                    dst: default_host_ip(0),
                    count: 1,
                    interval: Duration::from_millis(100),
                    start: speak_at,
                })
            } else {
                host.with_static_arp(default_host_ip(0), FABRIC_MAC)
            }
        },
    );
    (topo, fabric)
}

/// Position in `topo.links` of a link between an edge switch (one with
/// hosts) and an aggregation switch, and of one between an aggregation
/// switch and a core.
fn an_edge_and_a_core_link(topo: &Topology) -> (usize, usize) {
    let edges: BTreeSet<usize> = topo.hosts.iter().copied().collect();
    let at = |edge_end: bool| {
        let is = |l: &zen_sim::topo::SwitchLink| {
            (edges.contains(&l.a) || edges.contains(&l.b)) == edge_end
        };
        topo.links.iter().position(is).expect("a fat-tree has both")
    };
    (at(true), at(false))
}

fn fabric_app(ctl: &Controller) -> &ProactiveFabric {
    ctl.find_app::<ProactiveFabric>()
        .expect("fabric app present")
}

/// What one flap costs: the mods a reconcile sends are the groups whose
/// buckets moved and nothing else, a switch whose program did not change
/// hears nothing, and a view change that moves no program moves no mod.
#[test]
fn a_flap_sends_the_groups_that_moved_and_nothing_else() {
    let mut world = World::new(5);
    let (topo, fabric) = fat_tree_fabric(&mut world, FabricOptions::default(), 7, ms(3_000));
    let (flapped, _) = an_edge_and_a_core_link(&topo);
    world.schedule_link_state(fabric.switch_links[flapped], false, ms(2_000));

    /// (flow mods, group mods, FLOW_REMOVEDs, mods applied per switch,
    /// desired stamp per switch, reprogram passes, switches left alone)
    type Snapshot = (u64, u64, u64, Vec<u64>, Vec<u64>, u64, u64);
    let snapshot = |world: &World| -> Snapshot {
        let ctl = world.node_as::<Controller>(fabric.controller);
        let app = fabric_app(ctl);
        let applied = fabric.switches.iter();
        let stamps = 0..topo.switches as u64;
        (
            ctl.stats.flow_mods,
            ctl.stats.group_mods,
            ctl.find_app::<RemovedCounter>().unwrap().0,
            applied
                .map(|&sw| world.node_as::<SwitchAgent>(sw).generation())
                .collect(),
            stamps.map(|d| app.desired_stamp(&ctl.view, d)).collect(),
            app.installs,
            app.switches_unchanged,
        )
    };

    world.run_until(ms(1_900));
    assert!(fabric_app(world.node_as::<Controller>(fabric.controller)).programmed());
    let before = snapshot(&world);
    world.run_until(ms(2_900));
    let after = snapshot(&world);

    assert_eq!(after.0, before.0, "a flap moves no flow");
    assert_eq!(
        after.2, before.2,
        "nothing was deleted, so nothing reported removed"
    );
    let group_mods = after.1 - before.1;
    assert!(
        (1..=60).contains(&group_mods),
        "{group_mods} group mods for one flap"
    );
    let mut touched = 0;
    for dpid in 0..topo.switches {
        let applied = after.3[dpid] - before.3[dpid];
        if after.4[dpid] == before.4[dpid] {
            assert_eq!(
                applied, 0,
                "switch {dpid}'s program stands, yet it was sent mods"
            );
        } else {
            assert!(
                applied > 0,
                "switch {dpid}'s program moved, yet it was sent nothing"
            );
            touched += 1;
        }
    }
    assert!(
        touched < topo.switches,
        "one flap cannot move every program"
    );
    assert_eq!(
        after.3.iter().sum::<u64>() - before.3.iter().sum::<u64>(),
        group_mods
    );

    // A host nobody had heard from speaks: the view moves, every program
    // stands, and the pass it triggers finds every switch as it should be.
    world.run_until(ms(3_500));
    let spoken = snapshot(&world);
    assert!(spoken.5 > after.5, "a new host did not trigger a pass");
    assert_eq!(
        spoken.6 - after.6,
        (spoken.5 - after.5) * topo.switches as u64
    );
    assert_eq!(
        (spoken.0, spoken.1, &spoken.3),
        (after.0, after.1, &after.3)
    );
    assert_eq!(
        world
            .node_as::<Controller>(fabric.controller)
            .pending_mods(),
        0
    );
}

/// A host-facing port going down and coming back bumps the view twice
/// and moves no link: each bump's pass finds every mastered switch
/// holding its program, sends nothing, and — the routing snapshot
/// outliving both bumps, its generation where it was — works every
/// switch's program out from the hashes kept for that generation
/// instead of rendering a group.
#[test]
fn a_bump_that_moves_no_link_sends_nothing_and_renders_no_group() {
    let mut world = World::new(11);
    let (topo, fabric) = fat_tree_fabric(
        &mut world,
        FabricOptions::default(),
        0,
        Instant::from_secs(3_600),
    );
    let host = fabric.hosts[0];
    let (link, _) = world
        .links()
        .find(|(_, l)| l.a.0 == host || l.b.0 == host)
        .expect("the host is attached");
    world.schedule_link_state(link, false, ms(2_000));
    world.schedule_link_state(link, true, ms(2_300));

    /// (view version, routing generation, reprogram passes, switches
    /// left alone, flow mods, group mods, mods applied per switch)
    type Snapshot = (u64, u64, u64, u64, u64, u64, Vec<u64>);
    let snapshot = |world: &World| -> Snapshot {
        let ctl = world.node_as::<Controller>(fabric.controller);
        let app = fabric_app(ctl);
        let applied = fabric.switches.iter();
        (
            ctl.view.version,
            ctl.view.routes().generation,
            app.installs,
            app.switches_unchanged,
            ctl.stats.flow_mods,
            ctl.stats.group_mods,
            applied
                .map(|&sw| world.node_as::<SwitchAgent>(sw).generation())
                .collect(),
        )
    };
    world.run_until(ms(1_900));
    let mastered = world
        .node_as::<Controller>(fabric.controller)
        .mastered()
        .len() as u64;
    assert_eq!(mastered, topo.switches as u64);
    let mut before = snapshot(&world);
    assert!(fabric_app(world.node_as::<Controller>(fabric.controller)).programmed());
    for (what, until) in [("down", 2_200), ("up", 2_500)] {
        world.run_until(ms(until));
        let after = snapshot(&world);
        assert!(after.0 > before.0, "port {what}: the view did not move");
        assert_eq!(after.1, before.1, "port {what}: the routing graph moved");
        assert_eq!(after.2, before.2 + 1, "port {what}: one pass");
        assert_eq!(
            after.3,
            before.3 + mastered,
            "port {what}: a switch was not left alone"
        );
        assert_eq!(
            (after.4, after.5, &after.6),
            (before.4, before.5, &before.6),
            "port {what}: a mod was sent"
        );
        before = after;
    }
}

/// Everything a switch forwards by, and the flow count per cookie it
/// would report in a resync.
fn held(world: &World, switch: NodeId) -> (String, Vec<(u64, u32)>) {
    let agent = world.node_as::<SwitchAgent>(switch);
    let mut out = String::new();
    for entry in agent.dp.table(0).entries() {
        out.push_str(&format!("{:?}\n", entry.spec));
    }
    for (id, desc) in agent.dp.groups().iter() {
        out.push_str(&format!("g{id}|{desc:?}\n"));
    }
    let digest = agent.flow_digest();
    (out, digest.iter().map(|c| (c.cookie, c.count)).collect())
}

/// The stamp of what a switch actually holds: its rules in match order
/// (for one priority, the order they were added in) and its groups by
/// id — the orders the fabric app installs in. Equal to the app's
/// desired stamp exactly when the switch holds the desired program and
/// nothing else.
fn held_stamp(world: &World, switch: NodeId) -> u64 {
    let dp = &world.node_as::<SwitchAgent>(switch).dp;
    let flows: Vec<FlowSpec> = dp.table(0).entries().map(|e| e.spec.clone()).collect();
    let groups: Vec<(u32, GroupDesc)> = dp.groups().iter().map(|(i, d)| (i, d.clone())).collect();
    ProgramBase::of(flows_stamp(&flows), &groups).stamp()
}

/// The oracle. Link flaps, a replica cut off and its switches handed
/// over and back, a switch that returns missing a rule (a dirty
/// resync), one that returns rebooted, and a burst of control loss
/// that outlasts a program mod's retries, over the last topology
/// change of the run, which cuts an edge switch off: every group toward
/// it must go, once the hold on deleting groups has run out. Once the fabric
/// is quiet every switch holds exactly the program a fresh load for the
/// final view would put there, its master's base says so, and the
/// replicated cookie shadow is what the switch would report.
#[test]
fn a_quiet_fabric_holds_what_a_fresh_load_would() {
    let opts = FabricOptions {
        n_controllers: 3,
        controller_cfg: ControllerConfig {
            // Two lost copies and a mod is given up on — sooner than a
            // switch that stopped answering is.
            mod_timeout: Duration::from_millis(100),
            mod_max_retries: 1,
            agent_dead_after: Duration::from_millis(500),
            ..ControllerConfig::default()
        },
        ..FabricOptions::default()
    };
    let mut world = World::new(17);
    let (topo, fabric) = fat_tree_fabric(&mut world, opts, 0, Instant::from_secs(3_600));
    let (edge_at, core_at) = an_edge_and_a_core_link(&topo);
    let (edge_link, core_link) = (fabric.switch_links[edge_at], fabric.switch_links[core_at]);
    for (at, up) in [(2_000, false), (2_300, true), (2_600, false), (2_900, true)] {
        world.schedule_link_state(edge_link, up, ms(at));
    }
    world.schedule_link_state(core_link, false, ms(3_200));
    world.schedule_link_state(core_link, true, ms(4_000));
    // The last change of the run: that link's edge switch loses both
    // its uplinks for good, so every group toward it has to go.
    let (edge_end, agg_end) = (topo.links[edge_at].a, topo.links[edge_at].b);
    for (at, link) in topo.links.iter().enumerate() {
        if link.a == edge_end || link.b == edge_end {
            world.schedule_link_state(fabric.switch_links[at], false, ms(7_000));
        }
    }
    world.run_until(ms(1_900));
    let master_of = |world: &World, dpid: usize| -> NodeId {
        let is_master = |c: &&NodeId| world.node_as::<Controller>(**c).is_master_of(dpid as u64);
        *fabric.controllers.iter().find(is_master).expect("a master")
    };

    // A replica is cut off mid-churn; its switches are adopted, then
    // handed back.
    let cut_off = Window::new(ms(2_500), ms(3_400));
    let mut plan = FaultPlan::default().isolate(fabric.controllers[1], cut_off);
    // Switch 3 is out of reach long enough to be quarantined, and loses
    // a rule meanwhile; switch 9 is, and reboots.
    for (sw, from) in [(3, 4_500), (9, 5_500)] {
        for &c in &fabric.controllers {
            let out_of_reach = Window::new(ms(from), ms(from + 700));
            plan = plan.partition(c, fabric.switches[sw], out_of_reach);
        }
    }
    // A core switch above the link that goes down has groups to move,
    // and every message between it and its master is lost while they
    // are due: the mods run out of retries — before the switch has been
    // silent long enough to be quarantined, and after the last view
    // change, so nothing but the failure itself can prompt the repair.
    let above = |l: &&zen_sim::topo::SwitchLink| l.a == agg_end && l.b != edge_end;
    let core = topo.links.iter().find(above).expect("an uplink").b;
    let lossy = Window::new(ms(6_990), ms(7_260));
    plan = plan.control_burst(master_of(&world, core), fabric.switches[core], lossy);
    world.set_fault_plan(plan);

    world.run_until(ms(4_800));
    let lost = {
        let agent = world.node_as_mut::<SwitchAgent>(fabric.switches[3]);
        let first = agent.dp.table(0).entries().next().expect("programmed");
        let (priority, matcher) = (first.spec.priority, first.spec.matcher);
        agent.dp.delete_flow_strict(0, priority, &matcher)
    };
    assert!(lost.is_some());
    world.run_until(ms(5_800));
    world
        .node_as_mut::<SwitchAgent>(fabric.switches[9])
        .reboot();
    world.run_until(ms(11_000));

    let (mut dirty, mut failed, mut full_loads) = (0, 0, 0);
    for &c in &fabric.controllers {
        let ctl = world.node_as::<Controller>(c);
        assert_eq!(ctl.pending_mods(), 0, "mods in flight on a quiet fabric");
        assert_eq!(
            ctl.view.links.len(),
            2 * topo.links.len() - 4,
            "two links are down"
        );
        dirty += ctl.stats.resyncs_dirty;
        failed += ctl.stats.mods_failed;
        full_loads += fabric_app(ctl).full_loads;
    }
    assert!(
        dirty >= 2,
        "the mangled and the rebooted switch both resync dirty"
    );
    assert!(
        failed > 0,
        "the control loss never exhausted a mod's retries"
    );
    assert!(
        full_loads > topo.switches as u64,
        "nothing was ever reloaded"
    );
    for dpid in 0..topo.switches {
        let master = world.node_as::<Controller>(master_of(&world, dpid));
        let desired = fabric_app(master).desired_stamp(&master.view, dpid as u64);
        assert_eq!(
            held_stamp(&world, fabric.switches[dpid]),
            desired,
            "switch {dpid} does not hold the final view's program"
        );
        assert_eq!(
            master.program_base_of(dpid as u64, FABRIC_COOKIE),
            Some(desired),
            "switch {dpid}'s master holds no base, or another program's"
        );
        let (_, digest) = held(&world, fabric.switches[dpid]);
        for &c in &fabric.controllers {
            let shadow = world.node_as::<Controller>(c).shadow_cookies(dpid as u64);
            let shadow: Vec<(u64, u32)> = shadow.iter().map(|s| (s.cookie, s.count)).collect();
            assert_eq!(shadow, digest, "a replica's shadow of switch {dpid} is off");
        }
    }
}

/// Control loss heavy enough to kill a mod usually kills the LLDP
/// returns too, and the view change that follows reprograms the switch
/// anyway. Not here: links are slow to age and a switch that loses its
/// controller relays no probes, so once the one pass the cut triggers is
/// over, nothing but the failure of the mod itself can bring the switch
/// it never reached up to date.
#[test]
fn a_program_mod_that_never_lands_gets_its_switch_rebuilt() {
    let opts = FabricOptions {
        controller_cfg: ControllerConfig {
            mod_timeout: Duration::from_millis(100),
            mod_max_retries: 1,
            agent_dead_after: Duration::from_secs(1),
            link_max_age: Duration::from_secs(5),
            ..ControllerConfig::default()
        },
        ..FabricOptions::default()
    };
    let mut world = World::new(29);
    let (topo, fabric) = fat_tree_fabric(&mut world, opts, 0, Instant::from_secs(3_600));
    // An edge switch loses one of its two uplinks; the other edge switch
    // of the pod must stop using that aggregation switch to reach it,
    // and hears nothing for 350 ms.
    let (edge_at, _) = an_edge_and_a_core_link(&topo);
    let (edge, agg) = (topo.links[edge_at].a, topo.links[edge_at].b);
    let beside = |l: &&zen_sim::topo::SwitchLink| l.b == agg && l.a != edge;
    let sibling = topo.links.iter().find(beside).expect("a pod has two").a;
    world.schedule_link_state(fabric.switch_links[edge_at], false, ms(2_000));
    world.set_fault_plan(FaultPlan::default().control_burst(
        fabric.controller,
        fabric.switches[sibling],
        Window::new(ms(1_990), ms(2_340)),
    ));
    world.run_until(ms(1_900));
    let before = held_stamp(&world, fabric.switches[sibling]);
    world.run_until(ms(4_000));

    let ctl = world.node_as::<Controller>(fabric.controller);
    let app = fabric_app(ctl);
    assert_eq!((ctl.stats.mods_failed, ctl.stats.quarantines), (1, 0));
    assert_eq!(ctl.pending_mods(), 0);
    let desired = app.desired_stamp(&ctl.view, sibling as u64);
    assert_ne!(before, desired, "the cut was to move this switch's program");
    assert_eq!(held_stamp(&world, fabric.switches[sibling]), desired);
    assert_eq!(
        ctl.program_base_of(sibling as u64, FABRIC_COOKIE),
        Some(desired)
    );
    // It took a full load: a switch that may have missed a mod is not
    // known to hold anything.
    assert_eq!(app.full_loads, topo.switches as u64 + 1);
}

/// The cookie digest of a resync counts flows; a switch that holds only
/// groups reports the same digest rebooted as not. The generation going
/// backwards is what gives the reboot away.
#[test]
fn a_rebooted_switch_holding_only_groups_is_reloaded() {
    let topo = Topology::ring(4, LinkParams::default());
    let mut world = World::new(23);
    let app = ProactiveFabric::new(Vec::new(), topo.switches, 2 * topo.links.len());
    let fabric = build_fabric(
        &mut world,
        &topo,
        vec![Box::new(app)],
        FabricOptions::default(),
    );
    let sw = fabric.switches[2];
    world.set_fault_plan(FaultPlan::default().partition(
        fabric.controller,
        sw,
        Window::new(ms(2_000), ms(2_700)),
    ));
    world.run_until(ms(2_400));
    let (before, digest) = held(&world, sw);
    assert!(
        !before.is_empty() && digest.is_empty(),
        "groups and no flows"
    );
    world.node_as_mut::<SwitchAgent>(sw).reboot();
    assert!(held(&world, sw).0.is_empty());
    world.run_until(ms(4_000));
    let ctl = world.node_as::<Controller>(fabric.controller);
    assert!(ctl.stats.resyncs_dirty >= 1, "the reboot went unnoticed");
    assert_eq!(
        held(&world, sw).0,
        before,
        "the rebooted switch was not reloaded"
    );
}
