//! The control channel is the same channel whichever way it is fed:
//! `Context::send_control` with bytes built beforehand and
//! `Context::send_control_with` writing in place must be
//! indistinguishable — same deliveries, same counters, same draws from
//! the world's RNG — under loss, duplication, a partition and jitter.

use std::any::Any;

use zen_proto::{encode, encode_into, Message};
use zen_sim::{Context, Duration, FaultPlan, Instant, Node, NodeId, PortNo, Window, World};

/// How the scripted sender hands a message to the channel.
#[derive(Clone, Copy)]
enum Path {
    /// `send_control(to, encode(..))`.
    Owned,
    /// `send_control_with(to, |buf| encode_into(buf, ..))`.
    InPlace,
}

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

/// Every millisecond: two messages to the first peer and one to the
/// second, of lengths that vary with the tick.
struct Sender {
    path: Path,
    peers: [NodeId; 2],
    ticks: u64,
    /// One draw from the world's RNG after the last send: where the
    /// stream stands once every fault draw has been made.
    rng_after: Option<u64>,
}

impl Sender {
    fn send(&self, ctx: &mut Context<'_>, to: NodeId, msg: &Message, xid: u32) {
        match self.path {
            Path::Owned => ctx.send_control(to, encode(msg, xid)),
            Path::InPlace => ctx.send_control_with(to, |buf| encode_into(buf, msg, xid)),
        }
    }
}

impl Node for Sender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_millis(1), 1);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tick: u64) {
        let [first, second] = self.peers;
        let xid = tick as u32 * 3;
        self.send(ctx, first, &Message::EchoRequest { token: tick }, xid);
        let xids = (0..tick as u32 % 7).collect();
        self.send(ctx, first, &Message::BarrierRequest { xids }, xid + 1);
        let report = Message::PacketIn {
            in_port: 1,
            table_id: 0,
            is_miss: true,
            frame: vec![tick as u8; (tick as usize * 13) % 200],
        };
        self.send(ctx, second, &report, xid + 2);
        if tick < self.ticks {
            ctx.set_timer(Duration::from_millis(1), tick + 1);
        } else {
            self.rng_after = Some(ctx.rng().next_u64());
        }
    }

    node_boilerplate!();
}

/// Keeps every delivery as `(time, from, bytes)`.
#[derive(Default)]
struct Receiver(Vec<(Instant, NodeId, Vec<u8>)>);

impl Node for Receiver {
    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        self.0.push((ctx.now(), from, bytes.to_vec()));
    }

    node_boilerplate!();
}

type Deliveries = Vec<(Instant, NodeId, Vec<u8>)>;

/// What a run leaves behind: each receiver's deliveries, the channel
/// and fault counters, and the sender's final RNG draw.
type Outcome = ([Deliveries; 2], Vec<u64>, u64);

fn run(
    path: Path,
    seed: u64,
    jitter: Duration,
    faults: impl FnOnce(NodeId, [NodeId; 2]) -> FaultPlan,
) -> Outcome {
    let mut world = World::new(seed);
    let peers = [
        world.add_node(Box::new(Receiver::default())),
        world.add_node(Box::new(Receiver::default())),
    ];
    let sender = world.add_node(Box::new(Sender {
        path,
        peers,
        ticks: 100,
        rng_after: None,
    }));
    world.set_control_jitter(jitter);
    world.set_fault_plan(faults(sender, peers));
    world.run_until(Instant::from_millis(200));
    let counters = [
        "sim.control_msgs",
        "sim.control_bytes",
        "fault.control_partitioned",
        "fault.control_dropped",
        "fault.control_duplicated",
    ]
    .map(|name| world.metrics().counter(name))
    .to_vec();
    let rng_after = world
        .node_as::<Sender>(sender)
        .rng_after
        .expect("the script ran to its last tick");
    let deliveries = peers.map(|id| std::mem::take(&mut world.node_as_mut::<Receiver>(id).0));
    (deliveries, counters, rng_after)
}

/// FNV-1a over everything in an outcome, to pin it in one number.
fn fingerprint(outcome: &Outcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for deliveries in &outcome.0 {
        for (at, from, bytes) in deliveries {
            fold(&at.as_nanos().to_le_bytes());
            fold(&from.0.to_le_bytes());
            fold(&(bytes.len() as u64).to_le_bytes());
            fold(bytes);
        }
    }
    for counter in &outcome.1 {
        fold(&counter.to_le_bytes());
    }
    fold(&outcome.2.to_le_bytes());
    h
}

fn chaos(sender: NodeId, peers: [NodeId; 2]) -> FaultPlan {
    let window = |from, until| Window::new(Instant::from_millis(from), Instant::from_millis(until));
    FaultPlan::new()
        .control_loss(0.2, Window::always())
        .duplicate(0.3, window(10, 70))
        .partition(sender, peers[0], window(40, 55))
}

#[test]
fn both_entry_points_are_one_channel() {
    // What the `BTreeMap`-buffered, by-value channel this one replaced
    // produced for the same script (measured on a clone of that commit).
    let before = [
        (1, 0x2652_8f08_d0a4_0c47),
        (42, 0x8d55_8b50_1642_a53d),
        (7, 0x832d_71e7_e25f_48e0),
    ];
    for (seed, fingerprint_before) in before {
        let jitter = Duration::from_micros(30);
        let owned = run(Path::Owned, seed, jitter, chaos);
        let in_place = run(Path::InPlace, seed, jitter, chaos);
        assert_eq!(owned.0, in_place.0, "seed {seed}: deliveries");
        assert_eq!(owned.1, in_place.1, "seed {seed}: counters");
        assert_eq!(owned.2, in_place.2, "seed {seed}: RNG state afterwards");
        assert_eq!(fingerprint(&owned), fingerprint_before, "seed {seed}");
        // The plan did bite: something was lost, doubled and cut off.
        assert!(
            owned.1[2..].iter().all(|&n| n > 0),
            "seed {seed}: {:?}",
            owned.1
        );
    }
}

#[test]
fn writes_coalesce_per_peer_and_latency() {
    let quiet = |_, _| FaultPlan::new();
    // No jitter: the two writes a tick makes to the first peer draw the
    // same latency and arrive as one delivery, in write order.
    let ([first, second], counters, _) = run(Path::InPlace, 1, Duration::ZERO, quiet);
    assert_eq!((first.len(), second.len()), (100, 100));
    assert_eq!(counters[0], 300, "three logical messages a tick");
    let (at, _, bytes) = &first[4];
    assert_eq!(*at, Instant::from_millis(5) + Duration::from_micros(50));
    let mut expected = encode(&Message::EchoRequest { token: 5 }, 15);
    let xids = (0..5).collect();
    expected.extend(encode(&Message::BarrierRequest { xids }, 16));
    assert_eq!(*bytes, expected);

    // With jitter each write draws its own latency: the same two writes
    // now arrive separately (a tie has odds of one in a million a tick).
    let ([first, _], counters, _) = run(Path::InPlace, 1, Duration::from_millis(1), quiet);
    assert_eq!(counters[0], 300);
    assert_eq!(first.len(), 200);
}
