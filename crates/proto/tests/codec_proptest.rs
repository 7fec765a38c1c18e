//! Randomized tests for the control-protocol codec: random structured
//! messages round-trip, and random bytes never panic the decoder.
//!
//! Uses the in-tree deterministic [`Lcg`] generator, so failures are
//! reproducible from the fixed seeds below.

use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType};
use zen_proto::{
    decode, decode_view, encode, encode_barrier_reply_into, encode_into, FlowModCmd, Message,
    MessageView, StatsKind, HEADER_LEN,
};
use zen_wire::lcg::Lcg;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

fn gen_mac(rng: &mut Lcg) -> EthernetAddress {
    let b = rng.gen_bytes(6);
    EthernetAddress::from_bytes(&b)
}

fn gen_ip(rng: &mut Lcg) -> Ipv4Address {
    Ipv4Address::from_u32(rng.next_u32())
}

fn gen_cidr(rng: &mut Lcg) -> Ipv4Cidr {
    Ipv4Cidr::new(gen_ip(rng), rng.gen_range(33) as u8).unwrap()
}

fn gen_action(rng: &mut Lcg) -> Action {
    match rng.gen_index(15) {
        0 => Action::Output(1 + rng.gen_range(99) as u32),
        1 => Action::Flood,
        2 => Action::ToController {
            max_len: rng.next_u32() as u16,
        },
        3 => Action::SetEthSrc(gen_mac(rng)),
        4 => Action::SetEthDst(gen_mac(rng)),
        5 => Action::SetIpv4Src(gen_ip(rng)),
        6 => Action::SetIpv4Dst(gen_ip(rng)),
        7 => Action::SetDscp(rng.next_u32() as u8),
        8 => Action::DecTtl,
        9 => Action::PushVlan(rng.gen_range(4096) as u16),
        10 => Action::PopVlan,
        11 => Action::Group(rng.next_u32()),
        12 => Action::Meter(rng.next_u32()),
        13 => Action::SetEpoch(zen_dataplane::epoch_tag(rng.next_u64())),
        _ => Action::PopEpoch,
    }
}

fn gen_actions(rng: &mut Lcg, max: usize) -> Vec<Action> {
    (0..rng.gen_index(max + 1))
        .map(|_| gen_action(rng))
        .collect()
}

fn opt<T>(rng: &mut Lcg, f: impl FnOnce(&mut Lcg) -> T) -> Option<T> {
    if rng.gen_ratio(1, 2) {
        Some(f(rng))
    } else {
        None
    }
}

fn gen_match(rng: &mut Lcg) -> FlowMatch {
    FlowMatch {
        in_port: opt(rng, |r| 1 + r.gen_range(63) as u32),
        eth_src: opt(rng, gen_mac),
        eth_dst: opt(rng, gen_mac),
        ethertype: opt(rng, |r| r.next_u32() as u16),
        vlan: opt(rng, |r| opt(r, |r| r.gen_range(4096) as u16)),
        epoch: opt(rng, |r| opt(r, |r| zen_dataplane::epoch_tag(r.next_u64()))),
        ipv4_src: opt(rng, gen_cidr),
        ipv4_dst: opt(rng, gen_cidr),
        ip_proto: opt(rng, |r| r.next_u32() as u8),
        l4_src: opt(rng, |r| r.next_u32() as u16),
        l4_dst: opt(rng, |r| r.next_u32() as u16),
    }
}

fn gen_spec(rng: &mut Lcg) -> FlowSpec {
    FlowSpec {
        priority: rng.next_u32() as u16,
        matcher: gen_match(rng),
        actions: gen_actions(rng, 5),
        goto_table: opt(rng, |r| r.gen_range(255) as u8),
        cookie: rng.next_u64(),
        idle_timeout: rng.next_u64(),
        hard_timeout: rng.next_u64(),
        importance: rng.next_u32() as u16,
    }
}

fn gen_group(rng: &mut Lcg) -> GroupDesc {
    let group_type = match rng.gen_index(3) {
        0 => GroupType::All,
        1 => GroupType::Select,
        _ => GroupType::FastFailover,
    };
    let buckets = (0..rng.gen_index(5))
        .map(|_| Bucket {
            actions: gen_actions(rng, 3),
            watch_port: opt(rng, |r| 1 + r.gen_range(63) as u32),
        })
        .collect();
    GroupDesc {
        group_type,
        buckets,
    }
}

fn gen_message(rng: &mut Lcg) -> Message {
    match rng.gen_index(8) {
        0 => Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::Add(gen_spec(rng)),
        },
        1 => Message::FlowMod {
            table_id: 1,
            cmd: FlowModCmd::DeleteStrict {
                priority: rng.next_u32() as u16,
                matcher: gen_match(rng),
            },
        },
        2 => Message::GroupMod {
            group_id: rng.next_u32(),
            cmd: zen_proto::GroupModCmd::Add(gen_group(rng)),
        },
        3 => Message::PacketOut {
            in_port: 1 + rng.gen_range(63) as u32,
            actions: gen_actions(rng, 3),
            frame: {
                let n = rng.gen_index(256);
                rng.gen_bytes(n)
            },
        },
        4 => Message::PacketIn {
            in_port: 1 + rng.gen_range(63) as u32,
            table_id: rng.next_u32() as u8,
            is_miss: rng.gen_ratio(1, 2),
            frame: {
                let n = rng.gen_index(256);
                rng.gen_bytes(n)
            },
        },
        5 => Message::HelloResync {
            generation: rng.next_u64(),
            cookies: (0..rng.gen_index(8))
                .map(|_| zen_proto::CookieCount {
                    cookie: rng.next_u64(),
                    count: rng.next_u32(),
                })
                .collect(),
        },
        6 => Message::BarrierRequest {
            xids: (0..rng.gen_index(16)).map(|_| rng.next_u32()).collect(),
        },
        _ => Message::StatsRequest {
            kind: StatsKind::Table,
        },
    }
}

#[test]
fn structured_roundtrip() {
    let mut rng = Lcg::new(0xC0DEC01);
    for _ in 0..2_000 {
        let msg = gen_message(&mut rng);
        let xid = rng.next_u32();
        let bytes = encode(&msg, xid);
        let (decoded, got_xid, consumed) = decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
        assert_eq!(got_xid, xid);
        assert_eq!(consumed, bytes.len());
    }
}

/// `encode_into` appends exactly the frame `encode` builds, whatever
/// the buffer already holds — including a recycled buffer: emptied, but
/// with the capacity (and stale bytes beyond its length) of earlier use.
#[test]
fn encode_into_appends_what_encode_builds() {
    let mut rng = Lcg::new(0xC0DEC04);
    let mut recycled = Vec::new();
    for _ in 0..2_000 {
        let msg = gen_message(&mut rng);
        let xid = rng.next_u32();
        let frame = encode(&msg, xid);

        let prefix = {
            let n = rng.gen_index(64);
            rng.gen_bytes(n)
        };
        let mut buf = prefix.clone();
        encode_into(&mut buf, &msg, xid);
        assert_eq!(buf, [prefix, frame.clone()].concat());

        recycled.clear();
        encode_into(&mut recycled, &msg, xid);
        assert_eq!(recycled, frame);
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = Lcg::new(0xC0DEC02);
    for _ in 0..2_000 {
        let data = {
            let n = rng.gen_index(512);
            rng.gen_bytes(n)
        };
        let _ = decode(&data);
    }
}

#[test]
fn bitflips_never_panic() {
    let mut rng = Lcg::new(0xC0DEC03);
    for _ in 0..2_000 {
        let msg = gen_message(&mut rng);
        let mut bytes = encode(&msg, 1);
        if !bytes.is_empty() {
            let at = rng.gen_index(bytes.len());
            bytes[at] ^= rng.next_u32() as u8;
            let _ = decode(&bytes);
        }
    }
}

/// What the borrowed list of `view` reads, as the owned message that
/// holds the same: reading must come to an end without a panic.
fn read_lists(view: &MessageView<'_>) -> Option<(Vec<u32>, Vec<Action>)> {
    match view {
        MessageView::BarrierRequest { xids: list }
        | MessageView::BarrierReply { applied: list } => Some((list.iter().collect(), Vec::new())),
        MessageView::PacketOut { actions, .. } => Some((Vec::new(), actions.iter().collect())),
        _ => None,
    }
}

/// The lists a fence, its answer and a release carry decode to views of
/// the receive buffer. On random lists the views read back exactly what
/// was sent (and what the owned decode holds); a frame cut at any
/// length is an error, with the length field left alone or rewritten to
/// match; and with any one bit flipped it is an error or a frame whose
/// lists still read to their end — never a panic.
#[test]
fn borrowed_lists_read_what_was_sent_and_survive_damage() {
    let mut rng = Lcg::new(0xC0DEC05);
    for round in 0..200 {
        let xids: Vec<u32> = (0..rng.gen_index(24)).map(|_| rng.next_u32()).collect();
        let actions = gen_actions(&mut rng, 6);
        let frame = {
            let n = rng.gen_index(48);
            rng.gen_bytes(n)
        };
        let mut reply = Vec::new();
        encode_barrier_reply_into(&mut reply, xids.iter().copied(), round);
        let applied = xids.clone();
        assert_eq!(reply, encode(&Message::BarrierReply { applied }, round));
        let release = Message::PacketOut {
            in_port: 3,
            actions: actions.clone(),
            frame,
        };
        let fence = Message::BarrierRequest { xids: xids.clone() };
        let cases = [
            (encode(&fence, round), xids.clone(), Vec::new()),
            (reply, xids.clone(), Vec::new()),
            (encode(&release, round), Vec::new(), actions.clone()),
        ];
        for (wire, sent_xids, sent_actions) in cases {
            let (view, _, used) = decode_view(&wire).expect("intact");
            assert_eq!(used, wire.len());
            assert_eq!(read_lists(&view), Some((sent_xids, sent_actions)));
            assert_eq!(view.into_message(), decode(&wire).expect("intact").0);

            for cut in 0..wire.len() {
                assert!(decode_view(&wire[..cut]).is_err(), "cut at {cut}");
                if cut >= HEADER_LEN {
                    let mut short = wire[..cut].to_vec();
                    short[2..6].copy_from_slice(&(cut as u32).to_be_bytes());
                    assert!(decode_view(&short).is_err(), "shortened to {cut}");
                }
            }
            for at in 0..wire.len() {
                let mut bad = wire.clone();
                bad[at] ^= 1 << rng.gen_index(8);
                if let Ok((view, ..)) = decode_view(&bad) {
                    let _ = read_lists(&view);
                    let _ = view.into_message();
                }
            }
        }
    }
}
