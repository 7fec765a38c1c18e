//! Table-driven coverage of the decode error taxonomy.
//!
//! Two sweeps run over one exemplar of **every** wire frame type:
//! stream truncation at every prefix length, and a shortened length
//! field at every body length. Both must yield a typed [`CodecError`]
//! — never a panic, never a bogus success. A third, hand-built table
//! then corrupts individual tag/count/field bytes and asserts the
//! exact error variant, value, and frame offset, so every arm of the
//! taxonomy is pinned by at least one test.

use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType};
use zen_proto::{
    decode, decode_view, encode, CacheStatsRec, CodecError, CookieCount, ErrorCode, EwEntry,
    FlowModCmd, FlowStats, GroupModCmd, Intent, IntentEntry, Message, MeterModCmd, OriginHead,
    PortDesc, PortStatsRec, RemovedReason, Role, StatsBody, StatsKind, TableStats, ViewEvent,
    HEADER_LEN,
};
use zen_wire::{EthernetAddress, Ipv4Address};

/// One exemplar per wire type id, 0 through 30 but the retired 21. The
/// coverage test below asserts this list really does span every
/// discriminant, so a new message type cannot be added without
/// extending the sweeps.
fn one_of_each() -> Vec<Message> {
    vec![
        Message::Hello { version: 1 },
        Message::Error {
            code: ErrorCode::TableFull,
            data: vec![1, 2, 3, 4],
        },
        Message::EchoRequest { token: 7 },
        Message::EchoReply { token: 7 },
        Message::FeaturesRequest,
        Message::FeaturesReply {
            dpid: 42,
            n_tables: 2,
            ports: vec![
                PortDesc {
                    port_no: 1,
                    up: true,
                },
                PortDesc {
                    port_no: 2,
                    up: false,
                },
            ],
        },
        Message::PacketIn {
            in_port: 3,
            table_id: 0,
            is_miss: true,
            frame: vec![0xde, 0xad, 0xbe, 0xef],
        },
        Message::PacketOut {
            in_port: 0,
            actions: vec![Action::Flood],
            frame: vec![1; 60],
        },
        Message::FlowMod {
            table_id: 0,
            cmd: FlowModCmd::Add(
                FlowSpec::new(
                    100,
                    FlowMatch::ipv4_to("10.1.0.0/16".parse().unwrap()).with_in_port(3),
                    vec![Action::DecTtl, Action::Output(4)],
                )
                .with_cookie(0xfeed),
            ),
        },
        Message::GroupMod {
            group_id: 7,
            cmd: GroupModCmd::Add(GroupDesc {
                group_type: GroupType::FastFailover,
                buckets: vec![Bucket::output(2), Bucket::output(3)],
            }),
        },
        Message::MeterMod {
            meter_id: 1,
            cmd: MeterModCmd::Add {
                rate_bps: 1_000_000,
                burst_bytes: 64_000,
            },
        },
        Message::PortStatus {
            port: PortDesc {
                port_no: 4,
                up: false,
            },
        },
        Message::FlowRemoved {
            table_id: 0,
            priority: 10,
            cookie: 0xbeef,
            reason: RemovedReason::Eviction,
            packets: 100,
            bytes: 6400,
        },
        Message::BarrierRequest {
            xids: vec![7, 8, 9],
        },
        Message::BarrierReply {
            applied: vec![7, 9],
        },
        Message::StatsRequest {
            kind: StatsKind::Flow { table_id: 0 },
        },
        Message::StatsReply {
            body: StatsBody::Flow(vec![FlowStats {
                table_id: 0,
                priority: 10,
                cookie: 0xfeed,
                packets: 3,
                bytes: 180,
            }]),
        },
        Message::HelloResync {
            generation: 41,
            cookies: vec![
                CookieCount {
                    cookie: 0xfab0_0001,
                    count: 18,
                },
                CookieCount {
                    cookie: 0xbeef,
                    count: 1,
                },
            ],
        },
        Message::ResyncRequest,
        Message::RoleRequest {
            role: Role::Master,
            term: 3,
            replica: 1,
        },
        Message::RoleReply {
            role: Role::Slave,
            term: 4,
            replica: 2,
        },
        Message::EwEvents {
            replica: 1,
            entries: vec![EwEntry {
                origin: 1,
                seq: 3,
                term: 2,
                event: ViewEvent::HostLearned {
                    mac: EthernetAddress::from_id(0x50_0001),
                    dpid: 3,
                    port: 4,
                    ip: Some(Ipv4Address::new(10, 0, 0, 2)),
                },
            }],
        },
        Message::EwDigest {
            replica: 2,
            term: 5,
            heads: vec![
                OriginHead {
                    origin: 0,
                    floor: 3,
                    head: 17,
                    hash: 0xdead_beef,
                },
                OriginHead {
                    origin: 1,
                    floor: 0,
                    head: 4,
                    hash: 0xfeed_f00d,
                },
            ],
        },
        Message::EwFetch {
            replica: 1,
            ranges: vec![(0, 4, 17), (2, 0, 0)],
        },
        Message::EwSnapshot {
            replica: 0,
            heads: vec![OriginHead {
                origin: 0,
                floor: 0,
                head: 1,
                hash: 0x1234,
            }],
            entries: vec![EwEntry {
                origin: 0,
                seq: 1,
                term: 1,
                event: ViewEvent::LinkDel {
                    from_dpid: 1,
                    from_port: 2,
                },
            }],
            checksum: 0x5678,
        },
        Message::IntentPropose {
            replica: 2,
            token: 0xf00,
            intent: Intent::AclDeny {
                priority: 900,
                matcher: FlowMatch::ipv4_to("10.9.0.0/16".parse().unwrap()),
                install: true,
            },
        },
        Message::IntentAppend {
            leader: 0,
            term: 6,
            prev_index: 3,
            prev_term: 5,
            commit: 3,
            entries: vec![IntentEntry {
                index: 4,
                term: 6,
                origin: 0,
                token: 0,
                intent: Intent::Noop,
            }],
        },
        Message::IntentAck {
            replica: 3,
            term: 6,
            match_index: 4,
            success: true,
        },
        Message::IntentFetch {
            replica: 1,
            term: 7,
            from_index: 3,
        },
        Message::IntentCatchup {
            replica: 2,
            term: 7,
            snap_index: 3,
            snap_term: 5,
            snap_state: vec![IntentEntry {
                index: 2,
                term: 4,
                origin: 1,
                token: 0xabc,
                intent: Intent::MastershipPin {
                    dpid: 7,
                    replica: 1,
                    pinned: true,
                },
            }],
            snap_tokens: vec![(1, 0xabc)],
            entries: vec![IntentEntry {
                index: 4,
                term: 6,
                origin: 0,
                token: 0,
                intent: Intent::Noop,
            }],
            commit: 3,
            checksum: 0x9abc,
        },
    ]
}

/// The exemplar list spans every wire type id but the retired 21, so
/// the sweeps below cannot silently lose coverage as the protocol grows.
#[test]
fn exemplars_cover_every_frame_type() {
    let mut ids: Vec<u8> = one_of_each().iter().map(Message::type_id).collect();
    ids.sort_unstable();
    ids.dedup();
    let expect: Vec<u8> = (0..=30).filter(|&id| id != 21).collect();
    assert_eq!(ids, expect, "exemplar list does not span the type space");
}

/// Type 21 was the east-west heartbeat. It is retired, not reused: a
/// heartbeat frame (here one with no acks, laid out as a digest with no
/// heads) decodes to `UnknownType`.
#[test]
fn the_retired_heartbeat_type_is_unknown() {
    let digest = Message::EwDigest {
        replica: 0,
        term: 2,
        heads: vec![],
    };
    let mut frame = encode(&digest, 1);
    assert_eq!(frame[1], 23, "the type byte");
    frame[1] = 21;
    assert_eq!(
        decode(&frame).unwrap_err(),
        CodecError::UnknownType { found: 21 }
    );
}

/// A stream cut at any prefix of any frame type reports `Truncated`
/// with whole-frame accounting: offset 0, the full need, and exactly
/// the bytes that were available. `is_truncated()` classifies every
/// one as "feed me more bytes".
#[test]
fn truncated_at_every_prefix_of_every_type() {
    for (i, msg) in one_of_each().into_iter().enumerate() {
        let bytes = encode(&msg, i as u32);
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(err.is_truncated(), "type {i} cut {cut}: {err}");
            let needed = if cut < HEADER_LEN {
                HEADER_LEN
            } else {
                bytes.len()
            };
            assert_eq!(
                err,
                CodecError::Truncated {
                    offset: 0,
                    needed,
                    available: cut,
                },
                "type {i} cut {cut}"
            );
        }
        // The sweep is not vacuous: the intact frame still decodes.
        assert!(decode(&bytes).is_ok(), "type {i}: intact decode failed");
    }
}

/// A length field rewritten to every shorter-but-plausible value cuts
/// the body mid-structure. The decoder must fail with a typed error —
/// a body-offset `Truncated` or a `CountOverflow` — and never succeed,
/// since no proper prefix of a body is itself a complete body.
#[test]
fn shortened_length_field_at_every_body_length() {
    for (i, msg) in one_of_each().into_iter().enumerate() {
        let bytes = encode(&msg, i as u32);
        for claimed in HEADER_LEN..bytes.len() {
            let mut short = bytes[..claimed].to_vec();
            short[2..6].copy_from_slice(&(claimed as u32).to_be_bytes());
            let err = decode(&short).unwrap_err();
            match err {
                CodecError::Truncated { offset, .. } => {
                    assert!(
                        offset >= HEADER_LEN,
                        "type {i} len {claimed}: body truncation reported header offset {offset}"
                    );
                }
                CodecError::CountOverflow { .. } => {}
                other => panic!("type {i} len {claimed}: unexpected error {other}"),
            }
        }
    }
}

/// A single corruption case: patch `frame[patch_at]` to `patch_to`
/// (after asserting the byte's expected clean value, so layout drift
/// fails loudly) and expect exactly `expect` from the decoder.
struct Corruption {
    name: &'static str,
    msg: Message,
    patch_at: usize,
    clean: u8,
    patch_to: u8,
    expect: CodecError,
}

fn corruption_table() -> Vec<Corruption> {
    vec![
        Corruption {
            name: "version byte",
            msg: Message::FeaturesRequest,
            patch_at: 0,
            clean: 1,
            patch_to: 9,
            expect: CodecError::BadVersion { found: 9 },
        },
        Corruption {
            name: "type byte",
            msg: Message::FeaturesRequest,
            patch_at: 1,
            clean: 4,
            patch_to: 200,
            expect: CodecError::UnknownType { found: 200 },
        },
        Corruption {
            name: "error code tag",
            msg: Message::Error {
                code: ErrorCode::HelloFailed,
                data: vec![],
            },
            // code is a u16 at HEADER_LEN; patch its low byte.
            patch_at: HEADER_LEN + 1,
            clean: 0,
            patch_to: 99,
            expect: CodecError::BadTag {
                field: "error.code",
                value: 99,
                offset: HEADER_LEN,
            },
        },
        Corruption {
            name: "flow mod command tag",
            msg: Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteByCookie { cookie: 9 },
            },
            patch_at: HEADER_LEN + 1,
            clean: 2,
            patch_to: 7,
            expect: CodecError::BadTag {
                field: "flow_mod.cmd",
                value: 7,
                offset: HEADER_LEN + 1,
            },
        },
        Corruption {
            name: "group mod command tag",
            msg: Message::GroupMod {
                group_id: 7,
                cmd: GroupModCmd::Delete,
            },
            patch_at: HEADER_LEN + 4,
            clean: 1,
            patch_to: 9,
            expect: CodecError::BadTag {
                field: "group_mod.cmd",
                value: 9,
                offset: HEADER_LEN + 4,
            },
        },
        Corruption {
            name: "group type tag",
            msg: Message::GroupMod {
                group_id: 7,
                cmd: GroupModCmd::Add(GroupDesc {
                    group_type: GroupType::All,
                    buckets: vec![Bucket::output(2)],
                }),
            },
            patch_at: HEADER_LEN + 5,
            clean: 0,
            patch_to: 3,
            expect: CodecError::BadTag {
                field: "group.type",
                value: 3,
                offset: HEADER_LEN + 5,
            },
        },
        Corruption {
            name: "meter mod command tag",
            msg: Message::MeterMod {
                meter_id: 1,
                cmd: MeterModCmd::Delete,
            },
            patch_at: HEADER_LEN + 4,
            clean: 1,
            patch_to: 5,
            expect: CodecError::BadTag {
                field: "meter_mod.cmd",
                value: 5,
                offset: HEADER_LEN + 4,
            },
        },
        Corruption {
            name: "flow removed reason tag",
            msg: Message::FlowRemoved {
                table_id: 0,
                priority: 1,
                cookie: 0,
                reason: RemovedReason::IdleTimeout,
                packets: 0,
                bytes: 0,
            },
            // after table_id(1) + priority(2) + cookie(8)
            patch_at: HEADER_LEN + 11,
            clean: 0,
            patch_to: 4,
            expect: CodecError::BadTag {
                field: "flow_removed.reason",
                value: 4,
                offset: HEADER_LEN + 11,
            },
        },
        Corruption {
            name: "stats request kind tag",
            msg: Message::StatsRequest {
                kind: StatsKind::Table,
            },
            patch_at: HEADER_LEN,
            clean: 2,
            patch_to: 9,
            expect: CodecError::BadTag {
                field: "stats_request.kind",
                value: 9,
                offset: HEADER_LEN,
            },
        },
        Corruption {
            name: "stats reply kind tag",
            msg: Message::StatsReply {
                body: StatsBody::Port(vec![PortStatsRec {
                    port_no: 1,
                    rx_frames: 1,
                    rx_bytes: 64,
                    tx_frames: 1,
                    tx_bytes: 64,
                }]),
            },
            patch_at: HEADER_LEN,
            clean: 1,
            patch_to: 9,
            expect: CodecError::BadTag {
                field: "stats_reply.kind",
                value: 9,
                offset: HEADER_LEN,
            },
        },
        Corruption {
            name: "cache stats record count",
            msg: Message::StatsReply {
                body: StatsBody::Cache(CacheStatsRec {
                    micro_hits: 1,
                    mega_hits: 2,
                    misses: 3,
                    inserts: 4,
                    invalidations: 5,
                    micro_evictions: 6,
                    mega_evictions: 7,
                    generation: 8,
                    entries: 9,
                }),
            },
            // count is a u32 at HEADER_LEN+1; patch its low byte 1 -> 2.
            patch_at: HEADER_LEN + 4,
            clean: 1,
            patch_to: 2,
            expect: CodecError::BadTag {
                field: "stats_reply.cache_count",
                value: 2,
                offset: HEADER_LEN + 1,
            },
        },
        Corruption {
            name: "role tag",
            msg: Message::RoleRequest {
                role: Role::Master,
                term: 3,
                replica: 1,
            },
            patch_at: HEADER_LEN,
            clean: 0,
            patch_to: 3,
            expect: CodecError::BadTag {
                field: "role",
                value: 3,
                offset: HEADER_LEN,
            },
        },
        Corruption {
            name: "action kind tag",
            msg: Message::PacketOut {
                in_port: 0,
                actions: vec![Action::Flood],
                frame: vec![7; 20],
            },
            // after in_port(4) + action count(2)
            patch_at: HEADER_LEN + 6,
            clean: 1,
            patch_to: 15,
            expect: CodecError::BadTag {
                field: "action.kind",
                value: 15,
                offset: HEADER_LEN + 6,
            },
        },
        Corruption {
            name: "match presence bitmap",
            msg: Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteStrict {
                    priority: 5,
                    matcher: FlowMatch::ANY,
                },
            },
            // after table_id(1) + cmd(1) + priority(2): bitmap high byte.
            patch_at: HEADER_LEN + 4,
            clean: 0,
            patch_to: 0x08,
            expect: CodecError::BadTag {
                field: "match.fields",
                value: 0x0800,
                offset: HEADER_LEN + 4,
            },
        },
        Corruption {
            name: "vlan tagged flag",
            msg: Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteStrict {
                    priority: 5,
                    matcher: FlowMatch {
                        vlan: Some(Some(5)),
                        ..FlowMatch::ANY
                    },
                },
            },
            // bitmap(2) then the tagged flag.
            patch_at: HEADER_LEN + 6,
            clean: 1,
            patch_to: 2,
            expect: CodecError::BadTag {
                field: "match.vlan_tagged",
                value: 2,
                offset: HEADER_LEN + 6,
            },
        },
        Corruption {
            name: "cidr prefix length",
            msg: Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteStrict {
                    priority: 5,
                    matcher: FlowMatch {
                        ipv4_src: Some("10.0.0.0/8".parse().unwrap()),
                        ..FlowMatch::ANY
                    },
                },
            },
            // bitmap(2) + address(4), then the prefix length byte.
            patch_at: HEADER_LEN + 10,
            clean: 8,
            patch_to: 40,
            expect: CodecError::BadField {
                field: "match.ipv4_src",
                offset: HEADER_LEN + 6,
            },
        },
        Corruption {
            name: "view event kind tag",
            msg: Message::EwEvents {
                replica: 1,
                entries: vec![EwEntry {
                    origin: 1,
                    seq: 2,
                    term: 1,
                    event: ViewEvent::LinkDel {
                        from_dpid: 0,
                        from_port: 2,
                    },
                }],
            },
            // replica(4) + count(4) + origin(4) + seq(8) + term(8)
            patch_at: HEADER_LEN + 28,
            clean: 1,
            patch_to: 5,
            expect: CodecError::BadTag {
                field: "view_event.kind",
                value: 5,
                offset: HEADER_LEN + 28,
            },
        },
        Corruption {
            name: "intent kind tag",
            msg: Message::IntentPropose {
                replica: 2,
                token: 0xf00,
                intent: Intent::Noop,
            },
            // replica(4) + token(8)
            patch_at: HEADER_LEN + 12,
            clean: 0,
            patch_to: 9,
            expect: CodecError::BadTag {
                field: "intent.kind",
                value: 9,
                offset: HEADER_LEN + 12,
            },
        },
        Corruption {
            name: "host learned ip presence flag",
            msg: Message::EwEvents {
                replica: 1,
                entries: vec![EwEntry {
                    origin: 1,
                    seq: 2,
                    term: 1,
                    event: ViewEvent::HostLearned {
                        mac: EthernetAddress::from_id(1),
                        dpid: 3,
                        port: 4,
                        ip: None,
                    },
                }],
            },
            // ... + event tag(1) + mac(6) + dpid(8) + port(4)
            patch_at: HEADER_LEN + 47,
            clean: 0,
            patch_to: 2,
            expect: CodecError::BadTag {
                field: "view_event.ip_present",
                value: 2,
                offset: HEADER_LEN + 47,
            },
        },
    ]
}

/// Every corruption case produces exactly the expected typed error,
/// from both the owned and the borrowed-view decoder.
#[test]
fn corrupt_bytes_yield_exact_typed_errors() {
    for case in corruption_table() {
        let mut bytes = encode(&case.msg, 77);
        assert!(
            decode(&bytes).is_ok(),
            "{}: clean frame must decode",
            case.name
        );
        assert_eq!(
            bytes[case.patch_at], case.clean,
            "{}: layout assumption broke — update patch_at",
            case.name
        );
        bytes[case.patch_at] = case.patch_to;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            case.expect,
            "{} (owned decode)",
            case.name
        );
        assert_eq!(
            decode_view(&bytes).unwrap_err(),
            case.expect,
            "{} (view decode)",
            case.name
        );
        assert!(
            !case.expect.is_truncated(),
            "{}: corruption must classify as garbage, not short read",
            case.name
        );
    }
}

/// A hostile element count is rejected by capacity check before any
/// allocation is sized from it — the alloc-bomb guard.
#[test]
fn count_overflow_rejected_before_allocating() {
    struct Bomb {
        name: &'static str,
        msg: Message,
        /// Offset of the count field and its width in bytes.
        count_at: usize,
        count_width: usize,
        expect_field: &'static str,
    }
    let bombs = vec![
        Bomb {
            name: "barrier xid count",
            msg: Message::BarrierRequest { xids: vec![1] },
            count_at: HEADER_LEN,
            count_width: 4,
            expect_field: "barrier.xids",
        },
        Bomb {
            name: "barrier applied count",
            msg: Message::BarrierReply { applied: vec![1] },
            count_at: HEADER_LEN,
            count_width: 4,
            expect_field: "barrier.applied",
        },
        Bomb {
            name: "action count",
            msg: Message::PacketOut {
                in_port: 0,
                actions: vec![Action::Flood],
                frame: vec![7; 20],
            },
            count_at: HEADER_LEN + 4,
            count_width: 2,
            expect_field: "actions",
        },
        Bomb {
            name: "features port count",
            msg: Message::FeaturesReply {
                dpid: 42,
                n_tables: 2,
                ports: vec![PortDesc {
                    port_no: 1,
                    up: true,
                }],
            },
            count_at: HEADER_LEN + 9,
            count_width: 2,
            expect_field: "features.ports",
        },
        Bomb {
            name: "resync cookie count",
            msg: Message::HelloResync {
                generation: 1,
                cookies: vec![CookieCount {
                    cookie: 0xbeef,
                    count: 1,
                }],
            },
            count_at: HEADER_LEN + 8,
            count_width: 4,
            expect_field: "resync.cookies",
        },
        Bomb {
            name: "east-west entry count",
            msg: Message::EwEvents {
                replica: 1,
                entries: vec![EwEntry {
                    origin: 1,
                    seq: 2,
                    term: 1,
                    event: ViewEvent::LinkDel {
                        from_dpid: 0,
                        from_port: 2,
                    },
                }],
            },
            count_at: HEADER_LEN + 4,
            count_width: 4,
            expect_field: "ew.entries",
        },
        Bomb {
            name: "east-west digest head count",
            msg: Message::EwDigest {
                replica: 2,
                term: 5,
                heads: vec![OriginHead {
                    origin: 0,
                    floor: 3,
                    head: 17,
                    hash: 0xdead_beef,
                }],
            },
            // replica(4) + term(8)
            count_at: HEADER_LEN + 12,
            count_width: 4,
            expect_field: "ew.heads",
        },
        Bomb {
            name: "intent append entry count",
            msg: Message::IntentAppend {
                leader: 0,
                term: 6,
                prev_index: 3,
                prev_term: 5,
                commit: 3,
                entries: vec![IntentEntry {
                    index: 4,
                    term: 6,
                    origin: 0,
                    token: 0,
                    intent: Intent::Noop,
                }],
            },
            // leader(4) + term(8) + prev_index(8) + prev_term(8) + commit(8)
            count_at: HEADER_LEN + 36,
            count_width: 4,
            expect_field: "intent.entries",
        },
        Bomb {
            name: "stats reply record count",
            msg: Message::StatsReply {
                body: StatsBody::Table(vec![TableStats {
                    table_id: 0,
                    active: 3,
                    max_entries: 256,
                    hits: 10,
                    misses: 2,
                    evictions: 4,
                    refusals: 1,
                }]),
            },
            count_at: HEADER_LEN + 1,
            count_width: 4,
            expect_field: "stats_reply.records",
        },
    ];
    for bomb in bombs {
        let mut bytes = encode(&bomb.msg, 9);
        assert!(
            decode(&bytes).is_ok(),
            "{}: clean frame must decode",
            bomb.name
        );
        let capacity = bytes.len() - bomb.count_at - bomb.count_width;
        for b in &mut bytes[bomb.count_at..bomb.count_at + bomb.count_width] {
            *b = 0xff;
        }
        let claimed = match bomb.count_width {
            2 => 0xffff,
            _ => 0xffff_ffff,
        };
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::CountOverflow {
                field: bomb.expect_field,
                count: claimed,
                capacity,
            },
            "{}",
            bomb.name
        );
    }
}

/// Leftover body bytes after a complete payload are reported with
/// their offset and count.
#[test]
fn trailing_bytes_reported_with_offset() {
    let mut bytes = encode(&Message::EchoRequest { token: 7 }, 1);
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xaa; 5]);
    let claimed = bytes.len() as u32;
    bytes[2..6].copy_from_slice(&claimed.to_be_bytes());
    assert_eq!(
        decode(&bytes).unwrap_err(),
        CodecError::TrailingBytes {
            offset: clean_len,
            trailing: 5,
        }
    );
}

/// A header length below the fixed header size is structurally
/// unrecoverable and reported as `BadLength`.
#[test]
fn bad_length_below_header() {
    let mut bytes = encode(&Message::FeaturesRequest, 1);
    bytes[2..6].copy_from_slice(&5u32.to_be_bytes());
    assert_eq!(
        decode(&bytes).unwrap_err(),
        CodecError::BadLength { claimed: 5 }
    );
}
