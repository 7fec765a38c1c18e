//! Randomized tests for the data plane: flow-table semantics against a
//! naive model, and pipeline totality on arbitrary frames.
//!
//! Driven by the in-tree deterministic [`Lcg`] generator with fixed
//! seeds, so every run exercises the same reproducible inputs.

use zen_dataplane::{
    Action, Datapath, FlowEntry, FlowKey, FlowMatch, FlowSpec, FlowTable, MissPolicy, RemovedReason,
};
use zen_wire::builder::PacketBuilder;
use zen_wire::lcg::Lcg;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

/// A small universe of keys so matches collide.
fn key_for(seed: u8) -> FlowKey {
    let frame = PacketBuilder::udp(
        EthernetAddress::from_id(u64::from(seed % 4) + 1),
        Ipv4Address::new(10, 0, 0, seed % 8),
        1000 + u16::from(seed % 4),
        EthernetAddress::from_id(u64::from(seed % 3) + 50),
        Ipv4Address::new(10, 0, 1, seed % 8),
        53 + u16::from(seed % 2),
        b"x",
    );
    FlowKey::extract(u32::from(seed % 3) + 1, &frame).unwrap()
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
        in_port: opt(rng, |r| 1 + r.gen_range(3) as u32),
        ipv4_src: opt(rng, |r| {
            Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, r.gen_range(8) as u8), 32).unwrap()
        }),
        ipv4_dst: opt(rng, |r| {
            Ipv4Cidr::new(Ipv4Address::new(10, 0, 1, r.gen_range(8) as u8), 32).unwrap()
        }),
        l4_dst: opt(rng, |r| 50 + r.gen_range(6) as u16),
        ..FlowMatch::ANY
    }
}

#[derive(Debug, Clone)]
enum Op {
    Add {
        priority: u16,
        matcher: FlowMatch,
        tag: u32,
    },
    DeleteStrict {
        priority: u16,
        matcher: FlowMatch,
    },
    Lookup {
        seed: u8,
    },
    Expire {
        at: u64,
    },
}

fn gen_op(rng: &mut Lcg) -> Op {
    match rng.gen_index(4) {
        0 => Op::Add {
            priority: rng.gen_range(4) as u16,
            matcher: gen_match(rng),
            tag: rng.next_u32(),
        },
        1 => Op::DeleteStrict {
            priority: rng.gen_range(4) as u16,
            matcher: gen_match(rng),
        },
        2 => Op::Lookup {
            seed: rng.next_u32() as u8,
        },
        _ => Op::Expire {
            at: rng.gen_range(1000),
        },
    }
}

/// The executable specification of a flow table: a plain list scanned
/// by (priority desc, insertion order asc).
#[derive(Default)]
struct ModelTable {
    entries: Vec<(u16, FlowMatch, u32, u64)>, // priority, match, tag, seq
    next_seq: u64,
}

impl ModelTable {
    fn add(&mut self, priority: u16, matcher: FlowMatch, tag: u32) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(p, m, _, _)| *p == priority && *m == matcher)
        {
            e.2 = tag;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((priority, matcher, tag, seq));
    }

    fn delete(&mut self, priority: u16, matcher: &FlowMatch) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|(p, m, _, _)| !(*p == priority && m == matcher));
        self.entries.len() != before
    }

    fn lookup(&self, key: &FlowKey) -> Option<u32> {
        self.entries
            .iter()
            .filter(|(_, m, _, _)| m.matches(key))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.3.cmp(&a.3)))
            .map(|&(_, _, tag, _)| tag)
    }
}

#[test]
fn table_matches_model() {
    let mut rng = Lcg::new(0xDA7A01);
    for _ in 0..200 {
        let mut real = FlowTable::new();
        let mut model = ModelTable::default();
        let n_ops = 1 + rng.gen_index(79);
        for i in 0..n_ops {
            match gen_op(&mut rng) {
                Op::Add {
                    priority,
                    matcher,
                    tag,
                } => {
                    // Encode the tag in the cookie to compare outcomes.
                    real.add(
                        FlowSpec::new(priority, matcher, vec![Action::Output(1)])
                            .with_cookie(u64::from(tag)),
                        0,
                    );
                    model.add(priority, matcher, tag);
                }
                Op::DeleteStrict { priority, matcher } => {
                    let r = real.delete_strict(priority, &matcher).is_some();
                    let m = model.delete(priority, &matcher);
                    assert_eq!(r, m, "delete mismatch at op {i}");
                }
                Op::Lookup { seed } => {
                    let key = key_for(seed);
                    let r = real.lookup(&key, 64, 0).map(|e| e.spec.cookie as u32);
                    let m = model.lookup(&key);
                    assert_eq!(r, m, "lookup mismatch at op {i}");
                }
                Op::Expire { at } => {
                    // No timeouts are configured, so expiry never evicts.
                    assert!(real.expire(at).is_empty());
                }
            }
            assert_eq!(real.len(), model.entries.len(), "len mismatch at op {i}");
        }
    }
}

#[test]
fn pipeline_total_on_arbitrary_frames() {
    let mut rng = Lcg::new(0xDA7A02);
    for _ in 0..100 {
        // A datapath with a few arbitrary rules must process any byte
        // soup without panicking.
        let mut dp = Datapath::new(1, 2, MissPolicy::ToController { max_len: 64 });
        for p in 1..=4 {
            dp.add_port(p);
        }
        dp.add_flow(
            0,
            FlowSpec::new(5, FlowMatch::ANY.with_ip_proto(17), vec![Action::Output(2)]),
            0,
        );
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Flood]).with_goto(1),
            0,
        );
        dp.add_flow(
            1,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::DecTtl, Action::Output(3)]),
            0,
        );
        let n_frames = 1 + rng.gen_index(19);
        for i in 0..n_frames {
            let n = rng.gen_index(200);
            let frame = rng.gen_bytes(n);
            let _ = dp.process(i as u64, 1 + (i as u32 % 4), &frame);
        }
    }
}

#[test]
fn idle_and_hard_timeouts_model() {
    let mut rng = Lcg::new(0xDA7A03);
    'case: for _ in 0..500 {
        let idle = 1 + rng.gen_range(99);
        let hard = 1 + rng.gen_range(99);
        let mut hits: Vec<u64> = (0..rng.gen_index(10))
            .map(|_| 1 + rng.gen_range(199))
            .collect();
        hits.sort_unstable();

        let mut table = FlowTable::new();
        table.add(
            FlowSpec::new(1, FlowMatch::ANY, vec![]).with_timeouts(idle, hard),
            0,
        );
        let mut last_hit = 0u64;
        let mut evicted_at: Option<u64> = None;
        for &t in &hits {
            // Model: evict when t >= last_hit + idle or t >= hard.
            if evicted_at.is_none() && (t >= last_hit + idle || t >= hard) {
                evicted_at = Some(t);
            }
            let removed = table.expire(t);
            match evicted_at {
                Some(at) if at == t && removed.len() == 1 => {
                    // Evicted exactly now; next case.
                    continue 'case;
                }
                Some(_) => {
                    assert!(removed.len() <= 1);
                    continue 'case;
                }
                None => {
                    assert!(removed.is_empty(), "premature eviction at {t}");
                    let key = key_for(0);
                    table.lookup(&key, 1, t);
                    last_hit = t;
                }
            }
        }
    }
}

/// What `FlowTable::expire` did before it moved entries out instead of
/// cloning them: walk the entries in table order, copy out the ones
/// whose hard (judged first) or idle timeout has passed, keep the rest.
fn expire_oracle(entries: &mut Vec<FlowEntry>, now: u64) -> Vec<(FlowEntry, RemovedReason)> {
    let mut removed = Vec::new();
    entries.retain(|e| {
        if e.spec.hard_timeout > 0 && now >= e.installed_at + e.spec.hard_timeout {
            removed.push((e.clone(), RemovedReason::HardTimeout));
            false
        } else if e.spec.idle_timeout > 0 && now >= e.last_hit + e.spec.idle_timeout {
            removed.push((e.clone(), RemovedReason::IdleTimeout));
            false
        } else {
            true
        }
    });
    removed
}

/// What `FlowTable::delete_by_cookie` did before: split the whole table
/// in two.
fn delete_by_cookie_oracle(entries: &mut Vec<FlowEntry>, cookie: u64) -> Vec<FlowEntry> {
    let (gone, keep) = entries.drain(..).partition(|e| e.spec.cookie == cookie);
    *entries = keep;
    gone
}

#[test]
fn removals_match_the_cloning_oracle() {
    let mut rng = Lcg::new(0xDA7A04);
    let mut removed_total = 0;
    for _ in 0..300 {
        let mut table = FlowTable::new();
        let mut now = 0u64;
        for _ in 0..(1 + rng.gen_index(60)) {
            now += rng.gen_range(20);
            match rng.gen_index(5) {
                0 | 1 => {
                    let spec = FlowSpec::new(rng.gen_range(4) as u16, gen_match(&mut rng), vec![])
                        .with_cookie(rng.gen_range(4))
                        .with_timeouts(rng.gen_range(3) * 25, rng.gen_range(3) * 40);
                    table.add(spec, now);
                }
                2 => {
                    table.lookup(&key_for(rng.next_u32() as u8), 64, now);
                }
                3 => {
                    let mut expected: Vec<FlowEntry> = table.entries().cloned().collect();
                    let expected_removed = expire_oracle(&mut expected, now);
                    let removed = table.expire(now);
                    removed_total += removed.len();
                    assert_eq!(removed, expected_removed, "expired entries, order, reasons");
                    assert!(table.entries().eq(&expected), "survivors of expiry");
                }
                _ => {
                    let cookie = rng.gen_range(4);
                    let mut expected: Vec<FlowEntry> = table.entries().cloned().collect();
                    let expected_removed = delete_by_cookie_oracle(&mut expected, cookie);
                    let removed = table.delete_by_cookie(cookie);
                    removed_total += removed.len();
                    assert_eq!(removed, expected_removed, "deleted entries and order");
                    assert!(table.entries().eq(&expected), "survivors of the delete");
                }
            }
        }
    }
    assert!(removed_total > 1000, "the script removed {removed_total}");
}
