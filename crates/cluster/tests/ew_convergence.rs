//! Seeded property test: the east-west store converges under hostile
//! delivery. A scripted scheduler interleaves local appends, digest
//! exchanges with duplicated and reordered delivery, ack/prune rounds
//! against the partition-local live set, and random partition flips.
//! After the partitions heal and a bounded number of repair rounds run,
//! every replica must hold an identical applied map, identical winning
//! stamps, and identical digests — for every seed.

use zen_cluster::{Admit, EwStore};
use zen_proto::ViewEvent;

const N: usize = 3;
const STEPS: usize = 400;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random link event over a small key space, so replicas contend for
/// the same logical keys and exercise last-writer-wins.
fn random_event(r: u64) -> ViewEvent {
    let dpid = r % 8;
    let port = ((r >> 3) % 4 + 1) as u32;
    if (r >> 5).is_multiple_of(3) {
        ViewEvent::LinkDel {
            from_dpid: dpid,
            from_port: port,
        }
    } else {
        ViewEvent::LinkAdd {
            from_dpid: dpid,
            from_port: port,
            to_dpid: (dpid + 1) % 8,
            to_port: 1,
        }
    }
}

/// One anti-entropy round from `src` into `dst`, with the delivery
/// order and duplication controlled by the rng. Gaps produced by the
/// reordering are dropped, as on the wire; later rounds repair them.
fn gossip(stores: &mut [EwStore], src: usize, dst: usize, rng: &mut u64) {
    let want = stores[dst].missing_ranges(&stores[src].digest());
    let (entries, snapshot) = stores[src].serve_ranges(&want);
    if snapshot {
        let (heads, snap_entries, checksum) = stores[src].snapshot();
        let applied = stores[dst].install_snapshot(&heads, snap_entries, checksum);
        assert!(applied.is_some(), "snapshot checksum must verify");
    }
    let mut batch = entries;
    // Maybe swap a random adjacent pair (reorder) and duplicate one
    // entry (redelivery); admit() must shrug both off.
    if batch.len() >= 2 && xorshift(rng).is_multiple_of(3) {
        let i = (xorshift(rng) as usize) % (batch.len() - 1);
        batch.swap(i, i + 1);
    }
    if !batch.is_empty() && xorshift(rng).is_multiple_of(3) {
        let i = (xorshift(rng) as usize) % batch.len();
        let dup = batch[i].clone();
        batch.push(dup);
    }
    for e in batch {
        // Every admit outcome is legal under hostile delivery; only
        // panics or misapplication would be bugs, and misapplication
        // is caught by the convergence assertions below.
        let _ = stores[dst].admit(&e);
    }
}

fn live_of(sides: &[usize], me: usize) -> Vec<usize> {
    (0..N)
        .filter(|&j| j == me || sides[j] == sides[me])
        .collect()
}

#[test]
fn seeded_schedules_converge_after_heal() {
    for seed in 1..=10u64 {
        let mut rng = seed;
        let mut stores: Vec<EwStore> = (0..N).map(|i| EwStore::new(i as u32, N)).collect();
        let mut sides = [0usize; N];
        for step in 0..STEPS {
            let term = (step / 25 + 1) as u64;
            match xorshift(&mut rng) % 100 {
                0..=39 => {
                    let i = (xorshift(&mut rng) as usize) % N;
                    let e = random_event(xorshift(&mut rng));
                    stores[i].append(term, e);
                }
                40..=84 => {
                    let i = (xorshift(&mut rng) as usize) % N;
                    let j = (xorshift(&mut rng) as usize) % N;
                    if i != j && sides[i] == sides[j] {
                        gossip(&mut stores, i, j, &mut rng);
                    }
                }
                85..=91 => {
                    let i = (xorshift(&mut rng) as usize) % N;
                    let j = (xorshift(&mut rng) as usize) % N;
                    if i != j && sides[i] == sides[j] {
                        let digest = stores[j].digest();
                        let acks: Vec<(u32, u64)> =
                            digest.iter().map(|h| (h.origin, h.head)).collect();
                        stores[i].note_peer_acks(j as u32, &acks);
                        let live = live_of(&sides, i);
                        stores[i].prune_acked(&live);
                    }
                }
                _ => {
                    for s in sides.iter_mut() {
                        *s = (xorshift(&mut rng) % 2) as usize;
                    }
                }
            }
        }
        // Heal and run deterministic repair rounds: every ordered pair
        // exchanges digests with clean delivery until quiescent.
        for _ in 0..8 {
            for i in 0..N {
                for j in 0..N {
                    if i == j {
                        continue;
                    }
                    let want = stores[j].missing_ranges(&stores[i].digest());
                    let (entries, snapshot) = stores[i].serve_ranges(&want);
                    if snapshot {
                        let (heads, snap_entries, checksum) = stores[i].snapshot();
                        stores[j]
                            .install_snapshot(&heads, snap_entries, checksum)
                            .expect("snapshot checksum must verify");
                    }
                    for e in entries {
                        assert_ne!(
                            stores[j].admit(&e),
                            Admit::Gap,
                            "seed {seed}: clean in-order repair must not gap"
                        );
                    }
                }
            }
        }
        for i in 1..N {
            for o in 0..N as u32 {
                assert_eq!(
                    stores[i].applied_high(o),
                    stores[0].applied_high(o),
                    "seed {seed}: applied map diverged at replica {i} origin {o}"
                );
            }
            assert_eq!(
                stores[i].stamps(),
                stores[0].stamps(),
                "seed {seed}: winning stamps diverged at replica {i}"
            );
            // Floors are replica-local (they track when each replica
            // pruned); convergence is equal heads and chain hashes.
            let summarize = |s: &EwStore| -> Vec<(u32, u64, u64)> {
                s.digest()
                    .iter()
                    .map(|h| (h.origin, h.head, h.hash))
                    .collect()
            };
            assert_eq!(
                summarize(&stores[i]),
                summarize(&stores[0]),
                "seed {seed}: digests diverged at replica {i}"
            );
        }
    }
}
