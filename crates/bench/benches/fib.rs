//! E2 — FIB longest-prefix match: the lookup/update trade-off space.
//!
//! Reproduces the shape of the FIB-data-structure comparisons (linear
//! scan vs. unibit trie vs. path-compressed trie vs. DIR-24-8 direct
//! indexing) on synthetic tables with a realistic prefix-length mix.
//! Expected shape: DIR-24-8 fastest lookups but slowest updates; tries
//! in between; linear scan collapses with table size.

use std::hint::black_box;
use std::time::Duration;

use zen_bench::harness::Bench;
use zen_fib::{BinaryTrieFib, Dir24Fib, Fib, LinearFib, RadixTrieFib, SyntheticTable};

fn bench_lookup() {
    let mut group = Bench::group("E2/fib_lookup")
        .samples(20)
        .warm_up(Duration::from_millis(300))
        .measurement(Duration::from_secs(1));
    for &n in &[1_000usize, 10_000, 100_000] {
        let table = SyntheticTable::generate(n, 42);
        let keys = table.lookup_keys(4096, 7);
        group.throughput(1);

        // The linear oracle is O(n); skip its largest size to keep bench
        // time sane but keep enough points to see the collapse.
        if n <= 10_000 {
            let mut fib = LinearFib::new();
            table.load(&mut fib);
            let mut i = 0;
            group.run(&format!("linear/{n}"), || {
                i += 1;
                black_box(fib.lookup(keys[i % keys.len()]))
            });
        }

        let mut fib = BinaryTrieFib::new();
        table.load(&mut fib);
        let mut i = 0;
        group.run(&format!("binary_trie/{n}"), || {
            i += 1;
            black_box(fib.lookup(keys[i % keys.len()]))
        });

        let mut fib = RadixTrieFib::new();
        table.load(&mut fib);
        let mut i = 0;
        group.run(&format!("radix_trie/{n}"), || {
            i += 1;
            black_box(fib.lookup(keys[i % keys.len()]))
        });

        let mut fib = Dir24Fib::new();
        table.load(&mut fib);
        let mut i = 0;
        group.run(&format!("dir24_8/{n}"), || {
            i += 1;
            black_box(fib.lookup(keys[i % keys.len()]))
        });
    }
}

fn bench_update() {
    let mut group = Bench::group("E2/fib_update")
        .samples(10)
        .warm_up(Duration::from_millis(300))
        .measurement(Duration::from_secs(2));
    let n = 50_000;
    let table = SyntheticTable::generate(n, 42);
    // Churn set: a disjoint batch of prefixes inserted and removed.
    let churn = SyntheticTable::generate(256, 999);

    group.throughput(churn.entries.len() as u64);

    let mut fib = BinaryTrieFib::new();
    table.load(&mut fib);
    group.run("binary_trie_churn", || {
        for &(p, nh) in &churn.entries {
            fib.insert(p, nh);
        }
        for &(p, _) in &churn.entries {
            fib.remove(p);
        }
    });

    let mut fib = RadixTrieFib::new();
    table.load(&mut fib);
    group.run("radix_trie_churn", || {
        for &(p, nh) in &churn.entries {
            fib.insert(p, nh);
        }
        for &(p, _) in &churn.entries {
            fib.remove(p);
        }
    });

    let mut fib = Dir24Fib::new();
    table.load(&mut fib);
    group.run("dir24_8_churn", || {
        for &(p, nh) in &churn.entries {
            fib.insert(p, nh);
        }
        for &(p, _) in &churn.entries {
            fib.remove(p);
        }
    });
}

fn bench_build() {
    let mut group = Bench::group("E2/fib_build_100k")
        .samples(10)
        .warm_up(Duration::from_millis(300))
        .measurement(Duration::from_secs(2));
    let table = SyntheticTable::generate(100_000, 42);
    group.run("binary_trie", || {
        let mut fib = BinaryTrieFib::new();
        table.load(&mut fib);
        black_box(fib.len())
    });
    group.run("radix_trie", || {
        let mut fib = RadixTrieFib::new();
        table.load(&mut fib);
        black_box(fib.len())
    });
}

fn main() {
    bench_lookup();
    bench_update();
    bench_build();
}
