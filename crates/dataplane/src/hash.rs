//! The flow cache's hasher: word-at-a-time, multiplicative, unseeded.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with a per-process
//! random key. Both properties are wrong for the cache maps of a
//! deterministic simulator: the keyed hash costs more than the probe it
//! guards (a [`FlowKey`](crate::key::FlowKey) is five words), and the
//! random key makes every allocation pattern differ from run to run.
//! [`WordHasher`] folds one `u64` per step with a rotate, an xor and a
//! multiply (the FxHash recipe) and always starts from zero, so the same
//! keys land in the same buckets in every process — replay stays exact
//! and profiles compare.
//!
//! The price is that the hash is not collision-resistant: anyone who can
//! choose keys can aim them at one bucket. The frames a `zen` datapath
//! sees come from the simulation's own hosts, so that is acceptable
//! here; a switch facing a real socket must keep a keyed hash.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for maps keyed by simulation-generated values.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// Odd multiplier close to 2⁶⁴ / φ: consecutive inputs spread over the
/// whole word.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// See the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" and "ab\0" apart.
            self.write_u64(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    /// A multiply only carries entropy upward, and the table takes its
    /// bucket index from the low bits: fold the high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;
    use std::hash::{BuildHasher, Hash};
    use zen_wire::builder::PacketBuilder;
    use zen_wire::{EthernetAddress, Ipv4Address};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildWordHasher::default().hash_one(value)
    }

    /// The key of host `src`'s probe flow to host `dst` on the k=8
    /// fabric (`10.0.x.y` addresses, source port 10 000, fabric MAC).
    fn fabric_key(in_port: u32, src: u32, dst: u32) -> FlowKey {
        let ip = |h: u32| Ipv4Address::from_u32(0x0a00_0000 + 1 + h);
        let frame = PacketBuilder::udp(
            EthernetAddress::from_id(u64::from(src)),
            ip(src),
            10_000,
            EthernetAddress([0x02, 0xfa, 0xb0, 0, 0, 1]),
            ip(dst),
            9,
            &[0u8; 20],
        );
        FlowKey::extract(in_port, &frame).expect("well-formed frame")
    }

    #[test]
    fn unseeded_so_every_run_hashes_alike() {
        // Pinned values: a change here is a change to every map layout
        // and has to be deliberate.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), 0x9e37_79b9_e17d_05ac);
        assert_eq!(
            hash_of(&fabric_key(1, 0, 127)),
            hash_of(&fabric_key(1, 0, 127))
        );
        let mut a = WordHasher::default();
        let mut b = WordHasher::default();
        a.write(b"ab");
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fabric_five_tuples_spread_over_buckets() {
        // Every (source, destination) pair of the 128-host fabric on
        // each of four ingress ports: 65 024 keys into 2^14 buckets the
        // way hashbrown indexes them (low bits) — and into the 128
        // values of its 7-bit control tag (high bits).
        const BUCKETS: usize = 1 << 14;
        let mut low = vec![0u32; BUCKETS];
        let mut high = [0u32; 128];
        let mut keys = 0u32;
        for in_port in 1..=4 {
            for src in 0..128 {
                for dst in (0..128).filter(|&d| d != src) {
                    let h = hash_of(&fabric_key(in_port, src, dst));
                    low[h as usize % BUCKETS] += 1;
                    high[(h >> 57) as usize] += 1;
                    keys += 1;
                }
            }
        }
        let mean = keys as usize / BUCKETS;
        let worst = *low.iter().max().unwrap() as usize;
        let empty = low.iter().filter(|&&n| n == 0).count();
        // A uniform hash leaves ≈ e^-4 ≈ 2 % of buckets empty at load 4
        // and its fullest bucket near 15.
        assert!(
            worst <= 6 * mean,
            "fullest bucket holds {worst}, mean {mean}"
        );
        assert!(empty < BUCKETS / 10, "{empty} of {BUCKETS} buckets empty");
        let (lo, hi) = (high.iter().min().unwrap(), high.iter().max().unwrap());
        assert!(*lo * 2 > *hi, "control tags skewed: {lo}..{hi}");
    }
}
