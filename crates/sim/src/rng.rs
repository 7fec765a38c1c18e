//! A small, fully deterministic pseudo-random number generator.
//!
//! The simulator must replay bit-for-bit from a seed, independently of any
//! external crate's algorithm choices, so it carries its own generator:
//! `xoshiro256**` seeded through SplitMix64 (the reference initialization).

/// A seeded `xoshiro256**` generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Create a generator from a seed. Any seed (including zero) is valid.
    pub fn new(seed: u64) -> Rng {
        // SplitMix64 expansion, per Vigna's reference implementation.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `[0, bound)` via Lemire's multiply-shift
    /// rejection method. Returns 0 when `bound` is 0.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform `usize` in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Choose a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }

    /// Fork a statistically independent generator (e.g. one per node),
    /// keyed by a stream id so forks are reproducible and distinct.
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng::new(self.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = Rng::new(0);
        let values: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(values.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = Rng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
        assert_eq!(rng.gen_range(0), 0);
    }

    #[test]
    fn gen_range_covers_values() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(9);
        let mut data: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Overwhelmingly likely to have moved something.
        assert_ne!(data, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let mut parent1 = Rng::new(1);
        let mut parent2 = Rng::new(1);
        let mut fork_a = parent1.fork(10);
        let mut fork_a2 = parent2.fork(10);
        assert_eq!(fork_a.next_u64(), fork_a2.next_u64());

        let mut parent3 = Rng::new(1);
        let mut fork_b = parent3.fork(11);
        assert_ne!(Rng::new(1).fork(10).next_u64(), fork_b.next_u64());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Rng::new(1);
        let empty: &[u8] = &[];
        assert!(rng.choose(empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
