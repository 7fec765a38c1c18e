//! Statistics the ledger reports with: medians over repetitions,
//! tail quantiles that refuse to over-claim, the regression bound
//! comparison, and the FNV digest that pins a run's simulated side.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest quantile not above `wanted` that still has at least ten
/// samples beyond it among `n` — a p99 over 200 samples is two points,
/// not a percentile. Never below the median.
pub fn supported_quantile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    wanted.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Nearest-rank `q`-quantile of `samples` (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// `quantile` at the highest supported quantile not above `wanted`.
pub fn tail(samples: &[f64], wanted: f64) -> f64 {
    quantile(samples, supported_quantile(samples.len(), wanted))
}

/// By what share of `first` the value `second` is worse (negative when
/// it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return if second == first { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// Whether `second` is within `bound` (a share of `first`) of `first`,
/// or within `abs_floor` of it in absolute terms — small set-up times
/// move by more than any relative bound without meaning anything.
pub fn within_bound(first: f64, second: f64, better: Better, bound: f64, abs_floor: f64) -> bool {
    let worse_abs = match better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    worse_abs <= abs_floor || worsening(first, second, better) <= bound
}

/// FNV-1a, 64 bit: the digest that pins a repetition's simulated side.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_three_and_four() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        // 1 000 samples: exactly ten lie beyond p99.
        assert_eq!(supported_quantile(1_000, 0.99), 0.99);
        // 200 samples: p99 would rest on two points; p95 has ten.
        assert!((supported_quantile(200, 0.99) - 0.95).abs() < 1e-12);
        // Too few for any tail: fall back to the median.
        assert_eq!(supported_quantile(12, 0.99), 0.5);
        assert_eq!(supported_quantile(0, 0.99), 0.5);

        let samples: Vec<f64> = (0..1_000).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.99), 989.0);
        assert_eq!(quantile(&samples, 0.5), 500.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn bound_comparison_respects_direction_and_floor() {
        // 8 % bound on a higher-is-better rate.
        assert!(within_bound(100.0, 93.0, Better::Higher, 0.08, 0.0));
        assert!(!within_bound(100.0, 91.0, Better::Higher, 0.08, 0.0));
        assert!(within_bound(100.0, 140.0, Better::Higher, 0.08, 0.0));
        // Lower-is-better.
        assert!(within_bound(10.0, 10.9, Better::Lower, 0.10, 0.0));
        assert!(!within_bound(10.0, 11.1, Better::Lower, 0.10, 0.0));
        // setup_s: 20 % or 0.05 s, whichever is larger.
        assert!(within_bound(0.010, 0.040, Better::Lower, 0.20, 0.05));
        assert!(!within_bound(1.0, 1.3, Better::Lower, 0.20, 0.05));
        assert!((worsening(200.0, 150.0, Better::Higher) - 0.25).abs() < 1e-12);
        assert!(worsening(200.0, 150.0, Better::Lower) < 0.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Fnv::new();
        a.str("sim.tx_frames");
        a.u64(42);
        let mut b = Fnv::new();
        b.str("sim.tx_frames");
        b.u64(42);
        assert_eq!(a.finish(), b.finish());
        // Pinned: a change of the digest function re-baselines every
        // recorded sim_digest, so it must be deliberate.
        assert_eq!(a.finish(), 0x087f_9ab6_a421_ea1c);
        let mut c = Fnv::new();
        c.u64(42);
        c.str("sim.tx_frames");
        assert_ne!(a.finish(), c.finish());
    }
}
