//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The simulator never consults the wall clock; all time flows from the
//! event queue. `Instant` counts nanoseconds since the start of the
//! simulation.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The simulation epoch (t = 0).
    pub const ZERO: Instant = Instant { nanos: 0 };

    /// Construct from nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Instant {
        Instant { nanos }
    }

    /// Construct from microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Instant {
        Instant {
            nanos: micros * 1_000,
        }
    }

    /// Construct from milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Instant {
        Instant {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Instant {
        Instant {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Whole microseconds since the epoch.
    pub const fn as_micros(&self) -> u64 {
        self.nanos / 1_000
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(&self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;

    fn add(self, rhs: Duration) -> Instant {
        Instant {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;

    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    nanos: u64,
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration { nanos: 0 };

    /// Construct from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Duration {
        Duration { nanos }
    }

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Duration {
        Duration {
            nanos: micros * 1_000,
        }
    }

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Duration {
        Duration {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from seconds.
    pub const fn from_secs(secs: u64) -> Duration {
        Duration {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Whole microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.nanos / 1_000
    }

    /// Whole milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Multiply by an integer factor.
    pub const fn mul(self, factor: u64) -> Duration {
        Duration {
            nanos: self.nanos * factor,
        }
    }

    /// Divide by an integer divisor.
    pub const fn div(self, divisor: u64) -> Duration {
        Duration {
            nanos: self.nanos / divisor,
        }
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.nanos as f64 / 1e6)
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

/// The time to serialize `bytes` onto a link of `bits_per_sec`, rounded up
/// to the next nanosecond.
///
/// `bytes × 8 × 10⁹` fits a `u64` for any frame under 2.3 GB, so the
/// division is a machine one; only past that does it widen to `u128`
/// (a library call), with the same rounding.
pub fn transmission_time(bytes: usize, bits_per_sec: u64) -> Duration {
    if bits_per_sec == 0 {
        return Duration::ZERO;
    }
    let nanos = match (bytes as u64).checked_mul(8 * 1_000_000_000) {
        Some(bit_nanos) => bit_nanos.div_ceil(bits_per_sec),
        None => (bytes as u128 * 8 * 1_000_000_000).div_ceil(bits_per_sec as u128) as u64,
    };
    Duration::from_nanos(nanos)
}

/// How many bytes a link of `bits_per_sec` still has to serialize when
/// its line stays busy for `backlog` more: the occupancy of its egress
/// queue, rounded down. Narrow arithmetic when the product fits, as in
/// [`transmission_time`].
pub fn queued_bytes(backlog: Duration, bits_per_sec: u64) -> usize {
    let bytes = match backlog.as_nanos().checked_mul(bits_per_sec) {
        Some(bit_nanos) => bit_nanos / (8 * 1_000_000_000),
        None => (backlog.as_nanos() as u128 * bits_per_sec as u128 / (8 * 1_000_000_000)) as u64,
    };
    bytes as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let t = Instant::from_millis(1500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_millis(), 1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = Instant::from_secs(1) + Duration::from_millis(200);
        assert_eq!(t.as_millis(), 1200);
        assert_eq!(
            (t - Instant::from_secs(1)).as_millis(),
            Duration::from_millis(200).as_millis()
        );
        // Saturating subtraction.
        assert_eq!(
            Instant::from_secs(1) - Instant::from_secs(2),
            Duration::ZERO
        );
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_micros(10);
        assert_eq!(d.mul(3).as_micros(), 30);
        assert_eq!(d.div(2).as_micros(), 5);
    }

    #[test]
    fn transmission_times() {
        // 1500 bytes at 1 Gb/s = 12 microseconds.
        assert_eq!(
            transmission_time(1500, 1_000_000_000),
            Duration::from_micros(12)
        );
        // 1 byte at 1 Gb/s = 8 ns.
        assert_eq!(transmission_time(1, 1_000_000_000), Duration::from_nanos(8));
        // Rounded up.
        assert_eq!(transmission_time(1, 3_000_000_000), Duration::from_nanos(3));
        // Zero rate means instantaneous (infinite-capacity) links.
        assert_eq!(transmission_time(1500, 0), Duration::ZERO);
    }

    /// The wide arithmetic both functions used to do unconditionally.
    fn reference(bytes: usize, backlog_nanos: u64, bps: u64) -> (u64, usize) {
        let tx = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bps as u128) as u64;
        let queued = (backlog_nanos as u128 * bps as u128 / 8 / 1_000_000_000) as usize;
        (tx, queued)
    }

    #[test]
    fn narrow_link_math_matches_the_wide_reference() {
        let check = |bytes: usize, backlog_nanos: u64, bps: u64| {
            let (tx, queued) = reference(bytes, backlog_nanos, bps);
            assert_eq!(
                transmission_time(bytes, bps).as_nanos(),
                tx,
                "transmission_time({bytes}, {bps})"
            );
            assert_eq!(
                queued_bytes(Duration::from_nanos(backlog_nanos), bps),
                queued,
                "queued_bytes({backlog_nanos} ns, {bps})"
            );
        };
        // Either side of where each product stops fitting a `u64`:
        // bytes × 8 × 10⁹ for serialization, nanos × bps for backlog.
        let tx_edge = (u64::MAX / 8_000_000_000) as usize;
        for bytes in tx_edge - 2..=tx_edge + 2 {
            check(bytes, 0, 1_000_000_000);
            check(bytes, 0, 7);
        }
        for bps in [1u64, 3, 1_000_000_000, 400_000_000_000] {
            let backlog_edge = u64::MAX / bps;
            for nanos in backlog_edge.saturating_sub(2)..=backlog_edge.saturating_add(2) {
                check(1, nanos, bps);
            }
        }
        // Random frames and rates across both regimes, odd rates included
        // so every rounding direction is exercised.
        let mut rng = crate::rng::Rng::new(0x11E4);
        for _ in 0..20_000 {
            let bytes = match rng.gen_range(4) {
                0 => rng.gen_range(1 << 44) as usize,
                _ => rng.gen_range(10_000) as usize,
            };
            let backlog = match rng.gen_range(4) {
                0 => rng.next_u64(),
                _ => rng.gen_range(50_000_000),
            };
            let bps = match rng.gen_range(3) {
                0 => 1 + rng.gen_range(1_000),
                1 => 1 + rng.gen_range(400_000_000_000),
                _ => [10_000_000, 1_000_000_000, 100_000_000_000][rng.gen_index(3)],
            };
            check(bytes, backlog, bps);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_nanos(5).to_string(), "5ns");
        assert_eq!(Duration::from_micros(5).to_string(), "5.000us");
        assert_eq!(Duration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Duration::from_secs(5).to_string(), "5.000s");
    }
}
