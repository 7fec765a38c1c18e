//! # zen-bench — the ledger, and the experiment binaries it has not replaced yet
//!
//! The repo's one benchmark is the `ledger` binary (`src/bin/ledger/`,
//! declared in `BENCHMARK.json`; its README says what it measures).
//! Seven printed-table experiments remain under `benches/` until a
//! ledger workload covers them: E2 (`fib`, the only user of the
//! [`harness`] below), E7/E13 (`expt_convergence`), E8
//! (`expt_te_utilization`), E11 (`expt_update_disruption`), E17's
//! open-loop sweep (`expt_saturation`), E18 (`expt_storm`) and E19
//! (`expt_consistent_update`). `cargo bench -p zen-bench --bench <name>`
//! runs one; `EXPERIMENTS.md` records the results, and the last tables
//! of the experiments retired in PR 22.

/// A minimal micro-benchmark harness: calibrated batch timing with
/// median-of-samples reporting, in the spirit of criterion but ~100
/// lines and dependency-free.
pub mod harness {
    use std::time::{Duration, Instant};

    /// A named group of benchmarks sharing sampling parameters.
    ///
    /// ```no_run
    /// use zen_bench::harness::Bench;
    /// let mut g = Bench::group("E2/fib_lookup");
    /// g.run("exact/100", || 2 + 2);
    /// ```
    pub struct Bench {
        group: String,
        samples: usize,
        warm_up: Duration,
        measure: Duration,
        /// Logical elements each iteration processes, for a derived rate.
        elements: Option<u64>,
    }

    impl Bench {
        /// A group named `group` with default sampling (10 samples,
        /// 200 ms warm-up, 1 s measurement).
        pub fn group(group: &str) -> Bench {
            Bench {
                group: group.to_string(),
                samples: 10,
                warm_up: Duration::from_millis(200),
                measure: Duration::from_secs(1),
                elements: None,
            }
        }

        /// Set the number of timed samples per benchmark.
        pub fn samples(mut self, n: usize) -> Bench {
            self.samples = n.max(1);
            self
        }

        /// Set the warm-up duration before sampling starts.
        pub fn warm_up(mut self, d: Duration) -> Bench {
            self.warm_up = d;
            self
        }

        /// Set the total measurement budget across all samples.
        pub fn measurement(mut self, d: Duration) -> Bench {
            self.measure = d;
            self
        }

        /// Report elements per second with each result, at `n` elements
        /// per iteration (sticky until changed).
        pub fn throughput(&mut self, n: u64) -> &mut Bench {
            self.elements = Some(n);
            self
        }

        /// Time `f`, print one result line, and return the median
        /// nanoseconds per iteration.
        pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> f64 {
            // Calibrate: double the batch size until one batch costs at
            // least ~1/50 of the measurement budget, so timer overhead
            // is negligible relative to the work.
            let floor = (self.measure.as_nanos() / 50).max(1) as u64;
            let mut batch = 1u64;
            loop {
                let t0 = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                let spent = t0.elapsed().as_nanos() as u64;
                if spent >= floor || batch >= 1 << 30 {
                    break;
                }
                // Jump straight to the target once we have a rate estimate.
                batch = match (batch * floor).checked_div(spent) {
                    Some(target) => (target + 1).clamp(batch + 1, batch * 32),
                    None => batch * 2,
                };
            }

            let warm_until = Instant::now() + self.warm_up;
            while Instant::now() < warm_until {
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
            }

            let mut per_iter: Vec<f64> = (0..self.samples)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..batch {
                        std::hint::black_box(f());
                    }
                    t0.elapsed().as_nanos() as f64 / batch as f64
                })
                .collect();
            per_iter.sort_by(|a, b| a.total_cmp(b));
            let median = per_iter[per_iter.len() / 2];

            let rate = match self.elements {
                Some(n) => format!("  thrpt: {}/s", si(n as f64 / (median * 1e-9))),
                None => String::new(),
            };
            println!(
                "{}/{:<32} time: {:>12}/iter{}",
                self.group,
                name,
                format!("{}s", si(median * 1e-9)),
                rate
            );
            median
        }
    }

    /// Format `v` with an SI magnitude prefix (`12.3 M`, `456 n`, …).
    fn si(v: f64) -> String {
        const UNITS: [(f64, &str); 7] = [
            (1e9, " G"),
            (1e6, " M"),
            (1e3, " k"),
            (1.0, " "),
            (1e-3, " m"),
            (1e-6, " µ"),
            (1e-9, " n"),
        ];
        for (scale, unit) in UNITS {
            if v >= scale {
                return format!("{:.2}{}", v / scale, unit);
            }
        }
        format!("{v:.2} ")
    }
}
