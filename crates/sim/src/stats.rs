//! Measurement primitives: counters, sample histograms.

use std::collections::BTreeMap;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter { value: 0 }
    }

    /// Add one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub const fn get(&self) -> u64 {
        self.value
    }
}

/// A sample-retaining histogram with exact quantiles.
///
/// Retains every recorded value (the simulator's sample counts are modest),
/// so quantiles are exact rather than bucketed approximations.
///
/// [`Histogram::samples`] always returns samples in recording order;
/// quantile queries maintain a separate lazily-rebuilt sorted copy and
/// never disturb it.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record a sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    fn ensure_sorted(&mut self) {
        if self.sorted.len() != self.samples.len() {
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.samples);
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) by the nearest-rank method, or `None`
    /// if empty. Sorts into a side buffer; `samples()` is unaffected.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let rank = ((q.clamp(0.0, 1.0)) * (self.sorted.len() - 1) as f64).round() as usize;
        Some(self.sorted[rank])
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// All samples in recording order. Quantile queries do not perturb
    /// this: sorting happens in a separate cached buffer.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Typed handle to a pre-registered counter: an O(1) array index.
///
/// Obtain one with [`Metrics::register_counter`] at setup time and use it
/// on the hot path instead of a string name — no map lookup, no hashing,
/// no allocation per increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(u32);

/// Typed handle to a pre-registered histogram. See [`CounterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistogramId(u32);

/// A registry of named metrics, used by nodes and experiment harnesses.
///
/// The write path is typed: callers register names once (setup time) and
/// receive [`CounterId`] / [`HistogramId`] handles that index directly
/// into dense storage. The read path stays name-based — reports, tests,
/// and the snapshot exporter iterate `(name, value)` pairs in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Vec<Counter>,
    histograms: Vec<Histogram>,
    counter_index: BTreeMap<String, u32>,
    histogram_index: BTreeMap<String, u32>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Register (or look up) the counter `name`, returning its typed
    /// handle. Registering the same name twice returns the same handle.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        if let Some(&idx) = self.counter_index.get(name) {
            return CounterId(idx);
        }
        let idx = u32::try_from(self.counters.len()).expect("too many counters");
        self.counters.push(Counter::new());
        self.counter_index.insert(name.to_string(), idx);
        CounterId(idx)
    }

    /// Register (or look up) the histogram `name`, returning its typed
    /// handle. Registering the same name twice returns the same handle.
    pub fn register_histogram(&mut self, name: &str) -> HistogramId {
        if let Some(&idx) = self.histogram_index.get(name) {
            return HistogramId(idx);
        }
        let idx = u32::try_from(self.histograms.len()).expect("too many histograms");
        self.histograms.push(Histogram::new());
        self.histogram_index.insert(name.to_string(), idx);
        HistogramId(idx)
    }

    /// Add `n` to a registered counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].add(n);
    }

    /// Add one to a registered counter.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.counters[id.0 as usize].incr();
    }

    /// Read a registered counter by handle.
    #[inline]
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].get()
    }

    /// Record a sample in a registered histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0 as usize].record(value);
    }

    /// Read a counter by name (zero if never registered). Report-path
    /// only — hot paths should hold a [`CounterId`].
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&idx| self.counters[idx as usize].get())
    }

    /// Access a histogram mutably by name (quantiles need `&mut`),
    /// registering it if absent. Report-path only.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        let id = self.register_histogram(name);
        &mut self.histograms[id.0 as usize]
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_index
            .iter()
            .map(|(k, &idx)| (k.as_str(), self.counters[idx as usize].get()))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_index
            .iter()
            .map(move |(k, &idx)| (k.as_str(), &self.histograms[idx as usize]))
    }

    /// Fold another registry into this one by name: counters are summed,
    /// histogram samples appended. Used to merge per-shard registries
    /// after a sharded run — the result is shard-count-independent for
    /// counters (addition commutes); histogram sample *order* follows
    /// shard order, so quantiles are exact but ordering-sensitive
    /// consumers should not be fed merged histograms.
    pub fn merge_from(&mut self, other: &Metrics) {
        for (name, value) in other.counters() {
            let id = self.register_counter(name);
            self.add(id, value);
        }
        for (name, hist) in other.histograms() {
            let id = self.register_histogram(name);
            for &sample in hist.samples() {
                self.histograms[id.0 as usize].record(sample);
            }
        }
    }

    /// Serialize every counter and histogram as deterministic JSON-lines,
    /// in name order. Takes `&mut self` because quantile queries build the
    /// histogram sort caches.
    pub fn write_jsonl(&mut self, out: &mut String) {
        use zen_telemetry::json::Line;
        for (name, value) in self.counters() {
            Line::new("counter")
                .str("name", name)
                .u64("value", value)
                .finish(out);
        }
        let names: Vec<String> = self.histogram_index.keys().cloned().collect();
        for name in names {
            let h = self.histogram(&name);
            let (count, mean, min, max, p50, p99) = (
                h.count() as u64,
                h.mean(),
                h.min(),
                h.max(),
                h.median(),
                h.p99(),
            );
            Line::new("histogram")
                .str("name", &name)
                .u64("count", count)
                .f64("mean", mean.unwrap_or(0.0))
                .f64("min", min.unwrap_or(0.0))
                .f64("max", max.unwrap_or(0.0))
                .f64("p50", p50.unwrap_or(0.0))
                .f64("p99", p99.unwrap_or(0.0))
                .finish(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
        assert_eq!(h.median(), Some(3.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.median(), None);
    }

    #[test]
    fn histogram_p99() {
        let mut h = Histogram::new();
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.p99(), Some(98.0));
    }

    #[test]
    fn metrics_registry() {
        let mut m = Metrics::new();
        let pkts = m.register_counter("pkts");
        m.incr(pkts);
        m.add(pkts, 2);
        assert_eq!(m.get(pkts), 3);
        assert_eq!(m.counter("pkts"), 3);
        assert_eq!(m.counter("missing"), 0);
        let latency = m.register_histogram("latency");
        m.record(latency, 1.5);
        m.record(latency, 2.5);
        assert_eq!(m.histogram("latency").mean(), Some(2.0));
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["pkts"]);
    }

    #[test]
    fn metrics_registration_is_idempotent() {
        let mut m = Metrics::new();
        let a = m.register_counter("x");
        let b = m.register_counter("x");
        assert_eq!(a, b);
        m.incr(a);
        m.incr(b);
        assert_eq!(m.counter("x"), 2);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut m = Metrics::new();
        // Register out of name order; iteration must still be sorted.
        let z = m.register_counter("zeta");
        let a = m.register_counter("alpha");
        m.add(z, 1);
        m.add(a, 2);
        let got: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(got, vec![("alpha", 2), ("zeta", 1)]);
    }

    #[test]
    fn quantiles_do_not_perturb_recording_order() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.median(), Some(3.0));
        assert_eq!(h.samples(), &[5.0, 1.0, 3.0]);
        // Recording after a quantile query invalidates the sorted cache.
        h.record(0.0);
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.samples(), &[5.0, 1.0, 3.0, 0.0]);
    }
}
