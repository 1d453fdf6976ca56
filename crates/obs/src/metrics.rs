//! A small metrics registry: counters, high-water gauges and fixed-bucket
//! histograms.
//!
//! The registry is deliberately minimal — just enough structure for the
//! quantities the AEM experiments care about (I/O counts and volume, the
//! internal-memory high-water mark, block-occupancy and re-read
//! distributions) while staying dependency-free and deterministic, so that
//! serialized metrics round-trip bit-exactly through the JSONL format.

use std::collections::BTreeMap;

crate::json_table! {
    /// A monotone value with its historical maximum.
    ///
    /// The AEM analyses care about *peaks* (does internal memory ever exceed
    /// `M`? is it empty at round boundaries?), so every `set` updates the
    /// high-water mark as a side effect.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Gauge {
        /// The most recent value.
        pub value: u64,
        /// The largest value ever set.
        pub high_water: u64,
    }
}

impl Gauge {
    /// Record a new current value, updating the high-water mark.
    pub fn set(&mut self, v: u64) {
        self.value = v;
        if v > self.high_water {
            self.high_water = v;
        }
    }
}

crate::json_table! {
    /// A histogram over `u64` samples with fixed, ascending bucket bounds.
    ///
    /// Bucket `i` counts samples `x` with `x <= bounds[i]` (and greater than
    /// the previous bound); one extra overflow bucket counts samples above
    /// the last bound. `count`, `sum` and `max` are tracked exactly, so the
    /// mean is exact even though per-sample values are bucketed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Histogram {
        /// Inclusive upper bounds of the buckets, strictly ascending.
        pub bounds: Vec<u64>,
        /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`, the
        /// final entry being the overflow bucket.
        pub counts: Vec<u64>,
        /// Total number of samples observed.
        pub count: u64,
        /// Sum of all samples.
        pub sum: u64,
        /// Largest sample observed.
        pub max: u64,
    }
}

impl Histogram {
    /// A fresh histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += sample;
        if sample > self.max {
            self.max = sample;
        }
    }

    /// Mean of all samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Backed by `BTreeMap`s so iteration (and therefore serialization) order is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increment the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (`0` if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge, creating it if absent.
    pub fn gauge_set(&mut self, name: &str, value: u64) {
        self.gauges.entry(name.to_string()).or_default().set(value);
    }

    /// Read a gauge, if it exists.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(name).copied()
    }

    /// Create (or replace) a histogram with the given bucket bounds.
    pub fn histogram_with_bounds(&mut self, name: &str, bounds: Vec<u64>) {
        self.histograms
            .insert(name.to_string(), Histogram::new(bounds));
    }

    /// Record a sample into the named histogram. The histogram must have
    /// been declared via [`Metrics::histogram_with_bounds`].
    ///
    /// # Panics
    ///
    /// Panics if the histogram was never declared — observing into an
    /// undeclared histogram is a programming error, not a runtime condition.
    pub fn observe(&mut self, name: &str, sample: u64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} was never declared"))
            .observe(sample);
    }

    /// Read a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, Gauge)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Insert a fully-built histogram (used by the JSONL parser).
    pub fn insert_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_string(), h);
    }

    /// Insert a gauge with an explicit high-water mark (used by the parser).
    pub fn insert_gauge(&mut self, name: &str, g: Gauge) {
        self.gauges.insert(name.to_string(), g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("io.reads"), 0);
        m.inc("io.reads");
        m.add("io.reads", 4);
        assert_eq!(m.counter("io.reads"), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut m = Metrics::new();
        m.gauge_set("mem", 10);
        m.gauge_set("mem", 40);
        m.gauge_set("mem", 5);
        let g = m.gauge("mem").unwrap();
        assert_eq!(g.value, 5);
        assert_eq!(g.high_water, 40);
        assert!(m.gauge("absent").is_none());
    }

    #[test]
    fn histogram_buckets_samples() {
        let mut h = Histogram::new(vec![1, 4, 16]);
        for s in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(s);
        }
        assert_eq!(h.counts, vec![2, 2, 2, 2]); // ≤1, ≤4, ≤16, overflow
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1045);
        assert!((h.mean() - 1045.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new(vec![1]).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        Histogram::new(vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn observing_undeclared_histogram_panics() {
        Metrics::new().observe("nope", 1);
    }

    #[test]
    fn registry_iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.inc("z");
        m.inc("a");
        let names: Vec<_> = m.counters().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
