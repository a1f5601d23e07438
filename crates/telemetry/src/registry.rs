//! The metrics registry: counters, gauges, and log₂-bucketed histograms.
//!
//! Every node owns one [`Registry`]; consensus, overlay, and ledger code
//! update it on the hot path, so the primitives are deliberately cheap —
//! a counter bump is one `BTreeMap` lookup plus an add, a histogram
//! observation additionally computes `ilog2` of the sample. There is no
//! interior mutability and no locking: nodes are single-threaded state
//! machines here, exactly like the SCP crate itself.
//!
//! [`Registry::snapshot`] exports everything as a [`Json`] object (the
//! machine-readable half of the §7 evaluation tables); histograms report
//! count/sum/min/max plus p50/p75/p99 estimated from bucket upper bounds.

use crate::json::Json;
use std::collections::BTreeMap;

/// Number of log₂ buckets: covers u64's full range (bucket `i` holds
/// values with `ilog2(v) == i - 1`, bucket 0 holds zero).
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket boundaries are powers of two, so recording costs one
/// `leading_zeros` and quantiles resolve to a bucket's upper bound —
/// at most 2× off, which is plenty for latency distributions whose
/// interesting differences are order-of-magnitude.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => v.ilog2() as usize + 1,
        }
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            i if i >= 64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate (`p` in 0–100): the upper bound of
    /// the bucket holding the p-th sample, clamped to the observed max.
    fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON summary: `{count, sum, mean, min, max, p50, p75, p99}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("mean", self.mean())
            .set("min", self.min())
            .set("max", self.max)
            .set("p50", self.quantile(50.0))
            .set("p75", self.quantile(75.0))
            .set("p99", self.quantile(99.0))
    }
}

/// One node's metric store.
///
/// Metric names are dotted paths (`scp.envelope_in.prepare`,
/// `ledger.txset_size`); the snapshot groups them flat under `counters`,
/// `gauges`, and `histograms`. Unknown names spring into existence on
/// first touch — instrumentation sites never pre-register.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Heap bytes of a metric table: each name's bytes, and a B-tree node of
/// 11 slots for about every 7 entries.
fn table_bytes<V>(table: &BTreeMap<String, V>) -> u64 {
    let names: usize = table.keys().map(String::capacity).sum();
    let nodes = table.len().div_ceil(7);
    (names + nodes * (16 + 11 * std::mem::size_of::<(String, V)>())) as u64
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Heap bytes the counters, gauges and histograms hold.
    pub fn resident_bytes(&self) -> u64 {
        table_bytes(&self.counters) + table_bytes(&self.gauges) + table_bytes(&self.histograms)
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `by`.
    pub fn add(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    #[cfg(test)]
    /// Current value of gauge `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Read access to histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges every metric of `other` into this registry (counters and
    /// histograms sum; gauges take `other`'s value — last write wins,
    /// matching a scrape of the most recent state).
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
        for (name, v) in &other.gauges {
            self.set_gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Exports the full registry as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count,
    /// sum, mean, min, max, p50, p75, p99}}}`.
    pub fn snapshot(&self) -> Json {
        let mut counters = Json::obj();
        for (name, v) in &self.counters {
            counters = counters.set(name, *v);
        }
        let mut gauges = Json::obj();
        for (name, v) in &self.gauges {
            gauges = gauges.set(name, *v);
        }
        let mut histograms = Json::obj();
        for (name, h) in &self.histograms {
            histograms = histograms.set(name, h.to_json());
        }
        Json::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.inc("a");
        r.inc("a");
        r.add("b", 10);
        r.set_gauge("g", -5);
        assert_eq!(r.counter("a"), 2);
        assert_eq!(r.counter("b"), 10);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("g"), -5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Log2 buckets: quantile lands on a power-of-two upper bound, at
        // most 2x above the true value and never above the observed max.
        let p50 = h.quantile(50.0);
        assert!((50..=100).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(99.0);
        assert!((99..=100).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(100.0), 100);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(50.0), 0);
        assert_eq!(h.min(), 0);
        h.observe(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(99.0), 0);
    }

    #[test]
    fn histogram_extreme_values() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(100.0), u64::MAX);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Registry::new();
        a.inc("c");
        a.observe("h", 4);
        let mut b = Registry::new();
        b.add("c", 2);
        b.observe("h", 8);
        b.set_gauge("g", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().max(), 8);
    }

    #[test]
    fn snapshot_shape() {
        let mut r = Registry::new();
        r.inc("scp.envelope_in.prepare");
        r.observe("ledger.apply_us", 1234);
        let snap = r.snapshot();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("scp.envelope_in.prepare"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let hist = snap
            .get("histograms")
            .and_then(|h| h.get("ledger.apply_us"))
            .expect("histogram present");
        for key in ["count", "sum", "mean", "min", "max", "p50", "p75", "p99"] {
            assert!(hist.get(key).is_some(), "missing {key}");
        }
        // Snapshot renders to parseable JSON.
        assert!(Json::parse(&snap.render()).is_ok());
    }
}
