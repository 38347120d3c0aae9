//! Metrics registry: counters, gauges, and log2-bucketed histograms with
//! a stable JSON snapshot schema (`dbgp-metrics/v1`).
//!
//! Counters and gauges are atomics, so code running on worker threads
//! (benchmark harnesses) can bump them through `&self` without racing
//! or tearing. Histograms keep plain storage and `&mut self`
//! observation: every histogram in the workspace is observed from a
//! single thread, and an atomic 65-bucket update would tax the hot
//! path for no consumer.

use serde_json::Value;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Schema identifier written into metric snapshots.
pub const METRICS_SCHEMA: &str = "dbgp-metrics/v1";

/// How a metric behaves across node restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Keeps accumulating across restarts (engine-wide totals).
    Accumulate,
    /// Reset to zero whenever the registry generation is bumped by a
    /// restart; the snapshot's `generation` field says which incarnation
    /// the value belongs to.
    ResetOnRestart,
}

impl Semantics {
    fn as_str(self) -> &'static str {
        match self {
            Semantics::Accumulate => "accumulate",
            Semantics::ResetOnRestart => "reset-on-restart",
        }
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

struct Counter {
    name: &'static str,
    semantics: Semantics,
    value: AtomicU64,
}

struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

/// Power-of-two bucketed histogram: bucket 0 holds zeros, bucket `k`
/// (k >= 1) holds values in `[2^(k-1), 2^k)`.
struct Histogram {
    name: &'static str,
    semantics: Semantics,
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Index of the log2 bucket a value falls into.
pub fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Registry of named metrics. Handles are plain indices, so hot-path
/// updates are a bounds-checked array access.
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
    generation: u64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Empty registry at generation 0.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            generation: 0,
        }
    }

    /// Register a counter. Names must be unique; snapshots render them in
    /// registration order.
    pub fn counter(&mut self, name: &'static str, semantics: Semantics) -> CounterId {
        assert!(self.counters.iter().all(|c| c.name != name), "duplicate counter `{name}`");
        self.counters.push(Counter { name, semantics, value: AtomicU64::new(0) });
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        assert!(self.gauges.iter().all(|g| g.name != name), "duplicate gauge `{name}`");
        self.gauges.push(Gauge { name, value: AtomicI64::new(0) });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a log2 histogram.
    pub fn histogram(&mut self, name: &'static str, semantics: Semantics) -> HistogramId {
        assert!(self.histograms.iter().all(|h| h.name != name), "duplicate histogram `{name}`");
        self.histograms.push(Histogram {
            name,
            semantics,
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Add `delta` to a counter. `&self`: counters are atomic, so
    /// concurrent workers may bump them without exclusive access.
    /// `Relaxed` suffices — counters carry no cross-thread ordering
    /// obligations, and readers observe them after a join barrier.
    #[inline]
    pub fn inc(&self, id: CounterId, delta: u64) {
        self.counters[id.0].value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite a counter (used to mirror externally maintained totals
    /// into the registry at snapshot time).
    #[inline]
    pub fn set_counter(&self, id: CounterId, value: u64) {
        self.counters[id.0].value.store(value, Ordering::Relaxed);
    }

    /// Read a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value.load(Ordering::Relaxed)
    }

    /// Set a gauge.
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, value: i64) {
        self.gauges[id.0].value.store(value, Ordering::Relaxed);
    }

    /// Read a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0].value.load(Ordering::Relaxed)
    }

    /// Record an observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0];
        h.buckets[log2_bucket(value)] += 1;
        h.count += 1;
        h.sum += value;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
    }

    /// Current restart generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bump the generation and zero every `ResetOnRestart` metric.
    /// Called by the host when a node restarts.
    pub fn on_restart(&mut self) {
        self.generation += 1;
        for c in &mut self.counters {
            if c.semantics == Semantics::ResetOnRestart {
                c.value.store(0, Ordering::Relaxed);
            }
        }
        for h in &mut self.histograms {
            if h.semantics == Semantics::ResetOnRestart {
                h.buckets = [0; 65];
                h.count = 0;
                h.sum = 0;
                h.min = u64::MAX;
                h.max = 0;
            }
        }
    }

    /// Stable JSON snapshot (`dbgp-metrics/v1`). Field order is
    /// registration order, so snapshots are byte-deterministic.
    pub fn snapshot(&self, at: u64) -> Value {
        let counters: Vec<Value> = self
            .counters
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".into(), Value::String(c.name.into())),
                    ("semantics".into(), Value::String(c.semantics.as_str().into())),
                    ("value".into(), Value::UInt(c.value.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        let gauges: Vec<Value> = self
            .gauges
            .iter()
            .map(|g| {
                Value::Object(vec![
                    ("name".into(), Value::String(g.name.into())),
                    ("value".into(), Value::Int(g.value.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        let histograms: Vec<Value> = self
            .histograms
            .iter()
            .map(|h| {
                let buckets: Vec<Value> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n > 0)
                    .map(|(i, n)| {
                        let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                        Value::Object(vec![
                            ("bucket".into(), Value::UInt(i as u64)),
                            ("lo".into(), Value::UInt(lo)),
                            ("count".into(), Value::UInt(*n)),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("name".into(), Value::String(h.name.into())),
                    ("semantics".into(), Value::String(h.semantics.as_str().into())),
                    ("count".into(), Value::UInt(h.count)),
                    ("sum".into(), Value::UInt(h.sum)),
                    ("min".into(), Value::UInt(if h.count == 0 { 0 } else { h.min })),
                    ("max".into(), Value::UInt(h.max)),
                    ("buckets".into(), Value::Array(buckets)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::String(METRICS_SCHEMA.into())),
            ("at".into(), Value::UInt(at)),
            ("generation".into(), Value::UInt(self.generation)),
            ("counters".into(), Value::Array(counters)),
            ("gauges".into(), Value::Array(gauges)),
            ("histograms".into(), Value::Array(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    /// Counters and gauges are updated through `&self` atomics, so
    /// concurrent workers (the simulator's parallel engine, benchmark
    /// harnesses) can share a registry without losing increments.
    #[test]
    fn counters_and_gauges_are_thread_safe() {
        let mut reg = MetricsRegistry::new();
        let hits = reg.counter("hits", Semantics::Accumulate);
        let level = reg.gauge("level");
        std::thread::scope(|s| {
            let reg = &reg;
            for t in 0..4 {
                s.spawn(move || {
                    for _ in 0..10_000 {
                        reg.inc(hits, 1);
                    }
                    reg.set_gauge(level, t);
                });
            }
        });
        assert_eq!(reg.counter_value(hits), 40_000);
        assert!((0..4).contains(&reg.gauge_value(level)));
    }

    #[test]
    fn restart_resets_only_reset_semantics_metrics() {
        let mut reg = MetricsRegistry::new();
        let total = reg.counter("total", Semantics::Accumulate);
        let since = reg.counter("since_restart", Semantics::ResetOnRestart);
        reg.inc(total, 10);
        reg.inc(since, 10);
        assert_eq!(reg.generation(), 0);
        reg.on_restart();
        assert_eq!(reg.generation(), 1);
        assert_eq!(reg.counter_value(total), 10);
        assert_eq!(reg.counter_value(since), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_skips_empty_buckets() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("bytes", Semantics::Accumulate);
        reg.observe(h, 0);
        reg.observe(h, 5);
        reg.observe(h, 5);
        let a = serde_json::to_string(&reg.snapshot(7)).unwrap();
        let b = serde_json::to_string(&reg.snapshot(7)).unwrap();
        assert_eq!(a, b);
        let snap = reg.snapshot(7);
        let hist = &snap.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(10));
        assert_eq!(hist.get("min").unwrap().as_u64(), Some(0));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(5));
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2); // bucket 0 (zeros) and bucket 3 ([4,8))
    }
}
