//! Metric names, operation accounting, summary statistics and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: every workload reports every one of them from
/// its untraced run. `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("converge_s", "s"),
    ("reconverge_s", "s"),
    ("update_msgs", "count"),
    ("wire_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload never
/// enters reads 0 there. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("change.p50_ms", "ms"),
    ("change.p90_ms", "ms"),
    ("change.p99_ms", "ms"),
    ("topology.gen_s", "s"),
    ("sim.build_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.updates_encoded", "count"),
    ("wire.encode_cache_hit_ratio", "ratio"),
    ("core.decide_s", "s"),
    ("core.best_changes", "count"),
    ("core.full_scans_avoided", "count"),
    ("core.fast_path_ratio", "ratio"),
    ("core.descriptor_copies", "count"),
    ("sim.queue_s", "s"),
    ("sim.other_s", "s"),
    ("sim.events", "count"),
    ("sim.quiesce_ms", "ms"),
    ("bench.inject_write_s", "s"),
    ("bench.collect_read_s", "s"),
    ("bench.collect_decode_s", "s"),
    ("relay.gen_late_ms", "ms"),
    ("daemon.node_s", "s"),
    ("daemon.reactor_gap_s", "s"),
    ("wire.bgp_decode_s", "s"),
    ("wire.bgp_encode_s", "s"),
    ("rib.trie_insert_s", "s"),
    ("rib.trie_remove_s", "s"),
    ("rib.trie_lookup_ns", "ns"),
    ("daemon.frames_in", "count"),
    ("daemon.frames_out", "count"),
    ("daemon.frames_out_per_route", "ratio"),
    ("daemon.full_scans_avoided", "count"),
    ("trace.overhead_s", "s"),
];

/// Operations attempted and failed. A failure keeps a short reason;
/// the first few are printed.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reasons for the first failures.
    pub reasons: Vec<String>,
}

impl Ops {
    /// Count one operation; a failed one records `why()`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
        ok
    }

    /// Count `n` operations that all failed for one reason.
    pub fn fail_many(&mut self, n: u64, why: String) {
        self.attempted += n;
        self.failed += n;
        self.note(why);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            self.note(r);
        }
    }
}

/// Whether another repetition, at the mean pace of the `done` ones
/// measured since `measured`, still ends within `seconds` of `run`.
pub fn room_for_another(run: Instant, measured: Instant, done: usize, seconds: f64) -> bool {
    let pace = measured.elapsed().as_secs_f64() / done.max(1) as f64;
    run.elapsed().as_secs_f64() + pace <= seconds
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `p` in `(0, 100]` of latency samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One line per metric: median, quartiles, sample count and, for a
/// few samples, each one in run order.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let each = if samples.len() <= 20 {
        let list: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        format!(" [{}]", list.join(" "))
    } else {
        String::new()
    };
    format!(
        "  {name:<28} median {:>14.6} {unit:<5} q1 {:.6} q3 {:.6} n={}{each}",
        median(samples),
        quantile(samples, 0.25),
        quantile(samples, 0.75),
        samples.len()
    )
}

/// Print the host line and the final JSON result line. `metrics` must
/// hold every name of `names`; a missing or non-finite value marks the
/// result incorrect.
pub fn print_result(names: &[(&str, &str)], metrics: &BTreeMap<String, f64>, ops: &Ops) -> bool {
    let mut correct = ops.failed == 0 && ops.attempted > 0;
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                eprintln!("perfbench: metric {name} missing or not finite");
                correct = false;
                0.0
            }
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for why in &ops.reasons {
        println!("FAILED: {why}");
    }
    println!("host: nproc={} cpu=\"{}\"", crate::host::nproc(), crate::host::cpu_model());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        fields.join(", ")
    );
    correct
}
