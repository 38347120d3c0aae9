//! Schema validation for the committed `BENCH_sim.json` performance
//! baseline.
//!
//! The baseline is load-bearing: the telemetry overhead budget (<3%
//! events/sec on waxman-1000), the zero-copy speedup table and the
//! Tier A scenario-sweep speedup are all measured against it, so CI
//! refuses a baseline document that silently lost a field or changed a
//! type. `sim_bench --quick` (and `--validate-only`) calls
//! [`validate_sim_bench_schema`] and exits nonzero listing every
//! problem found.
//!
//! Schema v6 (this revision) records one timing per scenario: the
//! simulator has a single event engine, so the v2–v5 parallel-engine
//! columns (`wall_seconds_parallel`, `events_per_sec_parallel`,
//! `parallel_speedup`, per-record `threads`/`shards`/
//! `edge_cut_fraction`), the `hier_50k` sharded leg (`shards`,
//! `edge_cut_fraction`, `events_per_shard`, `*_sharded`,
//! `sharded_speedup`, `threads`) and the top-level
//! `serial_fallback_threshold` are gone. Everything else is retained:
//! v5's hot-path accounting (`full_scans_avoided`, `frames_coalesced`,
//! the `hier_50k` coalescing leg, `phase_times`), v4's `hier_50k`
//! block, v3's `fulltable` block, and the `tier_a` block with its
//! `host_cpus`/`host_cpus_note` admission. Older documents — v1
//! through v5 — are rejected by tag, so a stale generator can't slip
//! an old-shape document past CI.

use serde_json::Value;

/// Schema identifier every `BENCH_sim.json` document must carry.
pub const SIM_BENCH_SCHEMA: &str = "dbgp-sim-bench/v6";

/// Fields every per-scenario record must carry, with their types
/// checked: `quiesced` is a bool; the wall-time and events-per-sec
/// fields are floats; everything else an unsigned integer.
pub const REQUIRED_METRICS: [&str; 14] = [
    "nodes",
    "edges",
    "events",
    "wall_seconds_serial",
    "events_per_sec_serial",
    "messages",
    "bytes_delivered",
    "updates_encoded",
    "encode_cache_hits",
    "bytes_allocated",
    "best_changes",
    "full_scans_avoided",
    "frames_coalesced",
    "quiesced",
];

/// Fields the `hier_50k` block must carry. The `mrai0_*` pair comes
/// from the coalescing leg: the same topology run per-change vs staged
/// at `mrai = 0`, whose packed stream must encode fewer frames
/// (`mrai0_coalesced_updates_encoded` < `mrai0_updates_encoded`) while
/// converging to the identical RIB (`coalesce_rib_match`).
pub const REQUIRED_HIER: [&str; 13] = [
    "nodes",
    "edges",
    "events",
    "wall_seconds_serial",
    "events_per_sec_serial",
    "messages",
    "best_changes",
    "full_scans_avoided",
    "mrai0_updates_encoded",
    "mrai0_coalesced_updates_encoded",
    "frames_coalesced",
    "coalesce_rib_match",
    "quiesced",
];

/// Fields every record in the `fulltable` block must carry. The float
/// set holds the derived rates; `quiesced` is the burst-replay
/// convergence bit; everything else is an unsigned count.
pub const REQUIRED_FULLTABLE: [&str; 12] = [
    "routes",
    "updates",
    "wire_bytes",
    "bytes_per_route",
    "ingest_seconds",
    "routes_per_sec_ingest",
    "decode_ns_per_route",
    "rib_bytes_per_route",
    "burst_events",
    "burst_events_per_sec",
    "full_scans_avoided",
    "quiesced",
];

/// Fields the top-level `phase_times` block must carry: wall seconds
/// spent in each hot-path phase of an instrumented serial waxman-1000
/// leg, plus the leg's total wall time. Host-dependent, like every
/// other wall-clock figure in the document.
pub const REQUIRED_PHASE_TIMES: [&str; 5] =
    ["decode_seconds", "decide_seconds", "encode_seconds", "queue_seconds", "wall_seconds"];

/// Fields the Tier A sweep block must carry (scenario-level
/// parallelism: a multi-seed run timed serial vs pooled).
pub const REQUIRED_TIER_A: [&str; 6] = [
    "seeds",
    "threads",
    "total_events",
    "wall_seconds_serial",
    "wall_seconds_parallel",
    "parallel_speedup",
];

fn field_ok(record: &Value, field: &str) -> bool {
    match field {
        "quiesced" | "coalesce_rib_match" => record.get(field).and_then(Value::as_bool).is_some(),
        "wall_seconds_serial" | "events_per_sec_serial" => {
            record.get(field).and_then(Value::as_f64).is_some()
        }
        _ => record.get(field).and_then(Value::as_u64).is_some(),
    }
}

/// Validate a committed baseline document's shape; returns a list of
/// problems, one human-readable line each (empty = valid).
pub fn validate_sim_bench_schema(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    match doc.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == SIM_BENCH_SCHEMA => {}
        Some(tag) if tag.starts_with("dbgp-sim-bench/") => {
            problems.push(format!(
                "schema \"{tag}\" is outdated: this validator requires \"{SIM_BENCH_SCHEMA}\" \
                 (regenerate with a full `sim_bench` run)"
            ));
        }
        _ => problems.push(format!("schema field must be \"{SIM_BENCH_SCHEMA}\"")),
    }
    if doc.get("seed").and_then(Value::as_u64).is_none() {
        problems.push("seed must be an unsigned integer".into());
    }
    for field in ["threads", "host_cpus"] {
        if doc.get(field).and_then(Value::as_u64).is_none() {
            problems.push(format!("{field} must be an unsigned integer"));
        }
    }
    match doc.get("phase_times") {
        Some(pt) if pt.as_object().is_some() => {
            for field in REQUIRED_PHASE_TIMES {
                if pt.get(field).and_then(Value::as_f64).is_none() {
                    problems.push(format!("phase_times.{field} missing or mistyped"));
                }
            }
        }
        _ => problems.push("missing object block \"phase_times\"".into()),
    }
    // An oversubscribed recording host cannot measure parallel speedup:
    // with fewer CPUs than worker threads the Tier A "parallel" column
    // is a bookkeeping-overhead check, not a speedup. Such a document
    // must say so next to the numbers, keyed by the CPU count that
    // makes it true, so nobody (human or CI) reads ~1.0x as a
    // regression or a win.
    let host_cpus = doc.get("host_cpus").and_then(Value::as_u64);
    let threads = doc.get("threads").and_then(Value::as_u64);
    if let (Some(cpus), Some(threads)) = (host_cpus, threads) {
        if cpus < threads {
            match doc.get("host_cpus_note").and_then(Value::as_str) {
                Some(note) if !note.trim().is_empty() => {}
                _ => problems.push(format!(
                    "host_cpus={cpus} < threads={threads}: the tier_a parallel timing is not \
                     measured speedup; a non-empty \"host_cpus_note\" string must say so \
                     (or re-record on a host with >= {threads} CPUs)"
                )),
            }
        }
    }
    for block in ["baseline", "current"] {
        let Some(scenarios) = doc.get(block).and_then(Value::as_object) else {
            problems.push(format!("missing object block \"{block}\""));
            continue;
        };
        if !scenarios.iter().any(|(name, _)| name == "waxman50_churn") {
            problems.push(format!("{block} lacks the waxman50_churn scenario"));
        }
        for (name, record) in scenarios {
            for field in REQUIRED_METRICS {
                if !field_ok(record, field) {
                    problems.push(format!("{block}.{name}.{field} missing or mistyped"));
                }
            }
        }
    }
    if doc.get("speedup").and_then(Value::as_object).is_none() {
        problems.push("missing object block \"speedup\"".into());
    }
    match doc.get("fulltable").and_then(Value::as_object) {
        Some(records) => {
            if !records.iter().any(|(name, _)| name == "fulltable_100k") {
                problems.push("fulltable lacks the fulltable_100k scenario".into());
            }
            for (name, record) in records {
                for field in REQUIRED_FULLTABLE {
                    let ok = match field {
                        "quiesced" => record.get(field).and_then(Value::as_bool).is_some(),
                        "bytes_per_route"
                        | "ingest_seconds"
                        | "routes_per_sec_ingest"
                        | "decode_ns_per_route"
                        | "rib_bytes_per_route"
                        | "burst_events_per_sec" => {
                            record.get(field).and_then(Value::as_f64).is_some()
                        }
                        _ => record.get(field).and_then(Value::as_u64).is_some(),
                    };
                    if !ok {
                        problems.push(format!("fulltable.{name}.{field} missing or mistyped"));
                    }
                }
            }
        }
        None => problems.push("missing object block \"fulltable\"".into()),
    }
    match doc.get("hier_50k") {
        Some(hier) if hier.as_object().is_some() => {
            for field in REQUIRED_HIER {
                if !field_ok(hier, field) {
                    problems.push(format!("hier_50k.{field} missing or mistyped"));
                }
            }
        }
        _ => problems.push("missing object block \"hier_50k\"".into()),
    }
    match doc.get("tier_a") {
        Some(tier_a) if tier_a.as_object().is_some() => {
            for field in REQUIRED_TIER_A {
                let ok = match field {
                    "wall_seconds_serial" | "wall_seconds_parallel" | "parallel_speedup" => {
                        tier_a.get(field).and_then(Value::as_f64).is_some()
                    }
                    _ => tier_a.get(field).and_then(Value::as_u64).is_some(),
                };
                if !ok {
                    problems.push(format!("tier_a.{field} missing or mistyped"));
                }
            }
        }
        _ => problems.push("missing object block \"tier_a\"".into()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn record() -> Value {
        json!({
            "nodes": 50u64, "edges": 97u64, "events": 1000u64,
            "wall_seconds_serial": 0.5f64, "events_per_sec_serial": 2000.0f64,
            "messages": 10u64, "bytes_delivered": 100u64,
            "updates_encoded": 5u64, "encode_cache_hits": 3u64,
            "bytes_allocated": 4096u64, "best_changes": 7u64,
            "full_scans_avoided": 4u64, "frames_coalesced": 0u64,
            "quiesced": true,
        })
    }

    fn hier_record() -> Value {
        json!({
            "nodes": 50_000u64, "edges": 78_000u64, "events": 2_000_000u64,
            "wall_seconds_serial": 20.0f64, "events_per_sec_serial": 100_000.0f64,
            "messages": 1_000_000u64, "best_changes": 100_000u64,
            "full_scans_avoided": 50_000u64,
            "mrai0_updates_encoded": 900_000u64,
            "mrai0_coalesced_updates_encoded": 600_000u64,
            "frames_coalesced": 300_000u64,
            "coalesce_rib_match": true,
            "quiesced": true,
        })
    }

    fn phase_times() -> Value {
        json!({
            "scenario": "waxman1000",
            "decode_seconds": 0.2f64, "decide_seconds": 0.5f64,
            "encode_seconds": 0.1f64, "queue_seconds": 0.15f64,
            "wall_seconds": 1.2f64,
        })
    }

    fn tier_a() -> Value {
        json!({
            "seeds": 8u64, "threads": 4u64, "total_events": 12345u64,
            "wall_seconds_serial": 1.0f64, "wall_seconds_parallel": 0.5f64,
            "parallel_speedup": 2.0f64,
        })
    }

    fn fulltable_record() -> Value {
        json!({
            "routes": 100_000u64, "updates": 12_000u64, "wire_bytes": 1_500_000u64,
            "bytes_per_route": 15.0f64, "ingest_seconds": 0.4f64,
            "routes_per_sec_ingest": 250_000.0f64, "decode_ns_per_route": 120.0f64,
            "rib_bytes_per_route": 96.0f64,
            "burst_events": 40_000u64, "burst_events_per_sec": 90_000.0f64,
            "full_scans_avoided": 1_000u64,
            "quiesced": true,
        })
    }

    fn valid_doc() -> Value {
        json!({
            "schema": SIM_BENCH_SCHEMA,
            "seed": 42u64,
            "threads": 4u64,
            "host_cpus": 4u64,
            "phase_times": phase_times(),
            "baseline": { "waxman50_churn": record() },
            "current": { "waxman50_churn": record() },
            "speedup": {},
            "fulltable": { "fulltable_100k": fulltable_record() },
            "hier_50k": hier_record(),
            "tier_a": tier_a(),
        })
    }

    fn set(doc: &mut Value, block: &str, field: &str, v: Value) {
        let rec = doc
            .get_mut(block)
            .and_then(|b| b.get_mut("waxman50_churn"))
            .and_then(Value::as_object_mut)
            .unwrap();
        if let Some(slot) = rec.iter_mut().find(|(k, _)| k == field) {
            slot.1 = v;
        }
    }

    fn remove(doc: &mut Value, block: &str, field: &str) {
        let rec = doc
            .get_mut(block)
            .and_then(|b| b.get_mut("waxman50_churn"))
            .and_then(Value::as_object_mut)
            .unwrap();
        rec.retain(|(k, _)| k != field);
    }

    #[test]
    fn a_complete_document_validates() {
        assert_eq!(validate_sim_bench_schema(&valid_doc()), Vec::<String>::new());
    }

    /// A document recorded with fewer CPUs than worker threads must
    /// carry a `host_cpus_note` admitting the parallel columns are not
    /// measured speedup; with the note it passes, without it (or with
    /// a blank one) it is rejected.
    #[test]
    fn single_cpu_recordings_require_the_host_cpus_note() {
        let single_cpu = |note: Option<Value>| {
            let mut doc = valid_doc();
            if let Some(o) = doc.as_object_mut() {
                for slot in o.iter_mut() {
                    if slot.0 == "host_cpus" {
                        slot.1 = Value::UInt(1);
                    }
                }
                if let Some(n) = note {
                    o.push(("host_cpus_note".into(), n));
                }
            }
            doc
        };

        let problems = validate_sim_bench_schema(&single_cpu(None));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("host_cpus=1 < threads=4")
                && problems[0].contains("host_cpus_note"),
            "{problems:?}"
        );

        let problems = validate_sim_bench_schema(&single_cpu(Some(Value::String("  ".into()))));
        assert_eq!(problems.len(), 1, "a blank note is no note: {problems:?}");

        let noted = single_cpu(Some(Value::String(
            "host_cpus=1: parallel timings are overhead checks, not speedup".into(),
        )));
        assert_eq!(validate_sim_bench_schema(&noted), Vec::<String>::new());

        // A multi-core recording needs no note (valid_doc has
        // host_cpus == threads and passes above); threads <= cpus with
        // an extra note present is also fine.
        let mut doc = valid_doc();
        if let Some(o) = doc.as_object_mut() {
            o.push(("host_cpus_note".into(), Value::String("recorded on 4 cores".into())));
        }
        assert_eq!(validate_sim_bench_schema(&doc), Vec::<String>::new());
    }

    #[test]
    fn every_required_metric_is_load_bearing() {
        for field in REQUIRED_METRICS {
            let mut doc = valid_doc();
            remove(&mut doc, "current", field);
            let problems = validate_sim_bench_schema(&doc);
            assert_eq!(
                problems,
                vec![format!("current.waxman50_churn.{field} missing or mistyped")],
                "dropping {field} must be caught"
            );
        }
    }

    #[test]
    fn type_confusion_is_caught() {
        let mut doc = valid_doc();
        set(&mut doc, "baseline", "events", Value::String("1000".into()));
        let problems = validate_sim_bench_schema(&doc);
        assert_eq!(problems, vec!["baseline.waxman50_churn.events missing or mistyped"]);

        let mut doc = valid_doc();
        set(&mut doc, "baseline", "quiesced", Value::UInt(1));
        assert_eq!(
            validate_sim_bench_schema(&doc),
            vec!["baseline.waxman50_churn.quiesced missing or mistyped"]
        );

        let mut doc = valid_doc();
        set(&mut doc, "baseline", "events_per_sec_serial", Value::String("2000/s".into()));
        assert_eq!(
            validate_sim_bench_schema(&doc),
            vec!["baseline.waxman50_churn.events_per_sec_serial missing or mistyped"]
        );
    }

    #[test]
    fn missing_blocks_and_bad_schema_tag_are_caught() {
        let mut doc = valid_doc();
        if let Some(o) = doc.as_object_mut() {
            o.retain(|(k, _)| k != "baseline");
        }
        assert!(validate_sim_bench_schema(&doc)
            .contains(&"missing object block \"baseline\"".to_string()));

        let doc = json!({"schema": "bogus/v9"});
        let problems = validate_sim_bench_schema(&doc);
        assert!(problems.iter().any(|p| p.contains("schema field")));
        assert!(problems.iter().any(|p| p.contains("seed")));
        assert!(problems.iter().any(|p| p.contains("tier_a")));
    }

    /// The v1→v2 negative test: a document in the *old* shape — v1 tag,
    /// single `wall_seconds`/`events_per_sec` per record, no thread or
    /// host accounting — must be rejected both by its tag and by its
    /// field list.
    #[test]
    fn a_v1_document_is_rejected() {
        let v1_record = json!({
            "nodes": 50u64, "edges": 97u64, "events": 1000u64,
            "events_per_sec": 2000.0f64, "wall_seconds": 0.5f64,
            "messages": 10u64, "bytes_delivered": 100u64,
            "updates_encoded": 5u64, "encode_cache_hits": 3u64,
            "bytes_allocated": 4096u64, "best_changes": 7u64,
            "quiesced": true,
        });
        let doc = json!({
            "schema": "dbgp-sim-bench/v1",
            "seed": 42u64,
            "baseline": { "waxman50_churn": v1_record.clone() },
            "current": { "waxman50_churn": v1_record },
            "speedup": {},
        });
        let problems = validate_sim_bench_schema(&doc);
        assert!(
            problems.iter().any(|p| p.contains("outdated") && p.contains("dbgp-sim-bench/v1")),
            "v1 tag must be called out as outdated: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("current.waxman50_churn.wall_seconds_serial")),
            "v1 records must fail the v2 field list: {problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("host_cpus")));
        assert!(problems.iter().any(|p| p.contains("tier_a")));
    }

    /// The v2→v3 negative test: a document in the v2 shape — v2 tag,
    /// full per-scenario thread accounting, but no `fulltable` block —
    /// must be rejected both by its tag and by the missing block, so a
    /// pre-fulltable generator can't pass the v3 validator.
    #[test]
    fn a_v2_document_is_rejected() {
        let mut doc = valid_doc();
        if let Some(o) = doc.as_object_mut() {
            o.retain(|(k, _)| k != "fulltable");
            for slot in o.iter_mut() {
                if slot.0 == "schema" {
                    slot.1 = Value::String("dbgp-sim-bench/v2".into());
                }
            }
        }
        let problems = validate_sim_bench_schema(&doc);
        assert!(
            problems.iter().any(|p| p.contains("outdated") && p.contains("dbgp-sim-bench/v2")),
            "v2 tag must be called out as outdated: {problems:?}"
        );
        assert!(
            problems.contains(&"missing object block \"fulltable\"".to_string()),
            "the v2 shape lacks the fulltable block: {problems:?}"
        );
    }

    /// The v3→v4 negative test: a document in the v3 shape — v3 tag,
    /// fulltable block present, but no `hier_50k` block and none of the
    /// per-record hot-path counters later generations added — must be
    /// rejected by its tag, by the missing per-record fields, and by
    /// the missing block, so a pre-hierarchy generator can't pass.
    #[test]
    fn a_v3_document_is_rejected() {
        let mut doc = valid_doc();
        if let Some(o) = doc.as_object_mut() {
            o.retain(|(k, _)| k != "hier_50k");
            for slot in o.iter_mut() {
                if slot.0 == "schema" {
                    slot.1 = Value::String("dbgp-sim-bench/v3".into());
                }
            }
        }
        for block in ["baseline", "current"] {
            remove(&mut doc, block, "full_scans_avoided");
            remove(&mut doc, block, "frames_coalesced");
        }
        let problems = validate_sim_bench_schema(&doc);
        assert!(
            problems.iter().any(|p| p.contains("outdated") && p.contains("dbgp-sim-bench/v3")),
            "v3 tag must be called out as outdated: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("current.waxman50_churn.frames_coalesced")),
            "v3 records lack the hot-path counters: {problems:?}"
        );
        assert!(
            problems.contains(&"missing object block \"hier_50k\"".to_string()),
            "the v3 shape lacks the hier_50k block: {problems:?}"
        );
    }

    /// The v4→v5 negative test: a document in the v4 shape — v4 tag,
    /// shard accounting and hier block present, but no hot-path
    /// accounting (`full_scans_avoided` / `frames_coalesced` on the
    /// records, no coalescing leg in `hier_50k`, no top-level
    /// `phase_times`) and here also missing `host_cpus` — must be
    /// rejected by its tag AND by every missing field, so a
    /// pre-incremental generator can't pass the validator.
    #[test]
    fn a_v4_document_is_rejected() {
        let mut doc = valid_doc();
        if let Some(o) = doc.as_object_mut() {
            o.retain(|(k, _)| k != "phase_times" && k != "host_cpus");
            for slot in o.iter_mut() {
                if slot.0 == "schema" {
                    slot.1 = Value::String("dbgp-sim-bench/v4".into());
                }
            }
        }
        for block in ["baseline", "current"] {
            remove(&mut doc, block, "full_scans_avoided");
            remove(&mut doc, block, "frames_coalesced");
        }
        let hier = doc.get_mut("hier_50k").and_then(Value::as_object_mut).unwrap();
        hier.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "full_scans_avoided"
                    | "mrai0_updates_encoded"
                    | "mrai0_coalesced_updates_encoded"
                    | "frames_coalesced"
                    | "coalesce_rib_match"
            )
        });
        let ft = doc
            .get_mut("fulltable")
            .and_then(|b| b.get_mut("fulltable_100k"))
            .and_then(Value::as_object_mut)
            .unwrap();
        ft.retain(|(k, _)| k != "full_scans_avoided");
        let problems = validate_sim_bench_schema(&doc);
        assert!(
            problems.iter().any(|p| p.contains("outdated") && p.contains("dbgp-sim-bench/v4")),
            "v4 tag must be called out as outdated: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("current.waxman50_churn.full_scans_avoided")),
            "v4 records lack hot-path accounting: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("hier_50k.coalesce_rib_match")),
            "the v4 hier block lacks the coalescing leg: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("fulltable.fulltable_100k.full_scans_avoided")),
            "the v4 fulltable record lacks full_scans_avoided: {problems:?}"
        );
        assert!(
            problems.contains(&"missing object block \"phase_times\"".to_string()),
            "the v4 shape lacks the phase_times block: {problems:?}"
        );
        assert!(
            problems.contains(&"host_cpus must be an unsigned integer".to_string()),
            "a missing top-level host_cpus is flagged: {problems:?}"
        );
    }

    /// The v5→v6 negative test: a v5-tagged document is rejected by its
    /// tag even when every v6 field is present, so a generator still
    /// writing the parallel-engine columns can't pass.
    #[test]
    fn a_v5_document_is_rejected() {
        let mut doc = valid_doc();
        if let Some(o) = doc.as_object_mut() {
            for slot in o.iter_mut() {
                if slot.0 == "schema" {
                    slot.1 = Value::String("dbgp-sim-bench/v5".into());
                }
            }
        }
        let problems = validate_sim_bench_schema(&doc);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("outdated") && problems[0].contains("dbgp-sim-bench/v5"),
            "v5 tag must be called out as outdated: {problems:?}"
        );
    }

    #[test]
    fn every_phase_time_field_is_load_bearing() {
        for field in REQUIRED_PHASE_TIMES {
            let mut doc = valid_doc();
            let pt = doc.get_mut("phase_times").and_then(Value::as_object_mut).unwrap();
            pt.retain(|(k, _)| k != field);
            let problems = validate_sim_bench_schema(&doc);
            assert_eq!(
                problems,
                vec![format!("phase_times.{field} missing or mistyped")],
                "dropping {field} must be caught"
            );
        }
    }

    #[test]
    fn every_hier_field_is_load_bearing() {
        for field in REQUIRED_HIER {
            let mut doc = valid_doc();
            let rec = doc.get_mut("hier_50k").and_then(Value::as_object_mut).unwrap();
            rec.retain(|(k, _)| k != field);
            let problems = validate_sim_bench_schema(&doc);
            assert_eq!(
                problems,
                vec![format!("hier_50k.{field} missing or mistyped")],
                "dropping {field} must be caught"
            );
        }
    }

    #[test]
    fn every_fulltable_field_is_load_bearing() {
        for field in REQUIRED_FULLTABLE {
            let mut doc = valid_doc();
            let rec = doc
                .get_mut("fulltable")
                .and_then(|b| b.get_mut("fulltable_100k"))
                .and_then(Value::as_object_mut)
                .unwrap();
            rec.retain(|(k, _)| k != field);
            let problems = validate_sim_bench_schema(&doc);
            assert_eq!(
                problems,
                vec![format!("fulltable.fulltable_100k.{field} missing or mistyped")],
                "dropping {field} must be caught"
            );
        }
        // The anchor record itself is required.
        let mut doc = valid_doc();
        if let Some(block) = doc.get_mut("fulltable").and_then(Value::as_object_mut) {
            block.retain(|(k, _)| k != "fulltable_100k");
        }
        assert!(validate_sim_bench_schema(&doc)
            .contains(&"fulltable lacks the fulltable_100k scenario".to_string()));
    }

    #[test]
    fn the_anchor_scenario_is_required() {
        let doc = json!({
            "schema": SIM_BENCH_SCHEMA,
            "seed": 42u64,
            "threads": 1u64,
            "host_cpus": 1u64,
            "baseline": { "other": record() },
            "current": { "waxman50_churn": record() },
            "speedup": {},
            "tier_a": tier_a(),
        });
        assert!(validate_sim_bench_schema(&doc)
            .contains(&"baseline lacks the waxman50_churn scenario".to_string()));
    }
}
