//! Control-plane throughput baseline: events/sec, UPDATEs encoded, and
//! bytes allocated for the waxman-50 churn, waxman-1000 convergence and
//! waxman-5000 scale scenarios, tracked in a committed `BENCH_sim.json`.
//! Each scenario runs on the simulator's one (serial) event engine and
//! is timed once per repeat, keeping the fastest repeat.
//!
//! Usage:
//!   sim_bench                 run all scenarios, write `BENCH_sim.json`
//!                             (preserving the recorded baseline block,
//!                             or seeding it from this run if absent)
//!   sim_bench --quick         run only waxman-50 churn, write
//!                             `results/BENCH_sim.quick.json`, and
//!                             validate the committed `BENCH_sim.json`
//!                             schema (the CI bench-smoke mode — never
//!                             rewrites the committed baseline)
//!   sim_bench --validate-only skip the scenarios entirely and just
//!                             validate the baseline document's schema
//!   sim_bench --hier-quick    run the 25×-shrunk hierarchical slice and
//!                             write `results/hier_quick.json` holding
//!                             only simulated quantities — a pure
//!                             function of the seed, which CI diffs
//!                             against the committed copy
//!   sim_bench --phase-times   run only the instrumented serial
//!                             waxman-1000 leg and print the per-phase
//!                             wall-time breakdown (decode / decide /
//!                             encode / queue); the full run embeds the
//!                             same breakdown as the document's
//!                             top-level `phase_times` block
//!   --bench-path <path>       validate <path> instead of BENCH_sim.json
//!   --threads <N>             worker threads for the Tier A seed
//!                             sweep (default `DBGP_THREADS`, else
//!                             available parallelism)
//!
//! A missing or mistyped required field in the baseline document is a
//! hard failure: the exit code is nonzero and every problem is listed.
//! Simulated quantities (events, messages, bytes, churn) are pure
//! functions of the seed; wall-time, events/sec and the Tier A speedup
//! vary with the host (the recording host's CPU count is written into
//! the document as `host_cpus`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dbgp_bench::{run_full_table, validate_sim_bench_schema, FullTableResult, SIM_BENCH_SCHEMA};
use dbgp_chaos::scenario::sim_from_graph;
use dbgp_chaos::{sweep_seeds, FaultPlan, ScenarioRunner};
use dbgp_sim::Sim;
use dbgp_topology::waxman::{self, WaxmanParams};
use dbgp_topology::AsGraph;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use serde_json::{json, Value};

/// Byte-counting shim over the system allocator: `alloc`/grow sizes
/// accumulate into [`ALLOCATED`] so scenarios can report allocation
/// pressure, not just peak RSS. The counter is a relaxed atomic, so it
/// stays coherent when the Tier A worker pool allocates from several
/// threads at once.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 42;
const SCHEMA: &str = SIM_BENCH_SCHEMA;
const BENCH_PATH: &str = "BENCH_sim.json";
const QUICK_PATH: &str = "results/BENCH_sim.quick.json";

/// Allocation regression gate for the serial waxman-1000 run. The
/// zero-copy pipeline recorded 138 839 840 bytes; the telemetry
/// metrics registry grew that to 142 982 800, and the incremental
/// decision process's reusable redecide scratch buffers (candidate
/// assembly and output staging no longer allocate per event) cut it
/// ~21% to the value below. The full benchmark asserts the serial
/// run's `bytes_allocated` stays within [`ALLOC_SLACK_PERCENT`] of
/// this budget.
const WAXMAN1000_ALLOC_BASELINE: u64 = 112_995_380;
const ALLOC_SLACK_PERCENT: u64 = 2;

/// Routes in the full-table scenario, and the reduced-scale slice the
/// update-burst replay drives through the Waxman-50 topology.
const FULLTABLE_ROUTES: usize = 100_000;
const FULLTABLE_BURST_ROUTES: usize = 2_000;
const FULLTABLE_BURST_EVENTS: usize = 400;

/// The fulltable_100k regression gates, enforced on every run
/// (including `--quick`, which is the CI bench-smoke entry point):
/// per-prefix amortized decode must stay under 1µs, and ingest
/// throughput must not collapse. The throughput floor is deliberately
/// loose — an order of magnitude under a cold-cache debug-adjacent
/// host still clears it; it exists to catch accidental O(n²) ingest,
/// not to time CI machines.
const FULLTABLE_MAX_DECODE_NS: f64 = 1_000.0;
const FULLTABLE_MIN_ROUTES_PER_SEC: f64 = 20_000.0;

/// One timed run of a scenario.
struct RunMeasurement {
    nodes: usize,
    edges: usize,
    events: u64,
    wall_seconds: f64,
    stats: dbgp_sim::SimStats,
    bytes_allocated: u64,
    full_scans_avoided: u64,
    quiesced: bool,
}

/// A scenario's fastest timed run.
struct ScenarioResult {
    name: &'static str,
    run: RunMeasurement,
}

impl RunMeasurement {
    fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

impl ScenarioResult {
    fn to_json(&self) -> Value {
        let s = &self.run;
        json!({
            "nodes": s.nodes as u64,
            "edges": s.edges as u64,
            "events": s.events,
            "wall_seconds_serial": round6(s.wall_seconds),
            "events_per_sec_serial": round2(s.events_per_sec()),
            "messages": s.stats.messages,
            "bytes_delivered": s.stats.bytes,
            "updates_encoded": s.stats.updates_encoded,
            "encode_cache_hits": s.stats.encode_cache_hits,
            "bytes_allocated": s.bytes_allocated,
            "best_changes": s.stats.best_changes,
            // Decision fast-path hits (incremental decision process) and
            // coalesced frames. The classic scenarios run per-change, so
            // frames_coalesced is always 0 here; the coalescing leg
            // lives in the hier_50k block.
            "full_scans_avoided": s.full_scans_avoided,
            "frames_coalesced": s.stats.frames_coalesced,
            "quiesced": s.quiesced,
        })
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// The /24 node `i` originates (every origin advertises a distinct
/// prefix so the RIBs and re-advertisement paths carry realistic
/// multi-prefix load).
fn origin_prefix(node: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, (node >> 8) as u8, (node & 0xff) as u8, 0), 24).unwrap()
}

/// Run [`measure`] `repeats` times and keep the fastest run: the
/// simulated quantities are identical across repeats, so best-of-N only
/// de-noises the wall-clock (and thus events/sec) on a shared host.
fn measure_best_of(
    graph: &AsGraph,
    origins: usize,
    repeats: usize,
    mut run: impl FnMut(&mut Sim) -> bool,
) -> RunMeasurement {
    let mut best: Option<RunMeasurement> = None;
    for _ in 0..repeats.max(1) {
        let result = measure(graph, origins, &mut run);
        if best.as_ref().is_none_or(|b| result.wall_seconds < b.wall_seconds) {
            best = Some(result);
        }
    }
    best.unwrap()
}

/// Run a prepared sim (first `origins` nodes each originating their own
/// prefix) through converge + churn under the timer and the allocation
/// counter.
fn measure(
    graph: &AsGraph,
    origins: usize,
    mut run: impl FnMut(&mut Sim) -> bool,
) -> RunMeasurement {
    let mut sim = sim_from_graph(graph, 10);
    sim.set_seed(SEED);
    for node in 0..origins {
        sim.originate(node, origin_prefix(node));
    }
    let alloc_before = ALLOCATED.load(Ordering::Relaxed);
    let start = Instant::now();
    let quiesced = run(&mut sim);
    let wall_seconds = start.elapsed().as_secs_f64();
    let bytes_allocated = ALLOCATED.load(Ordering::Relaxed) - alloc_before;
    RunMeasurement {
        nodes: sim.node_count(),
        edges: graph.edge_count(),
        events: sim.events_processed(),
        wall_seconds,
        stats: sim.stats(),
        bytes_allocated,
        full_scans_avoided: sim.full_scans_avoided(),
        quiesced,
    }
}

/// Waxman-50 under a deterministic flap storm plus restarts — the
/// acceptance scenario: re-advertisement churn is exactly what the
/// encode cache and shared buffers accelerate.
fn waxman50_churn() -> ScenarioResult {
    let graph = dbgp_topology::fixtures::waxman_50(SEED);
    // All 50 nodes originate: 50 prefixes of routing state per RIB.
    let run = measure_best_of(&graph, 50, 3, |sim| {
        sim.run(200_000_000);
        let edges: Vec<(usize, usize, bool)> = sim.links().collect();
        let mut plan = FaultPlan::new();
        // A long rolling storm: 30 flap windows sweeping across the
        // edge list, punctuated by node restarts. Every flap forces
        // withdraw + re-advertise across all 50 prefixes.
        for round in 0..30u64 {
            let (a, b, _) = edges[(round as usize * 13 + 5) % edges.len()];
            let at = 210_000_000 + round * 40_000_000;
            plan = plan.link_flaps(a, b, at, 25_000_000, 10_000_000, 2);
        }
        for (i, node) in [1usize, 7, 19, 33].into_iter().enumerate() {
            plan = plan.node_restart(node, 300_000_000 + i as u64 * 250_000_000);
        }
        let report = ScenarioRunner::new(3_000_000_000).run(sim, &plan);
        report.quiesced
    });
    ScenarioResult { name: "waxman50_churn", run }
}

/// Waxman-1000 convergence plus a light flap — the ROADMAP scale
/// target. Twenty origins keep the multi-prefix load realistic without
/// making the full run take minutes.
fn waxman1000() -> ScenarioResult {
    let graph = waxman::generate(WaxmanParams::default(), SEED);
    let run = measure_best_of(&graph, 20, 2, |sim| {
        sim.run(4_000_000_000);
        let converged = sim.pending_events() == 0;
        let edges: Vec<(usize, usize, bool)> = sim.links().collect();
        let (a1, b1, _) = edges[edges.len() / 3];
        let (a2, b2, _) = edges[2 * edges.len() / 3];
        let plan = FaultPlan::new()
            .link_flap(a1, b1, 4_100_000_000, 4_150_000_000)
            .link_flap(a2, b2, 4_120_000_000, 4_180_000_000)
            .node_restart(3, 4_200_000_000);
        let report = ScenarioRunner::new(8_000_000_000).run(sim, &plan);
        converged && report.quiesced
    });
    ScenarioResult { name: "waxman1000", run }
}

/// Waxman-5000 — the scale tier this PR adds. Convergence flooding at
/// 5000 ASes plus a pair of flaps and a restart; twenty origins, one
/// repeat (the run dominates the budget at this size).
fn waxman5000() -> ScenarioResult {
    let graph = dbgp_topology::fixtures::waxman_5000(SEED);
    let run = measure_best_of(&graph, 20, 1, |sim| {
        sim.run(10_000_000_000);
        let converged = sim.pending_events() == 0;
        let edges: Vec<(usize, usize, bool)> = sim.links().collect();
        let (a1, b1, _) = edges[edges.len() / 3];
        let (a2, b2, _) = edges[2 * edges.len() / 3];
        let plan = FaultPlan::new()
            .link_flap(a1, b1, 10_100_000_000, 10_150_000_000)
            .link_flap(a2, b2, 10_120_000_000, 10_180_000_000)
            .node_restart(3, 10_200_000_000);
        let report = ScenarioRunner::new(16_000_000_000).run(sim, &plan);
        converged && report.quiesced
    });
    ScenarioResult { name: "waxman5000", run }
}

/// Tier A timing: a multi-seed convergence sweep over waxman-50
/// topologies, fanned out on the scenario-level worker pool. Serial and
/// parallel sweeps must agree event-for-event (in seed order).
fn tier_a_sweep(threads: usize) -> Value {
    let seeds: Vec<u64> = (0..8).collect();
    let converge = |seed: u64| {
        let graph = dbgp_topology::fixtures::waxman_50(seed);
        let mut sim = sim_from_graph(&graph, 10);
        sim.set_seed(seed);
        for node in 0..10 {
            sim.originate(node, origin_prefix(node));
        }
        sim.run(200_000_000);
        sim.events_processed()
    };
    // Parallel sweep first, serial second: whichever goes first pays
    // the allocator and cache warm-up, so the recorded speedup is a
    // floor, not a warm-up artifact.
    let pooled = (threads > 1).then(|| {
        let start = Instant::now();
        let swept = sweep_seeds(&seeds, threads, converge);
        (swept, start.elapsed().as_secs_f64())
    });
    let start = Instant::now();
    let serial = sweep_seeds(&seeds, 1, converge);
    let wall_serial = start.elapsed().as_secs_f64();
    let (swept, wall_parallel) = pooled.unwrap_or_else(|| (serial.clone(), wall_serial));
    assert_eq!(serial, swept, "tier A sweep diverged between 1 and {threads} threads");
    let total_events: u64 = serial.iter().sum();
    json!({
        "seeds": seeds.len() as u64,
        "threads": threads as u64,
        "total_events": total_events,
        "wall_seconds_serial": round6(wall_serial),
        "wall_seconds_parallel": round6(wall_parallel),
        "parallel_speedup": round2(if wall_parallel > 0.0 { wall_serial / wall_parallel } else { 0.0 }),
    })
}

fn scenarios_json(results: &[ScenarioResult]) -> Value {
    Value::Object(results.iter().map(|r| (r.name.to_string(), r.to_json())).collect())
}

fn fulltable_json(r: &FullTableResult) -> Value {
    json!({
        "routes": r.routes,
        "updates": r.updates,
        "wire_bytes": r.wire_bytes,
        "bytes_per_route": round2(r.bytes_per_route),
        "ingest_seconds": round6(r.ingest_seconds),
        "routes_per_sec_ingest": round2(r.routes_per_sec_ingest),
        "decode_ns_per_route": round2(r.decode_ns_per_route),
        "rib_bytes_per_route": round2(r.rib_bytes_per_route),
        "burst_events": r.burst_events,
        "burst_events_per_sec": round2(r.burst_events_per_sec),
        "full_scans_avoided": r.full_scans_avoided,
        "quiesced": r.quiesced,
    })
}

/// Run the full-table scenario and enforce its regression gates; exits
/// nonzero when the decode budget or the throughput floor is blown.
fn fulltable_100k() -> FullTableResult {
    let result =
        run_full_table(FULLTABLE_ROUTES, FULLTABLE_BURST_ROUTES, FULLTABLE_BURST_EVENTS, SEED);
    println!(
        "\nfulltable_100k: {} routes in {} UPDATEs, {:.0} routes/s ingest, \
         {:.0} ns/route decode, {:.1} wire B/route, {:.1} RIB B/route, \
         {} burst events at {:.0}/s",
        result.routes,
        result.updates,
        result.routes_per_sec_ingest,
        result.decode_ns_per_route,
        result.bytes_per_route,
        result.rib_bytes_per_route,
        result.burst_events,
        result.burst_events_per_sec,
    );
    if !result.quiesced {
        eprintln!("error: fulltable_100k burst replay failed to quiesce");
        std::process::exit(1);
    }
    if result.decode_ns_per_route >= FULLTABLE_MAX_DECODE_NS {
        eprintln!(
            "error: fulltable_100k amortized decode {:.0} ns/route blows the \
             {FULLTABLE_MAX_DECODE_NS} ns budget",
            result.decode_ns_per_route
        );
        std::process::exit(1);
    }
    if result.routes_per_sec_ingest < FULLTABLE_MIN_ROUTES_PER_SEC {
        eprintln!(
            "error: fulltable_100k ingested {:.0} routes/s, under the \
             {FULLTABLE_MIN_ROUTES_PER_SEC} floor — ingest has regressed",
            result.routes_per_sec_ingest
        );
        std::process::exit(1);
    }
    result
}

/// Origins in the hierarchical scenarios: enough stubs advertising to
/// exercise multi-prefix RIBs without making the serial leg take
/// minutes at 50,000 ASes.
const HIER_ORIGINS: usize = 8;
const HIER_HORIZON: u64 = 1_000_000;

/// One run of a hierarchical Gao-Rexford scenario.
struct HierMeasurement {
    nodes: usize,
    edges: usize,
    events: u64,
    wall_seconds: f64,
    stats: dbgp_sim::SimStats,
    quiesced: bool,
    full_scans_avoided: u64,
}

impl HierMeasurement {
    fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Build the valley-free sim over `topo`, run it to quiescence, and
/// report.
fn run_hier(topo: &dbgp_topology::HierTopology) -> HierMeasurement {
    let mut sim = dbgp_workload::policy::valley_free_sim(topo, SEED);
    dbgp_workload::policy::originate_from_stubs(&mut sim, topo, HIER_ORIGINS);
    let start = Instant::now();
    sim.run(HIER_HORIZON);
    let wall_seconds = start.elapsed().as_secs_f64();
    let quiesced = sim.pending_events() == 0;
    HierMeasurement {
        nodes: sim.node_count(),
        edges: topo.edge_count(),
        events: sim.events_processed(),
        wall_seconds,
        stats: sim.stats(),
        quiesced,
        full_scans_avoided: sim.full_scans_avoided(),
    }
}

/// The converged routing outcome of a hierarchical run, rendered to one
/// comparable string: FIB next hops plus Loc-RIB paths for every node.
/// This is what deterministic coalescing must leave untouched.
fn hier_rib_fingerprint(sim: &Sim) -> String {
    let mut out = String::new();
    for node in 0..sim.node_count() {
        out.push_str(&format!("fib[{node}]={:?}\n", sim.fib(node)));
        for (prefix, chosen) in sim.speaker(node).routes() {
            out.push_str(&format!(
                "rib[{node}][{prefix}]: via={:?} path={}\n",
                chosen.neighbor,
                dbgp_core::render_path(&chosen.ia)
            ));
        }
    }
    out
}

/// The deterministic-coalescing leg: the hierarchical topology run
/// serially at `mrai = 0` per-change and again with staging on, so the
/// frame reduction is attributable to coalescing alone (at the default
/// MRAI the classic window already batches, masking it). Returns
/// `(updates_encoded per-change, updates_encoded coalesced,
/// frames_coalesced, rib_match)` and exits nonzero if the coalesced
/// stream failed to shrink or changed the converged RIB — a broken
/// coalescer must not be recordable.
fn hier_coalesce_leg(topo: &dbgp_topology::HierTopology) -> (u64, u64, u64, bool) {
    let run = |coalesce: bool| {
        let mut sim = dbgp_workload::policy::valley_free_sim(topo, SEED);
        sim.set_mrai(0);
        sim.set_coalesce(coalesce);
        dbgp_workload::policy::originate_from_stubs(&mut sim, topo, HIER_ORIGINS);
        sim.run(HIER_HORIZON);
        if sim.pending_events() != 0 {
            let leg = if coalesce { "coalesced" } else { "per-change" };
            eprintln!("error: hier_50k mrai-0 {leg} leg failed to quiesce");
            std::process::exit(1);
        }
        sim
    };
    let off = run(false);
    let on = run(true);
    let rib_match = hier_rib_fingerprint(&off) == hier_rib_fingerprint(&on);
    let (soff, son) = (off.stats(), on.stats());
    println!(
        "hier_50k mrai-0 coalescing: {} -> {} UPDATE frames ({} coalesced away), RIB match: {}",
        soff.updates_encoded, son.updates_encoded, son.frames_coalesced, rib_match
    );
    if !rib_match {
        eprintln!("error: coalescing changed the converged hier_50k RIB");
        std::process::exit(1);
    }
    if son.updates_encoded >= soff.updates_encoded || son.frames_coalesced == 0 {
        eprintln!(
            "error: the coalesced leg saved no frames ({} vs {} encoded, {} coalesced)",
            son.updates_encoded, soff.updates_encoded, son.frames_coalesced
        );
        std::process::exit(1);
    }
    (soff.updates_encoded, son.updates_encoded, son.frames_coalesced, rib_match)
}

/// The 50,000-AS hierarchical scenario: one timed convergence run plus
/// the mrai-0 coalescing leg.
fn hier_50k_scenario() -> Value {
    let topo = dbgp_topology::fixtures::hier_50k(SEED);
    println!(
        "\nhier_50k: {} ASes, {} adjacencies ({} transit + {} peering)",
        topo.len(),
        topo.edge_count(),
        topo.transit.edge_count(),
        topo.peering.len()
    );
    let m = run_hier(&topo);
    if !m.quiesced {
        eprintln!("error: hier_50k failed to quiesce inside the horizon");
        std::process::exit(1);
    }
    println!(
        "hier_50k: {} events, {:.2}s ({:.0} ev/s)",
        m.events,
        m.wall_seconds,
        m.events_per_sec(),
    );
    let (mrai0_updates, mrai0_coalesced, frames_coalesced, rib_match) = hier_coalesce_leg(&topo);
    json!({
        "nodes": m.nodes as u64,
        "edges": m.edges as u64,
        "events": m.events,
        "wall_seconds_serial": round6(m.wall_seconds),
        "events_per_sec_serial": round2(m.events_per_sec()),
        "messages": m.stats.messages,
        "best_changes": m.stats.best_changes,
        "full_scans_avoided": m.full_scans_avoided,
        "mrai0_updates_encoded": mrai0_updates,
        "mrai0_coalesced_updates_encoded": mrai0_coalesced,
        "frames_coalesced": frames_coalesced,
        "coalesce_rib_match": rib_match,
        "quiesced": m.quiesced,
    })
}

/// `--hier-quick`: the 25×-shrunk hierarchy, reported as simulated
/// quantities only — the output file is a pure function of the seed,
/// so CI diffs a fresh run against the committed
/// `results/hier_quick.json`.
fn hier_quick() -> Value {
    let topo = dbgp_topology::fixtures::hier_2k(SEED);
    let m = run_hier(&topo);
    if !m.quiesced {
        eprintln!("error: hier_2k quick slice failed to quiesce");
        std::process::exit(1);
    }
    json!({
        "scenario": "hier_2k",
        "seed": SEED,
        "nodes": m.nodes as u64,
        "edges": m.edges as u64,
        "events": m.events,
        "messages": m.stats.messages,
        "bytes_delivered": m.stats.bytes,
        "best_changes": m.stats.best_changes,
        "last_event_at": m.stats.last_event_at,
        "quiesced": m.quiesced,
    })
}

/// The instrumented hot-path breakdown: one waxman-1000 convergence
/// leg with per-phase timing on ([`Sim::enable_phase_timing`]),
/// reported as wall seconds per phase. Kept out of the timed scenario
/// legs: the instrumentation costs a branch per site plus two clock
/// reads per timed region, so the recorded throughput numbers never
/// include it.
fn phase_times_leg() -> Value {
    let graph = waxman::generate(WaxmanParams::default(), SEED);
    let mut sim = sim_from_graph(&graph, 10);
    sim.set_seed(SEED);
    sim.enable_phase_timing();
    for node in 0..20 {
        sim.originate(node, origin_prefix(node));
    }
    let start = Instant::now();
    sim.run(4_000_000_000);
    let wall_seconds = start.elapsed().as_secs_f64();
    if sim.pending_events() != 0 {
        eprintln!("error: instrumented waxman1000 leg failed to converge");
        std::process::exit(1);
    }
    let pt = sim.phase_times().expect("phase timing was enabled");
    let secs = |ns: u64| ns as f64 / 1e9;
    println!(
        "\nphase times (serial waxman1000 convergence, instrumented): \
         decode {:.3}s, decide {:.3}s, encode {:.3}s, queue {:.3}s, wall {:.3}s",
        secs(pt.decode_ns),
        secs(pt.decide_ns),
        secs(pt.encode_ns),
        secs(pt.queue_ns),
        wall_seconds,
    );
    json!({
        "scenario": "waxman1000",
        "decode_seconds": round6(secs(pt.decode_ns)),
        "decide_seconds": round6(secs(pt.decide_ns)),
        "encode_seconds": round6(secs(pt.encode_ns)),
        "queue_seconds": round6(secs(pt.queue_ns)),
        "wall_seconds": round6(wall_seconds),
    })
}

/// Fields older schema generations recorded per scenario for the
/// in-run parallel engines, which no longer exist.
const RETIRED_RECORD_FIELDS: [&str; 6] = [
    "threads",
    "shards",
    "edge_cut_fraction",
    "wall_seconds_parallel",
    "events_per_sec_parallel",
    "parallel_speedup",
];

/// Bring a baseline scenario record from any earlier schema generation
/// to the v6 shape, so a committed baseline stays comparable: v1's
/// single `wall_seconds` / `events_per_sec` (always measured serially)
/// become the `_serial` fields, the retired parallel-engine fields are
/// dropped, and pre-v5 records (every decision a full scan, nothing
/// ever coalesced) gain zero hot-path counters.
fn upgrade_record(record: &Value) -> Value {
    let mut out: Vec<(String, Value)> = Vec::new();
    if let Some(fields) = record.as_object() {
        for (k, v) in fields {
            match k.as_str() {
                "wall_seconds" => out.push(("wall_seconds_serial".into(), v.clone())),
                "events_per_sec" => out.push(("events_per_sec_serial".into(), v.clone())),
                k if RETIRED_RECORD_FIELDS.contains(&k) => {}
                _ => out.push((k.to_string(), v.clone())),
            }
        }
    }
    for counter in ["full_scans_avoided", "frames_coalesced"] {
        if !out.iter().any(|(k, _)| k == counter) {
            out.push((counter.into(), Value::UInt(0)));
        }
    }
    Value::Object(out)
}

/// Validate the baseline document at `path`; exits the process with a
/// diagnostic on any problem.
fn enforce_schema(path: &str) {
    let Some(committed): Option<Value> =
        std::fs::read_to_string(path).ok().and_then(|s| serde_json::from_str(&s).ok())
    else {
        eprintln!("{path}: missing or unparseable");
        std::process::exit(1);
    };
    let problems = validate_sim_bench_schema(&committed);
    if problems.is_empty() {
        println!("{path}: schema ok ({SCHEMA})");
    } else {
        eprintln!("{path}: schema invalid:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
}

fn print_table(results: &[ScenarioResult]) {
    println!(
        "{:<16} {:>6} {:>6} {:>9} {:>12} {:>9} {:>10} {:>12} {:>8}",
        "scenario",
        "nodes",
        "edges",
        "events",
        "ev/s",
        "messages",
        "cachehit",
        "alloc MiB",
        "wall s"
    );
    println!("{:-<98}", "");
    for r in results {
        let s = &r.run;
        println!(
            "{:<16} {:>6} {:>6} {:>9} {:>12.0} {:>9} {:>10} {:>12.1} {:>8.3}",
            r.name,
            s.nodes,
            s.edges,
            s.events,
            s.events_per_sec(),
            s.stats.messages,
            s.stats.encode_cache_hits,
            s.bytes_allocated as f64 / (1024.0 * 1024.0),
            s.wall_seconds,
        );
    }
}

/// The allocation regression gate (waxman-1000 run).
fn enforce_alloc_budget(results: &[ScenarioResult]) {
    let Some(r) = results.iter().find(|r| r.name == "waxman1000") else {
        return;
    };
    let budget = WAXMAN1000_ALLOC_BASELINE + WAXMAN1000_ALLOC_BASELINE * ALLOC_SLACK_PERCENT / 100;
    if r.run.bytes_allocated > budget {
        eprintln!(
            "error: waxman1000 run allocated {} bytes, past the tracked \
             budget of {WAXMAN1000_ALLOC_BASELINE} (+{ALLOC_SLACK_PERCENT}% slack)",
            r.run.bytes_allocated
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let validate_only = args.iter().any(|a| a == "--validate-only");
    let bench_path = args
        .iter()
        .position(|a| a == "--bench-path")
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--bench-path needs a path");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| BENCH_PATH.to_string());
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            args.get(i + 1).and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(|| {
                eprintln!("--threads needs a positive integer");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(dbgp_par::configured_threads);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    if validate_only {
        enforce_schema(&bench_path);
        return;
    }

    if args.iter().any(|a| a == "--hier-quick") {
        let doc = hier_quick();
        std::fs::create_dir_all("results").ok();
        std::fs::write("results/hier_quick.json", serde_json::to_string_pretty(&doc).unwrap())
            .unwrap();
        println!("(wrote results/hier_quick.json)");
        return;
    }

    if args.iter().any(|a| a == "--phase-times") {
        let _ = phase_times_leg();
        return;
    }

    println!("threads {threads}, host cpus {host_cpus}\n");
    let mut results = vec![waxman50_churn()];
    if !quick {
        results.push(waxman1000());
        results.push(waxman5000());
    }
    print_table(&results);
    if results.iter().any(|r| !r.run.quiesced) {
        eprintln!("error: a scenario failed to quiesce; refusing to record metrics");
        std::process::exit(1);
    }
    if !quick {
        enforce_alloc_budget(&results);
    }

    let existing =
        std::fs::read_to_string(BENCH_PATH).ok().and_then(|s| serde_json::from_str(&s).ok());

    if quick {
        // --quick is the CI bench-smoke entry point; the full-table
        // scenario runs at full scale there too so the decode budget,
        // ingest floor, and quiesce gates are enforced on every PR.
        let ft = fulltable_100k();
        let current = scenarios_json(&results);
        let doc = json!({
            "schema": SCHEMA,
            "mode": "quick",
            "seed": SEED,
            "threads": threads as u64,
            "host_cpus": host_cpus as u64,
            "current": current,
            "fulltable": { "fulltable_100k": fulltable_json(&ft) },
        });
        std::fs::create_dir_all("results").ok();
        std::fs::write(QUICK_PATH, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
        println!("\n(wrote {QUICK_PATH})");
        enforce_schema(&bench_path);
        return;
    }

    let tier_a = tier_a_sweep(threads);
    let ft = fulltable_100k();
    let hier = hier_50k_scenario();
    let phase_times = phase_times_leg();

    // Full mode: keep the recorded baseline (the pre-optimization
    // numbers this PR is measured against); seed it from this run only
    // when no baseline exists yet. A v1-era baseline is upgraded to the
    // v2 record shape in place.
    let current = scenarios_json(&results);
    let baseline = existing
        .as_ref()
        .and_then(|doc: &Value| doc.get("baseline").and_then(Value::as_object))
        .map(|scenarios| {
            Value::Object(scenarios.iter().map(|(k, v)| (k.clone(), upgrade_record(v))).collect())
        })
        .unwrap_or_else(|| current.clone());
    let mut speedup: Vec<(String, Value)> = Vec::new();
    if let Some(fields) = baseline.as_object() {
        for (name, base_record) in fields {
            let base = base_record.get("events_per_sec_serial").and_then(Value::as_f64);
            let now = current
                .get(name)
                .and_then(|r| r.get("events_per_sec_serial"))
                .and_then(Value::as_f64);
            if let (Some(base), Some(now)) = (base, now) {
                if base > 0.0 {
                    speedup
                        .push((format!("{name}_events_per_sec"), Value::Float(round2(now / base))));
                }
            }
        }
    }
    let mut doc = json!({
        "schema": SCHEMA,
        "seed": SEED,
        "threads": threads as u64,
        "host_cpus": host_cpus as u64,
        "phase_times": phase_times,
        "baseline": baseline,
        "current": current,
        "speedup": Value::Object(speedup),
        "tier_a": tier_a,
        "fulltable": { "fulltable_100k": fulltable_json(&ft) },
        "hier_50k": hier,
    });
    if (host_cpus as u64) < threads as u64 {
        // The validator requires this admission: with fewer CPUs than
        // worker threads, the Tier A parallel column verifies overhead
        // and determinism, it does not measure speedup.
        let note = format!(
            "host_cpus={host_cpus} < threads={threads}: the tier_a parallel timing was \
             recorded on an oversubscribed host and is a determinism/overhead check, not \
             measured speedup; re-record on a host with >= {threads} CPUs before quoting it"
        );
        if let Some(o) = doc.as_object_mut() {
            // Keep it next to host_cpus (slot 4) so readers see it.
            o.insert(4, ("host_cpus_note".to_string(), Value::String(note)));
        }
    }
    std::fs::write(BENCH_PATH, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    println!("\n(wrote {BENCH_PATH})");
}
