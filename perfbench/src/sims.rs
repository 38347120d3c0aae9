//! The simulator workload, `waxman1k_passthrough`.
//!
//! It runs the library's default serial engine (no `set_threads`, no
//! `set_shards`). Only `Sim` calls sit inside timed regions; quiescence,
//! the `dbgp-chaos` forwarding invariants, the pass-through descriptor
//! comparison and the RIB digest all run between them.

use crate::report::{describe, median, percentile, Ops, PER_LAYER};
use crate::rng::Rng;
use dbgp_chaos::scenario::sim_from_graph;
use dbgp_chaos::Invariants;
use dbgp_sim::{PhaseTimes, Sim, SimStats, SimTime};
use dbgp_topology::{waxman, AsGraph, WaxmanParams};
use dbgp_wire::{Ia, ProtocolId};
use dbgp_workload::policy::node_prefix;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A protocol no AS in the simulated world runs: its descriptors can
/// only reach remote ASes by pass-through across gulfs (CF-R1).
pub const FOREIGN: ProtocolId = ProtocolId(0x0BEE);
/// The descriptor key the carriers use.
pub const DESCRIPTOR_KEY: u16 = 1;
/// One-way link delay of the Waxman world, in simulated ms.
const LINK_DELAY: SimTime = 10;
/// The seed of the simulator workload's fixed structure: the topology
/// and which nodes and links the scenario touches. `--seed` varies the
/// contents and the order of the inputs. Drawing the structure from
/// `--seed` too made the work of `waxman1k_passthrough` vary by ±20%
/// between seeds, more than any bound a change could be held to.
pub const TOPOLOGY_SEED: u64 = 42;
/// Set-ups per set-up sample. One set-up takes a few milliseconds and
/// its time jumps between modes; the mean of a batch does not.
const SETUP_BATCH: usize = 25;
/// Simulated time per `Sim::run` call while waiting for quiescence; every
/// phase of these workloads settles within one slice.
const SLICE: SimTime = 1_000;
/// Host time after which a phase that has not settled fails, so a
/// non-converging change cannot stall a run.
const PHASE_LIMIT: std::time::Duration = std::time::Duration::from_secs(30);

/// Size of the Waxman pass-through workload.
#[derive(Debug, Clone, Copy)]
pub struct WaxmanScale {
    /// ASes in the §6.3 Waxman graph.
    pub nodes: usize,
    /// ASes that originate a prefix.
    pub origins: usize,
    /// Every `carrier_every`-th origin attaches the foreign descriptor.
    pub carrier_every: usize,
    /// Descriptor payload bytes (the §5 IA size).
    pub descriptor_bytes: usize,
    /// Link flaps in the change phase.
    pub flaps: usize,
    /// Node restarts in the change phase.
    pub restarts: usize,
}

impl WaxmanScale {
    /// The benchmark's size.
    pub const FULL: WaxmanScale = WaxmanScale {
        nodes: 1000,
        origins: 100,
        carrier_every: 20,
        descriptor_bytes: 32 * 1024,
        flaps: 200,
        restarts: 3,
    };
    /// The self-tests' size.
    pub const TINY: WaxmanScale = WaxmanScale {
        nodes: 60,
        origins: 12,
        carrier_every: 4,
        descriptor_bytes: 2048,
        flaps: 12,
        restarts: 1,
    };
}

/// What a repetition is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rep {
    /// Warms the process; its times are not reported. It alone walks the
    /// forwarding invariants: every later repetition must match its RIB
    /// digests and counts exactly, so it holds the same state.
    Warm,
    /// A timed repetition.
    Timed,
    /// A timed repetition with phase timing on.
    Traced,
    /// Stops after the timed set-up.
    SetupOnly,
}

/// One step of a change phase; each runs to quiescence on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// Fail the link between two nodes.
    Fail(usize, usize),
    /// Restore a failed link.
    Restore(usize, usize),
    /// Restart a node (every session resets).
    Restart(usize),
}

/// Everything a Waxman repetition feeds the simulator, drawn from the
/// seed (the graph itself is generated inside the timed set-up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaxmanPlan {
    /// Originating nodes.
    pub origins: Vec<usize>,
    /// `(node, descriptor bytes)` for the origins that carry one.
    pub carriers: Vec<(usize, Vec<u8>)>,
    /// The change phase, in order.
    pub changes: Vec<Change>,
}

/// Draw the Waxman plan for `graph`. Which ASes originate and carry
/// descriptors, which links flap and which nodes restart is fixed by
/// [`TOPOLOGY_SEED`]; `seed` draws the descriptor bytes, the order the
/// origins originate in and the order of the change phase.
pub fn waxman_plan(graph: &AsGraph, scale: &WaxmanScale, seed: u64) -> WaxmanPlan {
    let mut fixed = Rng::new(TOPOLOGY_SEED, 1);
    let mut rng = Rng::new(seed, 1);
    let chosen = fixed.sample(graph.len(), scale.origins);
    let carrier_nodes: Vec<usize> = chosen.iter().copied().step_by(scale.carrier_every).collect();
    let origins: Vec<usize> =
        rng.sample(chosen.len(), chosen.len()).into_iter().map(|i| chosen[i]).collect();
    let carriers =
        carrier_nodes.iter().map(|&node| (node, rng.bytes(scale.descriptor_bytes))).collect();

    let mut edges: Vec<(usize, usize)> = (0..graph.len())
        .flat_map(|a| {
            graph.neighbors(a).filter(move |adj| a < adj.neighbor).map(move |adj| (a, adj.neighbor))
        })
        .collect();
    edges.sort_unstable();
    let flapped = fixed.sample(edges.len(), scale.flaps).into_iter().map(|i| edges[i]);
    let mut steps: Vec<Vec<Change>> =
        flapped.map(|(a, b)| vec![Change::Fail(a, b), Change::Restore(a, b)]).collect();
    steps.extend(
        fixed.sample(graph.len(), scale.restarts).into_iter().map(|n| vec![Change::Restart(n)]),
    );
    let changes =
        rng.sample(steps.len(), steps.len()).into_iter().flat_map(|i| steps[i].clone()).collect();
    WaxmanPlan { origins, carriers, changes }
}

/// What one repetition of a simulator workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct SimRep {
    /// Topology generation seconds.
    pub gen_s: f64,
    /// `Sim` construction seconds.
    pub build_s: f64,
    /// Set-up seconds: generation + build + origination.
    pub setup_s: f64,
    /// Cold convergence seconds (`Sim::run` until the queue is empty).
    pub converge_s: f64,
    /// Change-phase seconds (sum over its steps).
    pub reconverge_s: f64,
    /// Host milliseconds of each change step, in order.
    pub change_ms: Vec<f64>,
    /// Engine counters at the end of the repetition.
    pub stats: SimStats,
    /// Peak resident set size of the repetition, MB (`VmHWM`, reset at
    /// its start and read after its last `Sim` call).
    pub peak_rss_mb: f64,
    /// Events processed over the repetition.
    pub events: u64,
    /// Engine counters at cold quiescence.
    pub cold: SimStats,
    /// Simulated time of the last event at cold quiescence.
    pub quiesce_at: SimTime,
    /// Phase times, when traced.
    pub phases: Option<PhaseTimes>,
    /// Decision fast-path hits, summed over speakers.
    pub full_scans_avoided: u64,
    /// IA announcements plus withdrawals decoded, summed over nodes and
    /// their incarnations.
    pub decoded: u64,
    /// Distinct descriptor buffers held in the speakers' RIBs at cold
    /// quiescence (traced runs only).
    pub descriptor_copies: u64,
    /// RIB digests at cold quiescence and at the end.
    pub digests: (u64, u64),
    /// Operations attempted and failed.
    pub ops: Ops,
}

impl SimRep {
    /// Host seconds inside `Sim::run` and the change calls.
    pub fn run_s(&self) -> f64 {
        self.converge_s + self.reconverge_s
    }
}

/// Loops, black holes and path-vector violations, one operation.
fn check_invariants(sim: &Sim, ops: &mut Ops, phase: &str) {
    let report = Invariants::new().check(sim);
    ops.check(report.ok(), || format!("{phase}: invariants violated: {}", report.summary()));
}

/// A digest of every node's chosen routes: neighbor and path vector
/// per prefix.
fn rib_digest(sim: &Sim) -> u64 {
    let mut h = DefaultHasher::new();
    for node in 0..sim.node_count() {
        for (prefix, chosen) in sim.speaker(node).routes() {
            (node, prefix, chosen.neighbor, &chosen.ia.path_vector).hash(&mut h);
        }
    }
    h.finish()
}

/// Every AS's best route for each carrier prefix must hold the
/// carrier's descriptor byte for byte: one operation per (AS, carrier).
pub fn check_descriptors(sim: &Sim, carriers: &[(usize, Vec<u8>)], ops: &mut Ops, phase: &str) {
    for (origin, bytes) in carriers {
        let prefix = node_prefix(*origin);
        for node in 0..sim.node_count() {
            let best = sim.speaker(node).best(&prefix);
            let held = best
                .and_then(|c| c.ia.path_descriptor(FOREIGN, DESCRIPTOR_KEY))
                .map(|d| d.value.as_slice());
            ops.check(held == Some(bytes.as_slice()), || match held {
                None => format!("{phase}: AS index {node} has no descriptor for {prefix}"),
                Some(_) => {
                    format!("{phase}: AS index {node} holds a damaged descriptor for {prefix}")
                }
            });
        }
    }
}

/// Distinct descriptor buffers the speakers hold for the carrier
/// prefixes (IA database and Loc-RIB), counted by allocation.
fn descriptor_copies(sim: &Sim, carriers: &[(usize, Vec<u8>)]) -> u64 {
    let mut buffers: HashSet<usize> = HashSet::new();
    for (origin, _) in carriers {
        let prefix = node_prefix(*origin);
        for node in 0..sim.node_count() {
            let speaker = sim.speaker(node);
            let held = speaker.iadb().candidates(&prefix).map(|(_, ia)| &**ia);
            for ia in held.chain(speaker.best(&prefix).map(|c| &*c.ia)) {
                for d in ia.path_descriptors_for(FOREIGN) {
                    buffers.insert(d.value.as_ptr() as usize);
                }
            }
        }
    }
    buffers.len() as u64
}

/// Decoded announcements and withdrawals over all nodes right now.
fn decoded_now(sim: &Sim) -> u64 {
    (0..sim.node_count())
        .map(|n| {
            let c = sim.node_counters(n);
            c.updates_in + c.withdraws_in
        })
        .sum()
}

/// Apply `changes` one at a time, each run to quiescence; only the
/// `Sim` calls are timed.
fn change_phase(sim: &mut Sim, changes: &[Change], rep: &mut SimRep) {
    let mut carried = 0u64;
    for (i, change) in changes.iter().enumerate() {
        if let Change::Restart(node) = *change {
            // A restart zeroes the node's counters; keep what it decoded.
            let c = sim.node_counters(node);
            carried += c.updates_in + c.withdraws_in;
        }
        let start = Instant::now();
        match *change {
            Change::Fail(a, b) => sim.fail_link(a, b),
            Change::Restore(a, b) => sim.restore_link(a, b),
            Change::Restart(node) => sim.restart_node(node),
        }
        let applied = start.elapsed().as_secs_f64();
        let Some(settled) = quiesce(sim, &mut rep.ops, &format!("change {i} ({change:?})")) else {
            break;
        };
        rep.change_ms.push((applied + settled) * 1e3);
        rep.reconverge_s += applied + settled;
    }
    rep.decoded = carried + decoded_now(sim);
}

/// Counters every simulator repetition records at its end.
fn finish(sim: &Sim, rep: &mut SimRep) {
    rep.stats = sim.stats();
    rep.events = sim.events_processed();
    rep.phases = sim.phase_times();
    rep.full_scans_avoided = sim.full_scans_avoided();
}

/// The Waxman world's simulator: every AS a D-BGP gulf.
pub fn waxman_sim(graph: &AsGraph, seed: u64) -> Sim {
    let mut sim = sim_from_graph(graph, LINK_DELAY);
    sim.set_seed(seed);
    sim
}

/// Originate every origin's prefix; carriers attach their descriptor
/// through `Sim::originate_ia`. The carriers' IAs are built before the
/// first origination so that only `Sim` calls follow.
pub fn originate_plan(sim: &mut Sim, origins: &[usize], carriers: &[(usize, Vec<u8>)]) {
    let carrier_ias: Vec<(usize, Ia)> = carriers
        .iter()
        .map(|(node, bytes)| {
            let ia = Ia::builder(node_prefix(*node), sim.node_addr(*node))
                .path_descriptor(FOREIGN, DESCRIPTOR_KEY, bytes.clone())
                .build()
                .expect("a one-protocol descriptor is a valid IA");
            (*node, ia)
        })
        .collect();
    for &node in origins {
        if !carriers.iter().any(|(n, _)| *n == node) {
            sim.originate(node, node_prefix(node));
        }
    }
    for (node, ia) in carrier_ias {
        sim.originate_ia(node, ia);
    }
}

/// One repetition of `waxman1k_passthrough`.
pub fn waxman_rep(scale: &WaxmanScale, seed: u64, kind: Rep) -> SimRep {
    let mut rep = SimRep::default();
    crate::host::reset_peak_rss();
    let start = Instant::now();
    let graph =
        waxman::generate(WaxmanParams { n: scale.nodes, ..WaxmanParams::default() }, TOPOLOGY_SEED);
    rep.gen_s = start.elapsed().as_secs_f64();
    let plan = waxman_plan(&graph, scale, seed);
    let start = Instant::now();
    let mut sim = waxman_sim(&graph, seed);
    rep.build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    originate_plan(&mut sim, &plan.origins, &plan.carriers);
    rep.setup_s = rep.gen_s + rep.build_s + start.elapsed().as_secs_f64();
    if kind == Rep::SetupOnly {
        return rep;
    }
    // Phase timing starts after origination, so the phases cover exactly
    // the timed `Sim::run` and change calls.
    if kind == Rep::Traced {
        sim.enable_phase_timing();
    }

    let Some(converge_s) = quiesce(&mut sim, &mut rep.ops, "cold convergence") else {
        return rep;
    };
    rep.converge_s = converge_s;
    rep.cold = sim.stats();
    rep.quiesce_at = rep.cold.last_event_at;
    if kind == Rep::Warm {
        check_invariants(&sim, &mut rep.ops, "cold");
    }
    check_descriptors(&sim, &plan.carriers, &mut rep.ops, "cold");
    if kind == Rep::Traced {
        rep.descriptor_copies = descriptor_copies(&sim, &plan.carriers);
    }
    rep.digests.0 = rib_digest(&sim);

    change_phase(&mut sim, &plan.changes, &mut rep);
    rep.peak_rss_mb = crate::host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    if kind == Rep::Warm {
        check_invariants(&sim, &mut rep.ops, "after changes");
    }
    check_descriptors(&sim, &plan.carriers, &mut rep.ops, "after changes");
    rep.digests.1 = rib_digest(&sim);
    finish(&sim, &mut rep);
    rep
}

/// Run the simulator until its queue is empty, one operation. It runs
/// in slices of simulated time so that a phase that never settles is
/// cut off after [`PHASE_LIMIT`] of host time. Returns the host seconds,
/// or `None` when the phase did not settle.
pub fn quiesce(sim: &mut Sim, ops: &mut Ops, phase: &str) -> Option<f64> {
    let start = Instant::now();
    let mut until = sim.now();
    loop {
        until += SLICE;
        sim.run(until);
        if sim.pending_events() == 0 || start.elapsed() >= PHASE_LIMIT {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let pending = sim.pending_events();
    let settled = ops.check(pending == 0, || {
        format!("{phase}: {pending} events still pending after {secs:.1} s")
    });
    settled.then_some(secs)
}

/// Repeat a simulator workload for `seconds`, alternating untraced
/// and traced repetitions when tracing, and reduce the repetitions to
/// metrics.
pub fn run(seconds: f64, trace: bool, rep: impl Fn(Rep) -> SimRep) -> (BTreeMap<String, f64>, Ops) {
    // The first repetition warms the process (first-touch page faults
    // alone made it 50% slower than the rest): its checks count, its
    // times do not. The allocator keeps what it touched, so later
    // repetitions do not fault it in again.
    let run = Instant::now();
    println!("allocator keeps freed memory: {}", crate::host::retain_freed_memory());
    let warm = rep(Rep::Warm);
    if warm.ops.failed > 0 {
        return (BTreeMap::new(), warm.ops);
    }
    // Set-up is short next to a repetition. One sample is the mean of a
    // batch of set-ups, taken after the warm-up and after every
    // repetition, so that the median spans the run.
    let mut setups: Vec<f64> = Vec::new();
    let sample_setups = |setups: &mut Vec<f64>| {
        let batch: f64 = (0..SETUP_BATCH).map(|_| rep(Rep::SetupOnly).setup_s).sum();
        setups.push(batch / SETUP_BATCH as f64);
    };
    sample_setups(&mut setups);
    let start = Instant::now();
    let mut plain: Vec<SimRep> = Vec::new();
    let mut traced: Vec<SimRep> = Vec::new();
    loop {
        if trace && plain.len() > traced.len() {
            traced.push(rep(Rep::Traced));
        } else {
            plain.push(rep(Rep::Timed));
        }
        sample_setups(&mut setups);
        let enough = !plain.is_empty() && (!trace || !traced.is_empty());
        if enough
            && !crate::report::room_for_another(run, start, plain.len() + traced.len(), seconds)
        {
            break;
        }
    }
    let mut ops = Ops::default();
    for r in std::iter::once(&warm).chain(&plain).chain(&traced) {
        ops.absorb(r.ops.clone());
    }
    // Exact quantities repeat across repetitions of one seed, traced or
    // not: the converged RIBs, the message and byte counts, the events
    // and the simulated quiescence time.
    let exact = |r: &SimRep| (r.digests, r.stats.messages, r.stats.bytes, r.events, r.quiesce_at);
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        ops.check(exact(r) == exact(&warm), || {
            format!(
                "repetition {i} diverged from the warm-up: {:?} vs {:?}",
                exact(r),
                exact(&warm)
            )
        });
    }

    let col =
        |reps: &[SimRep], f: &dyn Fn(&SimRep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut m = BTreeMap::new();
    let e2e: Vec<(&str, Vec<f64>)> = vec![
        ("setup_s", setups),
        ("converge_s", col(&plain, &|r| r.converge_s)),
        ("reconverge_s", col(&plain, &|r| r.reconverge_s)),
        ("peak_rss_mb", col(&plain, &|r| r.peak_rss_mb)),
    ];
    println!("end to end over {} untraced repetitions:", plain.len());
    for (name, samples) in &e2e {
        println!("{}", describe(name, if *name == "peak_rss_mb" { "MB" } else { "s" }, samples));
        m.insert(name.to_string(), median(samples));
    }
    let per_rep = |p: f64| median(&col(&plain, &|r| percentile(&r.change_ms, p)));
    let latency = [per_rep(50.0), per_rep(90.0), per_rep(99.0)];
    m.insert("update_msgs".into(), warm.cold.messages as f64);
    m.insert("wire_mb".into(), warm.cold.bytes as f64 / 1e6);
    println!(
        "  change latency (median of per-repetition percentiles): p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms, \
         {} changes per repetition; cold phase: update_msgs {} wire_mb {:.3} \
         sim_quiesce_ms {}; whole repetition: {} messages, {} bytes, {} events",
        latency[0],
        latency[1],
        latency[2],
        warm.change_ms.len(),
        warm.cold.messages,
        m["wire_mb"],
        warm.quiesce_at,
        warm.stats.messages,
        warm.stats.bytes,
        warm.events,
    );
    if !trace {
        return (m, ops);
    }

    // Per-layer metrics come from the traced repetition whose run time
    // is the median, so its layers add up to its own wall time.
    let mut order: Vec<&SimRep> = traced.iter().collect();
    order.sort_by(|a, b| a.run_s().total_cmp(&b.run_s()));
    let t = order[order.len() / 2];
    let p = t.phases.expect("traced repetitions enable phase timing");
    let s = |ns: u64| ns as f64 / 1e9;
    let (decode, decide, encode, queue) =
        (s(p.decode_ns), s(p.decide_ns), s(p.encode_ns), s(p.queue_ns));
    let wall = t.run_s();
    let other = wall - decode - decide - encode - queue;
    let mut layers = BTreeMap::new();
    for (name, _) in PER_LAYER {
        layers.insert(name.to_string(), 0.0);
    }
    let st = t.stats;
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set("change.p50_ms", latency[0]);
    set("change.p90_ms", latency[1]);
    set("change.p99_ms", latency[2]);
    set("topology.gen_s", t.gen_s);
    set("sim.build_s", t.build_s);
    set("wire.decode_s", decode);
    set("wire.encode_s", encode);
    set("wire.updates_encoded", st.updates_encoded as f64);
    set(
        "wire.encode_cache_hit_ratio",
        st.encode_cache_hits as f64 / (st.encode_cache_hits + st.updates_encoded).max(1) as f64,
    );
    set("core.decide_s", decide);
    set("core.best_changes", st.best_changes as f64);
    set("core.full_scans_avoided", t.full_scans_avoided as f64);
    set("core.fast_path_ratio", t.full_scans_avoided as f64 / t.decoded.max(1) as f64);
    set("core.descriptor_copies", t.descriptor_copies as f64);
    set("sim.queue_s", queue);
    set("sim.other_s", other);
    set("sim.events", t.events as f64);
    set("sim.quiesce_ms", t.quiesce_at as f64);
    let traced_runs = col(&traced, &|r| r.run_s());
    let plain_runs = col(&plain, &|r| r.run_s());
    set("trace.overhead_s", median(&traced_runs) - median(&plain_runs));
    println!("traced over {} repetitions (layers from the median one):", traced.len());
    println!(
        "  closure: decode {decode:.6} + decide {decide:.6} + encode {encode:.6} + queue {queue:.6} \
         + other {other:.6} = {:.6} s; traced wall {wall:.6} s (phases cover {:.1}%)",
        decode + decide + encode + queue + other,
        100.0 * (wall - other) / wall
    );
    println!(
        "  trace.overhead_s {:.6} (traced median {:.6} s, untraced median {:.6} s)",
        layers["trace.overhead_s"],
        median(&traced_runs),
        median(&plain_runs)
    );
    (layers, ops)
}
