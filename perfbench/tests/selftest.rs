//! Self-tests of the benchmark at a scaled-down size: every workload
//! passes its own checks, a damaged output is counted as a failed
//! operation, and inputs follow the seed.

use dbgp_topology::{waxman, WaxmanParams};
use perfbench::relay::{self, RelayArgs, RelayScale};
use perfbench::report::Ops;
use perfbench::sims::{self, WaxmanScale, TOPOLOGY_SEED};
use std::path::PathBuf;

fn relay_args(seed: u64) -> RelayArgs {
    RelayArgs {
        dbgpd: PathBuf::from(env!("CARGO_BIN_EXE_dbgpd")),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
        seed,
        seconds: 0.0,
        trace: true,
        scale: RelayScale::TINY,
    }
}

fn assert_clean(what: &str, ops: &Ops) {
    assert!(ops.attempted > 0, "{what}: no operations counted");
    assert_eq!(ops.failed, 0, "{what}: {:?}", ops.reasons);
}

#[test]
fn waxman_passes_its_checks_and_repeats_exactly() {
    let scale = WaxmanScale::TINY;
    let a = sims::waxman_rep(&scale, 5, sims::Rep::Warm);
    let b = sims::waxman_rep(&scale, 5, sims::Rep::Traced);
    assert_clean("untraced", &a.ops);
    assert_clean("traced", &b.ops);
    assert!(a.converge_s > 0.0 && a.reconverge_s > 0.0 && a.peak_rss_mb > 0.0);
    assert_eq!(a.change_ms.len(), 2 * scale.flaps + scale.restarts);
    let exact = |r: &sims::SimRep| (r.cold, r.stats.messages, r.stats.bytes, r.events, r.digests);
    assert_eq!(exact(&a), exact(&b), "tracing must not change what the simulator does");
    assert!(b.phases.is_some() && a.phases.is_none());
    assert!(b.descriptor_copies > 0);
}

#[test]
fn a_mutated_descriptor_byte_is_a_failed_operation() {
    let scale = WaxmanScale::TINY;
    let graph =
        waxman::generate(WaxmanParams { n: scale.nodes, ..WaxmanParams::default() }, TOPOLOGY_SEED);
    let plan = sims::waxman_plan(&graph, &scale, 3);
    let mut damaged = plan.carriers.clone();
    damaged[0].1[17] ^= 0x01;
    let mut sim = sims::waxman_sim(&graph, 3);
    sims::originate_plan(&mut sim, &plan.origins, &damaged);
    let mut ops = Ops::default();
    sims::quiesce(&mut sim, &mut ops, "cold");
    assert_clean("convergence", &ops);
    sims::check_descriptors(&sim, &plan.carriers, &mut ops, "cold");
    // Every AS holds the damaged copy of the first carrier's descriptor.
    assert_eq!(ops.failed, scale.nodes as u64);
    assert_eq!(ops.attempted, 1 + (scale.nodes * plan.carriers.len()) as u64);
}

#[test]
fn relay_passes_its_checks_and_a_dropped_route_fails() {
    let args = relay_args(7);
    let inp = relay::inputs(&args.scale, args.seed);
    let a = relay::live_rep(&args, &inp, true);
    let b = relay::live_rep(&args, &inp, false);
    assert_clean("traced", &a.ops);
    assert_clean("untraced", &b.ops);
    // One UPDATE per prefix today, identical across repetitions.
    assert_eq!(a.table_frames_out, args.scale.routes as u64);
    assert_eq!((a.table_frames_out, a.table_bytes_out), (b.table_frames_out, b.table_bytes_out));
    assert_eq!(a.latencies_ms.len(), args.scale.changes);
    assert!(a.spans.total() > 0.0 && a.table_load_s > 0.0);

    let replay = relay::replay(&inp);
    assert_eq!(
        replay.frames_out, a.table_frames_out,
        "the in-process replay relays what the daemon did"
    );
    assert_eq!(replay.frames_in, inp.table_frames as u64);

    let mut table = a.final_table.clone();
    let victim = *table.keys().nth(table.len() / 2).expect("a non-empty table");
    table.remove(&victim);
    let mut ops = Ops::default();
    relay::check_final(&table, &inp, &mut ops);
    assert_eq!((ops.attempted, ops.failed), (1, 1));
}

#[test]
fn seeds_change_the_inputs() {
    let scale = WaxmanScale::TINY;
    let graph =
        waxman::generate(WaxmanParams { n: scale.nodes, ..WaxmanParams::default() }, TOPOLOGY_SEED);
    assert_eq!(sims::waxman_plan(&graph, &scale, 1), sims::waxman_plan(&graph, &scale, 1));
    assert_ne!(sims::waxman_plan(&graph, &scale, 1), sims::waxman_plan(&graph, &scale, 2));

    let r1 = relay::inputs(&RelayScale::TINY, 1);
    let r2 = relay::inputs(&RelayScale::TINY, 2);
    assert_eq!(r1.table_bytes, relay::inputs(&RelayScale::TINY, 1).table_bytes);
    assert_ne!(r1.table_bytes, r2.table_bytes);
    assert_ne!(r1.expected, r2.expected);
}

#[test]
fn benchmark_json_lists_what_the_bench_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| json.get(key).and_then(|v| v.as_array()).expect(key).clone();
    let field = |entry: &serde_json::Value, key: &str| -> String {
        entry.get(key).and_then(|v| v.as_str()).expect(key).to_string()
    };
    let metrics = |key: &str| -> Vec<(String, String)> {
        list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(metrics("end_to_end"), owned(perfbench::report::END_TO_END));
    assert_eq!(metrics("per_layer"), owned(perfbench::report::PER_LAYER));
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, ["waxman1k_passthrough", "dbgpd_relay"]);
}
