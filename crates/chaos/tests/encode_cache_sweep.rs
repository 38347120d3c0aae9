//! The simulator's encode cache sweeps entries whose IA only the cache
//! still holds. A swept entry could never be hit again, so the sweep
//! must leave every wire counter exactly where the committed
//! `BENCH_sim.json` recorded it for the `waxman50_churn` scenario
//! (`sim_bench`'s flap storm plus restarts on the Waxman-50 fixture),
//! while keeping each node's cache near its live working set.

use dbgp_chaos::scenario::sim_from_graph;
use dbgp_chaos::{FaultPlan, ScenarioRunner};
use dbgp_sim::Sim;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use serde_json::Value;

const BENCH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
const SEED: u64 = 42;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key:?}"))
}

/// The prefix `sim_bench` has node `node` originate.
fn origin_prefix(node: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, (node >> 8) as u8, (node & 0xff) as u8, 0), 24).unwrap()
}

/// `sim_bench`'s `waxman50_churn` scenario on the serial engine.
fn waxman50_churn() -> Sim {
    let graph = dbgp_topology::fixtures::waxman_50(SEED);
    let mut sim = sim_from_graph(&graph, 10);
    sim.set_seed(SEED);
    for node in 0..50 {
        sim.originate(node, origin_prefix(node));
    }
    sim.run(200_000_000);
    let edges: Vec<(usize, usize, bool)> = sim.links().collect();
    let mut plan = FaultPlan::new();
    for round in 0..30u64 {
        let (a, b, _) = edges[(round as usize * 13 + 5) % edges.len()];
        let at = 210_000_000 + round * 40_000_000;
        plan = plan.link_flaps(a, b, at, 25_000_000, 10_000_000, 2);
    }
    for (i, node) in [1usize, 7, 19, 33].into_iter().enumerate() {
        plan = plan.node_restart(node, 300_000_000 + i as u64 * 250_000_000);
    }
    assert!(ScenarioRunner::new(3_000_000_000).run(&mut sim, &plan).quiesced);
    sim
}

#[test]
fn sweep_keeps_the_committed_encode_counters() {
    let raw = std::fs::read_to_string(BENCH).expect("committed BENCH_sim.json");
    let doc: Value = serde_json::from_str(&raw).expect("BENCH_sim.json parses");
    let pinned = field(field(&doc, "current"), "waxman50_churn");
    let pin = |key: &str| field(pinned, key).as_u64().expect("u64 counter");

    let sim = waxman50_churn();
    let stats = sim.stats();
    assert_eq!(stats.updates_encoded, pin("updates_encoded"));
    assert_eq!(stats.encode_cache_hits, pin("encode_cache_hits"));
    assert_eq!(stats.messages, pin("messages"));
    assert_eq!(stats.bytes, pin("bytes_delivered"));

    // Every node has encoded far more IAs than it still advertises; the
    // sweep keeps its cache within twice its live entries (or the
    // sweep floor), where the unswept cache kept every one of them.
    let held: usize = (0..sim.node_count()).map(|n| sim.encode_cache_len(n)).sum();
    assert!(
        (held as u64) * 4 < stats.updates_encoded,
        "{held} cached encodings after {} encodes",
        stats.updates_encoded
    );
}
