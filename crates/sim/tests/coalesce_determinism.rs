//! Deterministic update coalescing ([`Sim::set_coalesce`]) contract:
//!
//! 1. Coalescing changes the wire stream (fewer, fatter frames — that
//!    is the point) but never the outcome: the converged Loc-RIBs and
//!    FIBs match the per-change stream's exactly.
//! 2. With `mrai > 0` the staged sends compose with the classic MRAI
//!    window instead of bypassing it.

use dbgp_core::{render_path, DbgpConfig};
use dbgp_sim::Sim;
use dbgp_topology::fixtures::waxman_50;
use dbgp_wire::Ipv4Prefix;

fn origin_prefix(node: usize) -> Ipv4Prefix {
    format!("10.{}.{}.0/24", (node >> 8) & 0xff, node & 0xff).parse().unwrap()
}

/// A waxman-50 world where every node originates one prefix, with
/// coalescing and the MRAI configurable.
fn build(seed: u64, coalesce: bool, mrai: u64) -> Sim {
    let graph = waxman_50(seed);
    let mut sim = Sim::new();
    sim.set_seed(seed ^ 0xD1CE);
    sim.set_mrai(mrai);
    sim.set_coalesce(coalesce);
    for node in 0..graph.len() {
        sim.add_node(DbgpConfig::gulf(node as u32 + 1));
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for a in 0..graph.len() {
        for adj in graph.neighbors(a) {
            if a < adj.neighbor {
                edges.push((a, adj.neighbor));
            }
        }
    }
    edges.sort_unstable();
    for &(a, b) in &edges {
        sim.link(a, b, 5 + ((a + b) % 7) as u64, false);
    }
    for node in 0..graph.len() {
        sim.originate(node, origin_prefix(node));
    }
    sim
}

/// Only the converged routing outcome (no stats, no timing): what must
/// survive coalescing unchanged.
fn rib_fingerprint(sim: &Sim) -> String {
    let mut out = String::new();
    for node in 0..sim.node_count() {
        out.push_str(&format!("fib[{node}]={:?}\n", sim.fib(node)));
        for (prefix, chosen) in sim.speaker(node).routes() {
            out.push_str(&format!("rib[{node}][{prefix}]: path={}\n", render_path(&chosen.ia)));
        }
    }
    out
}

#[test]
fn coalescing_reduces_frames_without_changing_the_outcome() {
    let mut off = build(42, false, 0);
    off.run(200_000);
    assert_eq!(off.pending_events(), 0, "per-change run must quiesce");
    let mut on = build(42, true, 0);
    on.run(200_000);
    assert_eq!(on.pending_events(), 0, "coalesced run must quiesce");

    assert_eq!(
        rib_fingerprint(&off),
        rib_fingerprint(&on),
        "coalescing changed the converged routing outcome"
    );
    let (soff, son) = (off.stats(), on.stats());
    assert_eq!(soff.frames_coalesced, 0, "per-change run must not coalesce");
    assert!(son.frames_coalesced > 0, "coalesced run saved no frames");
    assert!(
        son.messages < soff.messages,
        "coalescing should deliver fewer frames: {} vs {}",
        son.messages,
        soff.messages
    );
}

#[test]
fn coalescing_composes_with_the_mrai_window() {
    let mut off = build(7, false, 30);
    off.run(400_000);
    assert_eq!(off.pending_events(), 0);
    let mut on = build(7, true, 30);
    on.run(400_000);
    assert_eq!(on.pending_events(), 0);
    assert_eq!(
        rib_fingerprint(&off),
        rib_fingerprint(&on),
        "coalescing under MRAI changed the converged routing outcome"
    );
}
