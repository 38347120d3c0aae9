//! The network simulator: D-BGP speakers on a topology of delayed
//! links, an out-of-band service bus, and a data plane with
//! multi-network-protocol encapsulation — the workspace's substitute for
//! the paper's MiniNeXT testbed (DESIGN.md §2).
//!
//! Control-plane messages are real wire bytes: every IA is encoded with
//! the TLV codec at the sender and decoded at the receiver, so the
//! simulator exercises exactly the serialization path the §5 stress test
//! measures.
//!
//! Links carry an optional [`LinkModel`] (seeded jitter, loss,
//! duplication, corruption) and can be failed, restored and flapped at
//! runtime; nodes can be restarted (session reset + full-table
//! re-transfer). All randomness flows through one seeded
//! [`SimRng`](crate::link::SimRng), so a run is fully determined by its
//! construction sequence and seed — the property the `dbgp-chaos` crate
//! builds its fault-injection harness on.

use crate::engine::{EventRouter, Routable, SimTime};
use crate::link::LinkModel;
use crate::link::SimRng;
use bytes::Bytes;
use dbgp_core::{
    render_path, DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, DbgpUpdate, NeighborId,
    PeerClass, PendingSends,
};
use dbgp_protocols::{MiroPortal, MiroRequest};
use dbgp_rib::PrefixTrie;
use dbgp_telemetry::{
    CounterId, EventId, GaugeId, HistogramId, MetricsRegistry, RibEntry, RibSnapshot, Semantics,
    SinkHandle, TraceKind, TraceRecorder,
};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Index of a node (one AS) in the simulation.
pub type NodeId = usize;

/// Canonical undirected key for a link between two nodes.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Causal annotations riding with a [`Event::Deliver`] when tracing is
/// on: the ids the receiver needs to chain its Deliver/Decode events to
/// the sender's Transmit/Advertise events. `None` in the untraced (and
/// therefore hot) configuration, so the only cost there is the pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeliverTrace {
    /// The sender's Transmit event for this frame.
    frame: EventId,
    /// Per-element causes in frame order (withdraws first, then IAs):
    /// the sender-side Withdraw/Advertise events.
    causes: Vec<EventId>,
}

/// What travels on the simulated wires and bus.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// Control-plane bytes arriving on a link. The buffer is refcounted:
    /// a fan-out or a duplicating link shares one allocation, and only a
    /// corrupting fault model copies (copy-on-corrupt).
    Deliver { to: NodeId, from: NodeId, bytes: Bytes, trace: Option<Box<DeliverTrace>> },
    /// MRAI window expired: flush pending advertisements to a neighbor.
    Flush { node: NodeId, neighbor: NeighborId },
    /// Out-of-band request to a service address.
    OobRequest { to_addr: Ipv4Addr, from: NodeId, payload: Vec<u8> },
    /// Out-of-band response back to a node.
    OobResponse { to: NodeId, from_addr: Ipv4Addr, payload: Vec<u8> },
}

impl Routable for Event {
    /// Shard affinity: wire and flush events are pinned to the node
    /// whose state they mutate; out-of-band requests address a service,
    /// not a node, and ride on shard 0 (the sharded engine never runs
    /// with out-of-band traffic anyway — see [`Sim::run`]).
    fn route_node(&self) -> Option<usize> {
        match self {
            Event::Deliver { to, .. } => Some(*to),
            Event::Flush { node, .. } => Some(*node),
            Event::OobRequest { .. } => None,
            Event::OobResponse { to, .. } => Some(*to),
        }
    }
}

/// A service reachable over the out-of-band bus (the paper's portals and
/// lookup services, §3.4, §5).
pub enum Service {
    /// A Wiser cost-exchange portal: forwards [`dbgp_protocols::CostReport`]
    /// payloads into the owning node's Wiser module.
    WiserCostExchange,
    /// A generic module inbox: forwards raw payloads into the owning
    /// node's decision module for the given protocol via
    /// `DecisionModule::deliver_oob` (used e.g. for HLP's intra-island
    /// LSA flooding).
    ModuleInbox(ProtocolId),
    /// A MIRO service portal: negotiates alternate paths for payment.
    Miro(MiroPortal),
    /// A generic key-value lookup service (Beagle's out-of-band IA store).
    Lookup(HashMap<Vec<u8>, Vec<u8>>),
}

/// A coalesced outbound advertisement: the latest IA for a prefix
/// (`None` = withdraw) plus the trace event that caused it.
type PendingAdvert = (Option<Arc<Ia>>, Option<EventId>);

struct Node {
    speaker: DbgpSpeaker,
    /// Neighbor ID -> peer node.
    neighbor_nodes: BTreeMap<NeighborId, NodeId>,
    /// Peer node -> our neighbor ID for it.
    ids_by_node: HashMap<NodeId, NeighborId>,
    /// Forwarding table maintained from `BestChanged` outputs.
    fib: PrefixTrie<Option<NodeId>>,
    /// This node's own address (used as IA next-hop and for tunnels).
    addr: Ipv4Addr,
    /// Out-of-band responses received, for inspection by drivers.
    oob_inbox: Vec<(Ipv4Addr, Vec<u8>)>,
    next_neighbor_id: u32,
    /// Coalesced outbound state per neighbor: prefix -> latest IA
    /// (`None` = withdraw), flushed when the MRAI window closes. The
    /// `Arc` is shared with the speaker's Adj-RIB-Out.
    pending_out: HashMap<NeighborId, BTreeMap<Ipv4Prefix, PendingAdvert>>,
    /// Neighbors with a Flush already scheduled.
    flush_armed: std::collections::HashSet<NeighborId>,
    /// Adj-RIB-Out encode cache (see [`EncodeCache`]).
    encode_cache: EncodeCache,
    /// Per-incarnation control-plane counters (see [`NodeCounters`]).
    counters: NodeCounters,
}

/// A raw pointer to one [`Node`], handed to exactly one pool worker per
/// window by the Tier B engine.
///
/// # Safety
///
/// `Node` is not automatically `Send` because `DbgpSpeaker` holds a
/// [`SinkHandle`] (an `Option<Rc<dyn TelemetrySink>>`). The parallel
/// engine only runs when `Sim::parallel_safe` has verified that every
/// handle is the `None` variant — a handle that *contains no `Rc` at
/// all* — so no reference count can be touched off-thread. Everything
/// else a `Node` owns is ordinary owned data (`DecisionModule: Send` is
/// a trait bound), and the window protocol guarantees each pointer is
/// dereferenced by at most one thread at a time.
struct NodeSlot(*mut Node);

// SAFETY: see the type-level comment; upheld by `Sim::process_window`.
unsafe impl Send for NodeSlot {}

/// Like [`NodeSlot`] but carrying the whole node-array base: a sharded
/// worker dereferences only the nodes its shard owns (asserted per
/// delivery against the router's node→shard table), so the same
/// disjointness argument applies.
struct NodeBase(*mut Node);

// SAFETY: see [`NodeSlot`]; upheld by `Sim::run_sharded`.
unsafe impl Send for NodeBase {}

/// Result of the node-local half of a `Deliver`, produced on a pool
/// worker and committed serially in pop order.
enum ParOutcome {
    /// The bytes did not decode (corruption or injected garbage).
    DecodeError,
    /// The sender is no longer an adjacency of the receiver.
    Orphaned,
    /// Speaker outputs, in the exact order the serial engine's batch
    /// path would have produced them, plus the sends the speaker staged
    /// while processing this event (always empty with coalescing off).
    /// Carrying the staged delta per event restores the serial engine's
    /// per-event staging attribution: the worker drains the speaker
    /// after each event, and the commit loop re-stages the delta under
    /// the committing clock — so the time-barrier flush sees exactly
    /// what a serial run would have staged, in the same order.
    Processed(Vec<DbgpOutput>, PendingSends),
}

/// Node-local half of a `Deliver`: decode the frame and run the
/// receiving speaker. Reads and writes nothing outside `node`, which is
/// what makes the parallel phase race-free; the counter updates and the
/// output order are byte-for-byte those of the serial engine's untraced
/// batch path.
fn process_deliver(node: &mut Node, from: NodeId, bytes: &Bytes) -> ParOutcome {
    node.counters.messages_in += 1;
    let mut buf = bytes.clone();
    let Ok(update) = DbgpUpdate::decode(&mut buf) else {
        return ParOutcome::DecodeError;
    };
    let Some(&from_id) = node.ids_by_node.get(&from) else {
        return ParOutcome::Orphaned;
    };
    node.counters.withdraws_in += update.withdrawn.len() as u64;
    node.counters.updates_in += update.ias.len() as u64;
    let mut outputs = Vec::new();
    for prefix in update.withdrawn {
        outputs.extend(node.speaker.receive_withdraw(from_id, prefix));
    }
    for ia in update.ias {
        outputs.extend(node.speaker.receive_ia(from_id, ia));
    }
    ParOutcome::Processed(outputs, node.speaker.take_pending_sends())
}

/// Per-node control-plane counters with explicit restart semantics
/// (`reset-on-restart`): a node restart zeroes them and bumps
/// `generation`, so a reader can tell "1000 messages since boot" from
/// "1000 messages across three incarnations". Engine-wide totals in
/// [`SimStats`] accumulate regardless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Incarnation number: 0 at creation, +1 per restart.
    pub generation: u64,
    /// Control-plane frames delivered to this node this incarnation.
    pub messages_in: u64,
    /// IA announcements decoded at this node this incarnation.
    pub updates_in: u64,
    /// Withdraws decoded at this node this incarnation.
    pub withdraws_in: u64,
    /// Best-path changes at this node this incarnation.
    pub best_changes: u64,
}

/// Handles into the simulator's [`MetricsRegistry`]. Engine-wide totals
/// are mirrored from [`SimStats`] at snapshot time (keeping the hot path
/// byte-identical to the pre-telemetry engine); histograms are observed
/// inline.
struct SimMetrics {
    registry: MetricsRegistry,
    messages: CounterId,
    bytes: CounterId,
    best_changes: CounterId,
    decode_errors: CounterId,
    orphaned_deliveries: CounterId,
    dropped_messages: CounterId,
    duplicated_messages: CounterId,
    corrupted_messages: CounterId,
    oob_requests: CounterId,
    updates_encoded: CounterId,
    encode_cache_hits: CounterId,
    node_restarts: CounterId,
    pending_events: GaugeId,
    last_event_at: GaugeId,
    message_bytes: HistogramId,
    flush_batch: HistogramId,
}

impl SimMetrics {
    fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let acc = Semantics::Accumulate;
        SimMetrics {
            messages: registry.counter("sim.messages_total", acc),
            bytes: registry.counter("sim.bytes_total", acc),
            best_changes: registry.counter("sim.best_changes_total", acc),
            decode_errors: registry.counter("sim.decode_errors_total", acc),
            orphaned_deliveries: registry.counter("sim.orphaned_deliveries_total", acc),
            dropped_messages: registry.counter("sim.dropped_messages_total", acc),
            duplicated_messages: registry.counter("sim.duplicated_messages_total", acc),
            corrupted_messages: registry.counter("sim.corrupted_messages_total", acc),
            oob_requests: registry.counter("sim.oob_requests_total", acc),
            updates_encoded: registry.counter("sim.updates_encoded_total", acc),
            encode_cache_hits: registry.counter("sim.encode_cache_hits_total", acc),
            node_restarts: registry.counter("sim.node_restarts_total", acc),
            pending_events: registry.gauge("sim.pending_events"),
            last_event_at: registry.gauge("sim.last_event_at"),
            message_bytes: registry.histogram("sim.message_bytes", acc),
            flush_batch: registry.histogram("sim.flush_batch_prefixes", acc),
            registry,
        }
    }
}

/// Hasher for pointer-keyed caches: the key is an `Arc` address, so one
/// Fibonacci multiply spreads it well enough and the SipHash setup cost
/// disappears from the per-send hot path. Never iterated, so the hash
/// choice cannot leak into event ordering.
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PtrMap<V> = HashMap<usize, V, std::hash::BuildHasherDefault<PtrHasher>>;

/// Cached wire form of one outgoing IA: two views into one buffer.
struct EncodeCacheEntry {
    /// Pins the IA so the pointer key stays unique while cached.
    ia: Arc<Ia>,
    /// A ready-made single-IA announce frame (the common MRAI flush).
    announce: Bytes,
    /// The encoded IA body, the tail of `announce` (the unit batched
    /// frames are assembled from).
    body: Bytes,
}

/// Entries per node before the encode cache is wiped (a crude bound; a
/// routing table that cycles through this many distinct outgoing IAs
/// inside one epoch is churning too hard to cache anyway).
const ENCODE_CACHE_CAP: usize = 8192;

/// Entry count below which the encode cache is never swept.
const ENCODE_SWEEP_MIN: usize = 64;

/// A node's Adj-RIB-Out encode cache: wire bytes for an outgoing IA,
/// keyed by the `Arc`'s pointer identity (the speaker hands the *same*
/// `Arc` to every neighbor of a class and across re-advertisements of
/// an unchanged best path, so identity is exactly "same chosen-IA
/// generation"). Each entry pins its `Arc` so a recycled allocation can
/// never alias a live key.
struct EncodeCache {
    entries: PtrMap<EncodeCacheEntry>,
    /// Inserts since the last wipe. The wipe point counts inserts, not
    /// entries, so sweeping dead entries never moves it and the hit and
    /// encode counts do not depend on the sweep.
    inserts: usize,
    /// Entry count at which dead entries are next swept: twice the live
    /// count the last sweep left.
    sweep_at: usize,
}

impl EncodeCache {
    fn new() -> Self {
        EncodeCache { entries: PtrMap::default(), inserts: 0, sweep_at: ENCODE_SWEEP_MIN }
    }

    fn get(&self, ia: &Arc<Ia>) -> Option<&EncodeCacheEntry> {
        self.entries.get(&(Arc::as_ptr(ia) as usize))
    }

    fn insert(&mut self, entry: EncodeCacheEntry) {
        if self.inserts >= ENCODE_CACHE_CAP {
            *self = Self::new();
        }
        if self.entries.len() >= self.sweep_at {
            // An entry whose `Arc` only the cache holds can never be hit
            // again: no caller can present that pointer any more.
            self.entries.retain(|_, e| Arc::strong_count(&e.ia) > 1);
            self.sweep_at = (2 * self.entries.len()).max(ENCODE_SWEEP_MIN);
        }
        self.inserts += 1;
        self.entries.insert(Arc::as_ptr(&entry.ia) as usize, entry);
    }
}

/// One adjacency's static parameters plus its administrative state.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    delay: SimTime,
    same_island: bool,
    speaks_dbgp: bool,
    model: LinkModel,
    up: bool,
    /// Gao-Rexford annotation, if any: how each end sees the other,
    /// ordered `(lower-id end's view, higher-id end's view)` to match
    /// the `link_key` normalization. `None` (every classic scenario)
    /// leaves the adjacency exempt from valley-free filtering.
    classes: Option<(PeerClass, PeerClass)>,
}

/// Counters the experiments read out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Control-plane messages delivered.
    pub messages: u64,
    /// Total control-plane bytes delivered.
    pub bytes: u64,
    /// Out-of-band requests served.
    pub oob_requests: u64,
    /// Simulated time of the last processed event (convergence time).
    pub last_event_at: SimTime,
    /// Deliveries whose bytes failed to decode (corruption, or a driver
    /// injecting garbage). Previously these were silently swallowed.
    pub decode_errors: u64,
    /// Deliveries that arrived after their adjacency was torn down
    /// (in-flight messages racing a link failure or node restart).
    pub orphaned_deliveries: u64,
    /// Messages dropped in flight by a lossy [`LinkModel`].
    pub dropped_messages: u64,
    /// Extra copies delivered by a duplicating [`LinkModel`].
    pub duplicated_messages: u64,
    /// Messages with a byte flipped in flight by a corrupting
    /// [`LinkModel`].
    pub corrupted_messages: u64,
    /// Total `BestChanged` decisions across all nodes (route churn).
    pub best_changes: u64,
    /// IA bodies freshly serialized on the send path, plus withdraw-only
    /// frames (which carry no cacheable IA body).
    pub updates_encoded: u64,
    /// IA bodies whose wire bytes were reused from the Adj-RIB-Out
    /// encode cache instead of being re-serialized.
    pub encode_cache_hits: u64,
    /// Frames saved by deterministic update coalescing: each flushed
    /// batch of `k > 1` staged elements counts `k - 1` (the frames a
    /// per-change sender would have emitted for the same elements).
    /// Always 0 with coalescing off.
    pub frames_coalesced: u64,
}

/// Per-(node, prefix) route-churn record, maintained on every
/// `BestChanged` a speaker emits. The chaos crate's convergence tracker
/// diffs snapshots of these to measure per-fault churn and convergence
/// times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixChurn {
    /// How many times this node's best path for the prefix changed.
    pub best_changes: u64,
    /// Simulated time of the most recent change.
    pub last_change_at: SimTime,
}

/// One recorded best-path change, emitted by the bounded-horizon
/// oscillation capture ([`Sim::capture_best_changes`]). The stability
/// suite analyzes the tail of this sequence for periodicity: a
/// non-quiescent run whose `(node, prefix, next)` tail repeats is a
/// route-flapping livelock observed in the production engine, not just
/// in the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestChange {
    /// Simulated time of the change.
    pub at: SimTime,
    /// The node whose Loc-RIB changed.
    pub node: NodeId,
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Whether a route is installed after the change (`false` =
    /// withdrawn / unreachable).
    pub installed: bool,
    /// The new FIB next hop; `None` when withdrawn or locally
    /// originated.
    pub next: Option<NodeId>,
}

/// Ring buffer behind [`Sim::capture_best_changes`]: keeps the most
/// recent `cap` changes (the tail is what periodicity analysis needs;
/// the transient before it is disposable) plus a total count.
#[derive(Debug, Clone, Default)]
struct BestChangeCapture {
    cap: usize,
    total: u64,
    records: VecDeque<BestChange>,
}

impl BestChangeCapture {
    fn record(&mut self, change: BestChange) {
        self.total += 1;
        if self.records.len() == self.cap {
            self.records.pop_front();
        }
        if self.cap > 0 {
            self.records.push_back(change);
        }
    }
}

/// The simulator.
pub struct Sim {
    nodes: Vec<Node>,
    /// Undirected link state, keyed by `(min, max)` node pair.
    links: BTreeMap<(NodeId, NodeId), LinkState>,
    services: HashMap<Ipv4Addr, (NodeId, Service)>,
    queue: EventRouter<Event>,
    stats: SimStats,
    /// Route-churn records per (node, prefix).
    churn: BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn>,
    /// Seeded RNG driving link perturbation models. Only consumed for
    /// links with a non-default model, so fault-free runs are identical
    /// to runs before link models existed.
    rng: SimRng,
    /// Default one-way delay for the out-of-band bus.
    oob_delay: SimTime,
    /// Minimum route advertisement interval: outbound updates to a
    /// neighbor are coalesced per prefix over this window, BGP's
    /// classic damper for transient churn (and the reason real-world
    /// policy oscillations burn bandwidth instead of CPU). Latest state
    /// wins within a window.
    mrai: SimTime,
    /// Telemetry sink; `SinkHandle::none()` (one predictable branch per
    /// instrumentation site) unless [`Sim::enable_telemetry`] was called.
    sink: SinkHandle,
    /// The recorder behind `sink`, kept for watermark/scan queries.
    recorder: Option<Rc<TraceRecorder>>,
    /// Metrics registry mirrored from [`SimStats`] at snapshot time.
    metrics: SimMetrics,
    /// Worker pool for windowed (Tier B) parallel event processing;
    /// `None` means the classic serial engine.
    pool: Option<std::sync::Arc<dbgp_par::Pool>>,
    /// Minimum one-way delay across every link ever created (`u64::MAX`
    /// until the first link). Lower-bounds the PDES lookahead: no
    /// control-plane message can arrive sooner than this after the event
    /// that sent it.
    min_link_delay: SimTime,
    /// Whether any out-of-band request was ever injected. Once true, the
    /// lookahead must also respect `oob_delay` (requests and responses
    /// are scheduled that far ahead).
    oob_used: bool,
    /// Reusable window buffer for the Tier B drain/commit loop; kept on
    /// the struct so its capacity survives across windows.
    window: Vec<(SimTime, Event)>,
    /// The node partition behind the sharded engine, if [`Sim::set_shards`]
    /// was called (kept for edge-cut reporting).
    partition: Option<dbgp_par::Partition>,
    /// Link-delay accumulators: the calendar queue's day width is tuned
    /// to the mean link delay at first run.
    delay_sum: SimTime,
    delay_count: u64,
    width_tuned: bool,
    /// Reusable per-shard window/outcome buffers for the sharded
    /// engine's drain/commit cycle.
    shard_windows: Vec<Vec<(SimTime, u64, Event)>>,
    shard_outcomes: Vec<Vec<Option<ParOutcome>>>,
    /// Bounded-horizon oscillation capture; `None` (the default) is
    /// completely inert — no state, no branches taken, no output
    /// change, so pinned golden results are unaffected.
    capture: Option<BestChangeCapture>,
    /// Deterministic update coalescing ([`Sim::set_coalesce`]); off by
    /// default so the classic per-change wire stream is byte-identical
    /// to prior releases.
    coalesce: bool,
    /// Incremental decision fast path on every speaker (on by default;
    /// [`Sim::set_incremental`] turns it off for A/B measurement).
    incremental: bool,
    /// Speaker-staged sends absorbed at event commit, awaiting the
    /// time-barrier flush. Keyed `(node, neighbor, prefix)` so the
    /// flush order is canonical regardless of arrival order.
    staged_sends: BTreeMap<NodeId, PendingSends>,
    /// Commit-clock value of the most recent staging; the barrier
    /// flushes as soon as an event with a strictly later time commits.
    staged_at: SimTime,
    /// Per-phase wall-time accumulators ([`Sim::enable_phase_timing`]);
    /// `None` (the default) keeps the hot path to one predictable
    /// branch per instrumentation site.
    phase_timing: Option<Box<PhaseTimes>>,
}

/// Wall-clock nanoseconds attributed to each stage of the delivery hot
/// path, collected only when [`Sim::enable_phase_timing`] was called.
/// `decode` covers frame decoding, `decide` the receiving speakers'
/// import/decision work, `encode` outbound wire-byte assembly, and
/// `queue` delivery scheduling (including link-model application).
/// Timing forces the serial engine and skips traced runs, so enable it
/// on dedicated measurement runs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Nanoseconds spent decoding inbound frames.
    pub decode_ns: u64,
    /// Nanoseconds spent in speaker receive/decision processing.
    pub decide_ns: u64,
    /// Nanoseconds spent assembling outbound wire bytes.
    pub encode_ns: u64,
    /// Nanoseconds spent scheduling deliveries onto links.
    pub queue_ns: u64,
}

/// Which [`PhaseTimes`] bucket an instrumented span belongs to.
#[derive(Clone, Copy)]
enum Phase {
    Decode,
    Decide,
    Encode,
    Queue,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// An empty simulation.
    pub fn new() -> Self {
        Sim {
            nodes: Vec::new(),
            links: BTreeMap::new(),
            services: HashMap::new(),
            queue: EventRouter::new(),
            stats: SimStats::default(),
            churn: BTreeMap::new(),
            rng: SimRng::new(0),
            oob_delay: 5,
            mrai: 30,
            sink: SinkHandle::none(),
            recorder: None,
            metrics: SimMetrics::new(),
            pool: None,
            min_link_delay: u64::MAX,
            oob_used: false,
            window: Vec::new(),
            partition: None,
            delay_sum: 0,
            delay_count: 0,
            width_tuned: false,
            shard_windows: Vec::new(),
            shard_outcomes: Vec::new(),
            capture: None,
            coalesce: false,
            incremental: true,
            staged_sends: BTreeMap::new(),
            staged_at: 0,
            phase_timing: None,
        }
    }

    /// Use `threads` threads of compute for event processing. `1` (the
    /// default) keeps the classic serial engine; more builds a worker
    /// pool and switches [`Sim::run`] to the lookahead-windowed parallel
    /// engine, which produces bit-identical results (see DESIGN.md §10).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = if threads <= 1 {
            None
        } else {
            Some(std::sync::Arc::new(dbgp_par::Pool::new(threads)))
        };
    }

    /// Share an existing worker pool instead of building one (drivers
    /// running many simulations reuse one pool across all of them). A
    /// 1-thread pool selects the serial engine.
    pub fn set_thread_pool(&mut self, pool: std::sync::Arc<dbgp_par::Pool>) {
        self.pool = if pool.threads() <= 1 { None } else { Some(pool) };
    }

    /// Threads of compute the engine will apply (1 = serial).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// Partition the event engine into `shards` per-shard calendar
    /// queues (Tier C). The partitioner is a METIS-lite greedy edge cut
    /// over the current link graph, so call this after the topology is
    /// built; `1` returns to the single-queue engine. Sharding is
    /// results-neutral at any shard and thread count — the router keeps
    /// one global `(time, seq)` order (DESIGN.md §12) — and only the
    /// combination of shards > 1, a worker pool, and an out-of-band-free
    /// run engages the sharded parallel path.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.clamp(1, u16::MAX as usize - 1);
        let edges: Vec<(usize, usize)> = self.links.keys().copied().collect();
        let part = dbgp_par::partition(self.nodes.len(), &edges, shards);
        // Mailbox hint: one window's cross-shard fan-out is bounded in
        // practice by the shard's share of the link count.
        let hint = (edges.len() / part.shards.max(1)).max(64);
        self.queue.set_shards(part.assignment.clone(), part.shards, hint);
        self.partition = Some(part);
    }

    /// Like [`Sim::set_shards`], but balancing the partition by node
    /// *degree* (an event-load proxy) instead of node count, via
    /// `dbgp_par::partition_weighted`. On hub-heavy topologies — the
    /// `hier_50k` tier-1 clique is the motivating case — count-balanced
    /// shards leave one shard carrying most of the event load; the
    /// weighted partition spreads the hubs at the price of a higher
    /// edge cut. Results are identical either way (sharding is
    /// results-neutral by construction); only wall-clock and the
    /// per-shard event split move.
    pub fn set_shards_weighted(&mut self, shards: usize) {
        let shards = shards.clamp(1, u16::MAX as usize - 1);
        let edges: Vec<(usize, usize)> = self.links.keys().copied().collect();
        let mut weights = vec![1u64; self.nodes.len()];
        for &(a, b) in &edges {
            weights[a] += 1;
            weights[b] += 1;
        }
        let part = dbgp_par::partition_weighted(self.nodes.len(), &edges, shards, &weights);
        let hint = (edges.len() / part.shards.max(1)).max(64);
        self.queue.set_shards(part.assignment.clone(), part.shards, hint);
        self.partition = Some(part);
    }

    /// Shards the event engine is partitioned into (1 = unsharded).
    pub fn shards(&self) -> usize {
        self.queue.shard_count()
    }

    /// Fraction of links whose endpoints landed in different shards
    /// (0.0 when unsharded).
    pub fn edge_cut_fraction(&self) -> f64 {
        self.partition.as_ref().map_or(0.0, |p| p.edge_cut_fraction())
    }

    /// Events committed through each shard so far.
    pub fn shard_event_counts(&self) -> Vec<u64> {
        self.queue.shard_processed().to_vec()
    }

    /// Attach a recording sink: every control-plane action from here on
    /// is recorded as a causally linked [`dbgp_telemetry::TraceEvent`],
    /// and each speaker's decision process starts explaining itself.
    /// Node -> ASN labels are registered with the recorder (nodes added
    /// later register at [`Sim::add_node`] time).
    pub fn enable_telemetry(&mut self, recorder: Rc<TraceRecorder>) {
        for (i, node) in self.nodes.iter().enumerate() {
            recorder.set_node_asn(i as u32, node.speaker.asn());
        }
        self.sink = SinkHandle::new(recorder.clone());
        self.recorder = Some(recorder);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.speaker.set_telemetry(self.sink.clone(), i as u32);
        }
    }

    /// The recorder attached by [`Sim::enable_telemetry`], if any.
    pub fn trace_recorder(&self) -> Option<&Rc<TraceRecorder>> {
        self.recorder.as_ref()
    }

    /// A clone of the telemetry sink handle (no-op unless telemetry is
    /// enabled).
    pub fn telemetry_sink(&self) -> SinkHandle {
        self.sink.clone()
    }

    /// Change the minimum route advertisement interval (0 disables
    /// coalescing entirely).
    pub fn set_mrai(&mut self, mrai: SimTime) {
        self.mrai = mrai;
    }

    /// Enable deterministic update coalescing: every speaker stages its
    /// sends per (neighbor, prefix) — last write wins — and the engine
    /// flushes them as packed multi-NLRI frames the moment the global
    /// commit clock passes the staging time. Staging deltas are absorbed
    /// at event commit, which all three engines perform in the same
    /// `(time, seq)` order, so the flush points, frames and RNG draws
    /// are engine-independent. Off by default: the classic per-change
    /// wire stream stays byte-identical to prior releases. With
    /// `mrai > 0` staged sends join the per-neighbor MRAI window at the
    /// barrier instead of going out immediately. Coalesced frames carry
    /// no per-element trace causes. Toggle only while nothing is staged
    /// (before the first run, or between quiesced runs).
    pub fn set_coalesce(&mut self, on: bool) {
        debug_assert!(
            on || self.staged_sends.is_empty(),
            "disable coalescing only after the staged sends drained"
        );
        self.coalesce = on;
        for node in &mut self.nodes {
            node.speaker.set_coalesce(on);
        }
    }

    /// Whether deterministic update coalescing is on.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// Enable/disable the incremental decision fast path on every
    /// speaker, current and future. On by default; the off position
    /// exists for A/B measurement and differential testing against the
    /// always-full-scan decision process.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        for node in &mut self.nodes {
            node.speaker.set_incremental(on);
        }
    }

    /// Full candidate scans the incremental decision fast path avoided,
    /// summed over all speakers. Engine-independent: the fast path runs
    /// in the node-local half of delivery processing, which is
    /// identical in the serial, windowed and sharded engines.
    pub fn full_scans_avoided(&self) -> u64 {
        self.nodes.iter().map(|n| n.speaker.full_scans_avoided()).sum()
    }

    /// Collect per-phase wall time (decode/decide/encode/queue) on the
    /// delivery hot path. Forces the serial engine, so enable it only
    /// on dedicated measurement runs — never on gated throughput legs.
    pub fn enable_phase_timing(&mut self) {
        self.phase_timing = Some(Box::default());
    }

    /// Accumulated hot-path phase times, if
    /// [`enable_phase_timing`](Self::enable_phase_timing) was called.
    pub fn phase_times(&self) -> Option<PhaseTimes> {
        self.phase_timing.as_deref().copied()
    }

    /// Turn on bounded-horizon oscillation capture: from here on the
    /// most recent `cap` best-path changes are kept (with their
    /// simulated times) for post-run periodicity analysis. Like an
    /// attached trace recorder, capture forces the serial engine — the
    /// record order *is* the analysis input, so it must be the serial
    /// commit order.
    pub fn capture_best_changes(&mut self, cap: usize) {
        self.capture = Some(BestChangeCapture { cap, total: 0, records: VecDeque::new() });
    }

    /// Total best-path changes observed since capture was enabled.
    pub fn captured_change_count(&self) -> u64 {
        self.capture.as_ref().map_or(0, |c| c.total)
    }

    /// The captured tail of best-path changes, oldest first (at most
    /// the `cap` passed to [`Sim::capture_best_changes`]).
    pub fn captured_changes(&self) -> Vec<BestChange> {
        self.capture.as_ref().map_or_else(Vec::new, |c| c.records.iter().copied().collect())
    }

    /// Re-seed the perturbation RNG. Two runs with the same construction
    /// sequence, seed and fault schedule are byte-identical.
    pub fn set_seed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed);
    }

    /// Add an AS. Its node address is derived from the node index.
    pub fn add_node(&mut self, cfg: DbgpConfig) -> NodeId {
        let id = self.nodes.len();
        let addr = Ipv4Addr::new(10, (id >> 8) as u8, (id & 0xff) as u8, 1);
        let mut speaker = DbgpSpeaker::new(cfg);
        if let Some(recorder) = &self.recorder {
            recorder.set_node_asn(id as u32, speaker.asn());
            speaker.set_telemetry(self.sink.clone(), id as u32);
        }
        if self.coalesce {
            speaker.set_coalesce(true);
        }
        if !self.incremental {
            speaker.set_incremental(false);
        }
        self.nodes.push(Node {
            speaker,
            neighbor_nodes: BTreeMap::new(),
            ids_by_node: HashMap::new(),
            fib: PrefixTrie::new(),
            addr,
            oob_inbox: Vec::new(),
            next_neighbor_id: 0,
            pending_out: HashMap::new(),
            flush_armed: std::collections::HashSet::new(),
            encode_cache: EncodeCache::new(),
            counters: NodeCounters::default(),
        });
        id
    }

    /// Pre-size the event queue (drivers call this with a multiple of
    /// the topology's edge count so large-run warmup doesn't regrow the
    /// heap).
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node's own address.
    pub fn node_addr(&self, node: NodeId) -> Ipv4Addr {
        self.nodes[node].addr
    }

    /// Access a node's speaker.
    pub fn speaker(&self, node: NodeId) -> &DbgpSpeaker {
        &self.nodes[node].speaker
    }

    /// Mutable access to a node's speaker (to register decision modules).
    pub fn speaker_mut(&mut self, node: NodeId) -> &mut DbgpSpeaker {
        &mut self.nodes[node].speaker
    }

    /// Encoded outgoing IAs the node's encode cache holds right now.
    pub fn encode_cache_len(&self, node: NodeId) -> usize {
        self.nodes[node].encode_cache.entries.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events still scheduled (a quiescent simulation has none).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Total events processed since construction (the throughput
    /// numerator `sim_bench` reports).
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Route-churn records per (node, prefix), cumulative since the
    /// start of the run.
    pub fn churn(&self) -> &BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn> {
        &self.churn
    }

    /// This node's per-incarnation counters (reset on restart, with the
    /// incarnation recorded in `generation`).
    pub fn node_counters(&self, node: NodeId) -> NodeCounters {
        self.nodes[node].counters
    }

    /// A `dbgp-metrics/v1` snapshot: the engine-wide registry (totals
    /// mirrored from [`SimStats`], `accumulate` semantics) plus a
    /// `nodes` array of per-node `reset-on-restart` counters, each with
    /// its own restart generation.
    pub fn metrics_snapshot(&mut self) -> Value {
        let s = self.stats;
        let m = &mut self.metrics;
        m.registry.set_counter(m.messages, s.messages);
        m.registry.set_counter(m.bytes, s.bytes);
        m.registry.set_counter(m.best_changes, s.best_changes);
        m.registry.set_counter(m.decode_errors, s.decode_errors);
        m.registry.set_counter(m.orphaned_deliveries, s.orphaned_deliveries);
        m.registry.set_counter(m.dropped_messages, s.dropped_messages);
        m.registry.set_counter(m.duplicated_messages, s.duplicated_messages);
        m.registry.set_counter(m.corrupted_messages, s.corrupted_messages);
        m.registry.set_counter(m.oob_requests, s.oob_requests);
        m.registry.set_counter(m.updates_encoded, s.updates_encoded);
        m.registry.set_counter(m.encode_cache_hits, s.encode_cache_hits);
        m.registry.set_gauge(m.pending_events, self.queue.len() as i64);
        m.registry.set_gauge(m.last_event_at, s.last_event_at as i64);
        let mut snap = m.registry.snapshot(self.queue.now());
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let c = n.counters;
                Value::Object(vec![
                    ("node".into(), Value::UInt(i as u64)),
                    ("asn".into(), Value::UInt(u64::from(n.speaker.asn()))),
                    ("generation".into(), Value::UInt(c.generation)),
                    ("semantics".into(), Value::String("reset-on-restart".into())),
                    ("messages_in".into(), Value::UInt(c.messages_in)),
                    ("updates_in".into(), Value::UInt(c.updates_in)),
                    ("withdraws_in".into(), Value::UInt(c.withdraws_in)),
                    ("best_changes".into(), Value::UInt(c.best_changes)),
                ])
            })
            .collect();
        if let Value::Object(fields) = &mut snap {
            fields.push(("nodes".into(), Value::Array(nodes)));
        }
        snap
    }

    /// Snapshot every node's chosen best paths, for convergence diffing
    /// via [`RibSnapshot::diff`].
    pub fn rib_snapshot(&self) -> RibSnapshot {
        let mut snap = RibSnapshot { at: self.queue.now(), entries: BTreeMap::new() };
        for (node, n) in self.nodes.iter().enumerate() {
            for (prefix, chosen) in n.speaker.routes() {
                let via_as = chosen
                    .neighbor
                    .and_then(|id| n.neighbor_nodes.get(&id))
                    .map(|&peer| self.nodes[peer].speaker.asn());
                snap.entries.insert(
                    (node as u32, *prefix),
                    RibEntry {
                        path: render_path(&chosen.ia),
                        hops: chosen.ia.hop_count() as u32,
                        via_as,
                    },
                );
            }
        }
        snap
    }

    /// This node's island id, if it is an island member.
    fn island_of(&self, node: NodeId) -> Option<u32> {
        self.nodes[node].speaker.config().island.as_ref().map(|i| i.id.0)
    }

    /// Sync the sink's ambient clock to simulation time so events the
    /// speakers record from inside their pipelines are stamped correctly.
    #[inline]
    fn sync_trace_clock(&self) {
        if self.sink.enabled() {
            self.sink.set_now(self.queue.now());
        }
    }

    /// Connect two nodes with symmetric one-way `delay`. `same_island`
    /// marks both ends as intra-island peers.
    pub fn link(&mut self, a: NodeId, b: NodeId, delay: SimTime, same_island: bool) {
        self.link_with(a, b, delay, same_island, true)
    }

    /// Connect with full control over D-BGP capability (`speaks_dbgp =
    /// false` models a legacy BGP-only adjacency).
    pub fn link_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimTime,
        same_island: bool,
        speaks_dbgp: bool,
    ) {
        self.link_full(a, b, delay, same_island, speaks_dbgp, None)
    }

    /// Connect a customer to its transit provider (Gao-Rexford): the
    /// customer sees a [`PeerClass::Provider`], the provider a
    /// [`PeerClass::Customer`]. Valley-free filtering only activates on
    /// speakers whose `FilterConfig::valley_free` is set.
    pub fn link_customer_provider(&mut self, customer: NodeId, provider: NodeId, delay: SimTime) {
        let classes = if customer < provider {
            (PeerClass::Provider, PeerClass::Customer)
        } else {
            (PeerClass::Customer, PeerClass::Provider)
        };
        self.link_full(customer, provider, delay, false, true, Some(classes));
    }

    /// Connect two settlement-free lateral peers (Gao-Rexford).
    pub fn link_peering(&mut self, a: NodeId, b: NodeId, delay: SimTime) {
        self.link_full(a, b, delay, false, true, Some((PeerClass::Peer, PeerClass::Peer)));
    }

    fn link_full(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimTime,
        same_island: bool,
        speaks_dbgp: bool,
        classes: Option<(PeerClass, PeerClass)>,
    ) {
        self.links.insert(
            link_key(a, b),
            LinkState {
                delay,
                same_island,
                speaks_dbgp,
                model: LinkModel::reliable(),
                up: true,
                classes,
            },
        );
        // Lookahead bound: once a link this fast exists, windows may
        // never span more than its delay. (Failing the link does not
        // relax the bound — a conservative lookahead is always safe.)
        self.min_link_delay = self.min_link_delay.min(delay);
        self.delay_sum = self.delay_sum.saturating_add(delay);
        self.delay_count += 1;
        for (me, peer) in [(a, b), (b, a)] {
            self.establish(me, peer, same_island, speaks_dbgp, "link-up", None);
        }
    }

    /// Attach a perturbation model to an existing link (both directions).
    ///
    /// Panics if the nodes were never linked: a chaos plan naming a
    /// non-existent link is a scenario bug worth failing loudly on.
    pub fn set_link_model(&mut self, a: NodeId, b: NodeId, model: LinkModel) {
        self.links
            .get_mut(&link_key(a, b))
            .unwrap_or_else(|| panic!("set_link_model: no link {a}-{b}"))
            .model = model;
    }

    /// Whether the link between two nodes exists and is up.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.links.get(&link_key(a, b)).is_some_and(|l| l.up)
    }

    /// All links ever created, as `(a, b, up)` with `a < b`, in
    /// deterministic order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, bool)> + '_ {
        self.links.iter().map(|(&(a, b), l)| (a, b, l.up))
    }

    /// Register an out-of-band service at `addr`, owned by `node`.
    pub fn register_service(&mut self, node: NodeId, addr: Ipv4Addr, service: Service) {
        self.services.insert(addr, (node, service));
    }

    /// Originate a prefix at a node.
    pub fn originate(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        self.sync_trace_clock();
        let root = self.sink.record_at(
            self.queue.now(),
            node as u32,
            None,
            TraceKind::Originate { prefix },
        );
        let addr = self.nodes[node].addr;
        self.sink.set_ambient_parent(root);
        let outputs = self.nodes[node].speaker.originate(prefix, addr);
        self.sink.set_ambient_parent(None);
        self.apply_local(node, &outputs);
        self.dispatch(node, outputs, root);
    }

    /// Originate a hand-built IA at a node (replacement protocols use
    /// this to control descriptors).
    pub fn originate_ia(&mut self, node: NodeId, ia: dbgp_wire::Ia) {
        self.sync_trace_clock();
        let root = self.sink.record_at(
            self.queue.now(),
            node as u32,
            None,
            TraceKind::Originate { prefix: ia.prefix },
        );
        self.sink.set_ambient_parent(root);
        let outputs = self.nodes[node].speaker.originate_ia(ia);
        self.sink.set_ambient_parent(None);
        self.apply_local(node, &outputs);
        self.dispatch(node, outputs, root);
    }

    /// Withdraw a locally originated prefix.
    pub fn withdraw(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        self.sync_trace_clock();
        let root = self.sink.record_at(
            self.queue.now(),
            node as u32,
            None,
            TraceKind::OriginWithdraw { prefix },
        );
        self.sink.set_ambient_parent(root);
        let outputs = self.nodes[node].speaker.withdraw_origin(prefix);
        self.sink.set_ambient_parent(None);
        self.apply_local(node, &outputs);
        self.dispatch(node, outputs, root);
    }

    /// Fail the link between two nodes: both speakers see the neighbor
    /// go down, flush its routes, and re-converge (the link-failure
    /// events of §3.5, "about 172 per day" in the wild). The link's
    /// parameters are remembered so [`Sim::restore_link`] can undo this.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        match self.links.get_mut(&link_key(a, b)) {
            Some(l) if l.up => l.up = false,
            _ => return,
        }
        self.sync_trace_clock();
        let root = self.sink.record_at(
            self.queue.now(),
            a as u32,
            None,
            TraceKind::LinkDown { a: a as u32, b: b as u32 },
        );
        for (me, peer) in [(a, b), (b, a)] {
            self.teardown_neighbor(me, peer, "link-down", root);
        }
    }

    /// Re-establish a previously failed link: the inverse of
    /// [`Sim::fail_link`]. Both ends run session bring-up again — fresh
    /// neighbor IDs, and each speaker re-advertises its full Adj-RIB-Out
    /// to the other, exactly like a BGP session re-establishing after an
    /// outage.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        let (same_island, speaks_dbgp) = match self.links.get_mut(&link_key(a, b)) {
            Some(l) if !l.up => {
                l.up = true;
                (l.same_island, l.speaks_dbgp)
            }
            _ => return,
        };
        self.sync_trace_clock();
        let root = self.sink.record_at(
            self.queue.now(),
            a as u32,
            None,
            TraceKind::LinkUp { a: a as u32, b: b as u32 },
        );
        for (me, peer) in [(a, b), (b, a)] {
            self.establish(me, peer, same_island, speaks_dbgp, "link-up", root);
        }
    }

    /// Restart a node: every one of its sessions resets and then comes
    /// back up with a full-table re-transfer in both directions — the
    /// paper's §3.5 concern that D-BGP's per-session state must survive
    /// ASes rebooting routers. Neighbors see the peer flap; the
    /// restarting node drops all queued outbound state.
    pub fn restart_node(&mut self, node: NodeId) {
        let peers: Vec<(NodeId, bool, bool)> = self
            .links
            .iter()
            .filter(|(&(x, y), l)| l.up && (x == node || y == node))
            .map(|(&(x, y), l)| (if x == node { y } else { x }, l.same_island, l.speaks_dbgp))
            .collect();
        // The restart opens a new incarnation: the node's generation
        // bumps and the registry-wide generation follows (S2 semantics —
        // engine totals keep accumulating, per-node counters reset).
        let generation = self.nodes[node].counters.generation + 1;
        self.metrics.registry.on_restart();
        self.metrics.registry.inc(self.metrics.node_restarts, 1);
        self.sync_trace_clock();
        let root = self.sink.record_at(
            self.queue.now(),
            node as u32,
            None,
            TraceKind::NodeRestart { generation },
        );
        for &(peer, ..) in &peers {
            self.teardown_neighbor(node, peer, "node-restart", root);
            self.teardown_neighbor(peer, node, "node-restart", root);
        }
        // Counters reset after the teardown: the going-down route losses
        // belong to the old incarnation, the new one counts only its
        // re-convergence.
        self.nodes[node].counters = NodeCounters { generation, ..NodeCounters::default() };
        // The rebooting router loses its coalescing buffers, encode
        // cache and any undelivered out-of-band responses.
        self.nodes[node].pending_out.clear();
        self.nodes[node].flush_armed.clear();
        self.nodes[node].oob_inbox.clear();
        self.nodes[node].encode_cache = EncodeCache::new();
        self.staged_sends.remove(&node);
        for &(peer, same_island, speaks_dbgp) in &peers {
            self.establish(node, peer, same_island, speaks_dbgp, "node-restart", root);
            self.establish(peer, node, same_island, speaks_dbgp, "node-restart", root);
        }
    }

    /// Send an out-of-band payload from a node to a service address.
    pub fn oob_send(&mut self, from: NodeId, to_addr: Ipv4Addr, payload: Vec<u8>) {
        self.oob_used = true;
        self.queue.schedule(self.oob_delay, Event::OobRequest { to_addr, from, payload });
    }

    /// Out-of-band responses a node has received so far.
    pub fn oob_inbox(&self, node: NodeId) -> &[(Ipv4Addr, Vec<u8>)] {
        &self.nodes[node].oob_inbox
    }

    /// The node's forwarding table (prefix -> next-hop node; `None` =
    /// delivered locally).
    pub fn fib(&self, node: NodeId) -> &PrefixTrie<Option<NodeId>> {
        &self.nodes[node].fib
    }

    /// Schedule raw bytes for delivery as if they arrived on the wire
    /// from `from` — a hook for tests and chaos drivers to model
    /// garbage or stale traffic without a sending speaker.
    pub fn inject_raw(&mut self, from: NodeId, to: NodeId, delay: SimTime, bytes: Vec<u8>) {
        self.queue
            .schedule(delay, Event::Deliver { to, from, bytes: Bytes::from(bytes), trace: None });
    }

    /// Run until no events remain or `max_time` is reached. Events at
    /// exactly `max_time` are processed; events beyond it stay queued
    /// (and the clock stays at or before `max_time`), so a later `run`
    /// call picks up exactly where this one stopped. Returns the
    /// statistics snapshot.
    pub fn run(&mut self, max_time: SimTime) -> SimStats {
        self.tune_width();
        match self.pool.clone() {
            Some(pool)
                if self.parallel_safe() && self.queue.shard_count() > 1 && !self.oob_used =>
            {
                self.run_sharded(&pool, max_time)
            }
            Some(pool) if self.parallel_safe() => self.run_windowed(&pool, max_time),
            _ => self.run_serial(max_time),
        }
    }

    /// Derive the calendar-queue day width from the mean link delay
    /// (once, at first run): one day spanning roughly one typical delay
    /// keeps each lookahead window's events within O(1) buckets. A pure
    /// throughput knob — pop order is exact `(time, seq)` at any width.
    fn tune_width(&mut self) {
        if self.width_tuned {
            return;
        }
        self.width_tuned = true;
        if self.delay_count == 0 {
            return;
        }
        let mean = (self.delay_sum / self.delay_count).max(1);
        let shift = (SimTime::BITS - mean.leading_zeros()).min(12);
        self.queue.set_width_shift(shift);
    }

    /// Whether the windowed parallel engine may run: telemetry handles
    /// hold an `Rc` and are not thread-safe, so any attached recorder or
    /// per-speaker sink forces the serial engine. (Telemetry also changes
    /// the processing granularity, so the serial engine is the only one
    /// that can honor per-element trace causality anyway.) Oscillation
    /// capture forces serial for the same reason: its record order is
    /// the analysis input.
    fn parallel_safe(&self) -> bool {
        self.recorder.is_none()
            && !self.sink.is_attached()
            && self.capture.is_none()
            && self.phase_timing.is_none()
            && self.nodes.iter().all(|n| !n.speaker.telemetry_attached())
    }

    /// The classic serial event loop.
    fn run_serial(&mut self, max_time: SimTime) -> SimStats {
        loop {
            while let Some(next_at) = self.queue.peek_time() {
                if next_at > max_time {
                    break;
                }
                let (at, event) = self.queue.pop().expect("peeked event must pop");
                self.handle_event(at, event);
            }
            // End-of-run drain: a quiescing queue can leave coalesced
            // sends staged (nothing later ever committed). Flushing may
            // schedule fresh deliveries at or before `max_time`, so loop
            // until both the queue and the staging area are exhausted.
            if self.staged_sends.is_empty() {
                break;
            }
            self.flush_staged();
        }
        self.stats
    }

    /// Process one event exactly as the serial loop always has. The
    /// caller has already advanced the queue clock to `at` (by popping,
    /// or via the router's `set_now` during a window replay).
    fn handle_event(&mut self, at: SimTime, event: Event) {
        self.maybe_flush_staged(at);
        self.stats.last_event_at = at;
        {
            match event {
                Event::Deliver { to, from, bytes, trace } => {
                    self.stats.messages += 1;
                    self.stats.bytes += bytes.len() as u64;
                    self.nodes[to].counters.messages_in += 1;
                    self.metrics.registry.observe(self.metrics.message_bytes, bytes.len() as u64);
                    let traced = self.sink.enabled();
                    let deliver_id = if traced {
                        self.sink.set_now(at);
                        self.sink.record_at(
                            at,
                            to as u32,
                            trace.as_ref().map(|t| t.frame),
                            TraceKind::Deliver { from: from as u32, bytes: bytes.len() as u32 },
                        )
                    } else {
                        None
                    };
                    let mut buf = bytes;
                    let t = self.phase_now();
                    let decoded = DbgpUpdate::decode(&mut buf);
                    self.phase_add(t, Phase::Decode);
                    let Ok(update) = decoded else {
                        self.stats.decode_errors += 1;
                        if traced {
                            self.sink.record_at(
                                at,
                                to as u32,
                                deliver_id,
                                TraceKind::DecodeError { from: from as u32 },
                            );
                        }
                        return;
                    };
                    let Some(&from_id) = self.nodes[to].ids_by_node.get(&from) else {
                        self.stats.orphaned_deliveries += 1;
                        return;
                    };
                    self.nodes[to].counters.withdraws_in += update.withdrawn.len() as u64;
                    self.nodes[to].counters.updates_in += update.ias.len() as u64;
                    if traced {
                        // Per-element processing: behaviorally identical
                        // to the batch path below (the speaker never
                        // reads sim-side state that `apply_local` or
                        // `dispatch` mutate, and outputs keep the same
                        // total order), but it lets each Decode event
                        // parent exactly the outputs it causes.
                        let causes: &[EventId] =
                            trace.as_deref().map(|t| t.causes.as_slice()).unwrap_or(&[]);
                        let mut element = 0usize;
                        for prefix in update.withdrawn {
                            let parent = causes.get(element).copied().or(deliver_id);
                            element += 1;
                            let decode_id = self.sink.record_at(
                                at,
                                to as u32,
                                parent,
                                TraceKind::Decode { prefix, from: from as u32, withdraw: true },
                            );
                            self.sink.set_ambient_parent(decode_id);
                            let outputs = self.nodes[to].speaker.receive_withdraw(from_id, prefix);
                            self.sink.set_ambient_parent(None);
                            self.apply_local(to, &outputs);
                            self.dispatch(to, outputs, decode_id);
                        }
                        for ia in update.ias {
                            let parent = causes.get(element).copied().or(deliver_id);
                            element += 1;
                            let decode_id = self.sink.record_at(
                                at,
                                to as u32,
                                parent,
                                TraceKind::Decode {
                                    prefix: ia.prefix,
                                    from: from as u32,
                                    withdraw: false,
                                },
                            );
                            self.sink.set_ambient_parent(decode_id);
                            let outputs = self.nodes[to].speaker.receive_ia(from_id, ia);
                            self.sink.set_ambient_parent(None);
                            self.apply_local(to, &outputs);
                            self.dispatch(to, outputs, decode_id);
                        }
                    } else {
                        let t = self.phase_now();
                        let mut outputs = Vec::new();
                        for prefix in update.withdrawn {
                            outputs
                                .extend(self.nodes[to].speaker.receive_withdraw(from_id, prefix));
                        }
                        for ia in update.ias {
                            outputs.extend(self.nodes[to].speaker.receive_ia(from_id, ia));
                        }
                        self.phase_add(t, Phase::Decide);
                        self.apply_local(to, &outputs);
                        self.dispatch(to, outputs, None);
                    }
                }
                Event::Flush { node, neighbor } => {
                    self.flush(node, neighbor);
                }
                Event::OobRequest { to_addr, from, payload } => {
                    self.stats.oob_requests += 1;
                    self.serve_oob(to_addr, from, payload);
                }
                Event::OobResponse { to, from_addr, payload } => {
                    self.nodes[to].oob_inbox.push((from_addr, payload));
                }
            }
        }
    }

    // ----- windowed parallel engine (Tier B) -----------------------------

    /// The conservative PDES lookahead: the minimum delay any event
    /// processed now can put between itself and an event it generates.
    /// Every event in the half-open window `[t0, t0 + lookahead)` is
    /// therefore causally independent of every *generated* event — all
    /// generated events land at or beyond the window's end, so the whole
    /// window can be drained up front. Three kinds of events are ever
    /// generated during a run:
    ///
    /// - `Deliver`, scheduled at least `min_link_delay` ahead (jitter
    ///   only adds delay; a duplicate is scheduled one unit later still);
    /// - `Flush`, scheduled `mrai` ahead (never generated when `mrai` is
    ///   0 — coalescing is off and sends go out inline);
    /// - `OobResponse`, scheduled `oob_delay` ahead (only once an
    ///   out-of-band request exists, tracked by `oob_used`).
    fn lookahead(&self) -> SimTime {
        let mut l = self.min_link_delay;
        if self.mrai > 0 {
            l = l.min(self.mrai);
        }
        if self.oob_used {
            l = l.min(self.oob_delay);
        }
        l
    }

    /// The windowed engine: drain one safe lookahead window at a time,
    /// run the node-local half of every `Deliver` on the pool (sharded
    /// by destination node), then commit all global effects serially in
    /// the original pop order. Produces bit-identical stats, metrics,
    /// RIBs, churn records and event streams to [`Sim::run_serial`] —
    /// the safety argument is spelled out in DESIGN.md §10.
    fn run_windowed(&mut self, pool: &dbgp_par::Pool, max_time: SimTime) -> SimStats {
        let mut low_windows = 0usize;
        let mut serial_drain = false;
        loop {
            while let Some(t0) = self.queue.peek_time() {
                if t0 > max_time {
                    break;
                }
                // Events at exactly `t0 + lookahead - 1` still precede every
                // event generated inside the window, hence the inclusive
                // horizon at lookahead - 1. A zero lookahead (a delay-0 link
                // exists) degrades to single-timestamp windows, which are
                // still safe: generated events carry later sequence numbers
                // than everything drained before they existed.
                let horizon = t0.saturating_add(self.lookahead().saturating_sub(1)).min(max_time);
                let mut window = std::mem::take(&mut self.window);
                self.queue.drain_upto(horizon, &mut window);
                if serial_drain {
                    // Permanent serial fallback: the run has shown it
                    // cannot feed the pool, so skip even the per-window
                    // bucketing and replay directly.
                    for (at, event) in window.drain(..) {
                        self.queue.set_now(at);
                        self.handle_event(at, event);
                    }
                } else {
                    let delivers = self.process_window(pool, &mut window);
                    // Rolling under-threshold streak: a workload whose
                    // windows stay this sparse (waxman50_churn-sized
                    // topologies) pays pool wakeups for nothing, so
                    // after enough consecutive sparse windows the run
                    // drops to a serial drain for good.
                    if delivers < Self::SERIAL_FALLBACK_THRESHOLD {
                        low_windows += 1;
                        serial_drain = low_windows >= Self::SERIAL_FALLBACK_WINDOWS;
                    } else {
                        low_windows = 0;
                    }
                }
                window.clear();
                self.window = window;
            }
            // End-of-run drain, exactly as in the serial engine.
            if self.staged_sends.is_empty() {
                break;
            }
            self.flush_staged();
        }
        self.stats
    }

    /// Below this many deliveries in one lookahead window the pool's
    /// wakeup cost dwarfs the speaker work, so the window replays
    /// serially. Purely a performance knob — both paths produce
    /// identical results. `sim_bench` reports this value as
    /// `serial_fallback_threshold`.
    pub const SERIAL_FALLBACK_THRESHOLD: usize = 8;

    /// After this many *consecutive* under-threshold windows the
    /// windowed engine permanently switches to a serial drain for the
    /// rest of the run (small topologies never grow denser windows, and
    /// the per-window bucketing itself costs more than it saves).
    pub const SERIAL_FALLBACK_WINDOWS: usize = 8;

    /// Process one drained window; returns the window's delivery count
    /// (the serial-fallback signal). Windows that cannot profit from
    /// (or are not eligible for) the parallel phase replay serially
    /// through [`Sim::handle_event`], which is trivially identical to
    /// the serial engine.
    fn process_window(
        &mut self,
        pool: &dbgp_par::Pool,
        window: &mut Vec<(SimTime, Event)>,
    ) -> usize {
        let mut by_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut delivers = 0usize;
        let mut plain = true;
        for (i, (_, event)) in window.iter().enumerate() {
            match event {
                Event::Deliver { to, .. } => {
                    delivers += 1;
                    by_node.entry(*to).or_default().push(i);
                }
                Event::Flush { .. } => {}
                // Out-of-band service handlers mutate speaker modules
                // that same-window deliveries may read (e.g. Wiser
                // costs), so such windows keep strict serial order.
                Event::OobRequest { .. } | Event::OobResponse { .. } => plain = false,
            }
        }
        if !plain || delivers < Self::SERIAL_FALLBACK_THRESHOLD || by_node.len() < 2 {
            for (at, event) in window.drain(..) {
                self.queue.set_now(at);
                self.handle_event(at, event);
            }
            return delivers;
        }

        // --- parallel phase: node-local speaker work, sharded by node.
        //
        // Shards are balanced greedily by delivery count; the assignment
        // cannot affect results because every outcome is scattered back
        // by event index before the serial commit below.
        let threads = pool.threads();
        let node_list: Vec<(NodeId, Vec<usize>)> =
            std::mem::take(&mut by_node).into_iter().collect();
        let mut order: Vec<usize> = (0..node_list.len()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(node_list[k].1.len()));
        let base = self.nodes.as_mut_ptr();
        let mut shard_jobs: Vec<Vec<(NodeSlot, &[usize])>> =
            (0..threads).map(|_| Vec::new()).collect();
        let mut shard_load = vec![0usize; threads];
        for k in order {
            let (nid, idxs) = &node_list[k];
            let s = shard_load
                .iter()
                .enumerate()
                .min_by_key(|&(_, load)| *load)
                .map(|(s, _)| s)
                .expect("threads >= 1");
            shard_load[s] += idxs.len();
            // SAFETY (pointer creation): `nid` indexes into `self.nodes`
            // (it came from a Deliver event's destination, validated at
            // link setup); each node id appears in exactly one shard.
            shard_jobs[s].push((NodeSlot(unsafe { base.add(*nid) }), idxs.as_slice()));
        }
        let mut shard_out: Vec<Vec<(usize, ParOutcome)>> =
            (0..threads).map(|_| Vec::new()).collect();
        {
            let window_ref: &[(SimTime, Event)] = window;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = shard_jobs
                .into_iter()
                .zip(shard_out.iter_mut())
                .filter(|(shard, _)| !shard.is_empty())
                .map(|(shard, out)| {
                    Box::new(move || {
                        for (slot, idxs) in shard {
                            // SAFETY (dereference): the shards partition
                            // node ids, so this `&mut Node` aliases no
                            // other thread's; `&mut self` keeps the rest
                            // of the program out of `self.nodes` until
                            // the batch barrier in `run_batch` returns.
                            // `Node` contains no thread-unsafe state
                            // here: `parallel_safe` proved every
                            // `SinkHandle` is the Rc-free `none()`
                            // variant, and `DecisionModule: Send` bounds
                            // the boxed modules.
                            let node = unsafe { &mut *slot.0 };
                            for &i in idxs {
                                let (_, event) = &window_ref[i];
                                let Event::Deliver { from, bytes, .. } = event else {
                                    unreachable!("by_node only indexes Deliver events")
                                };
                                out.push((i, process_deliver(node, *from, bytes)));
                            }
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(jobs);
        }
        let mut outcomes: Vec<Option<ParOutcome>> = Vec::with_capacity(window.len());
        outcomes.resize_with(window.len(), || None);
        for out in shard_out {
            for (i, outcome) in out {
                outcomes[i] = Some(outcome);
            }
        }

        // --- commit phase: all global effects, serially, in pop order.
        //
        // Every mutation of shared state — engine stats, metrics, FIBs,
        // churn records, outbound coalescing, encodes, RNG draws in
        // `deliver_on_link`, and event scheduling (hence sequence-number
        // assignment) — happens here, in exactly the order the serial
        // engine would have performed it, under the clock value the
        // serial engine would have observed.
        for (i, (at, event)) in window.iter().enumerate() {
            self.queue.set_now(*at);
            self.maybe_flush_staged(*at);
            self.stats.last_event_at = *at;
            match event {
                Event::Deliver { to, bytes, .. } => {
                    self.stats.messages += 1;
                    self.stats.bytes += bytes.len() as u64;
                    self.metrics.registry.observe(self.metrics.message_bytes, bytes.len() as u64);
                    match outcomes[i].take().expect("every Deliver got an outcome") {
                        ParOutcome::DecodeError => self.stats.decode_errors += 1,
                        ParOutcome::Orphaned => self.stats.orphaned_deliveries += 1,
                        ParOutcome::Processed(outputs, staged) => {
                            self.apply_local(*to, &outputs);
                            self.dispatch(*to, outputs, None);
                            self.absorb_staged(*to, staged);
                        }
                    }
                }
                Event::Flush { node, neighbor } => self.flush(*node, *neighbor),
                Event::OobRequest { .. } | Event::OobResponse { .. } => {
                    unreachable!("windows containing out-of-band events replay serially")
                }
            }
        }
        delivers
    }

    // ----- sharded parallel engine (Tier C) ------------------------------

    /// The sharded engine: each shard's worker merges its staged
    /// mailbox, drains its own calendar queue to the window horizon, and
    /// runs the node-local half of its `Deliver`s — all concurrently,
    /// with no shared queue — then a serial commit k-way-merges the
    /// shard windows on the global `(time, seq)` key. Commit-side
    /// schedules go to per-shard mailboxes (conservative lookahead puts
    /// them beyond the horizon, so no worker ever misses one).
    ///
    /// Bit-identical to [`Sim::run_serial`] by the same argument as the
    /// windowed engine (DESIGN.md §10, §12): the parallel phase computes
    /// only node-local speaker outcomes, the shards partition the nodes,
    /// and every globally visible effect — stats, metrics, FIBs, churn,
    /// RNG draws, sequence assignment — happens in the commit loop in
    /// exactly the serial order.
    fn run_sharded(&mut self, pool: &dbgp_par::Pool, max_time: SimTime) -> SimStats {
        /// Below this many pending events the pool barrier dwarfs the
        /// speaker work; flush staging and replay serially. A pure
        /// performance knob — both paths produce identical results.
        const MIN_PARALLEL_WINDOW: usize = 64;

        let shards = self.queue.shard_count();
        let mut swin = std::mem::take(&mut self.shard_windows);
        let mut souts = std::mem::take(&mut self.shard_outcomes);
        swin.resize_with(shards, Vec::new);
        souts.resize_with(shards, Vec::new);
        self.queue.begin_staging();
        'drain: loop {
            while let Some(t0) = self.queue.peek_time() {
                if t0 > max_time {
                    break;
                }
                // Same inclusive-horizon arithmetic as the windowed engine.
                let horizon = t0.saturating_add(self.lookahead().saturating_sub(1)).min(max_time);
                if self.queue.len() < MIN_PARALLEL_WINDOW {
                    self.queue.flush_staging();
                    let mut window = std::mem::take(&mut self.window);
                    self.queue.drain_upto(horizon, &mut window);
                    for (at, event) in window.drain(..) {
                        self.queue.set_now(at);
                        self.handle_event(at, event);
                    }
                    self.window = window;
                    continue;
                }

                // --- parallel phase: one worker per shard, end to end.
                {
                    let n_nodes = self.nodes.len();
                    let base = self.nodes.as_mut_ptr();
                    let (queues, chans, node_shard) = self.queue.split_shards();
                    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = queues
                        .iter_mut()
                        .zip(chans.iter_mut())
                        .zip(swin.iter_mut().zip(souts.iter_mut()))
                        .enumerate()
                        .map(|(s, ((queue, chan), (win, outs)))| {
                            let node_shard: &[u16] = node_shard;
                            let nbase = NodeBase(base);
                            Box::new(move || {
                                // Rebind so the closure captures the Send
                                // wrapper, not its raw-pointer field (2021
                                // closures capture disjoint fields).
                                let nbase = nbase;
                                for (at, seq, e) in chan.drain() {
                                    queue.insert_keyed(at, seq, e);
                                }
                                win.clear();
                                queue.drain_keyed_upto(horizon, win);
                                outs.clear();
                                for (_, _, event) in win.iter() {
                                    if let Event::Deliver { to, from, bytes, .. } = event {
                                        // Hard ownership check: the router
                                        // pins every Deliver to its node's
                                        // shard, so the `&mut Node` below
                                        // aliases no other worker's.
                                        assert!(
                                            *to < n_nodes
                                                && node_shard.get(*to).copied().unwrap_or(0)
                                                    as usize
                                                    == s,
                                            "delivery to node {to} outside shard {s}"
                                        );
                                        // SAFETY: bounds-checked offset; the
                                        // shards partition node ids (asserted
                                        // above); `parallel_safe` proved the
                                        // nodes hold no Rc telemetry state
                                        // (see the NodeSlot safety comment).
                                        let node = unsafe { &mut *nbase.0.add(*to) };
                                        outs.push(Some(process_deliver(node, *from, bytes)));
                                    } else {
                                        outs.push(None);
                                    }
                                }
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.run_batch(jobs);
                }
                let drained: Vec<usize> = swin.iter().map(|w| w.len()).collect();
                self.queue.note_parallel_drain(&drained);

                // --- commit phase: k-way merge on (time, seq), all global
                // effects serially in exactly the serial engine's order.
                let mut iters: Vec<_> = swin.iter_mut().map(|w| w.drain(..).peekable()).collect();
                let mut taken = vec![0usize; shards];
                loop {
                    let mut best: Option<((SimTime, u64), usize)> = None;
                    for (s, it) in iters.iter_mut().enumerate() {
                        if let Some((at, seq, _)) = it.peek() {
                            let key = (*at, *seq);
                            if best.is_none_or(|(bk, _)| key < bk) {
                                best = Some((key, s));
                            }
                        }
                    }
                    let Some((_, s)) = best else { break };
                    let (at, _seq, event) = iters[s].next().expect("peeked iterator must yield");
                    let outcome = souts[s][taken[s]].take();
                    taken[s] += 1;
                    self.commit_one(at, event, outcome);
                }
            }
            // End-of-run drain, exactly as in the serial engine (flushed
            // deliveries go through the staging mailboxes like any other
            // commit-side schedule).
            if self.staged_sends.is_empty() {
                break 'drain;
            }
            self.flush_staged();
        }
        self.queue.end_staging();
        self.shard_windows = swin;
        self.shard_outcomes = souts;
        self.stats
    }

    /// Commit one event's global effects — the sharded engine's
    /// counterpart of the windowed commit loop body, bit-identical to
    /// what [`Sim::handle_event`] does for the same event minus the
    /// node-local half already computed in the parallel phase.
    fn commit_one(&mut self, at: SimTime, event: Event, outcome: Option<ParOutcome>) {
        self.queue.set_now(at);
        self.maybe_flush_staged(at);
        self.stats.last_event_at = at;
        match event {
            Event::Deliver { to, bytes, .. } => {
                self.stats.messages += 1;
                self.stats.bytes += bytes.len() as u64;
                self.metrics.registry.observe(self.metrics.message_bytes, bytes.len() as u64);
                match outcome.expect("every Deliver got an outcome") {
                    ParOutcome::DecodeError => self.stats.decode_errors += 1,
                    ParOutcome::Orphaned => self.stats.orphaned_deliveries += 1,
                    ParOutcome::Processed(outputs, staged) => {
                        self.apply_local(to, &outputs);
                        self.dispatch(to, outputs, None);
                        self.absorb_staged(to, staged);
                    }
                }
            }
            Event::Flush { node, neighbor } => self.flush(node, neighbor),
            Event::OobRequest { .. } | Event::OobResponse { .. } => {
                unreachable!("the sharded engine requires an out-of-band-free run")
            }
        }
    }

    // ----- internals ----------------------------------------------------

    /// One end of session bring-up: allocate a neighbor ID for `peer`,
    /// register the adjacency, and dispatch the speaker's full-table
    /// transfer to it. The transfer's advertisements chain to the
    /// adjacency's session-up event (itself a child of `parent`, e.g. the
    /// LinkUp or NodeRestart that caused the bring-up).
    fn establish(
        &mut self,
        me: NodeId,
        peer: NodeId,
        same_island: bool,
        speaks_dbgp: bool,
        trigger: &'static str,
        parent: Option<EventId>,
    ) {
        let peer_as = self.nodes[peer].speaker.asn();
        let id = NeighborId(self.nodes[me].next_neighbor_id);
        self.nodes[me].next_neighbor_id += 1;
        self.nodes[me].neighbor_nodes.insert(id, peer);
        self.nodes[me].ids_by_node.insert(peer, id);
        let mut neighbor =
            if speaks_dbgp { DbgpNeighbor::dbgp(peer_as) } else { DbgpNeighbor::legacy(peer_as) };
        neighbor.same_island = same_island;
        // Re-reading the annotation from the link table (rather than
        // threading it through every call site) keeps restarts and link
        // restores re-establishing with the same commercial relationship.
        if let Some((lo_view, hi_view)) =
            self.links.get(&link_key(me, peer)).and_then(|l| l.classes)
        {
            neighbor.class = Some(if me < peer { lo_view } else { hi_view });
        }
        let root = if self.sink.enabled() {
            self.sink.record_at(
                self.queue.now(),
                me as u32,
                parent,
                TraceKind::SessionFsm {
                    peer: peer as u32,
                    from: "down".into(),
                    to: "up".into(),
                    trigger: trigger.into(),
                },
            )
        } else {
            None
        };
        self.sink.set_ambient_parent(root);
        let outputs = self.nodes[me].speaker.add_neighbor(id, neighbor);
        self.sink.set_ambient_parent(None);
        self.dispatch(me, outputs, root);
    }

    /// One end of session teardown: `me` loses its adjacency to `peer`.
    fn teardown_neighbor(
        &mut self,
        me: NodeId,
        peer: NodeId,
        trigger: &'static str,
        parent: Option<EventId>,
    ) {
        let Some(&id) = self.nodes[me].ids_by_node.get(&peer) else { return };
        self.nodes[me].neighbor_nodes.remove(&id);
        self.nodes[me].ids_by_node.remove(&peer);
        self.nodes[me].pending_out.remove(&id);
        if let Some(staged) = self.staged_sends.get_mut(&me) {
            staged.remove(&id);
        }
        let root = if self.sink.enabled() {
            self.sink.record_at(
                self.queue.now(),
                me as u32,
                parent,
                TraceKind::SessionFsm {
                    peer: peer as u32,
                    from: "up".into(),
                    to: "down".into(),
                    trigger: trigger.into(),
                },
            )
        } else {
            None
        };
        self.sink.set_ambient_parent(root);
        let outputs = self.nodes[me].speaker.neighbor_down(id);
        self.sink.set_ambient_parent(None);
        self.apply_local(me, &outputs);
        self.dispatch(me, outputs, root);
    }

    /// Track FIB updates and churn from `BestChanged` outputs.
    fn apply_local(&mut self, node: NodeId, outputs: &[DbgpOutput]) {
        for output in outputs {
            if let DbgpOutput::BestChanged(prefix, chosen) = output {
                self.stats.best_changes += 1;
                self.nodes[node].counters.best_changes += 1;
                let record = self.churn.entry((node, *prefix)).or_default();
                record.best_changes += 1;
                record.last_change_at = self.queue.now();
                let (installed, next) = match chosen {
                    Some(chosen) => {
                        let next = chosen
                            .neighbor
                            .and_then(|n| self.nodes[node].neighbor_nodes.get(&n).copied());
                        self.nodes[node].fib.insert(*prefix, next);
                        (true, next)
                    }
                    None => {
                        self.nodes[node].fib.remove(prefix);
                        (false, None)
                    }
                };
                let at = self.queue.now();
                if let Some(capture) = &mut self.capture {
                    capture.record(BestChange { at, node, prefix: *prefix, installed, next });
                }
            }
        }
    }

    /// Turn speaker outputs into scheduled deliveries, coalescing per
    /// (neighbor, prefix) over the MRAI window. `cause` is the trace
    /// event (Decode, Originate, SessionFsm, ...) that produced these
    /// outputs; it rides with each pending element so the eventual
    /// Advertise/Withdraw chains back to it.
    fn dispatch(&mut self, node: NodeId, outputs: Vec<DbgpOutput>, cause: Option<EventId>) {
        for output in outputs {
            let (neighbor, prefix, ia) = match output {
                DbgpOutput::SendIa(neighbor, ia) => (neighbor, ia.prefix, Some(ia)),
                DbgpOutput::SendWithdraw(neighbor, prefix) => (neighbor, prefix, None),
                DbgpOutput::BestChanged(..) | DbgpOutput::Rejected(..) => continue,
            };
            if !self.nodes[node].neighbor_nodes.contains_key(&neighbor) {
                continue;
            }
            if self.mrai == 0 {
                self.send_now(node, neighbor, prefix, ia, cause);
                continue;
            }
            self.nodes[node].pending_out.entry(neighbor).or_default().insert(prefix, (ia, cause));
            if self.nodes[node].flush_armed.insert(neighbor) {
                self.queue.schedule(self.mrai, Event::Flush { node, neighbor });
            }
        }
        // A coalescing speaker returns no Send* outputs from the calls
        // that produced `outputs`; it staged them internally. Absorb
        // that delta here, under the committing clock — every serial
        // mutation site (deliveries, originations, session bring-up and
        // teardown) funnels through this function.
        if self.coalesce && self.nodes[node].speaker.has_pending_sends() {
            let staged = self.nodes[node].speaker.take_pending_sends();
            self.absorb_staged(node, staged);
        }
    }

    /// Merge one event's worth of speaker-staged sends into the
    /// sim-level staging area, stamped with the current commit clock.
    /// Absorption happens only at event commit, which all engines
    /// perform in the global `(time, seq)` order — so the staged
    /// contents, the flush points and the flushed frames are identical
    /// across the serial, windowed and sharded engines.
    fn absorb_staged(&mut self, node: NodeId, staged: PendingSends) {
        if staged.is_empty() {
            return;
        }
        self.staged_at = self.queue.now();
        let slot = self.staged_sends.entry(node).or_default();
        for (neighbor, elems) in staged {
            // Per-prefix inserts overwrite: last write wins, matching
            // the implicit-withdraw semantics of a per-change stream.
            slot.entry(neighbor).or_default().extend(elems);
        }
    }

    /// The time barrier: flush every staged send the moment an event
    /// with a strictly later time commits (events sharing the staging
    /// timestamp still precede the flush, so same-instant updates
    /// coalesce into one frame).
    #[inline]
    fn maybe_flush_staged(&mut self, at: SimTime) {
        if !self.staged_sends.is_empty() && at > self.staged_at {
            self.flush_staged();
        }
    }

    /// Flush every staged coalesced send, packing each neighbor's batch
    /// into one multi-NLRI frame (withdrawals first, then IA bodies
    /// from the encode cache — byte-identical to a fresh encode), in
    /// canonical (node, neighbor, prefix) order. With `mrai > 0` the
    /// batch instead joins the neighbor's MRAI window, composing the
    /// two coalescing layers. Coalesced frames carry no per-element
    /// trace causes (`trace: None`).
    fn flush_staged(&mut self) {
        let staged = std::mem::take(&mut self.staged_sends);
        for (node, per_neighbor) in staged {
            for (neighbor, elems) in per_neighbor {
                let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) else { continue };
                if self.mrai > 0 {
                    let pending = self.nodes[node].pending_out.entry(neighbor).or_default();
                    for (prefix, ia) in elems {
                        pending.insert(prefix, (ia, None));
                    }
                    if self.nodes[node].flush_armed.insert(neighbor) {
                        self.queue.schedule(self.mrai, Event::Flush { node, neighbor });
                    }
                    continue;
                }
                let mut withdrawn = Vec::new();
                let mut ias = Vec::with_capacity(elems.len());
                for (prefix, ia) in elems {
                    match ia {
                        Some(ia) => ias.push(ia),
                        None => withdrawn.push(prefix),
                    }
                }
                let count = withdrawn.len() + ias.len();
                let t = self.phase_now();
                let bytes = if withdrawn.is_empty() && ias.len() == 1 {
                    self.cached_wire(node, &ias[0]).1
                } else {
                    let bodies: Vec<Bytes> =
                        ias.iter().map(|ia| self.cached_wire(node, ia).0).collect();
                    if bodies.is_empty() {
                        self.stats.updates_encoded += 1;
                    }
                    DbgpUpdate::encode_frame(&withdrawn, &bodies)
                };
                self.phase_add(t, Phase::Encode);
                if count > 1 {
                    self.stats.frames_coalesced += (count - 1) as u64;
                }
                self.metrics.registry.observe(self.metrics.flush_batch, count as u64);
                let t = self.phase_now();
                self.deliver_on_link(node, to, bytes, None);
                self.phase_add(t, Phase::Queue);
            }
        }
    }

    /// Start an instrumented span, when phase timing is on.
    #[inline]
    fn phase_now(&self) -> Option<std::time::Instant> {
        self.phase_timing.as_ref().map(|_| std::time::Instant::now())
    }

    /// Close an instrumented span into its [`PhaseTimes`] bucket.
    #[inline]
    fn phase_add(&mut self, start: Option<std::time::Instant>, phase: Phase) {
        if let (Some(start), Some(pt)) = (start, self.phase_timing.as_deref_mut()) {
            let ns = start.elapsed().as_nanos() as u64;
            match phase {
                Phase::Decode => pt.decode_ns += ns,
                Phase::Decide => pt.decide_ns += ns,
                Phase::Encode => pt.encode_ns += ns,
                Phase::Queue => pt.queue_ns += ns,
            }
        }
    }

    /// Record the per-element trace events for one outgoing frame
    /// element (Advertise or Withdraw, plus an IslandCrossing child when
    /// the adjacency spans an island boundary). Only called when the
    /// sink is recording.
    fn record_element(
        &mut self,
        node: NodeId,
        to: NodeId,
        prefix: Ipv4Prefix,
        announce: bool,
        cause: Option<EventId>,
    ) -> Option<EventId> {
        let at = self.queue.now();
        let kind = if announce {
            TraceKind::Advertise { prefix, to: to as u32 }
        } else {
            TraceKind::Withdraw { prefix, to: to as u32 }
        };
        let id = self.sink.record_at(at, node as u32, cause, kind);
        if announce {
            let from_island = self.island_of(node);
            let to_island = self.island_of(to);
            if from_island != to_island {
                self.sink.record_at(
                    at,
                    node as u32,
                    id,
                    TraceKind::IslandCrossing { prefix, to: to as u32, from_island, to_island },
                );
            }
        }
        id
    }

    /// The wire form of one outgoing IA, from the node's encode cache
    /// when the speaker has handed us this exact `Arc` before. Returns
    /// `(body, announce_frame)` views into the one cached buffer.
    fn cached_wire(&mut self, node: NodeId, ia: &Arc<Ia>) -> (Bytes, Bytes) {
        if let Some(entry) = self.nodes[node].encode_cache.get(ia) {
            self.stats.encode_cache_hits += 1;
            return (entry.body.clone(), entry.announce.clone());
        }
        self.stats.updates_encoded += 1;
        let (announce, body) = DbgpUpdate::encode_announce(ia);
        self.nodes[node].encode_cache.insert(EncodeCacheEntry {
            ia: Arc::clone(ia),
            announce: announce.clone(),
            body: body.clone(),
        });
        (body, announce)
    }

    fn send_now(
        &mut self,
        node: NodeId,
        neighbor: NeighborId,
        prefix: Ipv4Prefix,
        ia: Option<Arc<Ia>>,
        cause: Option<EventId>,
    ) {
        let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) else { return };
        let announce = ia.is_some();
        let t = self.phase_now();
        let bytes = match ia {
            Some(ia) => self.cached_wire(node, &ia).1,
            None => {
                self.stats.updates_encoded += 1;
                DbgpUpdate::encode_frame(std::slice::from_ref(&prefix), &[])
            }
        };
        self.phase_add(t, Phase::Encode);
        let trace = if self.sink.enabled() {
            let element = self.record_element(node, to, prefix, announce, cause);
            let frame = self.sink.record_at(
                self.queue.now(),
                node as u32,
                element,
                TraceKind::Transmit { to: to as u32, bytes: bytes.len() as u32 },
            );
            frame.map(|frame| {
                Box::new(DeliverTrace { frame, causes: element.into_iter().collect() })
            })
        } else {
            None
        };
        let t = self.phase_now();
        self.deliver_on_link(node, to, bytes, trace);
        self.phase_add(t, Phase::Queue);
    }

    fn flush(&mut self, node: NodeId, neighbor: NeighborId) {
        self.nodes[node].flush_armed.remove(&neighbor);
        let Some(pending) = self.nodes[node].pending_out.remove(&neighbor) else { return };
        if pending.is_empty() {
            return;
        }
        let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) else { return };
        let traced = self.sink.enabled();
        let mut withdrawn = Vec::new();
        let mut ias = Vec::with_capacity(pending.len());
        // Per-element trace metadata in frame order: withdraws first,
        // then IAs — matching `DbgpUpdate` encode/decode order so the
        // receiver can zip `causes` against decoded elements.
        let mut wd_meta = Vec::new();
        let mut ia_meta = Vec::new();
        for (prefix, (ia, cause)) in pending {
            match ia {
                Some(ia) => {
                    if traced {
                        ia_meta.push((prefix, cause));
                    }
                    ias.push(ia);
                }
                None => {
                    if traced {
                        wd_meta.push((prefix, cause));
                    }
                    withdrawn.push(prefix);
                }
            }
        }
        // Announce frames for a single IA are cached whole; batched
        // frames are assembled from cached bodies (byte-identical to a
        // fresh `DbgpUpdate::encode`, see `encode_frame`).
        let t = self.phase_now();
        let bytes = if withdrawn.is_empty() && ias.len() == 1 {
            self.cached_wire(node, &ias[0]).1
        } else {
            let bodies: Vec<Bytes> = ias.iter().map(|ia| self.cached_wire(node, ia).0).collect();
            if bodies.is_empty() {
                self.stats.updates_encoded += 1;
            }
            DbgpUpdate::encode_frame(&withdrawn, &bodies)
        };
        self.phase_add(t, Phase::Encode);
        self.metrics
            .registry
            .observe(self.metrics.flush_batch, (withdrawn.len() + ias.len()) as u64);
        let trace = if traced {
            let mut causes = Vec::with_capacity(wd_meta.len() + ia_meta.len());
            for (prefix, cause) in wd_meta {
                if let Some(id) = self.record_element(node, to, prefix, false, cause) {
                    causes.push(id);
                }
            }
            for (prefix, cause) in ia_meta {
                if let Some(id) = self.record_element(node, to, prefix, true, cause) {
                    causes.push(id);
                }
            }
            let frame = self.sink.record_at(
                self.queue.now(),
                node as u32,
                causes.first().copied(),
                TraceKind::Transmit { to: to as u32, bytes: bytes.len() as u32 },
            );
            frame.map(|frame| Box::new(DeliverTrace { frame, causes }))
        } else {
            None
        };
        let t = self.phase_now();
        self.deliver_on_link(node, to, bytes, trace);
        self.phase_add(t, Phase::Queue);
    }

    /// Schedule a control-plane delivery across the `node -> to` link,
    /// applying the link's perturbation model.
    ///
    /// For an unreliable model the RNG draw order per message is fixed —
    /// loss, corruption, duplication, jitter — so a given seed and fault
    /// schedule always perturbs the same messages the same way.
    ///
    /// The buffer arrives refcounted (possibly shared with the encode
    /// cache and other in-flight deliveries); only a corrupting model
    /// copies it, so the flipped byte never leaks into anyone else's
    /// view (copy-on-corrupt).
    fn deliver_on_link(
        &mut self,
        node: NodeId,
        to: NodeId,
        mut bytes: Bytes,
        trace: Option<Box<DeliverTrace>>,
    ) {
        let (mut delay, model, up) = match self.links.get(&link_key(node, to)) {
            Some(l) => (l.delay, l.model, l.up),
            // Adjacency without an explicit link record (not constructed
            // via `link_with`): legacy default of one time unit.
            None => (1, LinkModel::reliable(), true),
        };
        if !up {
            // The adjacency map normally prevents this; a message racing
            // an administrative down is simply lost on the floor.
            self.stats.dropped_messages += 1;
            self.sink.record_at(
                self.queue.now(),
                node as u32,
                trace.as_ref().map(|t| t.frame),
                TraceKind::MessageDropped { to: to as u32 },
            );
            return;
        }
        if !model.is_reliable() {
            let lost = self.rng.chance(model.loss_ppm);
            let corrupt = self.rng.chance(model.corrupt_ppm);
            let duplicate = self.rng.chance(model.duplicate_ppm);
            let jitter = if model.jitter > 0 { self.rng.below(model.jitter + 1) } else { 0 };
            if lost {
                self.stats.dropped_messages += 1;
                self.sink.record_at(
                    self.queue.now(),
                    node as u32,
                    trace.as_ref().map(|t| t.frame),
                    TraceKind::MessageDropped { to: to as u32 },
                );
                return;
            }
            if corrupt && !bytes.is_empty() {
                let idx = self.rng.below(bytes.len() as u64) as usize;
                let flip = 1 + self.rng.below(255) as u8;
                let mut copy = bytes.to_vec();
                copy[idx] ^= flip;
                bytes = Bytes::from(copy);
                self.stats.corrupted_messages += 1;
            }
            delay += jitter;
            if duplicate {
                self.stats.duplicated_messages += 1;
                // Refcount bump: the duplicate shares the original's
                // buffer (and the same causal frame).
                self.queue.schedule(
                    delay + 1,
                    Event::Deliver { to, from: node, bytes: bytes.clone(), trace: trace.clone() },
                );
            }
        }
        self.queue.schedule(delay, Event::Deliver { to, from: node, bytes, trace });
    }

    fn serve_oob(&mut self, to_addr: Ipv4Addr, from: NodeId, payload: Vec<u8>) {
        let Some((owner, service)) = self.services.get_mut(&to_addr) else { return };
        let owner = *owner;
        match service {
            Service::WiserCostExchange => {
                let from_as = self.nodes[from].speaker.asn();
                if let Some(module) = self.nodes[owner].speaker.module_mut(ProtocolId::WISER) {
                    module.deliver_oob(from_as, &payload);
                }
            }
            Service::ModuleInbox(protocol) => {
                let protocol = *protocol;
                let from_as = self.nodes[from].speaker.asn();
                if let Some(module) = self.nodes[owner].speaker.module_mut(protocol) {
                    module.deliver_oob(from_as, &payload);
                }
            }
            Service::Miro(portal) => {
                if let Some(request) = MiroRequest::from_bytes(&payload) {
                    if let Some(offer) = portal.negotiate(request) {
                        let response = offer.to_bytes();
                        self.queue.schedule(
                            self.oob_delay,
                            Event::OobResponse { to: from, from_addr: to_addr, payload: response },
                        );
                    }
                }
            }
            Service::Lookup(store) => {
                // Payload: 1-byte op (0 = put, 1 = get), varint key len,
                // key, value.
                if payload.is_empty() {
                    return;
                }
                let op = payload[0];
                let rest = &payload[1..];
                if op == 0 {
                    if rest.len() < 2 {
                        return;
                    }
                    let klen = rest[0] as usize;
                    if rest.len() < 1 + klen {
                        return;
                    }
                    let key = rest[1..1 + klen].to_vec();
                    let value = rest[1 + klen..].to_vec();
                    store.insert(key, value);
                } else if op == 1 {
                    let key = rest.to_vec();
                    if let Some(value) = store.get(&key).cloned() {
                        self.queue.schedule(
                            self.oob_delay,
                            Event::OobResponse { to: from, from_addr: to_addr, payload: value },
                        );
                    }
                }
            }
        }
    }

    /// Resolve which node (if any) owns `addr`: a registered service, a
    /// node address, or an originated prefix.
    pub(crate) fn owner_of(&self, addr: Ipv4Addr) -> Option<NodeId> {
        if let Some((node, _)) = self.services.get(&addr) {
            return Some(*node);
        }
        if let Some(node) = self.nodes.iter().position(|n| n.addr == addr) {
            return Some(node);
        }
        // Longest-prefix owner across all originated prefixes.
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(id, n)| {
                n.fib
                    .covering(Ipv4Prefix::new(addr, 32).expect("/32 is valid"))
                    .filter(|(_, next)| next.is_none())
                    .map(move |(p, _)| (p.len(), id))
            })
            .max_by_key(|(len, _)| *len)
            .map(|(_, id)| id)
    }

    /// Data-plane next hop at `node` for `addr` (longest match).
    pub(crate) fn next_hop(&self, node: NodeId, addr: Ipv4Addr) -> Option<Option<NodeId>> {
        self.nodes[node].fib.longest_match(addr).map(|(_, next)| *next)
    }
}
