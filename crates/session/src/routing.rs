//! The multi-neighbor RIB plumbing: import policy, the decision
//! process, Loc-RIB maintenance, and export diffing against
//! Adj-RIB-Out.
//!
//! [`RoutingCore`] is the routing half of a BGP speaker with the
//! session machinery cut away: it never sees bytes or timers, only
//! parsed [`UpdateMsg`]s and peer up/down edges, and it answers with
//! [`RibOp`]s — UPDATEs to send (unencoded; the host picks the wire
//! encoding per the peer's negotiated capabilities) and best-route
//! changes for the host's FIB.
//!
//! Every public entry point stages the exports it causes per
//! (peer, prefix), last write wins, and drains them before returning as
//! packed multi-NLRI UPDATEs: per peer, withdrawals first, then one
//! [`UpdateMsg::pack_announcements`] run per exported attribute block,
//! blocks in first-seen ascending-prefix order. One call handles one
//! decoded UPDATE (or one peer edge), so the frames a peer receives
//! depend only on the sequence of inbound messages, never on how the
//! host's transport chunked the bytes. The classic speaker (`dbgp-bgp`'s
//! `Speaker`) and the `dbgpd` daemon wrap this core; the simulator does
//! not, it drives `dbgp-core`'s `DbgpSpeaker`.

use crate::config::{NeighborConfig, PeerId};
use crate::decision::{self, Candidate, DecisionOptions};
use crate::rib::{AdjRibIn, AdjRibOut, LocRib, LocRibEntry, RouteSource};
use crate::route::Route;
use crate::session::{Millis, SessionSummary};
use dbgp_rib::PrefixTrie;
use dbgp_telemetry::{SelectionReason, SinkHandle, TraceKind};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix, WireError};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A RIB-level side effect the host must act on, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RibOp {
    /// Send this UPDATE to this peer. The host encodes it with the
    /// peer's negotiated 4-octet-AS setting.
    Announce(PeerId, UpdateMsg),
    /// The best route for a prefix changed (`None` = now unreachable).
    /// The host's data plane should update its FIB.
    BestRouteChanged(Ipv4Prefix, Option<LocRibEntry>),
}

struct PeerEntry {
    cfg: NeighborConfig,
    /// Set while the session is Established; carries the negotiated
    /// capabilities and the peer's router ID for the decision process.
    summary: Option<SessionSummary>,
}

/// Exports staged toward one peer during one public call. A prefix
/// lives in at most one of the two sets — each staging action removes
/// it from the other — so a drain can never both announce and withdraw
/// it.
#[derive(Debug, Default)]
struct PendingPeer {
    withdraw: BTreeSet<Ipv4Prefix>,
    announce: BTreeMap<Ipv4Prefix, Arc<Route>>,
}

/// The sans-IO routing core of a BGP speaker.
pub struct RoutingCore {
    asn: u32,
    router_id: Ipv4Addr,
    peers: BTreeMap<PeerId, PeerEntry>,
    adj_in: AdjRibIn,
    loc_rib: LocRib,
    adj_out: AdjRibOut,
    originated: PrefixTrie<Arc<Route>>,
    sink: SinkHandle,
    node_label: u32,
    /// Decision-process knobs; also gate the incremental fast path
    /// (only a total comparison order supports strictly-worse pruning).
    opts: DecisionOptions,
    /// Master switch for the incremental fast path (on by default; it
    /// only ever fires when `opts` supports it).
    incremental: bool,
    /// Full decision scans skipped by the incremental fast path.
    fast_path_hits: u64,
    /// Reusable decision-scratch buffers — always empty between calls;
    /// the `'static` parameters are placeholders transmuted over while
    /// the (empty) vecs are checked out by `select_best`.
    scratch_arcs: Vec<&'static Arc<Route>>,
    scratch_cands: Vec<Candidate<'static>>,
    /// Exports staged by the current public call; always empty between
    /// calls (see [`drain_pending`](Self::drain_pending)).
    pending: BTreeMap<PeerId, PendingPeer>,
}

impl RoutingCore {
    /// A routing core for AS `asn` with the given router ID.
    pub fn new(asn: u32, router_id: Ipv4Addr) -> Self {
        RoutingCore {
            asn,
            router_id,
            peers: BTreeMap::new(),
            adj_in: AdjRibIn::new(),
            loc_rib: LocRib::new(),
            adj_out: AdjRibOut::new(),
            originated: PrefixTrie::new(),
            sink: SinkHandle::none(),
            node_label: 0,
            opts: DecisionOptions::default(),
            incremental: true,
            fast_path_hits: 0,
            scratch_arcs: Vec::new(),
            scratch_cands: Vec::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Set the decision-process options. Must be called before routes
    /// flow: changing the comparison order with routes installed would
    /// leave the Loc-RIB inconsistent with future decisions.
    pub fn set_decision_options(&mut self, opts: DecisionOptions) {
        self.opts = opts;
    }

    /// The decision-process options in force.
    pub fn decision_options(&self) -> DecisionOptions {
        self.opts
    }

    /// Enable/disable the incremental decision fast path (enabled by
    /// default; it only fires when the decision options form a total
    /// order — see [`decision::supports_incremental`]).
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Full decision scans the incremental fast path has avoided.
    pub fn full_scans_avoided(&self) -> u64 {
        self.fast_path_hits
    }

    /// Attach a telemetry sink; `node_label` identifies this speaker in
    /// recorded decision events.
    pub fn set_telemetry(&mut self, sink: SinkHandle, node_label: u32) {
        self.sink = sink;
        self.node_label = node_label;
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.asn
    }

    /// Our router ID.
    pub fn router_id(&self) -> Ipv4Addr {
        self.router_id
    }

    /// Register a neighbor. Panics if the peer ID is already used.
    pub fn add_peer(&mut self, id: PeerId, cfg: NeighborConfig) {
        assert!(!self.peers.contains_key(&id), "duplicate peer {id}");
        self.peers.insert(id, PeerEntry { cfg, summary: None });
    }

    /// The neighbor configuration for a peer.
    pub fn peer_cfg(&self, id: PeerId) -> Option<&NeighborConfig> {
        self.peers.get(&id).map(|p| &p.cfg)
    }

    /// True while the session with `id` is up (between
    /// [`peer_up`](Self::peer_up) and [`peer_down`](Self::peer_down)).
    pub fn is_established(&self, id: PeerId) -> bool {
        self.peers.get(&id).is_some_and(|p| p.summary.is_some())
    }

    /// The session summary recorded at [`peer_up`](Self::peer_up).
    pub fn summary(&self, id: PeerId) -> Option<SessionSummary> {
        self.peers.get(&id).and_then(|p| p.summary)
    }

    /// The session with `id` reached Established: record the negotiated
    /// summary and compute the initial table transfer.
    pub fn peer_up(&mut self, id: PeerId, summary: SessionSummary) -> Vec<RibOp> {
        let mut out = Vec::new();
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.summary = Some(summary);
            self.initial_table_dump(id);
        }
        self.drain_pending(&mut out);
        out
    }

    /// The session with `id` went down: flush its RIB state and
    /// re-decide every prefix it contributed.
    pub fn peer_down(&mut self, now: Millis, id: PeerId) -> Vec<RibOp> {
        let mut out = Vec::new();
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.summary = None;
            self.adj_out.drop_peer(id);
            for prefix in self.adj_in.drop_peer(id) {
                self.redecide(now, prefix, &mut out);
            }
        }
        self.drain_pending(&mut out);
        out
    }

    /// Process an UPDATE received from `id`.
    ///
    /// The returned ops are valid even when an error is also returned
    /// (withdrawals processed before the failure still count); a
    /// `Some(err)` means the session must be torn down, mirroring the
    /// RFC 4271 §6.3 treatment of malformed attribute blocks.
    pub fn update(
        &mut self,
        now: Millis,
        id: PeerId,
        update: UpdateMsg,
    ) -> (Vec<RibOp>, Option<WireError>) {
        let mut out = Vec::new();
        let err = self.apply_update(now, id, update, &mut out);
        self.drain_pending(&mut out);
        (out, err)
    }

    /// The body of [`update`](Self::update), before the drain.
    fn apply_update(
        &mut self,
        now: Millis,
        id: PeerId,
        update: UpdateMsg,
        out: &mut Vec<RibOp>,
    ) -> Option<WireError> {
        let fast = self.incremental && decision::supports_incremental(self.opts);
        for prefix in &update.withdrawn {
            if self.adj_in.remove(id, prefix).is_some() {
                // Removing a candidate that is not the installed best
                // cannot change the winner of a total-order scan.
                if fast && self.loser_withdrawal(id, prefix) {
                    self.fast_path_hits += 1;
                    continue;
                }
                self.redecide(now, *prefix, out);
            }
        }
        if update.nlri.is_empty() {
            return None;
        }
        let Ok(route) = Route::from_attrs(&update.attributes) else {
            // Wire validation already guarantees mandatory attributes;
            // treat any residual failure as a session-level error.
            return Some(WireError::MissingWellKnownAttribute(dbgp_wire::attrs::code::ORIGIN));
        };
        // Receiver-side loop detection (RFC 4271 §9.1.2): a path carrying
        // our own AS is invisible to the decision process.
        let looped = route.as_path.contains(self.asn);
        let peer_as = self.peers[&id].cfg.peer_as;
        // One attribute block per UPDATE: every NLRI the import policy
        // leaves untouched shares this interned route.
        let route = Arc::new(route);
        let transparent = {
            let import = &self.peers[&id].cfg.import;
            import.clauses.is_empty() && import.default_permit
        };
        for prefix in &update.nlri {
            if looped {
                if self.adj_in.remove(id, prefix).is_some() {
                    self.redecide(now, *prefix, out);
                }
                continue;
            }
            if transparent {
                if fast && self.arrival_cannot_win(id, *prefix, &route) {
                    self.fast_path_hits += 1;
                    self.adj_in.insert(id, *prefix, Arc::clone(&route));
                    continue;
                }
                self.adj_in.insert(id, *prefix, Arc::clone(&route));
            } else {
                let mut candidate = (*route).clone();
                let import = &self.peers[&id].cfg.import;
                if import.apply(prefix, &mut candidate, peer_as) {
                    let interned =
                        if candidate == *route { Arc::clone(&route) } else { Arc::new(candidate) };
                    // The comparison must see the post-import route —
                    // exactly what a full scan would read back out of
                    // the Adj-RIB-In.
                    if fast && self.arrival_cannot_win(id, *prefix, &interned) {
                        self.fast_path_hits += 1;
                        self.adj_in.insert(id, *prefix, interned);
                        continue;
                    }
                    self.adj_in.insert(id, *prefix, interned);
                } else if self.adj_in.remove(id, prefix).is_none() {
                    continue; // rejected and never stored: nothing changes
                }
            }
            self.redecide(now, *prefix, out);
        }
        None
    }

    /// Originate a prefix locally and propagate it.
    pub fn originate(&mut self, now: Millis, prefix: Ipv4Prefix) -> Vec<RibOp> {
        let mut out = Vec::new();
        let route = Arc::new(Route::originated(self.router_id));
        self.originated.insert(prefix, route);
        self.redecide(now, prefix, &mut out);
        self.drain_pending(&mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, now: Millis, prefix: Ipv4Prefix) -> Vec<RibOp> {
        let mut out = Vec::new();
        if self.originated.remove(&prefix).is_some() {
            self.redecide(now, prefix, &mut out);
        }
        self.drain_pending(&mut out);
        out
    }

    /// Read access to the Loc-RIB.
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// Read access to the Adj-RIB-In.
    pub fn adj_rib_in(&self) -> &AdjRibIn {
        &self.adj_in
    }

    // ----- internals ----------------------------------------------------

    /// Re-run the decision process for one prefix and stage any export
    /// change.
    fn redecide(&mut self, now: Millis, prefix: Ipv4Prefix, out: &mut Vec<RibOp>) {
        let explain = self.sink.enabled();
        let (new_entry, why, n_candidates) = self.select_best(&prefix, explain);
        let changed = match (self.loc_rib.get(&prefix), &new_entry) {
            (None, None) => false,
            (Some(old), Some(new)) => old != new,
            _ => true,
        };
        if !changed {
            return;
        }
        if explain {
            let (selected, neighbor_as, path, hops) = match &new_entry {
                Some(entry) => {
                    let nas = match entry.source {
                        RouteSource::Peer(pid) => Some(self.peers[&pid].cfg.peer_as),
                        RouteSource::Local => None,
                    };
                    (
                        true,
                        nas,
                        entry.route.as_path.to_string(),
                        entry.route.as_path.hop_count() as u32,
                    )
                }
                None => (false, None, String::new(), 0),
            };
            self.sink.record_at(
                now,
                self.node_label,
                self.sink.ambient_parent(),
                TraceKind::Decision {
                    prefix,
                    selected,
                    neighbor_as,
                    path,
                    hops,
                    candidates: n_candidates,
                    why,
                },
            );
        }
        match new_entry.clone() {
            Some(entry) => {
                self.loc_rib.install(prefix, entry);
            }
            None => {
                self.loc_rib.remove(&prefix);
            }
        }
        out.push(RibOp::BestRouteChanged(prefix, new_entry));
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        for id in ids {
            if self.is_established(id) {
                self.propagate_to(id, prefix);
            }
        }
    }

    /// Fast-path test for an arriving route (already import-filtered —
    /// the comparison must see exactly what the Adj-RIB-In will store):
    /// true when installing it provably cannot change the Loc-RIB best,
    /// so the full decision scan can be skipped. Requires the stored
    /// decision options to form a total order (the caller checks
    /// [`decision::supports_incremental`]); a locally originated
    /// incumbent wins at the first rung against any learned challenger,
    /// and otherwise both the challenger's and the incumbent's sessions
    /// must be established — candidates from a bounced session are
    /// flushed at `peer_down`, so live summaries pin the router IDs the
    /// last full scan compared with.
    fn arrival_cannot_win(&self, id: PeerId, prefix: Ipv4Prefix, route: &Route) -> bool {
        let Some(entry) = self.loc_rib.get(&prefix) else {
            return false;
        };
        let incumbent_src = match entry.source {
            RouteSource::Local => return true,
            RouteSource::Peer(src) => src,
        };
        if incumbent_src == id {
            return false; // the incumbent itself is being replaced
        }
        let ch_peer = &self.peers[&id];
        let Some(inc_peer) = self.peers.get(&incumbent_src) else {
            return false;
        };
        let (Some(ch_sum), Some(inc_sum)) = (ch_peer.summary, inc_peer.summary) else {
            return false;
        };
        let challenger = Candidate {
            route,
            source: RouteSource::Peer(id),
            peer_as: ch_peer.cfg.peer_as,
            ebgp: !ch_peer.cfg.is_ibgp(),
            peer_router_id: ch_sum.peer_id,
        };
        let incumbent = Candidate {
            route: &entry.route,
            source: RouteSource::Peer(incumbent_src),
            peer_as: inc_peer.cfg.peer_as,
            ebgp: !inc_peer.cfg.is_ibgp(),
            peer_router_id: inc_sum.peer_id,
        };
        decision::compare_with(&challenger, &incumbent, self.opts) == Ordering::Less
    }

    /// Fast-path test for a withdrawal already removed from the
    /// Adj-RIB-In: under a total order, removing a candidate that is
    /// not the installed best cannot change the winner.
    fn loser_withdrawal(&self, id: PeerId, prefix: &Ipv4Prefix) -> bool {
        match self.loc_rib.get(prefix).map(|e| e.source) {
            Some(RouteSource::Local) => true,
            Some(RouteSource::Peer(src)) => src != id,
            None => false,
        }
    }

    fn select_best(
        &mut self,
        prefix: &Ipv4Prefix,
        explain: bool,
    ) -> (Option<LocRibEntry>, SelectionReason, u32) {
        // Check out the reusable scratch buffers. SAFETY: both are
        // always empty here (emptied before check-in below), an empty
        // `Vec` owns no element the lifetime parameters could dangle
        // through, and `Vec<T>` layout does not depend on `T`'s
        // lifetimes — only the capacity allocations are recycled.
        let mut arcs: Vec<&Arc<Route>> = {
            let recycled = std::mem::take(&mut self.scratch_arcs);
            debug_assert!(recycled.is_empty());
            unsafe { std::mem::transmute::<Vec<&'static Arc<Route>>, Vec<&Arc<Route>>>(recycled) }
        };
        let mut candidates: Vec<Candidate<'_>> = {
            let recycled = std::mem::take(&mut self.scratch_cands);
            debug_assert!(recycled.is_empty());
            unsafe { std::mem::transmute::<Vec<Candidate<'static>>, Vec<Candidate<'_>>>(recycled) }
        };
        // The decision process borrows plain `&Route` views; `arcs` keeps
        // the interned handles in lockstep so the winner is retained by
        // refcount bump, not deep clone.
        if let Some(route) = self.originated.get(prefix) {
            arcs.push(route);
            candidates.push(Candidate::local(route));
        }
        for (peer_id, route) in self.adj_in.candidates(prefix) {
            let peer = &self.peers[&peer_id];
            arcs.push(route);
            candidates.push(Candidate {
                route,
                source: RouteSource::Peer(peer_id),
                peer_as: peer.cfg.peer_as,
                ebgp: !peer.cfg.is_ibgp(),
                peer_router_id: peer.summary.map(|s| s.peer_id).unwrap_or(Ipv4Addr(u32::MAX)),
            });
        }
        let n = candidates.len() as u32;
        let picked = if explain {
            decision::best_explain_with(&candidates, self.opts)
        } else {
            decision::best_with(&candidates, self.opts)
                .map(|i| (i, SelectionReason::ModulePreference))
        };
        let result = match picked {
            Some((i, why)) => (
                Some(LocRibEntry { route: Arc::clone(arcs[i]), source: candidates[i].source }),
                why,
                n,
            ),
            None => (None, SelectionReason::Unreachable, n),
        };
        // Check the scratch buffers back in, empty again.
        arcs.clear();
        candidates.clear();
        // SAFETY: emptied on the lines above; see the check-out comment.
        self.scratch_arcs =
            unsafe { std::mem::transmute::<Vec<&Arc<Route>>, Vec<&'static Arc<Route>>>(arcs) };
        self.scratch_cands = unsafe {
            std::mem::transmute::<Vec<Candidate<'_>>, Vec<Candidate<'static>>>(candidates)
        };
        result
    }

    /// Compute what `peer` should see for `prefix`, diff against
    /// Adj-RIB-Out, and stage the change if anything changed.
    fn propagate_to(&mut self, id: PeerId, prefix: Ipv4Prefix) {
        match self.export_route(id, &prefix) {
            Some(route) => {
                if self.adj_out.advertise(id, prefix, Arc::clone(&route)) {
                    let slot = self.pending.entry(id).or_default();
                    slot.withdraw.remove(&prefix);
                    slot.announce.insert(prefix, route);
                }
            }
            None => {
                if self.adj_out.withdraw(id, &prefix) {
                    let slot = self.pending.entry(id).or_default();
                    slot.announce.remove(&prefix);
                    slot.withdraw.insert(prefix);
                }
            }
        }
    }

    /// Initial table transfer toward a freshly-established peer: stage
    /// our whole exported view for it, for the caller's drain to pack.
    fn initial_table_dump(&mut self, id: PeerId) {
        let prefixes: Vec<Ipv4Prefix> = self.loc_rib.iter().map(|(p, _)| *p).collect();
        let mut announce = BTreeMap::new();
        for prefix in prefixes {
            let Some(route) = self.export_route(id, &prefix) else { continue };
            if self.adj_out.advertise(id, prefix, Arc::clone(&route)) {
                announce.insert(prefix, route);
            }
        }
        self.pending.insert(id, PendingPeer { announce, ..PendingPeer::default() });
    }

    /// Drain every staged export into packed UPDATEs, in (peer, prefix)
    /// order: per peer, withdrawals first (one run of
    /// [`UpdateMsg::pack_withdrawals`]), then announcements grouped by
    /// exported route (one [`UpdateMsg::pack_announcements`] run per
    /// group, split at the 4096-byte frame limit). Groups keep
    /// first-seen (ascending-prefix) order, so the wire bytes are
    /// deterministic; a hash index finds each prefix's group in
    /// constant time however many distinct attribute blocks the
    /// table holds.
    fn drain_pending(&mut self, out: &mut Vec<RibOp>) {
        for (id, slot) in std::mem::take(&mut self.pending) {
            let peer = &self.peers[&id];
            let Some(summary) = peer.summary else { continue };
            let withdrawn: Vec<Ipv4Prefix> = slot.withdraw.into_iter().collect();
            for update in UpdateMsg::pack_withdrawals(&withdrawn) {
                out.push(RibOp::Announce(id, update));
            }
            let mut index: HashMap<Arc<Route>, usize> = HashMap::new();
            let mut groups: Vec<(Arc<Route>, Vec<Ipv4Prefix>)> = Vec::new();
            for (prefix, route) in slot.announce {
                match index.entry(route) {
                    Entry::Occupied(e) => groups[*e.get()].1.push(prefix),
                    Entry::Vacant(e) => {
                        groups.push((Arc::clone(e.key()), vec![prefix]));
                        e.insert(groups.len() - 1);
                    }
                }
            }
            let ibgp = peer.cfg.is_ibgp();
            for (route, members) in groups {
                let attrs = route.to_attrs(ibgp);
                for update in UpdateMsg::pack_announcements(&members, attrs, summary.four_octet) {
                    out.push(RibOp::Announce(id, update));
                }
            }
        }
    }

    /// The route to advertise to `peer` for `prefix`, or `None` to
    /// withdraw/suppress.
    fn export_route(&self, id: PeerId, prefix: &Ipv4Prefix) -> Option<Arc<Route>> {
        let entry = self.loc_rib.get(prefix)?;
        let peer = &self.peers[&id];
        match entry.source {
            // Split horizon: never send a route back to its source.
            RouteSource::Peer(src) if src == id => return None,
            // No iBGP reflection: iBGP-learned routes do not go to other
            // iBGP peers (we are not a route reflector).
            RouteSource::Peer(src) => {
                let src_ibgp = self.peers[&src].cfg.is_ibgp();
                if src_ibgp && peer.cfg.is_ibgp() {
                    return None;
                }
            }
            RouteSource::Local => {}
        }
        if peer.cfg.is_ibgp() {
            // iBGP forwards the route unmodified; with a transparent
            // export policy the interned Loc-RIB route is shared as-is.
            if peer.cfg.export.clauses.is_empty() && peer.cfg.export.default_permit {
                return Some(Arc::clone(&entry.route));
            }
            let mut route = (*entry.route).clone();
            if !peer.cfg.export.apply(prefix, &mut route, peer.cfg.peer_as) {
                return None;
            }
            return Some(Arc::new(route));
        }
        let mut route = entry.route.for_ebgp_export(self.asn, peer.cfg.local_addr);
        if !peer.cfg.export.apply(prefix, &mut route, peer.cfg.peer_as) {
            return None;
        }
        Some(Arc::new(route))
    }
}
