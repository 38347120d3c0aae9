//! The transport-agnostic daemon node: one [`SessionCore`] per
//! configured neighbor glued to one [`RoutingCore`].
//!
//! This is the same assembly `dbgp-bgp`'s `Speaker` performs for the
//! simulator, with the connection direction kept visible so a host can
//! route bytes from two TCP connections (dialed and accepted) into the
//! right half of each neighbor's core. Both the live reactor
//! ([`crate::reactor`]) and the in-process oracle ([`crate::oracle`])
//! drive exactly this type, which is what makes their RIB dumps
//! comparable byte for byte.

use crate::config::DaemonConfig;
use bytes::Bytes;
use dbgp_session::{
    ConnDir, CoreOutput, DownReason, LocRibEntry, Millis, PeerId, RibOp, RoutingCore, SessionCore,
    SessionState, SessionSummary,
};
use dbgp_wire::message::BgpMessage;
use dbgp_wire::Ipv4Prefix;
use std::collections::BTreeMap;

/// Instructions a node hands its transport host, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeOutput {
    /// Dial this neighbor's configured address.
    Connect(PeerId),
    /// Close this neighbor's connection in this direction.
    Close(PeerId, ConnDir),
    /// Transmit these bytes on this neighbor's connection.
    Send(PeerId, ConnDir, Bytes),
    /// The session reached Established.
    Up(PeerId, SessionSummary),
    /// The session went down.
    Down(PeerId, DownReason),
    /// The best route for a prefix changed (`None` = unreachable).
    Best(Ipv4Prefix, Option<LocRibEntry>),
}

/// One daemon's worth of sans-IO state.
pub struct Node {
    cores: BTreeMap<PeerId, SessionCore>,
    routing: RoutingCore,
}

impl Node {
    /// Build a node from a parsed configuration. Prefixes in
    /// `network` lines are originated immediately (before any session
    /// exists, so no UPDATEs result).
    pub fn from_config(cfg: &DaemonConfig) -> Self {
        let mut routing = RoutingCore::new(cfg.local_as, cfg.router_id);
        let mut cores = BTreeMap::new();
        for i in 0..cfg.neighbors.len() {
            let ncfg = cfg.neighbor_config(i);
            let id = PeerId(i as u32);
            cores.insert(id, SessionCore::new(ncfg.session.clone()));
            routing.add_peer(id, ncfg);
        }
        let mut node = Node { cores, routing };
        node.routing.set_coalesce(cfg.coalesce_updates);
        for prefix in &cfg.networks {
            // No peers are up yet: ops are Best-only and discarded.
            let _ = node.routing.originate(0, *prefix);
        }
        node
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.routing.asn()
    }

    /// Read access to the routing core (for dumps).
    pub fn routing(&self) -> &RoutingCore {
        &self.routing
    }

    /// The FSM state for one neighbor.
    pub fn state(&self, id: PeerId) -> Option<SessionState> {
        self.cores.get(&id).map(|c| c.state())
    }

    /// The negotiated session summary for one neighbor, while up.
    pub fn summary(&self, id: PeerId) -> Option<SessionSummary> {
        self.routing.summary(id)
    }

    /// Number of Established sessions.
    pub fn established_count(&self) -> usize {
        self.cores.values().filter(|c| c.state() == SessionState::Established).count()
    }

    /// All configured peer IDs.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.cores.keys().copied().collect()
    }

    /// Enable every session.
    pub fn start(&mut self, now: Millis) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        for id in self.peer_ids() {
            let Some(core) = self.cores.get_mut(&id) else { continue };
            let couts = core.start(now);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// Re-enable one session (after a Down, with backoff — host policy).
    pub fn restart_peer(&mut self, now: Millis, id: PeerId) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        if let Some(core) = self.cores.get_mut(&id) {
            let couts = core.start(now);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// The host's dial for `id` completed (`Ok`) or failed.
    pub fn dial_result(&mut self, now: Millis, id: PeerId, ok: bool) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        if let Some(core) = self.cores.get_mut(&id) {
            let couts =
                if ok { core.connected(now, ConnDir::Out) } else { core.connect_failed(now) };
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// The host accepted a connection it has matched to neighbor `id`.
    pub fn accepted(&mut self, now: Millis, id: PeerId) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        if let Some(core) = self.cores.get_mut(&id) {
            let couts = core.connected(now, ConnDir::In);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// A transport connection closed.
    pub fn conn_closed(&mut self, now: Millis, id: PeerId, dir: ConnDir) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        if let Some(core) = self.cores.get_mut(&id) {
            let couts = core.closed(now, dir);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// Bytes arrived on a neighbor's connection.
    pub fn bytes_in(
        &mut self,
        now: Millis,
        id: PeerId,
        dir: ConnDir,
        data: &[u8],
    ) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        if let Some(core) = self.cores.get_mut(&id) {
            let couts = core.bytes_in(now, dir, data);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// Fire due timers across all sessions.
    pub fn poll(&mut self, now: Millis) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        for id in self.peer_ids() {
            let Some(core) = self.cores.get_mut(&id) else { continue };
            let couts = core.poll(now);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// Enable routing-core update coalescing: UPDATEs stage per peer
    /// and flush as packed multi-NLRI frames at the host's batching
    /// boundary (the reactor calls [`flush_pending`](Self::flush_pending)
    /// once per tick).
    pub fn set_coalesce(&mut self, on: bool) {
        self.routing.set_coalesce(on);
    }

    /// Drain staged routing-core updates into wire frames, in canonical
    /// (peer, prefix) order. A no-op unless coalescing is on and
    /// something is staged.
    pub fn flush_pending(&mut self) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        if self.routing.has_pending() {
            let ops = self.routing.flush_pending();
            self.absorb_ops(ops, &mut out);
        }
        out
    }

    /// Earliest future instant [`Node::poll`] must run.
    pub fn next_deadline(&self) -> Option<Millis> {
        self.cores.values().filter_map(|c| c.next_deadline()).min()
    }

    // ----- internals ----------------------------------------------------

    fn absorb(
        &mut self,
        now: Millis,
        id: PeerId,
        couts: Vec<CoreOutput>,
        out: &mut Vec<NodeOutput>,
    ) {
        for cout in couts {
            match cout {
                CoreOutput::Connect => out.push(NodeOutput::Connect(id)),
                CoreOutput::Close(dir) => out.push(NodeOutput::Close(id, dir)),
                CoreOutput::SendBytes(dir, bytes) => out.push(NodeOutput::Send(id, dir, bytes)),
                CoreOutput::Up(summary) => {
                    out.push(NodeOutput::Up(id, summary));
                    let ops = self.routing.peer_up(id, summary);
                    self.absorb_ops(ops, out);
                }
                CoreOutput::Down(reason) => {
                    out.push(NodeOutput::Down(id, reason));
                    let ops = self.routing.peer_down(now, id);
                    self.absorb_ops(ops, out);
                }
                CoreOutput::Update(update) => {
                    let (ops, err) = self.routing.update(now, id, update);
                    self.absorb_ops(ops, out);
                    let Some(err) = err else { continue };
                    let Some(core) = self.cores.get_mut(&id) else { continue };
                    let couts = core.fail_active(now, &err);
                    self.absorb(now, id, couts, out);
                }
            }
        }
    }

    fn absorb_ops(&mut self, ops: Vec<RibOp>, out: &mut Vec<NodeOutput>) {
        for op in ops {
            match op {
                RibOp::BestRouteChanged(prefix, entry) => {
                    out.push(NodeOutput::Best(prefix, entry));
                }
                RibOp::Announce(pid, update) => {
                    let core = &self.cores[&pid];
                    let bytes = BgpMessage::Update(update).encode(core.four_octet());
                    // UPDATEs ride whichever connection carries the
                    // established session; the core knows, the routing
                    // layer does not. Established implies an active dir.
                    let dir = core.active_dir().unwrap_or(ConnDir::Out);
                    out.push(NodeOutput::Send(pid, dir, bytes));
                }
            }
        }
    }
}
