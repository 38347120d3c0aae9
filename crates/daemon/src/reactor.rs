//! The TCP event loop: real sockets driving one [`Node`].
//!
//! std has no epoll binding, so the reactor runs poll-mode: every
//! socket is nonblocking, each tick drains whatever is readable, fires
//! due session timers, and sleeps a few milliseconds when nothing
//! moved. That is plenty for a daemon whose protocol work is measured
//! in messages per second, and it keeps the crate dependency-free like
//! the rest of the workspace.
//!
//! Inbound connections cannot be matched to a neighbor by source
//! address on loopback (every peer dials from 127.0.0.1 with an
//! ephemeral port), so an accepted socket is parked until its OPEN
//! arrives and is then routed to the neighbor configured with that AS
//! — the OPEN bytes are replayed into the session core so the FSM sees
//! the stream from the first byte.

use crate::config::DaemonConfig;
use crate::dump::all_established;
use crate::node::{Node, NodeOutput};
use dbgp_session::{ConnDir, Millis, PeerId, StreamReassembler};
use dbgp_wire::message::BgpMessage;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Knobs for one reactor run.
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Converged = every neighbor Established and no routing activity
    /// for this long.
    pub quiet_ms: u64,
    /// Hard deadline: give up (and report) after this long.
    pub max_ms: u64,
    /// After convergence, keep servicing sockets this long so peers
    /// can finish their own quiet windows before we hang up.
    pub linger_ms: u64,
    /// Test hook: corrupt the capability-parameter length byte of every
    /// outgoing OPEN (the CI negative check that a broken capability
    /// byte fails the handshake).
    pub corrupt_open: bool,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions { quiet_ms: 500, max_ms: 30_000, linger_ms: 1_000, corrupt_open: false }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All sessions Established and the RIB went quiet.
    Converged,
    /// `max_ms` elapsed first.
    TimedOut,
}

/// An accepted connection waiting for its OPEN to identify the peer.
struct PendingConn {
    sock: TcpStream,
    raw: Vec<u8>,
    reasm: StreamReassembler,
    accepted_at: Millis,
}

/// The socket host for one daemon node.
pub struct Reactor {
    cfg: DaemonConfig,
    node: Node,
    opts: ReactorOptions,
    listener: Option<TcpListener>,
    conns: BTreeMap<(PeerId, ConnDir), TcpStream>,
    pending: Vec<PendingConn>,
    restart_at: BTreeMap<PeerId, Millis>,
    started: Instant,
    last_activity: Millis,
    lingering: bool,
}

impl Reactor {
    /// Bind the listener (if configured) and prepare the node.
    pub fn new(cfg: DaemonConfig, opts: ReactorOptions) -> io::Result<Self> {
        let listener = match &cfg.listen {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let node = Node::from_config(&cfg);
        Ok(Reactor {
            cfg,
            node,
            opts,
            listener,
            conns: BTreeMap::new(),
            pending: Vec::new(),
            restart_at: BTreeMap::new(),
            started: Instant::now(),
            last_activity: 0,
            lingering: false,
        })
    }

    /// The node (for dumps after the run).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Run until converged or timed out.
    pub fn run(&mut self) -> RunOutcome {
        let now = self.now();
        let outputs = self.node.start(now);
        self.handle(now, outputs);
        loop {
            let moved = self.tick();
            let now = self.now();
            if all_established(&self.node)
                && now.saturating_sub(self.last_activity) >= self.opts.quiet_ms
            {
                return RunOutcome::Converged;
            }
            if now >= self.opts.max_ms {
                return RunOutcome::TimedOut;
            }
            if !moved {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Keep servicing sockets (keepalives, closes) without restarting
    /// sessions, so peers still counting down their quiet windows see a
    /// live neighbor rather than a hangup.
    pub fn linger(&mut self) {
        self.lingering = true;
        let deadline = self.now() + self.opts.linger_ms;
        while self.now() < deadline {
            if !self.tick() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    // ----- internals ----------------------------------------------------

    fn now(&self) -> Millis {
        self.started.elapsed().as_millis() as Millis
    }

    /// One pass over listener, pending conns, live conns, and timers.
    /// Returns whether anything happened.
    fn tick(&mut self) -> bool {
        let mut moved = false;
        moved |= self.accept_new();
        moved |= self.read_pending();
        moved |= self.read_conns();
        let now = self.now();
        let outputs = self.node.poll(now);
        moved |= !outputs.is_empty();
        self.handle(now, outputs);
        if !self.lingering {
            let due: Vec<PeerId> =
                self.restart_at.iter().filter(|(_, &at)| at <= now).map(|(&id, _)| id).collect();
            for id in due {
                self.restart_at.remove(&id);
                let outputs = self.node.restart_peer(now, id);
                self.handle(now, outputs);
                moved = true;
            }
        }
        moved
    }

    fn accept_new(&mut self) -> bool {
        let Some(listener) = &self.listener else { return false };
        let mut moved = false;
        loop {
            match listener.accept() {
                Ok((sock, _)) => {
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    self.pending.push(PendingConn {
                        sock,
                        raw: Vec::new(),
                        reasm: StreamReassembler::new(),
                        accepted_at: self.now(),
                    });
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        moved
    }

    /// Drain pending (pre-OPEN) connections; route each to its neighbor
    /// once the OPEN identifies the remote AS.
    fn read_pending(&mut self) -> bool {
        let mut moved = false;
        let now = self.now();
        let mut ready: Vec<(usize, PeerId)> = Vec::new();
        let mut drop_idx: Vec<usize> = Vec::new();
        for (i, pc) in self.pending.iter_mut().enumerate() {
            match read_nonblocking(&mut pc.sock) {
                ReadResult::Data(buf) => {
                    moved = true;
                    pc.raw.extend_from_slice(&buf);
                    pc.reasm.push(&buf);
                    // OPEN decoding does not depend on the 4-octet flag.
                    match pc.reasm.next_message(true) {
                        Ok(Some(BgpMessage::Open(open))) => {
                            let target = (0..self.cfg.neighbors.len())
                                .find(|&j| self.cfg.neighbors[j].peer_as == open.effective_as());
                            match target {
                                Some(j) => ready.push((i, PeerId(j as u32))),
                                None => drop_idx.push(i),
                            }
                        }
                        Ok(Some(_)) | Err(_) => drop_idx.push(i), // protocol nonsense pre-OPEN
                        Ok(None) => {}                            // keep waiting
                    }
                }
                ReadResult::WouldBlock => {}
                ReadResult::Closed => drop_idx.push(i),
            }
            if now.saturating_sub(pc.accepted_at) > 10_000 {
                drop_idx.push(i); // never sent an OPEN; give up on it
            }
        }
        // Route matched conns to their neighbors (highest index first so
        // removals do not shift earlier entries).
        ready.sort_by_key(|&(i, _)| std::cmp::Reverse(i));
        for (i, pid) in ready {
            let pc = self.pending.remove(i);
            if self.conns.contains_key(&(pid, ConnDir::In)) {
                continue; // a second inbound for the same peer: drop it
            }
            self.conns.insert((pid, ConnDir::In), pc.sock);
            let outputs = self.node.accepted(now, pid);
            self.handle(now, outputs);
            // Replay everything received pre-match, OPEN included, so
            // the session core sees the stream from byte zero.
            let outputs = self.node.bytes_in(now, pid, ConnDir::In, &pc.raw);
            self.handle(now, outputs);
            moved = true;
        }
        drop_idx.sort_unstable_by(|a, b| b.cmp(a));
        drop_idx.dedup();
        for i in drop_idx {
            if i < self.pending.len() {
                self.pending.remove(i);
            }
        }
        moved
    }

    fn read_conns(&mut self) -> bool {
        let mut moved = false;
        let now = self.now();
        let keys: Vec<(PeerId, ConnDir)> = self.conns.keys().copied().collect();
        for key in keys {
            while let Some(sock) = self.conns.get_mut(&key) {
                match read_nonblocking(sock) {
                    ReadResult::Data(buf) => {
                        moved = true;
                        let outputs = self.node.bytes_in(now, key.0, key.1, &buf);
                        self.handle(now, outputs);
                    }
                    ReadResult::WouldBlock => break,
                    ReadResult::Closed => {
                        moved = true;
                        self.conns.remove(&key);
                        let outputs = self.node.conn_closed(now, key.0, key.1);
                        self.handle(now, outputs);
                        break;
                    }
                }
            }
        }
        moved
    }

    fn handle(&mut self, now: Millis, outputs: Vec<NodeOutput>) {
        for output in outputs {
            match output {
                NodeOutput::Connect(pid) => {
                    self.last_activity = now;
                    self.dial(now, pid);
                }
                NodeOutput::Send(pid, dir, bytes) => {
                    // KEEPALIVE chatter does not count as activity; it
                    // would keep the quiet-window from ever expiring.
                    if bytes.len() > 18 && bytes[18] != dbgp_wire::message::TYPE_KEEPALIVE {
                        self.last_activity = now;
                    }
                    let payload = self.maybe_corrupt(&bytes);
                    let Some(sock) = self.conns.get_mut(&(pid, dir)) else { continue };
                    if write_all_nonblocking(sock, &payload).is_err() {
                        self.conns.remove(&(pid, dir));
                        let outputs = self.node.conn_closed(now, pid, dir);
                        self.handle(now, outputs);
                    }
                }
                NodeOutput::Close(pid, dir) => {
                    if let Some(sock) = self.conns.remove(&(pid, dir)) {
                        let _ = sock.shutdown(std::net::Shutdown::Both);
                    }
                }
                NodeOutput::Up(..) | NodeOutput::Best(..) => self.last_activity = now,
                NodeOutput::Down(pid, _) => {
                    self.last_activity = now;
                    if !self.lingering {
                        let backoff = self.cfg.connect_retry_ms.max(100);
                        self.restart_at.insert(pid, now + backoff);
                    }
                }
            }
        }
    }

    fn dial(&mut self, now: Millis, pid: PeerId) {
        let spec = &self.cfg.neighbors[pid.0 as usize];
        let Some(addr) = spec.addr.clone() else {
            let outputs = self.node.dial_result(now, pid, false);
            self.handle(now, outputs);
            return;
        };
        let resolved = addr.to_socket_addrs().ok().and_then(|mut a| a.next());
        let sock =
            resolved.and_then(|a| TcpStream::connect_timeout(&a, Duration::from_millis(250)).ok());
        match sock {
            Some(sock) => {
                let _ = sock.set_nonblocking(true);
                let _ = sock.set_nodelay(true);
                if let Some(old) = self.conns.insert((pid, ConnDir::Out), sock) {
                    let _ = old.shutdown(std::net::Shutdown::Both);
                }
                let outputs = self.node.dial_result(now, pid, true);
                self.handle(now, outputs);
            }
            None => {
                let outputs = self.node.dial_result(now, pid, false);
                self.handle(now, outputs);
            }
        }
    }

    /// The `--test-corrupt-open` hook: flip the capability-parameter
    /// length byte (offset 30: header 19 + fixed OPEN fields 10 + param
    /// type 1) of outgoing OPENs so the peer's decoder rejects it.
    fn maybe_corrupt(&self, bytes: &[u8]) -> Vec<u8> {
        let mut payload = bytes.to_vec();
        if self.opts.corrupt_open
            && payload.len() > 30
            && payload[18] == dbgp_wire::message::TYPE_OPEN
        {
            payload[30] = 0xFF;
        }
        payload
    }
}

enum ReadResult {
    Data(Vec<u8>),
    WouldBlock,
    Closed,
}

fn read_nonblocking(sock: &mut TcpStream) -> ReadResult {
    let mut buf = [0u8; 4096];
    match sock.read(&mut buf) {
        Ok(0) => ReadResult::Closed,
        Ok(n) => ReadResult::Data(buf[..n].to_vec()),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadResult::WouldBlock,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadResult::WouldBlock,
        Err(_) => ReadResult::Closed,
    }
}

fn write_all_nonblocking(sock: &mut TcpStream, mut buf: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !buf.is_empty() {
        match sock.write(buf) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote 0")),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "send stalled"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
