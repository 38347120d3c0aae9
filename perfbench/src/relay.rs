//! The `dbgpd_relay` workload: a real `dbgpd` process (AS 65000) with
//! two passive neighbors over loopback TCP. The bench's injector
//! (AS 65001) feeds it a seeded full table and then an open-loop stream
//! of single-prefix changes; the bench's collector (AS 65002) receives
//! what the daemon relays. One bench thread drives both sockets.
//!
//! The traced run adds spans around the bench's own socket and codec
//! calls, and replays the exact injector byte stream through the
//! daemon's in-process API (`dbgp_daemon::Node`) to split the daemon's
//! time into its layers.

use crate::host;
use crate::report::{self, describe, median, percentile, Ops, PER_LAYER};
use crate::rng::Rng;
use bytes::BytesMut;
use dbgp_daemon::{DaemonConfig, Node, NodeOutput};
use dbgp_rib::PrefixTrie;
use dbgp_session::{ConnDir, PeerId, StreamReassembler};
use dbgp_wire::attrs::Origin;
use dbgp_wire::message::{TYPE_NOTIFICATION, TYPE_UPDATE};
use dbgp_wire::{AsPath, BgpMessage, Ipv4Addr, Ipv4Prefix, OpenMsg, PathAttribute, UpdateMsg};
use dbgp_workload::WorkloadGen;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon under test.
pub const DAEMON_AS: u32 = 65000;
/// The bench's injecting neighbor.
pub const INJECTOR_AS: u32 = 65001;
/// The bench's collecting neighbor.
pub const COLLECTOR_AS: u32 = 65002;
/// The daemon's router ID, and the NEXT_HOP it sets toward the collector.
const DAEMON_ID: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Proves both sessions carry routes before the table starts.
const SENTINEL: &str = "192.0.2.0/24";
/// Hold time the bench offers; a repetition ends long before it runs out.
const HOLD_SECS: u16 = 90;
/// Read size for the bench's sockets.
const READ_CHUNK: usize = 64 * 1024;
/// The daemon's reactor reads 4 KB at a time; the replay feeds the same.
const DAEMON_READ: usize = 4096;
/// How long set-up, the table or the stream's tail may take before
/// what is missing counts as failed.
const DEADLINE: Duration = Duration::from_secs(20);

/// Size of the relay workload.
#[derive(Debug, Clone, Copy)]
pub struct RelayScale {
    /// Routes in the full table.
    pub routes: usize,
    /// Single-prefix changes in the stream.
    pub changes: usize,
    /// Stream rate, changes per second (open loop).
    pub rate: f64,
}

impl RelayScale {
    /// The benchmark's size.
    pub const FULL: RelayScale = RelayScale { routes: 100_000, changes: 2_500, rate: 5_000.0 };
    /// The self-tests' size.
    pub const TINY: RelayScale = RelayScale { routes: 3_000, changes: 300, rate: 3_000.0 };
}

/// Command-line inputs of a relay run.
#[derive(Debug, Clone)]
pub struct RelayArgs {
    /// The `dbgpd` executable.
    pub dbgpd: PathBuf,
    /// Where the daemon's config files go.
    pub work_dir: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Seconds of repetitions.
    pub seconds: f64,
    /// Run traced repetitions and the in-process replay too.
    pub trace: bool,
    /// Workload size.
    pub scale: RelayScale,
}

/// What the collector should hold for a prefix: the AS path after the
/// daemon's prepend and the NEXT_HOP it sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Held {
    /// AS_PATH as received.
    pub path: AsPath,
    /// NEXT_HOP as received.
    pub next_hop: Ipv4Addr,
}

/// One change of the stream.
#[derive(Debug, Clone)]
pub struct StreamChange {
    /// The prefix it touches (distinct per change).
    pub prefix: Ipv4Prefix,
    /// The injector's frame.
    pub frame: Vec<u8>,
    /// What the collector must hold afterwards (`None` = withdrawn).
    pub after: Option<Held>,
}

/// Every input of the workload, generated from the seed.
#[derive(Debug, Clone)]
pub struct RelayInputs {
    /// The table as the injector sends it: concatenated UPDATE frames.
    pub table_bytes: Vec<u8>,
    /// Frames in `table_bytes`.
    pub table_frames: usize,
    /// What the collector must hold after the table (sentinel included).
    pub expected: BTreeMap<Ipv4Prefix, Held>,
    /// The change stream, in send order.
    pub changes: Vec<StreamChange>,
    /// The sentinel announcement.
    pub sentinel: Vec<u8>,
}

/// The injector's view of a generated AS path: the bench's own ASes
/// never appear inside it (the daemon would drop a path holding 65000
/// as a loop), and the injector prepends itself as an eBGP peer does.
fn injector_path(path: &AsPath) -> AsPath {
    let mut ases: Vec<u32> = path
        .segments
        .iter()
        .flat_map(|s| s.ases().iter().copied())
        .map(|asn| if (DAEMON_AS..=COLLECTOR_AS).contains(&asn) { asn + 10 } else { asn })
        .collect();
    ases.insert(0, INJECTOR_AS);
    AsPath::from_sequence(ases)
}

fn relayed(path: &AsPath) -> Held {
    let mut path = path.clone();
    path.prepend(DAEMON_AS);
    Held { path, next_hop: DAEMON_ID }
}

fn encode(update: UpdateMsg) -> Vec<u8> {
    BgpMessage::Update(update).encode(true).to_vec()
}

/// Generate the table, the sentinel and the change stream from `seed`.
pub fn inputs(scale: &RelayScale, seed: u64) -> RelayInputs {
    let mut table_bytes = Vec::new();
    let mut table_frames = 0;
    let mut expected = BTreeMap::new();
    let sentinel_prefix: Ipv4Prefix = SENTINEL.parse().expect("valid prefix");
    let sentinel_path = AsPath::from_sequence(vec![INJECTOR_AS]);
    let attrs = |path: &AsPath, next_hop: Ipv4Addr, med: u32| {
        vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(path.clone()),
            PathAttribute::NextHop(next_hop),
            PathAttribute::Med(med),
        ]
    };
    let sentinel = encode(UpdateMsg::announce(
        vec![sentinel_prefix],
        attrs(&sentinel_path, Ipv4Addr::new(10, 9, 9, 9), 0),
    ));
    expected.insert(sentinel_prefix, relayed(&sentinel_path));

    let mut table_prefixes = Vec::new();
    for update in WorkloadGen::new(seed).full_table(scale.routes) {
        // Re-pack: the injector's prepend can push a full frame past
        // the 4096-byte limit.
        let mut attributes = update.attributes.clone();
        let mut path = AsPath::empty();
        for attr in &mut attributes {
            if let PathAttribute::AsPath(p) = attr {
                *p = injector_path(p);
                path = p.clone();
            }
        }
        for frame in UpdateMsg::pack_announcements(&update.nlri, attributes, true) {
            table_bytes.extend(encode(frame));
            table_frames += 1;
        }
        for prefix in &update.nlri {
            expected.insert(*prefix, relayed(&path));
            table_prefixes.push(*prefix);
        }
    }

    let mut rng = Rng::new(seed, 3);
    let picks = rng.sample(table_prefixes.len(), scale.changes.min(table_prefixes.len()));
    let changes = picks
        .into_iter()
        .map(|i| {
            let prefix = table_prefixes[i];
            if rng.below(4) == 0 {
                let frame = encode(UpdateMsg::withdraw(vec![prefix]));
                return StreamChange { prefix, frame, after: None };
            }
            // A new path, never equal to the one the table announced,
            // so the daemon must relay exactly one change.
            let current = expected[&prefix].path.clone();
            let path = loop {
                let hops = 2 + rng.below(4);
                let ases: Vec<u32> = (0..hops).map(|_| 1 + rng.below(64_000) as u32).collect();
                let path = injector_path(&AsPath::from_sequence(ases));
                if relayed(&path).path != current {
                    break path;
                }
            };
            let next_hop = Ipv4Addr(rng.next_u64() as u32);
            let frame = encode(UpdateMsg::announce(
                vec![prefix],
                attrs(&path, next_hop, rng.below(100) as u32),
            ));
            StreamChange { prefix, frame, after: Some(relayed(&path)) }
        })
        .collect();
    RelayInputs { table_bytes, table_frames, expected, changes, sentinel }
}

/// The daemon's configuration text for `port`.
pub fn daemon_config(port: u16) -> String {
    format!(
        "local-as {DAEMON_AS}\nrouter-id {DAEMON_ID}\nlisten 127.0.0.1:{port}\n\
         neighbor as={INJECTOR_AS} passive\nneighbor as={COLLECTOR_AS} passive\n"
    )
}

/// A spawned `dbgpd`, killed and reaped when dropped.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(exe: &Path, config: &Path) -> io::Result<Self> {
        let child = Command::new(exe)
            .arg("--config")
            .arg(config)
            // Never converge-and-exit on its own: the bench ends it.
            .args(["--quiet-ms", "600000", "--max-ms", "170000", "--linger-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        Ok(Daemon { child })
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        host::peak_rss_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One BGP message off the wire, with its frame length.
struct Frame {
    len: usize,
    msg: BgpMessage,
}

/// A bench-side BGP peer: a socket plus its inbound byte buffer.
struct Peer {
    sock: TcpStream,
    inbuf: BytesMut,
    closed: bool,
}

impl Peer {
    fn connect(port: u16, deadline: Instant) -> io::Result<Peer> {
        loop {
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(sock) => {
                    sock.set_nodelay(true)?;
                    return Ok(Peer { sock, inbuf: BytesMut::new(), closed: false });
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Read what is available (nonblocking); returns bytes read.
    fn pump(&mut self, buf: &mut [u8]) -> usize {
        match self.sock.read(buf) {
            Ok(0) => {
                self.closed = true;
                0
            }
            Ok(n) => {
                self.inbuf.extend_from_slice(&buf[..n]);
                n
            }
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                0
            }
            Err(_) => {
                self.closed = true;
                0
            }
        }
    }

    /// The next complete message in the buffer.
    fn next_frame(&mut self) -> Result<Option<Frame>, String> {
        if self.inbuf.len() < 19 {
            return Ok(None);
        }
        let len = u16::from_be_bytes([self.inbuf[16], self.inbuf[17]]) as usize;
        match BgpMessage::decode(&mut self.inbuf, true) {
            Ok(Some(msg)) => Ok(Some(Frame { len, msg })),
            Ok(None) => Ok(None),
            Err(e) => Err(format!("undecodable message from the daemon: {e:?}")),
        }
    }

    /// Write all of `bytes`, spinning while the socket is full.
    fn send(&mut self, bytes: &[u8], deadline: Instant) -> io::Result<()> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.sock.write(rest) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote 0")),
                Ok(n) => rest = &rest[n..],
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "send stalled"));
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

fn open_bytes(asn: u32) -> Vec<u8> {
    BgpMessage::Open(OpenMsg::new(
        asn,
        HOLD_SECS,
        Ipv4Addr::new(10, 0, 0, (asn - DAEMON_AS) as u8 + 1),
    ))
    .encode(true)
    .to_vec()
}

fn keepalive_bytes() -> Vec<u8> {
    BgpMessage::Keepalive.encode(true).to_vec()
}

/// OPEN / OPEN / KEEPALIVE / KEEPALIVE on a blocking socket.
fn handshake(peer: &mut Peer, asn: u32, deadline: Instant) -> Result<(), String> {
    let mut buf = vec![0u8; READ_CHUNK];
    peer.sock.set_read_timeout(Some(Duration::from_millis(50))).map_err(|e| e.to_string())?;
    peer.send(&open_bytes(asn), deadline).map_err(|e| e.to_string())?;
    let mut got_open = false;
    while Instant::now() < deadline && !peer.closed {
        peer.pump(&mut buf);
        while let Some(frame) = peer.next_frame()? {
            match frame.msg {
                BgpMessage::Open(_) => {
                    got_open = true;
                    peer.send(&keepalive_bytes(), deadline).map_err(|e| e.to_string())?;
                }
                BgpMessage::Keepalive if got_open => {
                    peer.sock.set_nonblocking(true).map_err(|e| e.to_string())?;
                    return Ok(());
                }
                other => {
                    return Err(format!("AS {asn}: unexpected {other:?} during the handshake"))
                }
            }
        }
    }
    Err(format!("AS {asn}: no session within the deadline"))
}

/// Bench-side work of a traced repetition's table phase, as wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Injector socket writes (nonblocking).
    pub inject_write_s: f64,
    /// Collector socket reads that returned bytes.
    pub collect_read_s: f64,
    /// Framing the collector's bytes and counting announced prefixes.
    pub collect_decode_s: f64,
}

impl Spans {
    /// Bench-side seconds.
    pub fn total(&self) -> f64 {
        self.inject_write_s + self.collect_read_s + self.collect_decode_s
    }
}

/// Run `f`, returning its result and, when tracing, its wall seconds.
fn timed<T>(on: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if !on {
        return (f(), 0.0);
    }
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What one live repetition measured and checked.
#[derive(Debug, Clone, Default)]
pub struct LiveRep {
    /// Spawn until both sessions carry the sentinel, seconds.
    pub setup_s: f64,
    /// First table byte written until the last table prefix decoded at
    /// the collector, seconds.
    pub table_load_s: f64,
    /// First change due until the last change arrived, seconds.
    pub stream_s: f64,
    /// Per-change latency from its due time, ms (a failed change counts
    /// as the deadline).
    pub latencies_ms: Vec<f64>,
    /// Largest lateness of the open-loop generator, ms.
    pub gen_late_ms: f64,
    /// UPDATE frames the collector received during the table phase.
    pub table_frames_out: u64,
    /// Their bytes.
    pub table_bytes_out: u64,
    /// The daemon's peak RSS, MB.
    pub peak_rss_mb: f64,
    /// Bench-side spans (traced repetitions only).
    pub spans: Spans,
    /// The collector's final table.
    pub final_table: BTreeMap<Ipv4Prefix, Held>,
    /// Operations attempted and failed.
    pub ops: Ops,
}

/// Apply one frame to the collector's table; returns the prefixes it
/// touched.
fn absorb(table: &mut BTreeMap<Ipv4Prefix, Held>, update: &UpdateMsg) -> Vec<Ipv4Prefix> {
    let mut touched = update.withdrawn.clone();
    for p in &update.withdrawn {
        table.remove(p);
    }
    if !update.nlri.is_empty() {
        let path = update.attributes.iter().find_map(|a| match a {
            PathAttribute::AsPath(p) => Some(p.clone()),
            _ => None,
        });
        let next_hop = update.attributes.iter().find_map(|a| match a {
            PathAttribute::NextHop(n) => Some(*n),
            _ => None,
        });
        let held =
            Held { path: path.unwrap_or_default(), next_hop: next_hop.unwrap_or(Ipv4Addr(0)) };
        for p in &update.nlri {
            table.insert(*p, held.clone());
            touched.push(*p);
        }
    }
    touched
}

/// Count the prefixes announced by the complete frames in `buf` past
/// `*scanned`, advancing it; only the BGP header and the UPDATE length
/// fields are read. A NOTIFICATION or a malformed frame is an error.
fn count_announced(buf: &[u8], scanned: &mut usize) -> Result<u64, String> {
    let mut count = 0;
    while buf.len() >= *scanned + 19 {
        let frame_at = *scanned;
        let len = usize::from(u16::from_be_bytes([buf[frame_at + 16], buf[frame_at + 17]]));
        if len < 19 {
            return Err(format!("frame length {len} from the daemon"));
        }
        if buf.len() < frame_at + len {
            break;
        }
        let frame = &buf[frame_at..frame_at + len];
        *scanned += len;
        match frame[18] {
            TYPE_UPDATE => {}
            TYPE_NOTIFICATION => return Err("NOTIFICATION from the daemon".into()),
            _ => continue,
        }
        let body = &frame[19..];
        let field = |at: usize| -> Result<usize, String> {
            body.get(at..at + 2)
                .map(|b| usize::from(u16::from_be_bytes([b[0], b[1]])))
                .ok_or_else(|| "truncated UPDATE from the daemon".to_string())
        };
        let withdrawn = field(0)?;
        let attrs = field(2 + withdrawn)?;
        let mut at = 4 + withdrawn + attrs;
        while at < body.len() {
            at += 1 + usize::from(body[at]).div_ceil(8);
            count += 1;
        }
    }
    Ok(count)
}

/// One live repetition against a fresh daemon.
pub fn live_rep(args: &RelayArgs, inp: &RelayInputs, traced: bool) -> LiveRep {
    let mut rep = LiveRep::default();
    let routes = inp.expected.len() as u64 - 1;
    let total_ops = routes + inp.changes.len() as u64 + 1;
    let setup_start = Instant::now();
    let deadline = setup_start + DEADLINE;
    let port = match TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()) {
        Ok(a) => a.port(),
        Err(e) => {
            rep.ops.fail_many(total_ops, format!("no free loopback port: {e}"));
            return rep;
        }
    };
    let config = args.work_dir.join(format!("dbgpd-{}-{port}.conf", std::process::id()));
    let daemon = std::fs::create_dir_all(&args.work_dir)
        .and_then(|_| std::fs::write(&config, daemon_config(port)))
        .and_then(|_| Daemon::spawn(&args.dbgpd, &config));
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            rep.ops.fail_many(total_ops, format!("cannot start {}: {e}", args.dbgpd.display()));
            return rep;
        }
    };
    let sessions = (|| -> Result<(Peer, Peer), String> {
        let mut inj = Peer::connect(port, deadline).map_err(|e| format!("connect: {e}"))?;
        let mut col = Peer::connect(port, deadline).map_err(|e| format!("connect: {e}"))?;
        handshake(&mut inj, INJECTOR_AS, deadline)?;
        handshake(&mut col, COLLECTOR_AS, deadline)?;
        Ok((inj, col))
    })();
    let _ = std::fs::remove_file(&config);
    let (mut inj, mut col) = match sessions {
        Ok(s) => s,
        Err(e) => {
            rep.ops.fail_many(total_ops, e);
            return rep;
        }
    };
    let mut buf = vec![0u8; READ_CHUNK];
    let mut table: BTreeMap<Ipv4Prefix, Held> = BTreeMap::new();
    let sentinel: Ipv4Prefix = SENTINEL.parse().expect("valid prefix");
    if let Err(e) = inj.send(&inp.sentinel, deadline) {
        rep.ops.fail_many(total_ops, format!("sentinel: {e}"));
        return rep;
    }
    // Set-up ends when the sentinel reaches the collector.
    let mut problem: Option<String> = None;
    'setup: while problem.is_none() {
        col.pump(&mut buf);
        loop {
            match col.next_frame() {
                Ok(Some(Frame { msg: BgpMessage::Update(u), .. })) => {
                    if absorb(&mut table, &u).contains(&sentinel) {
                        break 'setup;
                    }
                }
                Ok(Some(Frame { msg: BgpMessage::Notification(n), .. })) => {
                    problem = Some(format!("NOTIFICATION during set-up: {n:?}"))
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => problem = Some(e),
            }
        }
        if col.closed || Instant::now() >= deadline {
            problem = Some("the sentinel never reached the collector".into());
        }
    }
    if let Some(why) = problem {
        rep.ops.fail_many(total_ops, why);
        return rep;
    }
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    // Table phase: write the whole table as fast as the daemon takes
    // it while draining the collector. Inside the timed region the
    // collector only frames what arrives and counts announced prefixes;
    // full decoding and the route check come after it.
    let mut spans = Spans::default();
    let table_start = Instant::now();
    let deadline = table_start + DEADLINE;
    let mut offset = 0;
    let mut scanned = 0;
    let mut seen = 0u64;
    let mut last_arrival = table_start;
    while seen < routes && problem.is_none() {
        // Only writes and reads that moved bytes count as bench work;
        // the empty ones are the bench idling while the daemon works.
        let mut moved = false;
        if offset < inp.table_bytes.len() {
            let end = (offset + READ_CHUNK).min(inp.table_bytes.len());
            let (wrote, secs) = timed(traced, || inj.sock.write(&inp.table_bytes[offset..end]));
            match wrote {
                Ok(n) if n > 0 => {
                    offset += n;
                    moved = true;
                    spans.inject_write_s += secs;
                }
                Ok(_) => problem = Some("injector write: the daemon closed the socket".into()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => problem = Some(format!("injector write: {e}")),
            }
        }
        let (n, secs) = timed(traced, || col.pump(&mut buf));
        if n > 0 {
            moved = true;
            spans.collect_read_s += secs;
            let (counted, secs) = timed(traced, || count_announced(&col.inbuf, &mut scanned));
            spans.collect_decode_s += secs;
            match counted {
                Ok(k) => seen += k,
                Err(e) => problem = Some(e),
            }
            last_arrival = Instant::now();
        }
        inj.pump(&mut buf);
        if col.closed || inj.closed {
            problem = Some("the daemon closed a session".into());
        } else if Instant::now() >= deadline {
            problem = Some(format!("table phase: {seen} of {routes} routes by the deadline"));
        } else if !moved {
            std::thread::yield_now();
        }
    }
    rep.table_load_s = last_arrival.duration_since(table_start).as_secs_f64();
    rep.spans = spans;
    while problem.is_none() {
        match col.next_frame() {
            Ok(Some(Frame { len, msg: BgpMessage::Update(u) })) => {
                rep.table_frames_out += 1;
                rep.table_bytes_out += len as u64;
                absorb(&mut table, &u);
            }
            Ok(Some(Frame { msg: BgpMessage::Notification(n), .. })) => {
                problem = Some(format!("NOTIFICATION: {n:?}"))
            }
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => problem = Some(e),
        }
    }
    if let Some(why) = problem {
        rep.ops.fail_many(total_ops, why);
        return rep;
    }
    // Every table route must be there as the daemon should relay it.
    for (prefix, want) in &inp.expected {
        if *prefix == sentinel {
            continue;
        }
        let got = table.get(prefix);
        rep.ops.check(got == Some(want), || {
            format!("table route {prefix}: got {got:?}, want {want:?}")
        });
    }

    // Stream phase: open loop at a fixed rate; latency counts from
    // each change's due time.
    let index: HashMap<Ipv4Prefix, usize> =
        inp.changes.iter().enumerate().map(|(i, c)| (c.prefix, i)).collect();
    let gap = Duration::from_secs_f64(1.0 / args.scale.rate);
    let stream_start = Instant::now();
    let due = |i: usize| stream_start + gap * i as u32;
    let last_due = due(inp.changes.len().saturating_sub(1));
    let deadline = last_due + DEADLINE;
    let mut arrived: Vec<Option<Instant>> = vec![None; inp.changes.len()];
    let mut outstanding = inp.changes.len();
    let mut next = 0;
    while outstanding > 0 && problem.is_none() {
        let now = Instant::now();
        let mut moved = false;
        while next < inp.changes.len() && due(next) <= now {
            if let Err(e) = inj.send(&inp.changes[next].frame, deadline) {
                problem = Some(format!("injector write: {e}"));
                break;
            }
            let late = Instant::now().duration_since(due(next)).as_secs_f64() * 1e3;
            rep.gen_late_ms = rep.gen_late_ms.max(late);
            next += 1;
            moved = true;
        }
        moved |= col.pump(&mut buf) > 0;
        loop {
            match col.next_frame() {
                Ok(Some(Frame { msg: BgpMessage::Update(u), .. })) => {
                    let at = Instant::now();
                    for p in absorb(&mut table, &u) {
                        if let Some(&i) = index.get(&p) {
                            if arrived[i].is_none() {
                                arrived[i] = Some(at);
                                outstanding -= 1;
                            }
                        }
                    }
                }
                Ok(Some(Frame { msg: BgpMessage::Notification(n), .. })) => {
                    problem = Some(format!("NOTIFICATION: {n:?}"));
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    problem = Some(e);
                    break;
                }
            }
        }
        inj.pump(&mut buf);
        if col.closed || inj.closed {
            problem = Some("the daemon closed a session".into());
        } else if Instant::now() >= deadline {
            break;
        } else if !moved {
            std::thread::yield_now();
        }
    }
    rep.peak_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    drop(daemon);
    let mut last = stream_start;
    for (i, change) in inp.changes.iter().enumerate() {
        let got = table.get(&change.prefix);
        let ok = arrived[i].is_some() && got == change.after.as_ref();
        if let Some(at) = arrived[i] {
            last = last.max(at);
        }
        let latency = arrived[i].filter(|_| ok).map_or(DEADLINE, |at| at.duration_since(due(i)));
        rep.latencies_ms.push(latency.as_secs_f64() * 1e3);
        rep.ops.check(ok, || {
            format!(
                "change {i} ({}): arrived {:?}, holds {got:?}",
                change.prefix,
                arrived[i].is_some()
            )
        });
    }
    rep.stream_s = last.duration_since(stream_start).as_secs_f64();
    match problem {
        Some(why) => rep.ops.fail_many(1, why),
        None => check_final(&table, inp, &mut rep.ops),
    }
    rep.final_table = table;
    rep
}

/// What the collector must hold at the end: the table with every
/// change of the stream applied.
pub fn expected_final(inp: &RelayInputs) -> BTreeMap<Ipv4Prefix, Held> {
    let mut want = inp.expected.clone();
    for c in &inp.changes {
        match &c.after {
            Some(h) => want.insert(c.prefix, h.clone()),
            None => want.remove(&c.prefix),
        };
    }
    want
}

/// One operation: nothing but the stream may have changed the
/// collector's table.
pub fn check_final(table: &BTreeMap<Ipv4Prefix, Held>, inp: &RelayInputs, ops: &mut Ops) {
    let want = expected_final(inp);
    let differ = want.iter().filter(|(p, h)| table.get(*p) != Some(*h)).count()
        + table.keys().filter(|p| !want.contains_key(*p)).count();
    ops.check(differ == 0, || {
        format!("the collector's final table differs from the expected one in {differ} prefixes")
    });
}

/// The daemon's layers, from replaying the injector's exact byte
/// stream through `dbgp_daemon::Node` in process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `Node::bytes_in` over the table stream, seconds.
    pub node_s: f64,
    /// `StreamReassembler` decode of the table stream, seconds.
    pub bgp_decode_s: f64,
    /// Encoding the replay's outbound UPDATEs, seconds.
    pub bgp_encode_s: f64,
    /// `PrefixTrie` inserts of the table's prefixes, seconds.
    pub trie_insert_s: f64,
    /// `PrefixTrie` removals of the table's prefixes, seconds.
    pub trie_remove_s: f64,
    /// Mean `PrefixTrie::longest_match`, nanoseconds.
    pub trie_lookup_ns: f64,
    /// UPDATE frames into the node.
    pub frames_in: u64,
    /// UPDATE frames out to the collector.
    pub frames_out: u64,
    /// Bytes of those frames.
    pub bytes_out: u64,
    /// Decision fast-path hits.
    pub full_scans_avoided: u64,
}

/// Replay the table through an in-process node configured like the
/// live daemon.
pub fn replay(inp: &RelayInputs) -> Replay {
    let cfg = DaemonConfig::parse(&daemon_config(0)).expect("the bench's config parses");
    let mut node = Node::from_config(&cfg);
    let (inj, col) = (PeerId(0), PeerId(1));
    let mut out_frames: Vec<Vec<u8>> = Vec::new();
    let collect = |outs: Vec<NodeOutput>, frames: &mut Vec<Vec<u8>>| {
        for o in outs {
            if let NodeOutput::Send(pid, _, bytes) = o {
                if pid == col && bytes.len() > 18 && bytes[18] == TYPE_UPDATE {
                    frames.push(bytes.to_vec());
                }
            }
        }
    };
    let outs = node.start(0);
    collect(outs, &mut out_frames);
    for (pid, asn) in [(inj, INJECTOR_AS), (col, COLLECTOR_AS)] {
        let outs = node.accepted(0, pid);
        collect(outs, &mut out_frames);
        let mut hello = open_bytes(asn);
        hello.extend(keepalive_bytes());
        let outs = node.bytes_in(0, pid, ConnDir::In, &hello);
        collect(outs, &mut out_frames);
    }
    let outs = node.bytes_in(0, inj, ConnDir::In, &inp.sentinel);
    collect(outs, &mut out_frames);
    out_frames.clear();

    let mut r = Replay { frames_in: inp.table_frames as u64, ..Replay::default() };
    for chunk in inp.table_bytes.chunks(DAEMON_READ) {
        let start = Instant::now();
        let outs = node.bytes_in(1, inj, ConnDir::In, chunk);
        r.node_s += start.elapsed().as_secs_f64();
        collect(outs, &mut out_frames);
    }
    r.frames_out = out_frames.len() as u64;
    r.bytes_out = out_frames.iter().map(|f| f.len() as u64).sum();
    r.full_scans_avoided = node.routing().full_scans_avoided();

    let start = Instant::now();
    let mut reasm = StreamReassembler::new();
    let mut decoded = Vec::with_capacity(inp.table_frames);
    for chunk in inp.table_bytes.chunks(DAEMON_READ) {
        reasm.push(chunk);
        while let Ok(Some(msg)) = reasm.next_message(true) {
            decoded.push(msg);
        }
    }
    r.bgp_decode_s = start.elapsed().as_secs_f64();
    let prefixes: Vec<Ipv4Prefix> = decoded
        .iter()
        .filter_map(|m| match m {
            BgpMessage::Update(u) => Some(u.nlri.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect();

    let outbound: Vec<BgpMessage> = out_frames
        .iter()
        .filter_map(|f| StreamReassembler::decode_all(f, true).ok())
        .flatten()
        .collect();
    let start = Instant::now();
    let bytes: usize = outbound.iter().map(|m| std::hint::black_box(m.encode(true)).len()).sum();
    r.bgp_encode_s = start.elapsed().as_secs_f64();
    std::hint::black_box(bytes);

    let mut trie = PrefixTrie::new();
    let start = Instant::now();
    for (i, p) in prefixes.iter().enumerate() {
        trie.insert(*p, i as u32);
    }
    r.trie_insert_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut found = 0usize;
    for p in &prefixes {
        found += usize::from(std::hint::black_box(trie.longest_match(p.network())).is_some());
    }
    r.trie_lookup_ns = start.elapsed().as_secs_f64() * 1e9 / prefixes.len().max(1) as f64;
    std::hint::black_box(found);
    let start = Instant::now();
    for p in &prefixes {
        trie.remove(p);
    }
    r.trie_remove_s = start.elapsed().as_secs_f64();
    r
}

/// Repeat live repetitions for `--seconds` (alternating traced ones
/// when tracing) and reduce them to metrics.
pub fn run(args: &RelayArgs) -> (BTreeMap<String, f64>, Ops) {
    let inp = inputs(&args.scale, args.seed);
    // The first repetition warms the bench process; its checks count,
    // its times do not.
    let run = Instant::now();
    let warm = live_rep(args, &inp, false);
    if warm.ops.failed > 0 {
        return (BTreeMap::new(), warm.ops);
    }
    let start = Instant::now();
    let mut plain: Vec<LiveRep> = Vec::new();
    let mut traced: Vec<(LiveRep, Replay)> = Vec::new();
    loop {
        if args.trace && plain.len() > traced.len() {
            let live = live_rep(args, &inp, true);
            traced.push((live, replay(&inp)));
        } else {
            plain.push(live_rep(args, &inp, false));
        }
        let enough = !plain.is_empty() && (!args.trace || !traced.is_empty());
        if enough && !report::room_for_another(run, start, plain.len() + traced.len(), args.seconds)
        {
            break;
        }
    }
    let mut ops = Ops::default();
    let lives: Vec<&LiveRep> =
        std::iter::once(&warm).chain(&plain).chain(traced.iter().map(|(l, _)| l)).collect();
    for r in &lives {
        ops.absorb(r.ops.clone());
    }
    // The table's frame and byte counts repeat exactly for a seed, across
    // repetitions and in the in-process replay: one operation each.
    let first = lives[0];
    let counts = |r: &LiveRep| (r.table_frames_out, r.table_bytes_out);
    for (i, r) in lives.iter().enumerate().skip(1) {
        ops.check(counts(r) == counts(first), || {
            format!(
                "repetition {i} sent (frames, bytes) {:?}, the warm-up {:?}",
                counts(r),
                counts(first)
            )
        });
    }
    for (live, rp) in &traced {
        ops.check((rp.frames_out, rp.bytes_out) == counts(live), || {
            format!(
                "the replay sent (frames, bytes) ({}, {}), the live daemon {:?}",
                rp.frames_out,
                rp.bytes_out,
                counts(live)
            )
        });
    }

    let col = |f: &dyn Fn(&LiveRep) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let mut m = BTreeMap::new();
    println!("end to end over {} untraced repetitions:", plain.len());
    for (name, samples) in [
        ("setup_s", col(&|r| r.setup_s)),
        ("converge_s", col(&|r| r.table_load_s)),
        ("reconverge_s", col(&|r| r.stream_s)),
        ("peak_rss_mb", col(&|r| r.peak_rss_mb)),
    ] {
        println!("{}", describe(name, if name == "peak_rss_mb" { "MB" } else { "s" }, &samples));
        m.insert(name.to_string(), median(&samples));
    }
    let per_rep = |p: f64| median(&col(&|r| percentile(&r.latencies_ms, p)));
    let latency = [per_rep(50.0), per_rep(90.0), per_rep(99.0)];
    m.insert("update_msgs".into(), first.table_frames_out as f64);
    m.insert("wire_mb".into(), first.table_bytes_out as f64 / 1e6);
    println!(
        "  relay latency (median of per-repetition percentiles): p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms, \
         {} changes per repetition at {}/s; table {} routes in {} frames \
         -> {} frames out ({:.3} MB); generator ran at most {:.3} ms late",
        latency[0],
        latency[1],
        latency[2],
        inp.changes.len(),
        args.scale.rate,
        inp.expected.len() - 1,
        inp.table_frames,
        first.table_frames_out,
        m["wire_mb"],
        plain.iter().map(|r| r.gen_late_ms).fold(0.0, f64::max)
    );
    if !args.trace {
        return (m, ops);
    }

    // Layers come from the traced repetition with the median table
    // load, so they add up to its own wall time.
    let mut order: Vec<&(LiveRep, Replay)> = traced.iter().collect();
    order.sort_by(|a, b| a.0.table_load_s.total_cmp(&b.0.table_load_s));
    let (live, rp) = order[order.len() / 2];
    let gap = live.table_load_s - rp.node_s - live.spans.total();
    let mut layers: BTreeMap<String, f64> =
        PER_LAYER.iter().map(|(n, _)| (n.to_string(), 0.0)).collect();
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set("change.p50_ms", latency[0]);
    set("change.p90_ms", latency[1]);
    set("change.p99_ms", latency[2]);
    set("bench.inject_write_s", live.spans.inject_write_s);
    set("bench.collect_read_s", live.spans.collect_read_s);
    set("bench.collect_decode_s", live.spans.collect_decode_s);
    set("relay.gen_late_ms", live.gen_late_ms);
    set("daemon.node_s", rp.node_s);
    set("daemon.reactor_gap_s", gap);
    set("wire.bgp_decode_s", rp.bgp_decode_s);
    set("wire.bgp_encode_s", rp.bgp_encode_s);
    set("rib.trie_insert_s", rp.trie_insert_s);
    set("rib.trie_remove_s", rp.trie_remove_s);
    set("rib.trie_lookup_ns", rp.trie_lookup_ns);
    set("daemon.frames_in", rp.frames_in as f64);
    set("daemon.frames_out", rp.frames_out as f64);
    set(
        "daemon.frames_out_per_route",
        rp.frames_out as f64 / (inp.expected.len() - 1).max(1) as f64,
    );
    set("daemon.full_scans_avoided", rp.full_scans_avoided as f64);
    let traced_loads: Vec<f64> = traced.iter().map(|(l, _)| l.table_load_s).collect();
    let plain_loads = col(&|r| r.table_load_s);
    set("trace.overhead_s", median(&traced_loads) - median(&plain_loads));
    println!("traced over {} repetitions (layers from the median one):", traced.len());
    println!(
        "  closure: daemon.node {:.6} + bench (write {:.6} + read {:.6} + decode {:.6}) \
         + reactor gap {gap:.6} = table load {:.6} s",
        rp.node_s,
        live.spans.inject_write_s,
        live.spans.collect_read_s,
        live.spans.collect_decode_s,
        live.table_load_s
    );
    println!(
        "  inside daemon.node (replay): bgp decode {:.6} s, bgp encode {:.6} s, trie insert {:.6} s, \
         remove {:.6} s, lookup {:.1} ns",
        rp.bgp_decode_s, rp.bgp_encode_s, rp.trie_insert_s, rp.trie_remove_s, rp.trie_lookup_ns
    );
    println!(
        "  trace.overhead_s {:.6} (traced median {:.6} s, untraced median {:.6} s)",
        layers["trace.overhead_s"],
        median(&traced_loads),
        median(&plain_loads)
    );
    (layers, ops)
}
