//! UPDATE packing through the in-process [`Node`]: the frames each peer
//! receives, pinned byte for byte.
//!
//! The routing core packs the exports of every call into multi-NLRI
//! UPDATEs. These tests pin what that means on the wire:
//!
//! * a late-joining peer's initial table transfer and a `peer_down`
//!   failover over a table with many attribute blocks produce an exact,
//!   reconstructible frame sequence;
//! * the frames depend only on the inbound message sequence, not on how
//!   the transport chunked the bytes;
//! * applying the packed frames yields the same per-peer table as the
//!   one-prefix-per-frame sequence.
//!
//! `late_peer_and_peer_down_at_100k_routes` is the same scenario at a
//! full-table scale; it is ignored by default and run in release mode
//! by CI under a wall-clock timeout, which catches a return to
//! quadratic grouping:
//!
//! ```sh
//! cargo test --release -p dbgp-daemon --test node_packing -- --ignored --nocapture
//! ```

use dbgp_daemon::{DaemonConfig, Node, NodeOutput};
use dbgp_session::{ConnDir, PeerId, StreamReassembler};
use dbgp_wire::attrs::Origin;
use dbgp_wire::message::{MAX_MESSAGE_LEN, TYPE_UPDATE};
use dbgp_wire::{AsPath, BgpMessage, Ipv4Addr, Ipv4Prefix, OpenMsg, PathAttribute, UpdateMsg};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

const DAEMON_AS: u32 = 65000;
const DAEMON_ID: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// A per-peer table built by applying UPDATEs in order.
type Table = BTreeMap<Ipv4Prefix, Vec<PathAttribute>>;

/// A node with passive neighbors of the given ASes (peer `i` is
/// `PeerId(i)`), recording every UPDATE frame it sends per peer.
struct Harness {
    node: Node,
    asns: Vec<u32>,
    sent: BTreeMap<PeerId, Vec<Vec<u8>>>,
}

impl Harness {
    fn new(asns: &[u32]) -> Self {
        let mut text = format!("local-as {DAEMON_AS}\nrouter-id {DAEMON_ID}\n");
        for asn in asns {
            text.push_str(&format!("neighbor as={asn} passive\n"));
        }
        let cfg = DaemonConfig::parse(&text).expect("valid config");
        let mut h =
            Harness { node: Node::from_config(&cfg), asns: asns.to_vec(), sent: BTreeMap::new() };
        let outs = h.node.start(0);
        h.record(outs);
        h
    }

    fn record(&mut self, outs: Vec<NodeOutput>) {
        for out in outs {
            if let NodeOutput::Send(pid, _, bytes) = out {
                if bytes.len() > 18 && bytes[18] == TYPE_UPDATE {
                    self.sent.entry(pid).or_default().push(bytes.to_vec());
                }
            }
        }
    }

    /// Accept peer `i`'s connection; the stream it then sends starts
    /// with [`hello`].
    fn accept(&mut self, i: usize) {
        let outs = self.node.accepted(0, PeerId(i as u32));
        self.record(outs);
    }

    /// Feed `bytes` from peer `i` in reads of `chunk` bytes.
    fn feed(&mut self, i: usize, bytes: &[u8], chunk: usize) {
        for piece in bytes.chunks(chunk) {
            let outs = self.node.bytes_in(1, PeerId(i as u32), ConnDir::In, piece);
            self.record(outs);
        }
    }

    /// Accept peer `i` and complete its handshake.
    fn establish(&mut self, i: usize) {
        self.accept(i);
        let hello = hello(self.asns[i]);
        self.feed(i, &hello, usize::MAX);
        assert!(self.node.summary(PeerId(i as u32)).is_some(), "peer {i} established");
    }

    /// Drop peer `i`'s connection.
    fn close(&mut self, i: usize) {
        let outs = self.node.conn_closed(2, PeerId(i as u32), ConnDir::In);
        self.record(outs);
    }

    /// Take the UPDATE frames sent to peer `i` so far.
    fn take(&mut self, i: usize) -> Vec<Vec<u8>> {
        self.sent.remove(&PeerId(i as u32)).unwrap_or_default()
    }
}

/// OPEN then KEEPALIVE from `asn`.
fn hello(asn: u32) -> Vec<u8> {
    let id = Ipv4Addr::new(10, 0, 1, (asn - DAEMON_AS) as u8);
    let mut bytes = BgpMessage::Open(OpenMsg::new(asn, 90, id)).encode(true).to_vec();
    bytes.extend_from_slice(&BgpMessage::Keepalive.encode(true));
    bytes
}

fn encode(updates: &[UpdateMsg]) -> Vec<u8> {
    updates.iter().flat_map(|u| BgpMessage::Update(u.clone()).encode(true).to_vec()).collect()
}

fn decode(frame: &[u8]) -> UpdateMsg {
    match StreamReassembler::decode_all(frame, true).expect("frame decodes").as_slice() {
        [BgpMessage::Update(u)] => u.clone(),
        other => panic!("expected one UPDATE, got {other:?}"),
    }
}

/// Apply frames in order: withdrawals, then announcements.
fn apply(table: &mut Table, frames: &[Vec<u8>]) {
    for frame in frames {
        let u = decode(frame);
        for p in &u.withdrawn {
            table.remove(p);
        }
        for p in &u.nlri {
            table.insert(*p, u.attributes.clone());
        }
    }
}

/// 64-bit FNV-1a over a frame sequence.
fn digest(frames: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in frames.iter().flatten() {
        h = (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn attrs(path: Vec<u32>, next_hop: Ipv4Addr, med: Option<u32>) -> Vec<PathAttribute> {
    let mut attrs = vec![
        PathAttribute::Origin(Origin::Igp),
        PathAttribute::AsPath(AsPath::from_sequence(path)),
        PathAttribute::NextHop(next_hop),
    ];
    attrs.extend(med.map(PathAttribute::Med));
    attrs
}

/// `10.0.0.0/24 + i`: distinct /24s in ascending order.
fn prefix(i: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr(0x0a00_0000 + (i << 8)), 24).expect("valid prefix")
}

/// The attribute block of prefix `i`. The multiplier scatters each
/// block's members over the whole table, so groups interleave in
/// prefix order.
fn block_of(i: u32, blocks: u32) -> u32 {
    ((u64::from(i) * 7919) % u64::from(blocks)) as u32
}

/// The AS path the peer `asn` announces for block `b`; `padding`
/// extra hops make it lose to a shorter announcement.
fn block_path(asn: u32, b: u32, padding: u32) -> Vec<u32> {
    let mut path = vec![asn, 100 + b, 70_000 + b % 7];
    path.extend((0..padding).map(|k| 80_000 + k));
    path
}

/// A table of `routes` prefixes under `blocks` attribute blocks, as
/// peer `asn` announces it: one packed run per block, blocks in order.
fn table(asn: u32, routes: u32, blocks: u32, padding: u32) -> Vec<UpdateMsg> {
    let mut members: Vec<Vec<Ipv4Prefix>> = vec![Vec::new(); blocks as usize];
    for i in 0..routes {
        members[block_of(i, blocks) as usize].push(prefix(i));
    }
    let next_hop = Ipv4Addr::new(10, 0, 1, (asn - DAEMON_AS) as u8);
    let mut out = Vec::new();
    for (b, nlri) in members.iter().enumerate() {
        let path = block_path(asn, b as u32, padding);
        out.extend(UpdateMsg::pack_announcements(
            nlri,
            attrs(path, next_hop, Some(b as u32)),
            true,
        ));
    }
    out
}

/// What an eBGP neighbor receives for peer `asn`'s block `b`.
fn exported(asn: u32, b: u32, padding: u32) -> Vec<PathAttribute> {
    let mut path = block_path(asn, b, padding);
    path.insert(0, DAEMON_AS);
    attrs(path, DAEMON_ID, None)
}

/// The exact frames packing `routes` under first-seen grouping yields:
/// prefixes in ascending order, one packed run per exported attribute
/// block, runs in order of each block's lowest prefix.
fn expected_frames(asn: u32, routes: u32, blocks: u32, padding: u32) -> Vec<Vec<u8>> {
    let mut order: Vec<u32> = Vec::new();
    let mut members: HashMap<u32, Vec<Ipv4Prefix>> = HashMap::new();
    for i in 0..routes {
        let b = block_of(i, blocks);
        let slot = members.entry(b).or_default();
        if slot.is_empty() {
            order.push(b);
        }
        slot.push(prefix(i));
    }
    let mut frames = Vec::new();
    for b in order {
        let packed = UpdateMsg::pack_announcements(&members[&b], exported(asn, b, padding), true);
        frames.extend(packed.into_iter().map(|u| BgpMessage::Update(u).encode(true).to_vec()));
    }
    frames
}

/// Peers of the failover scenario: a primary and a backup upstream, a
/// collector that is up from the start and a peer that joins late.
const PRIMARY: usize = 0;
const BACKUP: usize = 1;
const COLLECTOR: usize = 2;
const LATE: usize = 3;
const FAILOVER_ASNS: [u32; 4] = [65001, 65003, 65002, 65004];

/// What the failover scenario sends, with how long the two measured
/// calls took.
struct Failover {
    late_dump: Vec<Vec<u8>>,
    late_dump_s: f64,
    collector_failover: Vec<Vec<u8>>,
    late_failover: Vec<Vec<u8>>,
    peer_down_s: f64,
}

/// The primary and the backup both announce the whole table (the
/// backup's paths one hop longer); a late peer then comes up and
/// receives the initial table transfer; then the primary goes down
/// and every route fails over to the backup's.
fn failover(routes: u32, blocks: u32) -> Failover {
    let mut h = Harness::new(&FAILOVER_ASNS);
    for i in [PRIMARY, BACKUP, COLLECTOR] {
        h.establish(i);
    }
    h.feed(PRIMARY, &encode(&table(FAILOVER_ASNS[PRIMARY], routes, blocks, 0)), 4096);
    h.feed(BACKUP, &encode(&table(FAILOVER_ASNS[BACKUP], routes, blocks, 1)), 4096);
    h.take(COLLECTOR);

    h.accept(LATE);
    let start = Instant::now();
    h.feed(LATE, &hello(FAILOVER_ASNS[LATE]), usize::MAX);
    let late_dump_s = start.elapsed().as_secs_f64();
    let late_dump = h.take(LATE);

    let start = Instant::now();
    h.close(PRIMARY);
    let peer_down_s = start.elapsed().as_secs_f64();
    Failover {
        late_dump,
        late_dump_s,
        collector_failover: h.take(COLLECTOR),
        late_failover: h.take(LATE),
        peer_down_s,
    }
}

#[test]
fn late_peer_and_peer_down_pack_by_attribute_block() {
    let (routes, blocks) = (3_000, 400);
    let run = failover(routes, blocks);
    let primary = FAILOVER_ASNS[PRIMARY];
    let backup = FAILOVER_ASNS[BACKUP];

    // The late peer's transfer: the primary's routes, one packed run
    // per attribute block in first-seen order.
    assert_eq!(run.late_dump, expected_frames(primary, routes, blocks, 0));
    assert_eq!(run.late_dump.len(), 400);
    assert_eq!(digest(&run.late_dump), 0x74ed_adde_2683_0e12);

    // The failover replaces every route with the backup's, packed the
    // same way, and withdraws nothing.
    for frames in [&run.collector_failover, &run.late_failover] {
        assert_eq!(*frames, expected_frames(backup, routes, blocks, 1));
    }
    assert_eq!(digest(&run.collector_failover), 0x103c_8125_93ff_aa5e);

    let mut table = Table::new();
    apply(&mut table, &run.late_dump);
    apply(&mut table, &run.late_failover);
    let want: Table =
        (0..routes).map(|i| (prefix(i), exported(backup, block_of(i, blocks), 1))).collect();
    assert_eq!(table, want);
}

#[test]
#[ignore = "full-table scale; run in release mode"]
fn late_peer_and_peer_down_at_100k_routes() {
    let (routes, blocks) = (100_000, 11_785);
    let run = failover(routes, blocks);
    println!(
        "{routes} routes, {blocks} attribute blocks: late-peer transfer {:.3} s \
         ({} frames), peer_down {:.3} s ({} frames to the collector)",
        run.late_dump_s,
        run.late_dump.len(),
        run.peer_down_s,
        run.collector_failover.len(),
    );
    let announced = |frames: &[Vec<u8>]| frames.iter().map(|f| decode(f).nlri.len()).sum::<usize>();
    assert_eq!(announced(&run.late_dump), routes as usize);
    assert_eq!(announced(&run.collector_failover), routes as usize);
    assert_eq!(announced(&run.late_failover), routes as usize);
}

/// The injector's whole byte stream: handshake, a table, then changes
/// that withdraw, re-announce and move prefixes.
fn injector_stream(asn: u32) -> Vec<u8> {
    let mut bytes = hello(asn);
    bytes.extend(encode(&table(asn, 2_000, 150, 0)));
    let hop = Ipv4Addr::new(10, 0, 1, 1);
    let changes = [
        UpdateMsg::withdraw((0..40).map(prefix).collect()),
        UpdateMsg::announce((20..60).map(prefix).collect(), attrs(vec![asn, 9], hop, None)),
        UpdateMsg {
            withdrawn: vec![prefix(61), prefix(62)],
            attributes: attrs(vec![asn, 10], hop, Some(3)),
            nlri: vec![prefix(62), prefix(5)],
        },
    ];
    bytes.extend(encode(&changes));
    bytes
}

#[test]
fn frames_do_not_depend_on_read_boundaries() {
    // Peer 0 injects; peer 1 (eBGP) and peer 2 (iBGP) receive.
    let asns = [65001, 65002, DAEMON_AS];
    let stream = injector_stream(asns[0]);
    let run = |chunk: usize| {
        let mut h = Harness::new(&asns);
        h.establish(1);
        h.establish(2);
        h.accept(0);
        h.feed(0, &stream, chunk);
        (h.take(1), h.take(2))
    };
    let whole = run(usize::MAX);
    assert!(whole.0.len() > 100 && whole.1.len() > 100, "both peers receive the table");
    assert_eq!(run(4096), whole, "4 KB reads");
    assert_eq!(run(1), whole, "1-byte reads");
}

/// Split every UPDATE into one-prefix UPDATEs in processing order:
/// each withdrawal, then each announcement.
fn one_prefix_each(updates: &[UpdateMsg]) -> Vec<UpdateMsg> {
    let mut out = Vec::new();
    for u in updates {
        out.extend(u.withdrawn.iter().map(|p| UpdateMsg::withdraw(vec![*p])));
        out.extend(u.nlri.iter().map(|p| UpdateMsg::announce(vec![*p], u.attributes.clone())));
    }
    out
}

/// Feed `updates` from peer 0, one message per read, and return the
/// frames peers 1 (eBGP) and 2 (iBGP) received.
fn relay(updates: &[UpdateMsg]) -> [Vec<Vec<u8>>; 2] {
    let mut h = Harness::new(&[65001, 65002, DAEMON_AS]);
    for i in 0..3 {
        h.establish(i);
    }
    for u in updates {
        h.feed(0, &encode(std::slice::from_ref(u)), usize::MAX);
    }
    [h.take(1), h.take(2)]
}

/// The packed frames and the one-prefix-per-frame sequence of the same
/// changes build the same table at every receiving peer.
fn assert_same_tables(updates: &[UpdateMsg]) -> [Vec<Vec<u8>>; 2] {
    let packed = relay(updates);
    let single = relay(&one_prefix_each(updates));
    for (p, s) in packed.iter().zip(&single) {
        for frame in s {
            let u = decode(frame);
            assert_eq!(u.withdrawn.len() + u.nlri.len(), 1, "reference carries one prefix a frame");
        }
        assert!(p.iter().all(|f| f.len() <= MAX_MESSAGE_LEN));
        let (mut pt, mut st) = (Table::new(), Table::new());
        apply(&mut pt, p);
        apply(&mut st, s);
        assert_eq!(pt, st);
    }
    packed
}

#[test]
fn packing_keeps_the_table_when_one_update_withdraws_and_announces_a_prefix() {
    let hop = Ipv4Addr::new(10, 0, 1, 1);
    let updates = [
        UpdateMsg::announce((0..8).map(prefix).collect(), attrs(vec![65001, 7], hop, None)),
        UpdateMsg {
            withdrawn: vec![prefix(3), prefix(4), prefix(9)],
            attributes: attrs(vec![65001, 8], hop, None),
            nlri: vec![prefix(4), prefix(9)],
        },
    ];
    let [ebgp, _] = assert_same_tables(&updates);
    // The second UPDATE reaches the eBGP peer as a withdrawal of prefix
    // 3, then one announcement of prefixes 4 and 9 under the new block.
    let tail: Vec<UpdateMsg> = ebgp[ebgp.len() - 2..].iter().map(|f| decode(f)).collect();
    assert_eq!(tail[0].withdrawn, vec![prefix(3)]);
    assert!(tail[0].nlri.is_empty());
    assert!(tail[1].withdrawn.is_empty());
    assert_eq!(tail[1].nlri, vec![prefix(4), prefix(9)]);
}

#[test]
fn packing_lets_the_last_duplicate_nlri_win() {
    let hop = Ipv4Addr::new(10, 0, 1, 1);
    let updates = [
        UpdateMsg::announce(vec![prefix(1), prefix(2)], attrs(vec![65001, 7], hop, None)),
        UpdateMsg::announce(
            vec![prefix(2), prefix(3), prefix(2), prefix(1)],
            attrs(vec![65001, 8], hop, None),
        ),
    ];
    let [ebgp, _] = assert_same_tables(&updates);
    let last = decode(ebgp.last().expect("frames"));
    assert_eq!(last.nlri, vec![prefix(1), prefix(2), prefix(3)], "each prefix once, ascending");
}

#[test]
fn packing_splits_a_full_frame_at_the_size_limit() {
    // A full inbound frame of /24s (4 bytes each): the exported block
    // is longer by the prepended AS, so the relay cannot fit it in one.
    let hop = Ipv4Addr::new(10, 0, 1, 1);
    let block = attrs(vec![65001, 7, 8], hop, None);
    let nlri: Vec<Ipv4Prefix> = (0..1_100).map(prefix).collect();
    let mut inbound = UpdateMsg::pack_announcements(&nlri, block, true);
    inbound.truncate(1);
    assert!(encode(&inbound).len() > MAX_MESSAGE_LEN - 4);
    let [ebgp, ibgp] = assert_same_tables(&inbound);
    assert_eq!(ebgp.len(), 2, "the eBGP export splits at the frame limit");
    assert_eq!(ibgp.len(), 1, "the unmodified iBGP export still fits");
    let relayed: Vec<Ipv4Prefix> = ebgp.iter().flat_map(|f| decode(f).nlri).collect();
    assert_eq!(relayed, inbound[0].nlri);
}
