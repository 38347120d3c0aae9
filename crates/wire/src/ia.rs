//! Integrated Advertisements (IAs): D-BGP's multi-protocol advertisement
//! container (paper §3.2, Figures 4 and 7).
//!
//! An IA describes one path to one baseline-format destination prefix and
//! carries, for every protocol running on that path:
//!
//! * a **path vector** whose elements may be AS numbers, island IDs or
//!   AS_SETs — the common loop-avoidance denominator all protocols share
//!   (requirement G-R5);
//! * **island memberships** mapping contiguous path-vector entries to the
//!   island they belong to, which tells sources how to layer
//!   multi-network-protocol headers (G-R4);
//! * **path descriptors**: per-protocol attributes of the whole path
//!   (e.g., Wiser's scaled path cost, BGPSec's attestation). A descriptor
//!   names *all* protocols that share it, which is what makes critical
//!   fixes nearly free in the overhead analysis of §6.2;
//! * **island descriptors**: attributes of one island on the path (e.g.,
//!   a SCION island's within-island paths, a MIRO island's service
//!   portal, a Wiser island's cost-exchange portal).
//!
//! The wire form is a tag-length-value stream with varint tags and
//! lengths. Records with unknown tags are preserved byte-for-byte and
//! re-emitted on encode, so even the *container* is forward-compatible —
//! a D-BGP speaker can pass through IA extensions it has never heard of.

use crate::attrs::Origin;
use crate::error::{WireError, WireResult};
use crate::ids::{IslandId, ProtocolId};
use crate::prefix::{Ipv4Addr, Ipv4Prefix};
use crate::varint::{get_uvarint, put_uvarint, uvarint_len};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Well-known descriptor keys for the protocols this workspace ships.
///
/// A real deployment would carve these out of an IANA-style registry next
/// to the protocol IDs; the numbers only need to be unique per protocol.
pub mod dkey {
    /// Wiser: accumulated, scaled path cost (`u64`).
    pub const WISER_PATH_COST: u16 = 1;
    /// Wiser: IPv4 address of the island's cost-exchange portal.
    pub const WISER_PORTAL: u16 = 2;
    /// BGPSec-lite: attestation chain.
    pub const BGPSEC_ATTESTATION: u16 = 3;
    /// SCION-like: list of within-island paths (border-router IDs).
    pub const SCION_PATHS: u16 = 4;
    /// MIRO: IPv4 address of the island's service portal.
    pub const MIRO_PORTAL: u16 = 5;
    /// Pathlet Routing: within-island pathlets (FID + hop list).
    pub const PATHLET_PATHLETS: u16 = 6;
    /// EQ-BGP archetype: bottleneck bandwidth observed so far (`u64`).
    pub const EQBGP_BOTTLENECK_BW: u16 = 7;
    /// R-BGP: backup-path availability marker.
    pub const RBGP_BACKUP: u16 = 8;
    /// Generic: address-format gateway lookup service (paper §3.2's
    /// stub-island address-mapping example).
    pub const ADDR_LOOKUP_SERVICE: u16 = 9;
}

/// One element of an IA path vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathElem {
    /// An ordinary AS number.
    As(u32),
    /// An island that chose to abstract away its interior (paper §3.2):
    /// loop detection then works at island granularity.
    Island(IslandId),
    /// An unordered set of ASes, used by islands that list member ASes
    /// inside an AS_SET so gulf ASes do not see an overly long path.
    AsSet(Vec<u32>),
}

impl PathElem {
    /// Contribution to path length for BGP-style shortest-path
    /// comparison: sets and islands count once.
    pub fn hop_count(&self) -> usize {
        1
    }
}

impl fmt::Display for PathElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathElem::As(asn) => write!(f, "{asn}"),
            PathElem::Island(id) => write!(f, "{id}"),
            PathElem::AsSet(ases) => {
                let strs: Vec<String> = ases.iter().map(u32::to_string).collect();
                write!(f, "{{{}}}", strs.join(","))
            }
        }
    }
}

/// Declares that path-vector entries `[start, end)` belong to `island`.
///
/// Gulf ASes appear in no membership; singleton islands map one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IslandMembership {
    /// The island the entries belong to.
    pub island: IslandId,
    /// First covered path-vector index (0 = most recently prepended).
    pub start: u16,
    /// One past the last covered index.
    pub end: u16,
}

/// A per-protocol attribute of the entire path (paper Figure 4, "Path
/// descriptors").
///
/// `protocols` lists every protocol sharing this field — e.g. origin and
/// next-hop are shared by BGP, Wiser and BGPSec, which is why critical
/// fixes add so little to IA size (§6.2's `CFu` sharing factor).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathDescriptor {
    /// Protocols that share this descriptor (never empty).
    pub protocols: Vec<ProtocolId>,
    /// Descriptor key, scoped to the owning protocol(s); see [`dkey`].
    pub key: u16,
    /// Opaque value, interpreted by the owning protocols' decision
    /// modules. Shared and immutable: cloning the descriptor (or the IA
    /// holding it) bumps a refcount instead of copying the bytes.
    pub value: Bytes,
}

impl PathDescriptor {
    /// A descriptor owned by a single protocol.
    pub fn new(protocol: ProtocolId, key: u16, value: impl Into<Bytes>) -> Self {
        PathDescriptor { protocols: vec![protocol], key, value: value.into() }
    }

    /// A descriptor shared by several protocols.
    pub fn shared(protocols: Vec<ProtocolId>, key: u16, value: impl Into<Bytes>) -> Self {
        debug_assert!(!protocols.is_empty());
        PathDescriptor { protocols, key, value: value.into() }
    }

    /// Does `protocol` own (or co-own) this descriptor?
    pub fn owned_by(&self, protocol: ProtocolId) -> bool {
        self.protocols.contains(&protocol)
    }
}

/// A per-island attribute (paper Figure 4, "Island descriptors"): service
/// portals, within-island paths, pathlets, address-lookup services.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IslandDescriptor {
    /// Which island this describes.
    pub island: IslandId,
    /// The protocol the descriptor belongs to.
    pub protocol: ProtocolId,
    /// Descriptor key; see [`dkey`].
    pub key: u16,
    /// Opaque value, shared and immutable like [`PathDescriptor::value`].
    pub value: Bytes,
}

impl IslandDescriptor {
    /// Construct an island descriptor.
    pub fn new(island: IslandId, protocol: ProtocolId, key: u16, value: impl Into<Bytes>) -> Self {
        IslandDescriptor { island, protocol, key, value: value.into() }
    }
}

/// A record whose tag this implementation does not know. Preserved and
/// re-emitted verbatim so future IA extensions survive transit through
/// today's speakers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnknownRecord {
    /// The unrecognized tag.
    pub tag: u64,
    /// Raw record payload.
    pub data: Bytes,
}

/// An Integrated Advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ia {
    /// Destination, in the baseline address format (paper: IPv4).
    pub prefix: Ipv4Prefix,
    /// Baseline origin marker (shared field in Figure 4).
    pub origin: Origin,
    /// Baseline next hop (shared field in Figure 4).
    pub next_hop: Ipv4Addr,
    /// Optional multi-exit discriminator, kept for baseline parity.
    pub med: Option<u32>,
    /// The shared path vector, most recently prepended element first.
    pub path_vector: Vec<PathElem>,
    /// Which path-vector entries belong to which island.
    pub memberships: Vec<IslandMembership>,
    /// Per-protocol path attributes.
    pub path_descriptors: Vec<PathDescriptor>,
    /// Per-island attributes.
    pub island_descriptors: Vec<IslandDescriptor>,
    /// Unrecognized records preserved for pass-through.
    pub unknown_records: Vec<UnknownRecord>,
}

impl Ia {
    /// An IA originated by the destination itself: empty path vector.
    pub fn originate(prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Self {
        Ia {
            prefix,
            origin: Origin::Igp,
            next_hop,
            med: None,
            path_vector: Vec::new(),
            memberships: Vec::new(),
            path_descriptors: Vec::new(),
            island_descriptors: Vec::new(),
            unknown_records: Vec::new(),
        }
    }

    /// Start building an IA fluently.
    pub fn builder(prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> IaBuilder {
        IaBuilder { ia: Ia::originate(prefix, next_hop) }
    }

    /// Path length for BGP-style comparison (AS_SETs and islands count 1).
    pub fn hop_count(&self) -> usize {
        self.path_vector.iter().map(PathElem::hop_count).sum()
    }

    /// Loop check: does the path already mention this AS number?
    pub fn contains_as(&self, asn: u32) -> bool {
        self.path_vector.iter().any(|e| match e {
            PathElem::As(a) => *a == asn,
            PathElem::AsSet(ases) => ases.contains(&asn),
            PathElem::Island(_) => false,
        })
    }

    /// Loop check: does the path already mention this island?
    pub fn contains_island(&self, island: IslandId) -> bool {
        self.path_vector.iter().any(|e| matches!(e, PathElem::Island(i) if *i == island))
            || self.memberships.iter().any(|m| m.island == island)
    }

    /// Prepend an AS number (the normal per-hop operation), shifting all
    /// membership ranges right by one.
    pub fn prepend_as(&mut self, asn: u32) {
        self.path_vector.insert(0, PathElem::As(asn));
        for m in &mut self.memberships {
            m.start += 1;
            m.end += 1;
        }
    }

    /// Record that the frontmost `count` path-vector entries belong to
    /// `island` (the "state island membership" egress filter of §3.3).
    pub fn declare_membership(&mut self, island: IslandId, count: u16) -> WireResult<()> {
        if count as usize > self.path_vector.len() {
            return Err(WireError::BadMembershipRange);
        }
        self.memberships.push(IslandMembership { island, start: 0, end: count });
        Ok(())
    }

    /// Replace the frontmost `count` entries with a single island ID (the
    /// "abstract away intra-island details" egress filter of §3.3).
    ///
    /// Loop detection thereafter works at island granularity for those
    /// hops, which is exactly the path-diversity trade-off §3.2 describes.
    pub fn abstract_island(&mut self, island: IslandId, count: u16) -> WireResult<()> {
        let count = count as usize;
        if count > self.path_vector.len() {
            return Err(WireError::BadMembershipRange);
        }
        self.path_vector.splice(0..count, [PathElem::Island(island)]);
        let removed = count as i32 - 1;
        self.memberships.retain(|m| m.start as usize >= count);
        for m in &mut self.memberships {
            m.start = (m.start as i32 - removed) as u16;
            m.end = (m.end as i32 - removed) as u16;
        }
        self.memberships.push(IslandMembership { island, start: 0, end: 1 });
        Ok(())
    }

    /// All path descriptors owned (or co-owned) by `protocol`.
    pub fn path_descriptors_for(
        &self,
        protocol: ProtocolId,
    ) -> impl Iterator<Item = &PathDescriptor> {
        self.path_descriptors.iter().filter(move |d| d.owned_by(protocol))
    }

    /// The first path descriptor with this protocol + key, if any.
    pub fn path_descriptor(&self, protocol: ProtocolId, key: u16) -> Option<&PathDescriptor> {
        self.path_descriptors.iter().find(|d| d.owned_by(protocol) && d.key == key)
    }

    /// All island descriptors owned by `protocol`.
    pub fn island_descriptors_for(
        &self,
        protocol: ProtocolId,
    ) -> impl Iterator<Item = &IslandDescriptor> {
        self.island_descriptors.iter().filter(move |d| d.protocol == protocol)
    }

    /// The set of protocols mentioned anywhere in this IA — what G-R4
    /// exposes to islands and gulf ASes.
    pub fn protocols_on_path(&self) -> Vec<ProtocolId> {
        let mut out: Vec<ProtocolId> = Vec::new();
        let mut push = |p: ProtocolId| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        push(ProtocolId::BGP);
        for d in &self.path_descriptors {
            for &p in &d.protocols {
                push(p);
            }
        }
        for d in &self.island_descriptors {
            push(d.protocol);
        }
        out
    }

    /// Drop every descriptor and unknown record that does not belong to
    /// one of `keep`. This is what a *BGP-baseline* Internet does at every
    /// gulf hop (§6.3's comparison case) and what a gulf operator's
    /// global filter does to a protocol it has blacklisted.
    pub fn retain_protocols(&mut self, keep: &[ProtocolId]) {
        self.path_descriptors.retain(|d| d.protocols.iter().any(|p| keep.contains(p)));
        self.island_descriptors.retain(|d| keep.contains(&d.protocol));
        self.unknown_records.clear();
    }

    /// Remove descriptors belonging to the given protocols, keeping
    /// everything else (including unknown records). This is the gulf
    /// operator's per-protocol blacklist filter of §3.3 — "they would
    /// only need to know the protocol ID to do so".
    pub fn strip_protocols(&mut self, remove: &[ProtocolId]) {
        for d in &mut self.path_descriptors {
            d.protocols.retain(|p| !remove.contains(p));
        }
        self.path_descriptors.retain(|d| !d.protocols.is_empty());
        self.island_descriptors.retain(|d| !remove.contains(&d.protocol));
    }

    /// The island that `path_vector[idx]` belongs to, if declared.
    pub fn island_of(&self, idx: u16) -> Option<IslandId> {
        if let Some(PathElem::Island(id)) = self.path_vector.get(idx as usize) {
            return Some(*id);
        }
        self.memberships.iter().find(|m| m.start <= idx && idx < m.end).map(|m| m.island)
    }

    /// Validate structural invariants (membership ranges inside the path
    /// vector, non-empty descriptor protocol lists).
    pub fn validate(&self) -> WireResult<()> {
        let len = self.path_vector.len() as u16;
        for m in &self.memberships {
            if m.start >= m.end || m.end > len {
                return Err(WireError::BadMembershipRange);
            }
        }
        for d in &self.path_descriptors {
            if d.protocols.is_empty() {
                return Err(WireError::MalformedIa("path descriptor with no protocols"));
            }
        }
        Ok(())
    }

    // ----- wire codec -------------------------------------------------

    /// Encode to the TLV wire form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Append the TLV wire form to `buf`. Only the small record headers
    /// are staged; every descriptor value and unknown record is copied
    /// once, straight into `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.wire_size_estimate());
        let mut scratch = BytesMut::with_capacity(32);
        let s = &mut scratch;
        put_record(buf, s, tag::PREFIX, |b| self.prefix.encode(b));
        put_record(buf, s, tag::ORIGIN, |b| b.put_u8(self.origin as u8));
        put_record(buf, s, tag::NEXT_HOP, |b| b.put_u32(self.next_hop.0));
        if let Some(med) = self.med {
            put_record(buf, s, tag::MED, |b| put_uvarint(b, med as u64));
        }
        for elem in &self.path_vector {
            put_record(buf, s, tag::PATH_ELEM, |b| match elem {
                PathElem::As(asn) => {
                    b.put_u8(0);
                    put_uvarint(b, *asn as u64);
                }
                PathElem::Island(id) => {
                    b.put_u8(1);
                    put_uvarint(b, id.0 as u64);
                }
                PathElem::AsSet(ases) => {
                    b.put_u8(2);
                    put_uvarint(b, ases.len() as u64);
                    for asn in ases {
                        put_uvarint(b, *asn as u64);
                    }
                }
            });
        }
        for m in &self.memberships {
            put_record(buf, s, tag::MEMBERSHIP, |b| {
                put_uvarint(b, m.island.0 as u64);
                put_uvarint(b, m.start as u64);
                put_uvarint(b, m.end as u64);
            });
        }
        for d in &self.path_descriptors {
            put_value_record(buf, s, tag::PATH_DESC, &d.value, |b| {
                put_uvarint(b, d.protocols.len() as u64);
                for p in &d.protocols {
                    put_uvarint(b, p.0 as u64);
                }
                put_uvarint(b, d.key as u64);
                put_uvarint(b, d.value.len() as u64);
            });
        }
        for d in &self.island_descriptors {
            put_value_record(buf, s, tag::ISLAND_DESC, &d.value, |b| {
                put_uvarint(b, d.island.0 as u64);
                put_uvarint(b, d.protocol.0 as u64);
                put_uvarint(b, d.key as u64);
                put_uvarint(b, d.value.len() as u64);
            });
        }
        for r in &self.unknown_records {
            put_uvarint(buf, r.tag);
            put_uvarint(buf, r.data.len() as u64);
            buf.put_slice(&r.data);
        }
    }

    /// Decode from the TLV wire form. Descriptor values and unknown
    /// records are views into `buf`'s allocation, not copies, so a
    /// holder that outlives the frame should re-home them (the D-BGP
    /// speaker's IA database does).
    pub fn decode(mut buf: Bytes) -> WireResult<Self> {
        let mut prefix = None;
        let mut origin = Origin::Incomplete;
        let mut next_hop = Ipv4Addr(0);
        let mut med = None;
        let mut path_vector = Vec::new();
        let mut memberships = Vec::new();
        let mut path_descriptors = Vec::new();
        let mut island_descriptors = Vec::new();
        let mut unknown_records = Vec::new();

        while buf.has_remaining() {
            let t = get_uvarint(&mut buf)?;
            let len = get_uvarint(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(WireError::Truncated { context: "IA record body" });
            }
            let mut body = buf.split_to(len);
            match t {
                tag::PREFIX => prefix = Some(Ipv4Prefix::decode(&mut body)?),
                tag::ORIGIN => {
                    if body.remaining() < 1 {
                        return Err(WireError::MalformedIa("empty origin"));
                    }
                    origin = Origin::from_u8(body.get_u8())?;
                }
                tag::NEXT_HOP => {
                    if body.remaining() < 4 {
                        return Err(WireError::MalformedIa("short next hop"));
                    }
                    next_hop = Ipv4Addr(body.get_u32());
                }
                tag::MED => {
                    let v = get_uvarint(&mut body)?;
                    med = Some(u32::try_from(v).map_err(|_| WireError::Overflow("med"))?);
                }
                tag::PATH_ELEM => {
                    if body.remaining() < 1 {
                        return Err(WireError::MalformedIa("empty path element"));
                    }
                    let kind = body.get_u8();
                    path_vector.push(match kind {
                        0 => PathElem::As(read_u32(&mut body)?),
                        1 => PathElem::Island(IslandId(read_u32(&mut body)?)),
                        2 => {
                            let n = get_uvarint(&mut body)? as usize;
                            if n > body.remaining() {
                                return Err(WireError::MalformedIa("AS_SET count too large"));
                            }
                            let mut ases = Vec::with_capacity(n);
                            for _ in 0..n {
                                ases.push(read_u32(&mut body)?);
                            }
                            PathElem::AsSet(ases)
                        }
                        _ => return Err(WireError::MalformedIa("unknown path element kind")),
                    });
                }
                tag::MEMBERSHIP => {
                    let island = IslandId(read_u32(&mut body)?);
                    let start = read_u16(&mut body)?;
                    let end = read_u16(&mut body)?;
                    memberships.push(IslandMembership { island, start, end });
                }
                tag::PATH_DESC => {
                    let nproto = get_uvarint(&mut body)? as usize;
                    // Each protocol ID is a varint (>= 1 byte) and the key
                    // and value-length fields still have to follow.
                    if nproto == 0 || nproto.saturating_add(2) > body.remaining() {
                        return Err(WireError::MalformedIa("bad descriptor protocol count"));
                    }
                    let mut protocols = Vec::with_capacity(nproto);
                    for _ in 0..nproto {
                        protocols.push(ProtocolId(read_u16(&mut body)?));
                    }
                    let key = read_u16(&mut body)?;
                    let vlen = get_uvarint(&mut body)? as usize;
                    if body.remaining() < vlen {
                        return Err(WireError::MalformedIa("short descriptor value"));
                    }
                    let value = body.split_to(vlen);
                    path_descriptors.push(PathDescriptor { protocols, key, value });
                }
                tag::ISLAND_DESC => {
                    let island = IslandId(read_u32(&mut body)?);
                    let protocol = ProtocolId(read_u16(&mut body)?);
                    let key = read_u16(&mut body)?;
                    let vlen = get_uvarint(&mut body)? as usize;
                    if body.remaining() < vlen {
                        return Err(WireError::MalformedIa("short island descriptor value"));
                    }
                    let value = body.split_to(vlen);
                    island_descriptors.push(IslandDescriptor { island, protocol, key, value });
                }
                other => unknown_records.push(UnknownRecord { tag: other, data: body }),
            }
        }

        let prefix = prefix.ok_or(WireError::MalformedIa("missing prefix record"))?;
        let ia = Ia {
            prefix,
            origin,
            next_hop,
            med,
            path_vector,
            memberships,
            path_descriptors,
            island_descriptors,
            unknown_records,
        };
        ia.validate()?;
        Ok(ia)
    }

    /// Exact encoded size in bytes (computed by encoding; used by the
    /// overhead experiments and the stress-test workload).
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }

    /// An upper bound on the encoded size of an IA without AS_SETs, so
    /// encoding one allocates once.
    fn wire_size_estimate(&self) -> usize {
        64 + self.path_vector.len() * 8
            + self.memberships.len() * 14
            + self
                .path_descriptors
                .iter()
                .map(|d| d.value.len() + 3 * d.protocols.len() + 20)
                .sum::<usize>()
            + self.island_descriptors.iter().map(|d| d.value.len() + 24).sum::<usize>()
            + self.unknown_records.iter().map(|r| r.data.len() + 20).sum::<usize>()
    }
}

impl fmt::Display for Ia {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IA {} via {} path [", self.prefix, self.next_hop)?;
        let mut first = true;
        for e in &self.path_vector {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{e}")?;
        }
        write!(f, "] protos {{")?;
        let mut first = true;
        for p in self.protocols_on_path() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Fluent construction helper for tests, examples and workload
/// generators.
pub struct IaBuilder {
    ia: Ia,
}

impl IaBuilder {
    /// Append an AS to the *end* of the path vector (origin side).
    pub fn as_hop(mut self, asn: u32) -> Self {
        self.ia.path_vector.push(PathElem::As(asn));
        self
    }

    /// Append an island-ID element to the end of the path vector.
    pub fn island_hop(mut self, island: IslandId) -> Self {
        self.ia.path_vector.push(PathElem::Island(island));
        self
    }

    /// Set the MED.
    pub fn med(mut self, med: u32) -> Self {
        self.ia.med = Some(med);
        self
    }

    /// Set the origin marker.
    pub fn origin(mut self, origin: Origin) -> Self {
        self.ia.origin = origin;
        self
    }

    /// Declare island membership over `[start, end)`.
    pub fn membership(mut self, island: IslandId, start: u16, end: u16) -> Self {
        self.ia.memberships.push(IslandMembership { island, start, end });
        self
    }

    /// Attach a single-protocol path descriptor.
    pub fn path_descriptor(
        mut self,
        protocol: ProtocolId,
        key: u16,
        value: impl Into<Bytes>,
    ) -> Self {
        self.ia.path_descriptors.push(PathDescriptor::new(protocol, key, value));
        self
    }

    /// Attach a shared path descriptor.
    pub fn shared_descriptor(
        mut self,
        protocols: Vec<ProtocolId>,
        key: u16,
        value: impl Into<Bytes>,
    ) -> Self {
        self.ia.path_descriptors.push(PathDescriptor::shared(protocols, key, value));
        self
    }

    /// Attach an island descriptor.
    pub fn island_descriptor(
        mut self,
        island: IslandId,
        protocol: ProtocolId,
        key: u16,
        value: impl Into<Bytes>,
    ) -> Self {
        self.ia.island_descriptors.push(IslandDescriptor::new(island, protocol, key, value));
        self
    }

    /// Finish, validating invariants.
    pub fn build(self) -> WireResult<Ia> {
        self.ia.validate()?;
        Ok(self.ia)
    }
}

mod tag {
    pub const PREFIX: u64 = 1;
    pub const ORIGIN: u64 = 2;
    pub const NEXT_HOP: u64 = 3;
    pub const MED: u64 = 4;
    pub const PATH_ELEM: u64 = 5;
    pub const MEMBERSHIP: u64 = 6;
    pub const PATH_DESC: u64 = 7;
    pub const ISLAND_DESC: u64 = 8;
}

/// Append one `tag | len | body` record. The body is staged in
/// `scratch` (cleared, capacity kept) so a full [`Ia::encode`] reuses
/// one staging allocation across all of its records instead of paying
/// a fresh buffer per record.
fn put_record(
    buf: &mut BytesMut,
    scratch: &mut BytesMut,
    tag: u64,
    body: impl FnOnce(&mut BytesMut),
) {
    put_value_record(buf, scratch, tag, &[], body);
}

/// Append one `tag | len | head value` record: only `head` is staged in
/// `scratch`, and `value` is copied once, straight into `buf`.
fn put_value_record(
    buf: &mut BytesMut,
    scratch: &mut BytesMut,
    tag: u64,
    value: &[u8],
    head: impl FnOnce(&mut BytesMut),
) {
    scratch.clear();
    head(scratch);
    put_uvarint(buf, tag);
    put_uvarint(buf, (scratch.len() + value.len()) as u64);
    buf.put_slice(scratch.as_slice());
    buf.put_slice(value);
    debug_assert!(uvarint_len(tag) >= 1);
}

fn read_u32(buf: &mut Bytes) -> WireResult<u32> {
    let v = get_uvarint(buf)?;
    u32::try_from(v).map_err(|_| WireError::Overflow("u32 field"))
}

fn read_u16(buf: &mut Bytes) -> WireResult<u16> {
    let v = get_uvarint(buf)?;
    u16::try_from(v).map_err(|_| WireError::Overflow("u16 field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// The Figure-4 IA from the paper: a path through a Wiser singleton
    /// island (AS 3), a SCION island (A), a MIRO island (G), a gulf AS
    /// (4000), and a BGPSec island (K).
    fn figure4_ia() -> Ia {
        let island_a = IslandId(1001);
        let island_g = IslandId(1007);
        let island_k = IslandId(1011);
        Ia::builder(p("128.6.0.0/32"), Ipv4Addr::new(195, 2, 27, 0))
            .origin(Origin::Egp)
            .as_hop(3)
            .island_hop(island_a)
            .as_hop(16)
            .as_hop(19)
            .as_hop(4000)
            .membership(island_g, 2, 4)
            .membership(island_k, 5, 6)
            .as_hop(77)
            .shared_descriptor(
                vec![ProtocolId::WISER],
                dkey::WISER_PATH_COST,
                100u64.to_be_bytes().to_vec(),
            )
            .path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION, b"<signatures>".to_vec())
            .island_descriptor(
                island_a,
                ProtocolId::SCION,
                dkey::SCION_PATHS,
                b"br70 br50 br10 br1;br70 br20 br5 br1".to_vec(),
            )
            .island_descriptor(
                island_g,
                ProtocolId::MIRO,
                dkey::MIRO_PORTAL,
                Ipv4Addr::new(173, 82, 2, 0).octets().to_vec(),
            )
            .island_descriptor(
                IslandId::from_as(3),
                ProtocolId::WISER,
                dkey::WISER_PORTAL,
                Ipv4Addr::new(163, 42, 5, 0).octets().to_vec(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn figure4_roundtrip() {
        let ia = figure4_ia();
        let decoded = Ia::decode(ia.encode()).unwrap();
        assert_eq!(decoded, ia);
    }

    #[test]
    fn figure4_protocols_on_path() {
        let protos = figure4_ia().protocols_on_path();
        for expect in [
            ProtocolId::BGP,
            ProtocolId::WISER,
            ProtocolId::BGPSEC,
            ProtocolId::SCION,
            ProtocolId::MIRO,
        ] {
            assert!(protos.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn loop_detection_over_as_and_islands() {
        let ia = figure4_ia();
        assert!(ia.contains_as(4000));
        assert!(ia.contains_as(3));
        assert!(!ia.contains_as(9999));
        assert!(ia.contains_island(IslandId(1001)));
        assert!(ia.contains_island(IslandId(1007)), "membership-declared islands count");
        assert!(!ia.contains_island(IslandId(5)));
    }

    #[test]
    fn as_set_members_count_for_loops() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.path_vector.push(PathElem::AsSet(vec![10, 20, 30]));
        assert!(ia.contains_as(20));
        assert_eq!(ia.hop_count(), 1);
    }

    #[test]
    fn prepend_shifts_memberships() {
        let mut ia = figure4_ia();
        let before: Vec<_> = ia.memberships.clone();
        ia.prepend_as(42);
        assert_eq!(ia.path_vector[0], PathElem::As(42));
        for (b, a) in before.iter().zip(&ia.memberships) {
            assert_eq!(a.start, b.start + 1);
            assert_eq!(a.end, b.end + 1);
        }
        assert!(ia.validate().is_ok());
    }

    #[test]
    fn declare_membership_front() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.prepend_as(30);
        ia.prepend_as(20);
        ia.prepend_as(10);
        ia.declare_membership(IslandId(500), 2).unwrap();
        assert_eq!(ia.island_of(0), Some(IslandId(500)));
        assert_eq!(ia.island_of(1), Some(IslandId(500)));
        assert_eq!(ia.island_of(2), None);
    }

    #[test]
    fn declare_membership_rejects_overrun() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.prepend_as(10);
        assert_eq!(ia.declare_membership(IslandId(1), 2), Err(WireError::BadMembershipRange));
    }

    #[test]
    fn abstract_island_replaces_front_entries() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for asn in [5, 4, 3, 2, 1] {
            ia.prepend_as(asn);
        }
        // Path is now [1 2 3 4 5]; abstract the front three into island 900.
        ia.abstract_island(IslandId(900), 3).unwrap();
        assert_eq!(
            ia.path_vector,
            vec![PathElem::Island(IslandId(900)), PathElem::As(4), PathElem::As(5)]
        );
        assert_eq!(ia.hop_count(), 3);
        assert_eq!(ia.island_of(0), Some(IslandId(900)));
        assert!(ia.contains_island(IslandId(900)));
        // The abstracted ASes no longer trip AS-level loop detection —
        // the path-diversity trade-off of §3.2.
        assert!(!ia.contains_as(1));
        assert!(ia.validate().is_ok());
    }

    #[test]
    fn abstract_island_shifts_later_memberships() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for asn in [6, 5, 4, 3, 2, 1] {
            ia.prepend_as(asn);
        }
        ia.memberships.push(IslandMembership { island: IslandId(777), start: 4, end: 6 });
        ia.abstract_island(IslandId(900), 2).unwrap();
        // Two entries became one: the old [4,6) range must now be [3,5).
        let m = ia.memberships.iter().find(|m| m.island == IslandId(777)).unwrap();
        assert_eq!((m.start, m.end), (3, 5));
        assert!(ia.validate().is_ok());
    }

    #[test]
    fn retain_protocols_strips_foreign_descriptors() {
        let mut ia = figure4_ia();
        ia.retain_protocols(&[ProtocolId::BGP, ProtocolId::WISER]);
        assert!(ia.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).is_some());
        assert!(ia.path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION).is_none());
        assert!(ia.island_descriptors_for(ProtocolId::SCION).next().is_none());
        assert!(ia.island_descriptors_for(ProtocolId::WISER).next().is_some());
    }

    #[test]
    fn shared_descriptor_visible_to_all_owners() {
        let ia = Ia::builder(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1))
            .shared_descriptor(
                vec![ProtocolId::BGP, ProtocolId::WISER, ProtocolId::BGPSEC],
                99,
                vec![1],
            )
            .build()
            .unwrap();
        assert!(ia.path_descriptor(ProtocolId::BGP, 99).is_some());
        assert!(ia.path_descriptor(ProtocolId::WISER, 99).is_some());
        assert!(ia.path_descriptor(ProtocolId::BGPSEC, 99).is_some());
        assert!(ia.path_descriptor(ProtocolId::SCION, 99).is_none());
    }

    #[test]
    fn unknown_records_survive_roundtrip() {
        let mut ia = figure4_ia();
        ia.unknown_records.push(UnknownRecord { tag: 4242, data: Bytes::from_static(b"future") });
        let decoded = Ia::decode(ia.encode()).unwrap();
        assert_eq!(decoded.unknown_records, ia.unknown_records);
    }

    #[test]
    fn decoded_values_are_views_into_the_frame() {
        let mut ia = figure4_ia();
        ia.unknown_records.push(UnknownRecord { tag: 4242, data: Bytes::from_static(b"future") });
        let frame = ia.encode();
        let decoded = Ia::decode(frame.clone()).unwrap();
        let inside = frame.as_ptr_range();
        let values = decoded.path_descriptors.iter().map(|d| &d.value);
        let values = values.chain(decoded.island_descriptors.iter().map(|d| &d.value));
        for value in values.chain(decoded.unknown_records.iter().map(|r| &r.data)) {
            assert!(
                inside.contains(&value.as_ptr()),
                "value {value:?} was copied out of the frame"
            );
        }
        assert_eq!(decoded.encode(), frame, "decode then encode is byte-identical");
    }

    #[test]
    fn decode_rejects_missing_prefix() {
        let mut buf = BytesMut::new();
        let mut scratch = BytesMut::new();
        put_record(&mut buf, &mut scratch, tag::ORIGIN, |b| b.put_u8(0));
        assert!(matches!(Ia::decode(buf.freeze()), Err(WireError::MalformedIa(_))));
    }

    #[test]
    fn decode_rejects_bad_membership_range() {
        let mut ia = figure4_ia();
        ia.memberships.push(IslandMembership { island: IslandId(1), start: 90, end: 91 });
        assert_eq!(Ia::decode(ia.encode()), Err(WireError::BadMembershipRange));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = figure4_ia().encode();
        // Chopping the stream at any interior point must error, never
        // panic and never loop.
        for cut in 1..bytes.len() {
            let _ = Ia::decode(bytes.slice(..cut));
        }
    }

    #[test]
    fn med_roundtrips() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.med = Some(4096);
        assert_eq!(Ia::decode(ia.encode()).unwrap().med, Some(4096));
    }

    #[test]
    fn display_lists_protocols() {
        let s = figure4_ia().to_string();
        assert!(s.contains("128.6.0.0/32"), "{s}");
        assert!(s.contains("Wiser"), "{s}");
        assert!(s.contains("SCION"), "{s}");
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = figure4_ia().wire_size();
        let mut big = figure4_ia();
        big.path_descriptors.push(PathDescriptor::new(ProtocolId(50), 1, vec![0u8; 1000]));
        assert!(big.wire_size() > small + 1000);
    }
}
