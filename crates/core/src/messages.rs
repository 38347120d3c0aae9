//! The D-BGP update message: the unit the simulator's transport carries
//! between D-BGP speakers.
//!
//! Mirrors a BGP UPDATE — withdrawn prefixes plus advertisements — but
//! the advertisements are whole Integrated Advertisements. The codec is
//! length-prefixed so a stream can carry several messages back to back.
//! (During the transitional phase IAs can instead ride inside a classic
//! UPDATE as the optional-transitive attribute `attrs::code::IA_PAYLOAD`;
//! see [`crate::transitional`].)

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dbgp_wire::error::{WireError, WireResult};
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Prefix};

/// One D-BGP update: withdrawals plus new IAs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DbgpUpdate {
    /// Prefixes no longer reachable via the sender.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// New or replacing advertisements.
    pub ias: Vec<Ia>,
}

impl DbgpUpdate {
    /// An update advertising a single IA.
    pub fn announce(ia: Ia) -> Self {
        DbgpUpdate { withdrawn: Vec::new(), ias: vec![ia] }
    }

    /// An update withdrawing a single prefix.
    pub fn withdraw(prefix: Ipv4Prefix) -> Self {
        DbgpUpdate { withdrawn: vec![prefix], ias: Vec::new() }
    }

    /// Encode to a self-delimiting frame.
    pub fn encode(&self) -> Bytes {
        let bodies: Vec<Bytes> = self.ias.iter().map(Ia::encode).collect();
        Self::encode_frame(&self.withdrawn, &bodies)
    }

    /// Assemble the frame [`DbgpUpdate::encode`] would produce, from IA
    /// bodies that were already encoded (e.g. by an Adj-RIB-Out encode
    /// cache). Byte-identical to encoding the equivalent update, so a
    /// cached send path and a fresh one are indistinguishable on the
    /// wire.
    pub fn encode_frame(withdrawn: &[Ipv4Prefix], ia_bodies: &[Bytes]) -> Bytes {
        // Counts and lengths are varints of at most 10 bytes; a packed
        // prefix is at most 5.
        let capacity =
            20 + withdrawn.len() * 5 + ia_bodies.iter().map(|body| body.len() + 10).sum::<usize>();
        let mut buf = BytesMut::with_capacity(capacity);
        put_uvarint(&mut buf, withdrawn.len() as u64);
        for prefix in withdrawn {
            prefix.encode(&mut buf);
        }
        put_uvarint(&mut buf, ia_bodies.len() as u64);
        for body in ia_bodies {
            put_uvarint(&mut buf, body.len() as u64);
            buf.put_slice(body);
        }
        buf.freeze()
    }

    /// The frame `DbgpUpdate::announce(ia).encode()` produces, and the
    /// IA body as a view into its tail: one allocation, and every
    /// descriptor value copied once. The body is encoded behind reserved
    /// headroom; the frame header goes into the headroom once the body's
    /// length is known.
    pub fn encode_announce(ia: &Ia) -> (Bytes, Bytes) {
        // Withdrawn count 0, IA count 1, then a body length of at most
        // 10 varint bytes.
        const HEADROOM: usize = 12;
        let mut buf = BytesMut::new();
        buf.put_slice(&[0; HEADROOM]);
        ia.encode_into(&mut buf);
        let mut header = Vec::with_capacity(HEADROOM);
        put_uvarint(&mut header, 0);
        put_uvarint(&mut header, 1);
        put_uvarint(&mut header, (buf.len() - HEADROOM) as u64);
        let start = HEADROOM - header.len();
        buf[start..HEADROOM].copy_from_slice(&header);
        let frame = buf.freeze().slice(start..);
        let body = frame.slice(header.len()..);
        (frame, body)
    }

    /// Decode one frame (consumes exactly one update from `buf`).
    pub fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let nwith = get_uvarint(buf)? as usize;
        if nwith > buf.remaining() {
            return Err(WireError::MalformedIa("withdrawn count too large"));
        }
        let mut withdrawn = Vec::with_capacity(nwith);
        for _ in 0..nwith {
            withdrawn.push(Ipv4Prefix::decode(buf)?);
        }
        let nias = get_uvarint(buf)? as usize;
        if nias > buf.remaining() + 1 {
            return Err(WireError::MalformedIa("IA count too large"));
        }
        let mut ias = Vec::with_capacity(nias);
        for _ in 0..nias {
            let len = get_uvarint(buf)? as usize;
            if buf.remaining() < len {
                return Err(WireError::Truncated { context: "IA frame" });
            }
            let body = buf.split_to(len);
            ias.push(Ia::decode(body)?);
        }
        Ok(DbgpUpdate { withdrawn, ias })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn sample_ia(prefix: &str) -> Ia {
        let mut ia = Ia::originate(p(prefix), Ipv4Addr::new(1, 2, 3, 4));
        ia.prepend_as(42);
        ia
    }

    #[test]
    fn roundtrip_mixed_update() {
        let update = DbgpUpdate {
            withdrawn: vec![p("192.168.0.0/16"), p("10.0.0.0/8")],
            ias: vec![sample_ia("128.6.0.0/16"), sample_ia("203.0.113.0/24")],
        };
        let mut bytes = update.encode();
        let decoded = DbgpUpdate::decode(&mut bytes).unwrap();
        assert_eq!(decoded, update);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn roundtrip_back_to_back_frames() {
        let u1 = DbgpUpdate::announce(sample_ia("10.0.0.0/8"));
        let u2 = DbgpUpdate::withdraw(p("10.0.0.0/8"));
        let mut stream = BytesMut::new();
        stream.put_slice(&u1.encode());
        stream.put_slice(&u2.encode());
        let mut bytes = stream.freeze();
        assert_eq!(DbgpUpdate::decode(&mut bytes).unwrap(), u1);
        assert_eq!(DbgpUpdate::decode(&mut bytes).unwrap(), u2);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn truncation_detected() {
        let bytes = DbgpUpdate::announce(sample_ia("10.0.0.0/8")).encode();
        for cut in 0..bytes.len() {
            let mut partial = bytes.slice(..cut);
            assert!(DbgpUpdate::decode(&mut partial).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn encode_frame_matches_encode() {
        let update = DbgpUpdate {
            withdrawn: vec![p("192.168.0.0/16"), p("10.0.0.0/8")],
            ias: vec![sample_ia("128.6.0.0/16"), sample_ia("203.0.113.0/24")],
        };
        let bodies: Vec<Bytes> = update.ias.iter().map(Ia::encode).collect();
        let assembled = DbgpUpdate::encode_frame(&update.withdrawn, &bodies);
        assert_eq!(assembled, update.encode(), "cached-body assembly is byte-identical");
    }

    #[test]
    fn encode_announce_is_one_buffer_matching_encode() {
        let mut ia = sample_ia("128.6.0.0/16");
        ia.path_descriptors.push(dbgp_wire::PathDescriptor::new(
            dbgp_wire::ProtocolId(0x0BEE),
            1,
            vec![7u8; 40_000],
        ));
        let (frame, body) = DbgpUpdate::encode_announce(&ia);
        assert_eq!(frame, DbgpUpdate::announce(ia.clone()).encode());
        assert_eq!(body, ia.encode());
        let tail = frame.len() - body.len();
        assert_eq!(body.as_ptr(), frame[tail..].as_ptr(), "the body is the frame's tail");
    }

    #[test]
    fn empty_update_roundtrips() {
        let update = DbgpUpdate::default();
        let mut bytes = update.encode();
        assert_eq!(DbgpUpdate::decode(&mut bytes).unwrap(), update);
    }
}
