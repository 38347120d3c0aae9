//! The IA database: every Integrated Advertisement received and retained,
//! keyed by (neighbor, prefix).
//!
//! The IA factory (paper §3.3, step 6) indexes into this database when it
//! builds the outgoing IA for a selected best path, so control
//! information for protocols the local AS does not run is copied through
//! verbatim — the pass-through feature.

use crate::neighbor::NeighborId;
use bytes::Bytes;
use dbgp_rib::PrefixTrie;
use dbgp_wire::{Ia, Ipv4Prefix};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store of received IAs. Entries are interned behind `Arc` so the
/// decision process, the chosen-route table and the factory can hold
/// references without deep-cloning path/island descriptors. The outer
/// map is a `BTreeMap` so candidate enumeration is already in neighbor
/// order — the decision process runs once per received IA, and a sort
/// there would be pure hot-path overhead — and each per-neighbor table
/// is a `PrefixTrie`, so exact lookups cost prefix depth, not log of
/// the table size.
#[derive(Debug, Clone, Default)]
pub struct IaDb {
    entries: BTreeMap<NeighborId, PrefixTrie<Arc<Ia>>>,
}

impl IaDb {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an IA, replacing the neighbor's previous one for the prefix
    /// (implicit withdraw). Returns the replaced IA.
    pub fn insert(&mut self, neighbor: NeighborId, ia: Ia) -> Option<Arc<Ia>> {
        self.entries.entry(neighbor).or_default().insert(ia.prefix, Arc::new(ia))
    }

    /// Store an arriving IA like [`insert`](Self::insert), after making
    /// its descriptor values and unknown records share the buffers this
    /// database already holds for the prefix. Each value is compared
    /// with the one at the same position in at most two held IAs:
    /// `best` (the installed best path, if any) and the neighbor's
    /// previous advertisement. A match reuses the held buffer; a miss
    /// copies the value out of its wire frame once, so a stored IA never
    /// pins a frame. No hash and no table beyond the database itself:
    /// a pass-through value is held once per prefix however many
    /// neighbors advertise it.
    pub fn insert_shared(
        &mut self,
        neighbor: NeighborId,
        mut ia: Ia,
        best: Option<&Ia>,
    ) -> Option<Arc<Ia>> {
        let previous = self.get(neighbor, &ia.prefix);
        let previous = previous.filter(|p| !best.is_some_and(|b| std::ptr::eq(*p, b)));
        let held = [best, previous];
        let held = || held.iter().flatten();
        for (i, d) in ia.path_descriptors.iter_mut().enumerate() {
            share(&mut d.value, held().filter_map(|h| h.path_descriptors.get(i)).map(|h| &h.value));
        }
        for (i, d) in ia.island_descriptors.iter_mut().enumerate() {
            let held = held().filter_map(|h| h.island_descriptors.get(i)).map(|h| &h.value);
            share(&mut d.value, held);
        }
        for (i, r) in ia.unknown_records.iter_mut().enumerate() {
            share(&mut r.data, held().filter_map(|h| h.unknown_records.get(i)).map(|h| &h.data));
        }
        self.insert(neighbor, ia)
    }

    /// Remove the IA a neighbor advertised for a prefix.
    pub fn remove(&mut self, neighbor: NeighborId, prefix: &Ipv4Prefix) -> Option<Arc<Ia>> {
        self.entries.get_mut(&neighbor).and_then(|t| t.remove(prefix))
    }

    /// Drop everything from a neighbor (session reset); returns affected
    /// prefixes.
    pub fn drop_neighbor(&mut self, neighbor: NeighborId) -> Vec<Ipv4Prefix> {
        self.entries.remove(&neighbor).map(|t| t.keys().copied().collect()).unwrap_or_default()
    }

    /// The IA `neighbor` advertised for `prefix`.
    pub fn get(&self, neighbor: NeighborId, prefix: &Ipv4Prefix) -> Option<&Ia> {
        self.entries.get(&neighbor).and_then(|t| t.get(prefix)).map(Arc::as_ref)
    }

    /// The stored `Arc` for `(neighbor, prefix)`, for callers that
    /// intern the winner (the speaker's scratch-buffer selection keeps
    /// only borrowed candidate views and re-fetches the winning entry
    /// here for its refcount bump).
    pub fn get_arc(&self, neighbor: NeighborId, prefix: &Ipv4Prefix) -> Option<&Arc<Ia>> {
        self.entries.get(&neighbor).and_then(|t| t.get(prefix))
    }

    /// All (neighbor, IA) pairs for a prefix, in neighbor order (the
    /// outer map iterates sorted, so no extra sort is needed).
    /// Allocation-free: this runs once per received IA.
    pub fn candidates(
        &self,
        prefix: &Ipv4Prefix,
    ) -> impl Iterator<Item = (NeighborId, &Arc<Ia>)> + '_ {
        let prefix = *prefix;
        self.entries.iter().filter_map(move |(n, t)| t.get(&prefix).map(|ia| (*n, ia)))
    }

    /// Every distinct prefix known, ascending and deduplicated.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut out: Vec<Ipv4Prefix> =
            self.entries.values().flat_map(|t| t.keys().copied()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Total stored IA count.
    pub fn len(&self) -> usize {
        self.entries.values().map(PrefixTrie::len).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total wire bytes of all stored IAs — the "state kept at a tier-1"
    /// quantity of the §6.2 overhead analysis.
    pub fn total_wire_bytes(&self) -> usize {
        self.entries.values().flat_map(|t| t.values()).map(|ia| ia.wire_size()).sum()
    }

    /// Arena bytes held by the per-neighbor tries (IA bodies are
    /// accounted by [`total_wire_bytes`](Self::total_wire_bytes)).
    pub fn memory_bytes(&self) -> usize {
        self.entries.values().map(PrefixTrie::memory_bytes).sum()
    }
}

/// Point `value` at the first held buffer with the same bytes, or else
/// at a private copy of it.
fn share<'a>(value: &mut Bytes, held: impl Iterator<Item = &'a Bytes>) {
    for h in held {
        if h == value {
            *value = h.clone();
            return;
        }
    }
    *value = Bytes::copy_from_slice(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ia(prefix: &str, first_hop: u32) -> Ia {
        let mut ia = Ia::originate(p(prefix), Ipv4Addr::new(1, 1, 1, 1));
        ia.prepend_as(first_hop);
        ia
    }

    #[test]
    fn insert_get_remove() {
        let mut db = IaDb::new();
        assert!(db.insert(NeighborId(1), ia("10.0.0.0/8", 5)).is_none());
        assert!(db.get(NeighborId(1), &p("10.0.0.0/8")).is_some());
        let replaced = db.insert(NeighborId(1), ia("10.0.0.0/8", 6));
        assert_eq!(replaced.unwrap().path_vector.len(), 1);
        assert_eq!(db.len(), 1);
        assert!(db.remove(NeighborId(1), &p("10.0.0.0/8")).is_some());
        assert!(db.is_empty());
    }

    #[test]
    fn candidates_ordered_by_neighbor() {
        let mut db = IaDb::new();
        db.insert(NeighborId(3), ia("10.0.0.0/8", 3));
        db.insert(NeighborId(1), ia("10.0.0.0/8", 1));
        db.insert(NeighborId(2), ia("192.168.0.0/16", 2));
        let cands: Vec<u32> = db.candidates(&p("10.0.0.0/8")).map(|(n, _)| n.0).collect();
        assert_eq!(cands, vec![1, 3]);
    }

    #[test]
    fn drop_neighbor_reports_prefixes() {
        let mut db = IaDb::new();
        db.insert(NeighborId(1), ia("10.0.0.0/8", 1));
        db.insert(NeighborId(1), ia("192.168.0.0/16", 1));
        let mut dropped = db.drop_neighbor(NeighborId(1));
        dropped.sort();
        assert_eq!(dropped, vec![p("10.0.0.0/8"), p("192.168.0.0/16")]);
    }

    #[test]
    fn total_wire_bytes_sums_entries() {
        let mut db = IaDb::new();
        assert_eq!(db.total_wire_bytes(), 0);
        db.insert(NeighborId(1), ia("10.0.0.0/8", 1));
        let one = db.total_wire_bytes();
        db.insert(NeighborId(2), ia("10.0.0.0/8", 2));
        assert_eq!(db.total_wire_bytes(), 2 * one);
    }
}
