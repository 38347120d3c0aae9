//! Decision modules: the pluggable per-protocol path-selection units of
//! D-BGP's processing pipeline (paper §3.3, Figure 5).
//!
//! Each deployable protocol supplies one implementation of
//! [`DecisionModule`]. The module encapsulates the protocol's RIB and
//! path-selection algorithm, its protocol-specific import/export filters,
//! and (for two-way protocols like Wiser) its out-of-band mailbox.
//! Exactly one module is *active* per address range; the speaker routes
//! extracted control information to it and asks it to pick best paths.

use crate::neighbor::NeighborId;
use dbgp_telemetry::SelectionReason;
use dbgp_wire::{Ia, Ipv4Prefix, ProtocolId};
use std::cmp::Ordering;

/// One candidate path for a prefix, as presented to a decision module.
#[derive(Debug, Clone, Copy)]
pub struct CandidateIa<'a> {
    /// The neighbor the IA came from.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// The stored incoming IA (post-global-import-filters).
    pub ia: &'a Ia,
}

/// Context handed to a module when an IA is imported.
#[derive(Debug, Clone, Copy)]
pub struct ImportContext<'a> {
    /// The neighbor the IA arrived from.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
    /// The full IA (shared fields + every protocol's descriptors).
    pub ia: &'a Ia,
}

/// Context handed to a module when the factory builds the outgoing IA
/// for a selected best path.
#[derive(Debug, Clone, Copy)]
pub struct ExportContext {
    /// The neighbor the new IA will be sent to.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// Our own AS number.
    pub local_as: u32,
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
}

/// A protocol's decision module.
///
/// Implementations live in `dbgp-protocols`; `dbgp-core` ships only the
/// baseline [`BgpDecision`]. The paper's observation that deploying a new
/// protocol takes a few hundred lines (§6.1) corresponds to implementing
/// this trait.
pub trait DecisionModule {
    /// The protocol this module decides for.
    fn protocol(&self) -> ProtocolId;

    /// Protocol-specific import filter, consulted at selection time for
    /// each candidate. Returning `false` excludes the IA from this
    /// protocol's decision process (it is still stored and passed
    /// through). The default accepts everything.
    fn accept(&mut self, _ctx: ImportContext<'_>) -> bool {
        true
    }

    /// Select the best path among candidates for one prefix. `None`
    /// declares the prefix unreachable. Candidates are presented in
    /// deterministic (neighbor-id) order.
    fn select_best(&mut self, prefix: Ipv4Prefix, candidates: &[CandidateIa<'_>]) -> Option<usize>;

    /// Explain why `best` (an index returned by
    /// [`select_best`](Self::select_best) over the same candidate slice)
    /// won. Only called when telemetry is recording, so implementations
    /// may re-run comparisons. The default can only distinguish "it was
    /// the only candidate" from "the module preferred it".
    fn explain_best(
        &mut self,
        _prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
        _best: usize,
    ) -> SelectionReason {
        if candidates.len() == 1 {
            SelectionReason::OnlyCandidate
        } else {
            SelectionReason::ModulePreference
        }
    }

    /// Protocol-specific export filter: update this protocol's own
    /// descriptors on the outgoing IA (e.g., Wiser adds its internal cost
    /// to the path cost; BGPSec appends an attestation). Descriptors of
    /// other protocols have already been copied over by the factory and
    /// must not be touched.
    fn export(&mut self, _ia: &mut Ia, _ctx: ExportContext) {}

    /// True when this module's [`export`](Self::export) is a pure
    /// function of the outgoing IA — it neither varies by destination
    /// neighbor nor consults mutable module state. A speaker whose
    /// resident modules are all uniform builds one outgoing IA per
    /// (island-membership, capability) neighbor class and shares it
    /// across the fan-out instead of re-running the factory per
    /// neighbor. Default is the conservative `false`; modules that
    /// stamp per-neighbor data (BGPSec attestations) or live state
    /// (Wiser costs, R-BGP failover paths) must keep it that way.
    fn export_is_uniform(&self) -> bool {
        false
    }

    /// True when the speaker may maintain this module's best path
    /// *incrementally*: a new candidate that compares strictly worse
    /// than the installed best (per
    /// [`compare_candidates`](Self::compare_candidates)) is stored
    /// without re-running [`select_best`](Self::select_best), and a
    /// withdrawal of a non-best candidate skips the re-scan outright.
    ///
    /// Declaring `true` asserts three properties, each load-bearing for
    /// the skip to be observationally equivalent to a full scan (the
    /// DBF-algebra soundness line — a candidate that strictly loses to
    /// the incumbent cannot change a selection that picks the first
    /// minimum of a deterministic key):
    ///
    /// 1. `select_best` returns the **first** candidate minimal under
    ///    the order `compare_candidates` describes (the `min_by_key`
    ///    idiom), and `compare_candidates(a, b)` agrees with that key.
    /// 2. [`accept`](Self::accept) is **idempotent**: the full scan
    ///    re-consults it for every stored candidate on every redecide,
    ///    while the fast path consults it only for the new arrival.
    /// 3. Every piece of module state the key depends on is fenced by
    ///    [`selection_epoch`](Self::selection_epoch): whenever such
    ///    state changes, the epoch changes, which forces the next
    ///    decision for every prefix back through the full scan.
    ///
    /// The conservative default is `false` (always full-scan). Modules
    /// whose selection is not a total order over candidates — e.g.
    /// EQ-BGP's `max_by_key` bottleneck-bandwidth pick, which keys on
    /// no per-neighbor tie-break and takes the *last* maximum — must
    /// keep it that way.
    fn incremental_safe(&self) -> bool {
        false
    }

    /// Compare two candidates under this module's preference order:
    /// `Less` means `a` is preferred over `b` (the `min_by_key`
    /// convention every bundled module uses). Consulted by the speaker's
    /// incremental fast path only when
    /// [`incremental_safe`](Self::incremental_safe) is `true`; the
    /// default `Equal` can never prove an arrival strictly worse, so it
    /// forces the full scan even for a module that (incorrectly)
    /// declares itself safe without overriding this.
    fn compare_candidates(
        &mut self,
        _prefix: Ipv4Prefix,
        _a: &CandidateIa<'_>,
        _b: &CandidateIa<'_>,
    ) -> Ordering {
        Ordering::Equal
    }

    /// A counter that changes whenever module state consulted by the
    /// selection key changes (Wiser's scale recalibration, HLP's LSDB
    /// updates). The speaker records the epoch at each full scan and
    /// refuses the incremental fast path when the current epoch differs
    /// — a drifted key could make the full scan pick a different winner
    /// among the *already stored* candidates, which the fast path can
    /// never see. Stateless-key modules keep the default constant `0`.
    fn selection_epoch(&self) -> u64 {
        0
    }

    /// Deliver an out-of-band message (e.g., Wiser's cost exchange,
    /// MIRO's negotiation) addressed to this module. Default: ignored.
    fn deliver_oob(&mut self, _from: u32, _payload: &[u8]) {}

    /// Called when a prefix is originated locally so the module can
    /// attach its descriptors to the very first IA.
    fn decorate_origin(&mut self, _ia: &mut Ia, _local_as: u32) {}
}

/// The baseline tie-break key: shortest path vector, then lowest
/// neighbor AS, then lowest neighbor id. [`BgpDecision`] orders by
/// exactly this key; modules that apply their own criterion first
/// (ranked policies, bandwidth, cost) reuse it as the final tie-break so
/// every selection is a total order and replays are deterministic.
pub fn baseline_key(c: &CandidateIa<'_>) -> (usize, u32, u32) {
    (c.ia.hop_count(), c.neighbor_as, c.neighbor.0)
}

/// The baseline decision module: BGP's path selection reduced to its
/// policy-free core (shortest path vector, then lowest neighbor AS),
/// exactly the reduction the paper's simulator uses (§6.3).
#[derive(Debug, Default, Clone)]
pub struct BgpDecision;

impl BgpDecision {
    /// Create the baseline module.
    pub fn new() -> Self {
        BgpDecision
    }
}

impl DecisionModule for BgpDecision {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGP
    }

    // The baseline never touches outgoing IAs, so its export is trivially
    // neighbor- and state-independent.
    fn export_is_uniform(&self) -> bool {
        true
    }

    // Proof of the three incremental_safe obligations: (1) `select_best`
    // is `min_by_key(baseline_key)` and `compare_candidates` is exactly
    // `baseline_key` order — a strict total order (the neighbor-id rung
    // breaks every tie), so "first minimal" is "the unique minimum";
    // (2) `accept` is the side-effect-free default; (3) the key reads no
    // module state at all, so the constant epoch 0 fences nothing and
    // misses nothing.
    fn incremental_safe(&self) -> bool {
        true
    }

    fn compare_candidates(
        &mut self,
        _prefix: Ipv4Prefix,
        a: &CandidateIa<'_>,
        b: &CandidateIa<'_>,
    ) -> Ordering {
        baseline_key(a).cmp(&baseline_key(b))
    }

    fn select_best(
        &mut self,
        _prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
    ) -> Option<usize> {
        candidates.iter().enumerate().min_by_key(|(_, c)| baseline_key(c)).map(|(i, _)| i)
    }

    fn explain_best(
        &mut self,
        _prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
        best: usize,
    ) -> SelectionReason {
        if candidates.len() == 1 {
            return SelectionReason::OnlyCandidate;
        }
        let key = |c: &CandidateIa<'_>| (c.ia.hop_count(), c.neighbor_as, c.neighbor.0);
        let winner = key(&candidates[best]);
        let runner_up =
            candidates.iter().enumerate().filter(|(i, _)| *i != best).map(|(_, c)| key(c)).min();
        match runner_up {
            Some(r) if winner.0 != r.0 => SelectionReason::ShortestPath,
            Some(r) if winner.1 != r.1 => SelectionReason::NeighborAs,
            Some(_) => SelectionReason::NeighborId,
            None => SelectionReason::OnlyCandidate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ia(hops: &[u32]) -> Ia {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for &h in hops.iter().rev() {
            ia.prepend_as(h);
        }
        ia
    }

    #[test]
    fn bgp_module_prefers_shortest_path() {
        let short = ia(&[1, 2]);
        let long = ia(&[3, 4, 5]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 3, ia: &long },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &short },
        ];
        assert_eq!(BgpDecision::new().select_best(p("10.0.0.0/8"), &cands), Some(1));
    }

    #[test]
    fn bgp_module_ties_on_lowest_neighbor_as() {
        let a = ia(&[1, 2]);
        let b = ia(&[3, 4]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 9, ia: &a },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 4, ia: &b },
        ];
        assert_eq!(BgpDecision::new().select_best(p("10.0.0.0/8"), &cands), Some(1));
    }

    #[test]
    fn bgp_module_empty_is_none() {
        assert_eq!(BgpDecision::new().select_best(p("10.0.0.0/8"), &[]), None);
    }
}
