//! The repository's benchmark: two workloads that drive the D-BGP
//! simulator and the `dbgpd` daemon end to end, with correctness checks
//! outside every timed region and a traced mode that splits the
//! end-to-end time into layers. See `README.md` for the metric map.

pub mod host;
pub mod relay;
pub mod report;
pub mod rng;
pub mod sims;
