//! The optimized channels of Table II. Each is a drop-in replacement for a
//! message-passing pattern, carrying one targeted optimization (§IV-C):
//!
//! * [`scatter::ScatterCombine`] — static messaging pattern, routes kept
//!   as a by-destination CSR, sender-side combining by linear scan;
//! * [`reqresp::RequestRespond`] — request deduplication per worker and
//!   positional responses, fixing high-degree responder imbalance;
//! * [`propagation::Propagation`] — intra-worker asynchronous label
//!   propagation, collapsing diameter-bound supersteps;
//! * [`mirror::Mirror`] — sender-centric combining (ghost vertices) as a
//!   composable channel, which Pregel+ only offers as a non-composable
//!   execution mode.

pub(crate) mod flat;
pub mod mirror;
pub mod propagation;
pub mod reqresp;
pub mod scatter;
#[cfg(test)]
pub(crate) mod testkit;
