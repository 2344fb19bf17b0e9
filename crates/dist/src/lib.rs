//! # pc-dist — the multi-process distributed runtime
//!
//! PR 2's `Tcp` exchange transport already speaks a real length-prefixed
//! wire protocol; this crate adds the three pieces that turn it from a
//! loopback simulation into a deployment where **every worker is its own
//! OS process**:
//!
//! * [`bootstrap`] — the out-of-process rendezvous. Rank 0 listens on a
//!   configurable address; every other rank connects, announces its
//!   data-plane address, and receives the full peer table plus its
//!   shipped partition. The control connections reuse the transport's
//!   frame protocol, so every blocking step is deadline-bounded and fails
//!   with a typed [`pc_bsp::TransportError`] instead of hanging.
//! * [`ship`] — partition shipping. Rank 0 loads (or generates) the
//!   graph, partitions it, and sends each rank the ownership table, the
//!   CSR **rows it owns** (`pc_graph::io::encode_rows`) and its own share
//!   of the mirror plan — non-zero ranks never touch the input file.
//! * [`launch`] — the process supervisor behind `pcgraph --ranks N`: it
//!   spawns one `pcgraph --rank i` child per rank, captures follower
//!   stderr, enforces a join deadline, and maps child exits to typed
//!   [`launch::LaunchError`]s. With a respawn budget
//!   ([`launch::LaunchSpec::max_respawns`], armed by checkpointing) it
//!   becomes a real supervisor: a non-zero rank that dies abnormally is
//!   respawned, the [`bootstrap`] recovery rendezvous re-admits it
//!   (surviving ranks re-JOIN over their kept control links with fresh
//!   data-plane addresses, the coordinator re-ships the dead rank's
//!   partition and rebroadcasts the peer table), and the cluster resumes
//!   from the last committed `pc_ckpt` checkpoint.
//! * [`session`] — one rank's side of all of it as one state machine:
//!   the bootstrap (rank 0 ships, everyone else finds the acting
//!   coordinator and joins), the recovery epoch after a data-plane fault,
//!   and the standby's takeover when the coordinator itself died. Plans
//!   are opaque bytes to it, every failure is a typed
//!   [`session::SessionError`], and its fault-injection tests drop every
//!   rank at every transition on loopback, without an engine or a
//!   process. [`Deadlines`] reads the `PC_DIST_*` environment once.
//!
//! The engine side lives in `pc_channels::engine`: a [`pc_bsp::Config`]
//! whose `dist` field carries a [`pc_bsp::RankRole`] drives exactly one
//! worker over a [`pc_bsp::Tcp::mesh`] and gathers results to rank 0
//! through the same transport. The multi-process arm of the conformance
//! suite pins the whole stack to the sequential reference: identical
//! values, bytes, messages, supersteps, rounds and pool traffic.

pub mod backoff;
pub mod bootstrap;
pub mod launch;
pub mod session;
pub mod ship;

pub use backoff::Backoff;
pub use bootstrap::{BootstrapOptions, Coordinator, Follower};
pub use launch::{pick_rendezvous_addr, LaunchError, LaunchSpec};
pub use session::{Deadlines, Session, SessionError, SessionSpec};
