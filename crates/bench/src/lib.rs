//! # pc-bench — workloads and table harnesses
//!
//! The [`datasets`] module generates the scaled-down stand-ins for the
//! paper's Table III datasets, and [`table`] provides the row-printing
//! helpers shared by the per-table bench binaries (see `benches/`).

pub mod datasets;
pub mod table;
