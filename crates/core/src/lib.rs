//! # pc-channels — the channel-based vertex-centric engine
//!
//! This crate is the paper's primary contribution: a replacement for
//! Pregel's monolithic message passing + aggregator interface in which all
//! communication flows through **channels** — typed, per-purpose message
//! containers that sit between the vertices and the per-worker raw buffers
//! (Fig. 2 of the paper).
//!
//! A program is an [`Algorithm`]: a per-vertex `compute()` plus a set of
//! channels. Each superstep the engine runs `compute()` on every active
//! vertex, then performs one or more *rounds* of
//! `serialize → buffer exchange → deserialize` over the active channels
//! until every channel's `again()` is false (the worker loop of Fig. 4).
//! Channels re-activate vertices, which simulates Pregel's voting-to-halt.
//!
//! ## Standard channels (Table I)
//!
//! * [`DirectMessage`] — point-to-point messages, iterated by the receiver;
//! * [`CombinedMessage`] — messages combined per receiver with a
//!   [`Combine`] function;
//! * [`Aggregator`] — global reduction, result visible next superstep.
//!
//! ## Optimized channels (Table II)
//!
//! * [`ScatterCombine`] — the *static messaging pattern*: every vertex
//!   sends one value along all its pre-registered edges each superstep; a
//!   by-destination CSR built once lets the worker produce
//!   receiver-combined messages with a linear scan instead of hashing
//!   (§IV-C1);
//! * [`RequestRespond`] — two-round "read an attribute of vertex X"
//!   conversations with per-worker request deduplication and positional
//!   (id-free) responses (§IV-C2);
//! * [`Propagation`] — label propagation with asynchronous intra-worker
//!   convergence: each worker pushes labels through its local subgraph as
//!   far as possible between exchanges, collapsing `O(diameter)` supersteps
//!   into a few rounds (§IV-C3); [`Propagation::weighted`] is the full
//!   Fig. 7 model with per-edge values;
//! * [`Mirror`] — sender-centric combining (ghost vertices) as a fourth
//!   optimized channel, demonstrating that new optimizations are "just
//!   another channel" (§IV-B).
//!
//! Channels *compose*: an algorithm lists one channel per communication
//! pattern (e.g. the S-V program composes `RequestRespond` +
//! `ScatterCombine` + `CombinedMessage` + `Aggregator`) and every pattern
//! is optimized independently — the composition the paper's title is about.

pub mod channel;
pub mod combine;
pub mod engine;
pub mod frontier;
pub mod optimized;
pub mod standard;

pub use channel::{Channel, ChannelSet, DeserializeCx, SerializeCx, VertexCtx, WorkerEnv};
pub use combine::Combine;
pub use engine::{run, Algorithm, Output};

/// Implement the multi-process value hooks of [`Algorithm`]
/// (`encode_value`/`decode_value`) by delegating to the value type's
/// [`pc_bsp::Codec`] implementation. Expand inside an `impl Algorithm`
/// block:
///
/// ```ignore
/// impl Algorithm for MyAlgo {
///     type Value = f64;
///     pc_channels::dist_value_via_codec!();
///     // channels(), compute() ...
/// }
/// ```
#[macro_export]
macro_rules! dist_value_via_codec {
    () => {
        fn encode_value(value: &Self::Value, buf: &mut ::std::vec::Vec<u8>) {
            ::pc_bsp::Codec::encode(value, buf)
        }
        fn decode_value(r: &mut ::pc_bsp::Reader<'_>) -> Self::Value {
            ::pc_bsp::Codec::decode(r)
        }
    };
}
pub use optimized::mirror::Mirror;
pub use optimized::propagation::Propagation;
pub use optimized::reqresp::RequestRespond;
pub use optimized::scatter::ScatterCombine;
pub use standard::aggregator::Aggregator;
pub use standard::combined::CombinedMessage;
pub use standard::direct::DirectMessage;
