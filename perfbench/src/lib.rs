//! End-to-end and per-layer benchmark of the DSM cluster simulator.
//!
//! The benchmark links the simulator's crates as an outside consumer and
//! measures each layer only through its public functions.  See
//! `perfbench/MODEL.md` for the workloads, the metrics and what each layer
//! metric should move.

pub mod batch;
pub mod gate;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["relocate-paper", "coherence-wide", "serve-sweep"];
