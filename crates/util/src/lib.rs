//! `repro-util` — dependency-free support code shared across the workspace.
//!
//! The build environment is fully offline, so the usual crates.io helpers
//! (serde, rayon, rand, proptest) are replaced by the small modules
//! here:
//!
//! * [`json`] — a minimal JSON value tree + pretty printer and the
//!   [`json::ToJson`] trait, covering exactly what the `repro` harness
//!   serializes;
//! * [`par`] — [`par::par_map`], a bounded-parallelism ordered map over a
//!   slice (the sweep-driver fan-out primitive);
//! * [`rng`] — a deterministic SplitMix64 generator for the randomized
//!   differential tests;
//! * [`metrics`] — the process-wide instrumentation core: counters, gauges,
//!   histograms, rolling windows and per-job span trees behind one level
//!   gate (off by default, observably free while off);
//! * [`fnv`] — FNV-1a 64, the one stable hash the workspace keys with.

pub mod fnv;
pub mod json;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod timing;

pub use json::{Json, JsonError, ToJson};
pub use par::{par_map, par_map_mut, Parker};
pub use rng::Rng;
