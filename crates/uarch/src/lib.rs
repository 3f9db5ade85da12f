//! zEC12-like front-end microarchitecture substrate.
//!
//! The paper evaluates the bulk-preload predictor inside IBM's C++
//! performance model of the zEC12. This crate provides the equivalent
//! substrate for the reproduction: a finite L1 instruction cache with an
//! infinite (fixed-latency) L2 behind it per the paper's methodology
//! (§4: "finite models of the first level caches are used ... upon any
//! first level cache miss, a second level cache hit is assumed"), a
//! cycle-accounting front-end [`core::CoreModel`] that couples decode to
//! the asynchronous lookahead predictor, the penalty model, and the
//! bad-branch-outcome taxonomy of Figure 4 ([`classify`]).

#![warn(missing_docs)]

pub mod cache;
pub mod classify;
pub mod config;
pub mod core;
pub mod oracle;
pub mod penalty;

pub use config::UarchConfig;
pub use core::{CoreModel, CoreResult, LaneGroup, ReplayPlan, WindowMeasure};
