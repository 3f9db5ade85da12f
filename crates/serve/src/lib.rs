//! # zbp-serve — simulation serving over the cell cache
//!
//! A long-lived daemon front end to the experiment registry: clients
//! POST an experiment request and the daemon serves its cells from the
//! cheapest source available — a bounded in-memory memo of the warm
//! cells it has read, the content-addressed cell cache at O(lookup),
//! another client's identical in-flight computation (dedup by cell
//! key), a concurrent process's computation (the cache's advisory claim
//! files), or a bounded worker pool that computes cold cells with the
//! same lane-batched, trace-store-warm replay path the CLI uses.
//! Progress streams back as NDJSON events with per-cell provenance; the
//! final artifact is produced by the registry's own run path over the
//! warm cache, so a daemon response is bit-identical to a `zbp-cli
//! experiment run` of the same request.
//!
//! ```text
//! zbp-serve --addr 127.0.0.1:7878 --cache-dir results/cache
//! curl -s localhost:7878/run -d '{"experiment":"fig2","len":50000}'
//! ```
//!
//! The crate is dependency-free like the rest of the workspace: the
//! HTTP/1.1 subset in [`http`] is hand-rolled on `std::net`.

#![warn(missing_docs)]

pub mod executor;
pub mod http;
mod memo;
pub mod metrics;
pub mod server;

pub use executor::{Admission, CellSlot, Executor, Job, JobCell, SlotView};
pub use metrics::ServeMetrics;
pub use server::{RunRequest, ServeState, Server, DEFAULT_RUN_TIMEOUT};
