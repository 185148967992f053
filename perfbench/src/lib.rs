//! Per-operation benchmark of the DCGN reproduction.
//!
//! One command runs a named workload with a seed through the public `dcgn`
//! / `dcgn_apps` API, times each operation after a warm-up, checks every
//! result, and prints the end-to-end metrics; `--trace 1` instead runs the
//! workload with spans around every call into a layer and prints the
//! per-layer metrics.  See `README.md` next to this crate.

pub mod json;
pub mod metrics;
pub mod record;
pub mod rng;
pub mod runner;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;
