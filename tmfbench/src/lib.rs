//! End-to-end and per-layer benchmark of the ENCOMPASS/TMF reproduction.
//!
//! See `README.md` in this directory for the workloads, the metrics, and
//! the two-clock rule.

// Boundary code, like the criterion shim: the benchmark exists to read
// the host clock around simulated runs; nothing here runs inside one.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod flight;
pub mod iso;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
