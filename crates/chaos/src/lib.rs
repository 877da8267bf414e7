//! Deterministic chaos-sweep harness for the ENCOMPASS/TMF reproduction.
//!
//! The paper's central claim is not throughput but *survival*: "a
//! transaction is an all-or-nothing unit of work" under processor, bus,
//! link, and process failures. This crate turns that claim into a
//! mechanically checkable property over randomized fault timelines:
//!
//! * [`Schedule::generate`] expands a seed into a cluster shape, a bank
//!   workload, and a fault/heal timeline (CPU kills aimed at service
//!   primaries, bus failures, partitions around the commit point, process
//!   kills during backout), plus a soak plan and a shard plan that its
//!   layer flags switch on;
//! * [`run`] is the one entry point: it plays any schedule — plain,
//!   `dumps_enabled`, `soak_enabled` or `shards_enabled` — through one
//!   phase sequence, heals everything, quiesces, interrogates the system
//!   with the oracles described in [`runner`], and returns one
//!   [`RunReport`];
//! * the simulator is deterministic, so a failing seed is a one-line
//!   repro: `cargo run -p encompass-chaos -- --seed N`.
//!
//! The sweep binary (`src/main.rs`) runs many seeds and fails loudly on
//! the first invariant violation, printing the offending schedule.
//! [`run_soak_schedule_with`] and [`SoakReport`] are a thin adapter over
//! [`run`] kept for the benchmark under `tmfbench/`.

pub mod oracles;
pub mod probe;
pub mod runner;
pub mod schedule;
mod shard;
pub mod soak;

pub use runner::{run, FlightDump, RunReport, Tier};
pub use schedule::{
    ChaosAction, Schedule, ScheduledDump, ScheduledEvent, ShardPlan, SoakEpoch, SoakPlan,
};
pub use soak::{run_soak_schedule_with, SoakReport};
