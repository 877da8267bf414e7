//! # encompass-bench
//!
//! The experiment harness: one function per entry in EXPERIMENTS.md
//! (figures F1–F4 and claims T1–T8 of the paper), each regenerating its
//! table/series, plus shared scripted drivers and table rendering.
//!
//! Run a single experiment:
//! ```text
//! cargo run -p encompass-bench --release --bin exp_all -- --only T1
//! ```
//! Run everything:
//! ```text
//! cargo run -p encompass-bench --release --bin exp_all
//! ```
//! Criterion timing benches live under `benches/`.

pub mod driver;
pub mod experiments;
pub mod table;

pub use table::Table;
