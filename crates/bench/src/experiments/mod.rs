//! One function per experiment in EXPERIMENTS.md. Each returns one or
//! more [`crate::Table`]s ready to print; the `exp_*` binaries are thin
//! wrappers (`exp_all` for the figure and claim experiments).

mod claims;
mod figures;
mod group_commit;
mod latency_attribution;
mod online_dump;
mod read_mix;
mod scaleout;

pub use claims::{t1, t2, t3, t4, t5, t6, t7, t8};
pub use figures::{f1, f2, f3, f4};
pub use group_commit::{group_commit, GroupCommitResult, GroupCommitRow};
pub use latency_attribution::{
    latency_attribution, LatencyAttributionResult, LatencyAttributionRow,
};
pub use online_dump::{online_dump, OnlineDumpResult, OnlineDumpRow};
pub use read_mix::{read_mix, ReadMixResult, ReadMixRow};
pub use scaleout::{scaleout, ScaleoutResult, ScaleoutRow};

/// One experiment: its tables, ready to print.
pub type Experiment = fn() -> Vec<crate::Table>;

/// The figure and claim experiments, by EXPERIMENTS.md ID, in canonical
/// order (`exp_all --only ID` runs one of them).
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("F1", f1),
    ("F2", f2),
    ("F3", f3),
    ("F4", f4),
    ("T1", t1),
    ("T2", t2),
    ("T3", t3),
    ("T4", t4),
    ("T5", t5),
    ("T6", t6),
    ("T7", t7),
    ("T8", t8),
];

/// Run every experiment (the `exp_all` binary), in parallel — each
/// experiment builds its own simulated worlds, so they are independent;
/// results are returned in the canonical F1..T8 order.
pub fn all() -> Vec<crate::Table> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = EXPERIMENTS
            .iter()
            .map(|&(_, f)| scope.spawn(f))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}
