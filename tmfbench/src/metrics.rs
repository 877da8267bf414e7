//! The metric catalog: every metric the benchmark reports, with its
//! unit, direction, layer, and the end-to-end metric it should move. The
//! manifest (`BENCHMARK.json`) is generated from these tables.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("commits_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.05),
    e2e("allocs_per_commit", "count", Better::Lower, 0.05),
    e2e("virtual_tps", "1/s", Better::Higher, 0.15),
    e2e("commit_mean_ms", "ms", Better::Lower, 0.05),
    e2e("commit_tail_ms", "ms", Better::Lower, 0.15),
    e2e("commit_share", "ratio", Better::Higher, 0.05),
];

/// A per-layer metric: one layer's work, time, waiting or failures.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // sim kernel
    layer("sim.events_per_commit", "count", Lower),
    layer("sim.msgs_local_per_commit", "count", Lower),
    layer("sim.msgs_bus_per_commit", "count", Lower),
    layer("sim.msgs_net_per_commit", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.step_ns_p50", "ns", Lower),
    layer("sim.step_ns_p99", "ns", Lower),
    layer("sim.step_ns_p999", "ns", Lower),
    layer("sim.metrics_inc_ns", "ns", Lower),
    layer("sim.payload_roundtrip_ns", "ns", Lower),
    layer("sim.bus_share", "ratio", Lower),
    // guardian process pairs
    layer("guardian.checkpoints_per_commit", "count", Lower),
    layer("guardian.takeovers", "count", Lower),
    layer("guardian.checkpoint_share", "ratio", Lower),
    // storage: DISCPROCESS
    layer("storage.ops_per_commit", "count", Lower),
    layer("storage.cache_hit_ratio", "ratio", Higher),
    layer("storage.lock_waits_per_commit", "count", Lower),
    layer("storage.lock_timeouts", "count", Lower),
    layer("storage.lock_wait_share", "ratio", Lower),
    layer("storage.snapshot_reads_per_commit", "count", Higher),
    layer("storage.file_read_ns", "ns", Lower),
    layer("storage.btree_get_ns", "ns", Lower),
    layer("storage.lock_cycle_ns", "ns", Lower),
    // audit: AUDITPROCESS, trails, ROLLFORWARD
    layer("audit.forces_per_commit", "count", Lower),
    layer("audit.boxcar_mean", "count", Higher),
    layer("audit.force_share", "ratio", Lower),
    layer("audit.monitor_records", "count", Lower),
    layer("audit.monitor_outcome_ns", "ns", Lower),
    layer("audit.volume_images_ns", "ns", Lower),
    layer("audit.trail_force_ns", "ns", Lower),
    layer("audit.rollforward_redone", "count", Lower),
    layer("audit.rollforward_undone", "count", Lower),
    layer("audit.rollforward_image_ns", "ns", Lower),
    // core: TMP
    layer("core.forces_per_commit", "count", Lower),
    layer("core.monitor_forces_per_commit", "count", Lower),
    layer("core.monitor_boxcar_mean", "count", Higher),
    layer("core.phase1_msgs_per_commit", "count", Lower),
    layer("core.phase2_msgs_per_commit", "count", Lower),
    layer("core.phase1_timeouts", "count", Lower),
    layer("core.session_failures", "count", Lower),
    // shard
    layer("shard.suspense_applied", "count", Higher),
    layer("shard.suspense_retries", "count", Lower),
    layer("shard.drain_ms_virtual", "ms", Lower),
    layer("shard.master_of_ns", "ns", Lower),
    // encompass: application and TCP
    layer("encompass.tcp_sends_per_commit", "count", Lower),
    layer("encompass.tcp_restarts", "count", Lower),
    layer("encompass.setup_allocs", "count", Lower),
    // chaos
    layer("chaos.reader_restarts", "count", Lower),
    layer("chaos.client_respawns", "count", Lower),
    layer("chaos.drills", "count", Higher),
    // the benchmark's own spans
    layer("span.setup_s", "s", Lower),
    layer("span.run_s", "s", Lower),
    layer("span.drain_s", "s", Lower),
    layer("span.recovery_s", "s", Lower),
    layer("span.checks_s", "s", Lower),
    layer("span.trace_overhead", "ratio", Lower),
];

/// The command that runs the benchmark from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "tmfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut s = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    s.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    s.push_str("  \"paths\": [\"tmfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = crate::workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    s.push_str(&e2e.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    s.push_str(&per_layer.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use std::collections::BTreeSet;

    #[test]
    fn catalog_obeys_the_manifest_rules() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "BENCHMARK.json is stale: regenerate it with `--manifest`"
        );
    }
}
