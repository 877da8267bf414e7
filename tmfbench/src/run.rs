//! One benchmark run: repetitions of a workload, the checks across them,
//! and the metrics they yield.
//!
//! Untraced (`trace = false`): untimed-step repetitions fill the time
//! budget and give every wall-time metric as a median; one more
//! repetition with the flight recorder on gives the virtual latencies and
//! must reproduce the others' trace hash and event count.
//!
//! Traced (`trace = true`): untraced and traced repetitions alternate;
//! the traced ones time every `World::step`, keep spans, and leave their
//! end state for the isolated timings. Their trace hash and event count
//! must equal the untraced ones'.

use crate::alloc::{peak_heap_mb, peak_rss_mb};
use crate::iso;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile_sorted};
use crate::trace::Spans;
use crate::workloads::{
    run_rep, EndState, Mode, Rep, Size, Workload, ALLOC_SLACK, ALLOC_TOLERANCE, RECORDED, TRACED,
    UNTRACED,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
}

/// A run's result, ready to print.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(String, f64, String)>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans_jsonl: String,
    /// Informational lines for the log (within-run spread, exact latency
    /// percentiles, trace hash).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The commit-latency tail `commit_tail_ms` averages: the slowest 1%.
/// Exact percentiles of virtual latency sit on the cost model's grid and
/// often repeat across seeds; the tail mean carries the p99 information
/// without that.
const TAIL_SHARE: f64 = 0.01;

/// Fewest repetitions a median is taken over. Past that, repetitions
/// continue while one more (as long as the last) ends within the budget.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;

pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Call `once` at least [`MIN_REPS`] times, then while one more call, as
/// long as the last, still ends within `seconds` of the start.
fn repeat(seconds: u64, mut once: impl FnMut()) {
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let (mut done, mut last) = (0, Duration::ZERO);
    while done < MIN_REPS || (t0.elapsed() + last <= budget && done < MAX_REPS) {
        let started = Instant::now();
        once();
        last = started.elapsed();
        done += 1;
    }
}

fn rep(opts: &Options, mode: Mode, keep_end: bool, spans: &mut Spans) -> (Rep, Option<EndState>) {
    run_rep(opts.workload, opts.seed, opts.size, mode, keep_end, spans)
}

fn run_untraced(opts: &Options) -> Outcome {
    let mut spans = Spans::new();
    let mut plain: Vec<Rep> = Vec::new();
    repeat(opts.seconds, || {
        plain.push(rep(opts, UNTRACED, false, &mut spans).0)
    });
    // memory peaks of the timed repetitions, before the recorder adds its own
    let peaks = (peak_rss_mb(), peak_heap_mb());
    let recorded = rep(opts, RECORDED, false, &mut spans).0;

    let mut values = BTreeMap::new();
    end_to_end(&plain, &recorded, peaks, &mut values);
    let f = recorded.flight.clone().unwrap_or_default();
    let tput: Vec<f64> = plain.iter().map(throughput).collect();
    let setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    let notes = vec![
        format!(
            "{} timed repetitions; IQR/median across them: commits_per_s {:.4}, setup_s {:.4}",
            plain.len(),
            iqr_share(&tput),
            iqr_share(&setup)
        ),
        format!(
            "virtual END->commit latency over {} read-write commits: p50 {} ms, p99 {} ms, \
             p99.9 {} ms; trace hash {:016x}, {} events",
            f.commit_us.len(),
            f.percentile_ms(0.5),
            f.percentile_ms(0.99),
            f.percentile_ms(0.999),
            recorded.trace_hash,
            recorded.events
        ),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .collect::<Vec<_>>();
    outcome(&plain, &[recorded], &metrics, &values, String::new(), notes)
}

fn run_traced(opts: &Options) -> Outcome {
    let mut spans = Spans::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut end = None;
    repeat(opts.seconds, || {
        plain.push(rep(opts, UNTRACED, false, &mut spans).0);
        // release the previous end state before the next traced run
        drop(end.take());
        let (r, e) = rep(opts, TRACED, true, &mut spans);
        traced.push(r);
        end = e;
    });
    let iso = end
        .as_ref()
        .map(|e| iso::measure(e, opts.seed))
        .unwrap_or_default();
    let mut values = BTreeMap::new();
    per_layer(&plain, &traced, &iso, &mut values);
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit))
        .collect::<Vec<_>>();
    let spans = spans.to_jsonl(opts.workload.name(), opts.seed);
    outcome(&plain, &traced, &metrics, &values, spans, Vec::new())
}

/// Check the repetitions and assemble the result: `metrics` in catalog
/// order, each of which must have been computed.
fn outcome(
    plain: &[Rep],
    others: &[Rep],
    metrics: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    spans_jsonl: String,
    notes: Vec<String>,
) -> Outcome {
    let mut problems = check_reps(plain, others);
    for p in plain.iter().chain(others).flat_map(|r| &r.problems) {
        if !problems.contains(p) {
            problems.push(p.clone());
        }
    }
    let metrics = metrics
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never computed"));
            (name.to_string(), v, unit.to_string())
        })
        .collect();
    Outcome {
        attempted: plain[0].begins,
        // operations that went wrong rather than aborting cleanly; clean
        // aborts lower `commit_share` instead
        failed: plain[0].counter("tcp.program_errors") + problems.len() as u64,
        problems,
        metrics,
        spans_jsonl,
        notes,
    }
}

/// Repetitions of one seed must agree exactly on every deterministic
/// value, and on run-phase allocations within [`ALLOC_TOLERANCE`]; every
/// recorded or traced repetition must reproduce the untraced trace hash,
/// event count and commits.
fn check_reps(plain: &[Rep], others: &[Rep]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &plain[0];
    for (i, r) in plain.iter().enumerate().skip(1) {
        if r.fingerprint() != first.fingerprint() {
            problems.push(format!(
                "repetition {i} diverged from repetition 0 of the same seed:\n  {}\n  {}",
                first.fingerprint(),
                r.fingerprint()
            ));
        }
        let drift = r.run_allocs.abs_diff(first.run_allocs);
        if drift as f64 > (first.run_allocs as f64 * ALLOC_TOLERANCE).max(ALLOC_SLACK) {
            problems.push(format!(
                "repetition {i} made {} run-phase allocations, repetition 0 made {}",
                r.run_allocs, first.run_allocs
            ));
        }
    }
    for other in others {
        if (other.trace_hash, other.events, other.commits)
            != (first.trace_hash, first.events, first.commits)
        {
            problems.push(format!(
                "recorded/traced repetition changed the execution: hash {:016x} events {} \
                 commits {} vs untraced hash {:016x} events {} commits {}",
                other.trace_hash,
                other.events,
                other.commits,
                first.trace_hash,
                first.events,
                first.commits
            ));
        }
    }
    problems
}

fn per_commit(v: u64, commits: u64) -> f64 {
    v as f64 / commits.max(1) as f64
}

fn mean_of(rep: &Rep, histogram: &str) -> f64 {
    let count = rep.counter(&format!("{histogram}.count"));
    per_commit(rep.counter(&format!("{histogram}.sum")), count)
}

fn end_to_end(
    plain: &[Rep],
    recorded: &Rep,
    peaks: (f64, f64),
    out: &mut BTreeMap<&'static str, f64>,
) {
    let r = &plain[0];
    out.insert(
        "commits_per_s",
        median(&plain.iter().map(throughput).collect::<Vec<_>>()),
    );
    out.insert(
        "setup_s",
        median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    out.insert("peak_rss_mb", peaks.0);
    out.insert("peak_heap_mb", peaks.1);

    out.insert("allocs_per_commit", per_commit(r.run_allocs, r.commits));
    out.insert("virtual_tps", r.commits as f64 / r.virtual_run_s);
    let flight = recorded.flight.clone().unwrap_or_default();
    out.insert("commit_mean_ms", flight.mean_ms());
    out.insert("commit_tail_ms", flight.tail_mean_ms(TAIL_SHARE));
    out.insert("commit_share", per_commit(r.commits, r.commits + r.aborts));
}

/// Commits per wall second of a repetition's run phase.
fn throughput(r: &Rep) -> f64 {
    r.commits as f64 / r.run_s
}

fn forces_per_write_commit(r: &Rep) -> f64 {
    per_commit(
        r.counter("audit.forces") + r.counter("tmf.monitor_forces"),
        r.commits - r.readonly_commits,
    )
}

fn per_layer(
    plain: &[Rep],
    traced: &[Rep],
    iso: &[(&'static str, f64)],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let r = &plain[0];
    let c = r.commits;
    let writes = c - r.readonly_commits;
    let med =
        |f: &dyn Fn(&Rep) -> f64, reps: &[Rep]| median(&reps.iter().map(f).collect::<Vec<_>>());
    let flight = traced
        .last()
        .and_then(|t| t.flight.clone())
        .unwrap_or_default();

    out.insert("sim.events_per_commit", per_commit(r.run_events, c));
    out.insert(
        "sim.msgs_local_per_commit",
        per_commit(r.counter("sim.msgs.local"), c),
    );
    out.insert(
        "sim.msgs_bus_per_commit",
        per_commit(r.counter("sim.msgs.bus"), c),
    );
    out.insert(
        "sim.msgs_net_per_commit",
        per_commit(r.counter("sim.msgs.net"), c),
    );
    out.insert(
        "sim.events_per_s",
        med(&|r| r.run_events as f64 / r.run_s, plain),
    );
    for (name, p) in [
        ("sim.step_ns_p50", 0.5),
        ("sim.step_ns_p99", 0.99),
        ("sim.step_ns_p999", 0.999),
    ] {
        let per_rep: Vec<f64> = traced
            .iter()
            .filter(|t| !t.step_ns.is_empty())
            .map(|t| {
                let mut s = t.step_ns.clone();
                s.sort_unstable();
                f64::from(percentile_sorted(&s, p))
            })
            .collect();
        out.insert(
            name,
            if per_rep.is_empty() {
                0.0
            } else {
                median(&per_rep)
            },
        );
    }
    out.insert("sim.bus_share", flight.share(flight.bus_us));

    out.insert(
        "guardian.checkpoints_per_commit",
        per_commit(r.counter("pair.checkpoints"), c),
    );
    out.insert("guardian.takeovers", flight.takeovers as f64);
    out.insert(
        "guardian.checkpoint_share",
        flight.share(flight.checkpoint_us),
    );

    out.insert(
        "storage.ops_per_commit",
        per_commit(r.counter("disc.ops"), c),
    );
    let hits = r.counter("disc.cache_hits");
    out.insert(
        "storage.cache_hit_ratio",
        per_commit(hits, hits + r.counter("disc.cache_misses")),
    );
    out.insert(
        "storage.lock_waits_per_commit",
        per_commit(r.counter("disc.lock_waits"), c),
    );
    out.insert(
        "storage.lock_timeouts",
        r.counter("disc.lock_timeouts") as f64,
    );
    out.insert("storage.lock_wait_share", flight.share(flight.lock_wait_us));
    out.insert(
        "storage.snapshot_reads_per_commit",
        per_commit(r.counter("disc.snapshot_reads"), c),
    );

    out.insert(
        "audit.forces_per_commit",
        per_commit(r.counter("audit.forces"), writes),
    );
    out.insert("audit.boxcar_mean", mean_of(r, "audit.boxcar_size"));
    out.insert("audit.force_share", flight.share(flight.force_us));
    let recovery_s = med(&|r| r.recovery_s, plain);
    let images = r
        .extra
        .get("audit.rollforward_redone")
        .copied()
        .unwrap_or(0.0)
        + r.extra
            .get("audit.rollforward_undone")
            .copied()
            .unwrap_or(0.0);
    out.insert(
        "audit.rollforward_image_ns",
        if images > 0.0 {
            recovery_s * 1e9 / images
        } else {
            0.0
        },
    );

    out.insert("core.forces_per_commit", forces_per_write_commit(r));
    out.insert(
        "core.monitor_forces_per_commit",
        per_commit(r.counter("tmf.monitor_forces"), writes),
    );
    out.insert(
        "core.monitor_boxcar_mean",
        mean_of(r, "tmf.monitor_boxcar_size"),
    );
    out.insert(
        "core.phase1_msgs_per_commit",
        per_commit(
            r.counter("tmf.msgs.phase1_local") + r.counter("tmf.msgs.phase1_net"),
            c,
        ),
    );
    out.insert(
        "core.phase2_msgs_per_commit",
        per_commit(
            r.counter("tmf.msgs.release_local")
                + r.counter("tmf.msgs.release_early")
                + r.counter("tmf.msgs.phase2_net"),
            c,
        ),
    );
    out.insert(
        "core.phase1_timeouts",
        r.counter("tmf.phase1_timeouts") as f64,
    );
    out.insert(
        "core.session_failures",
        r.counter("tmf.session_failures") as f64,
    );

    out.insert(
        "encompass.tcp_sends_per_commit",
        per_commit(r.counter("tcp.sends"), c),
    );
    out.insert("encompass.tcp_restarts", r.counter("tcp.restarts") as f64);
    out.insert("encompass.setup_allocs", r.setup_allocs as f64);

    out.insert("span.setup_s", med(&|r| r.setup_s, plain));
    out.insert("span.run_s", med(&|r| r.run_s, plain));
    out.insert("span.drain_s", med(&|r| r.drain_s, plain));
    out.insert("span.recovery_s", recovery_s);
    out.insert("span.checks_s", med(&|r| r.checks_s, plain));
    out.insert(
        "span.trace_overhead",
        med(&|r| r.run_s, traced) / med(&|r| r.run_s, plain),
    );

    // deterministic extras and isolated timings; absent ones read zero
    for m in PER_LAYER {
        if let Some(v) = r.extra.get(m.name) {
            out.insert(m.name, *v);
        }
    }
    for &(name, ns) in iso {
        out.insert(name, ns);
    }
    for m in PER_LAYER {
        out.entry(m.name).or_insert(0.0);
    }
}
