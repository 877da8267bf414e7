//! The four closed-loop workloads and one repetition of each.
//!
//! A repetition runs the phases in order — set-up, run, drain, recovery,
//! checks — in this process, on this thread. Every phase that advances a
//! simulated world goes through [`step_until`], so a traced repetition
//! (flight recorder on, every `World::step` timed) stops at the same
//! virtual instants as an untraced one and must reproduce its trace hash
//! and event count.

use crate::alloc::allocations;
use crate::flight::FlightStats;
use crate::trace::{step_until, Spans};
use encompass::app::{
    launch_bank_app, launch_shard_bank, suspense_backlog, AppHandles, BankAppParams,
    ShardBankAppParams,
};
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_audit::rollforward::rollforward_volume;
use encompass_chaos::{run_soak_schedule_with, Schedule, SoakReport};
use encompass_shard::ShardMap;
use encompass_sim::{SimConfig, SimDuration, World};
use encompass_storage::media::{archive_key, media_key, ArchiveImage, VolumeMedia};
use encompass_storage::types::VolumeRef;
use encompass_storage::Catalog;
use std::collections::BTreeMap;
use tmf::facility::{flight_reports, TmfNodeConfig};

/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Bank1Node,
    ReadMix1Node,
    Shard64Node,
    ChaosSoak,
}

/// Every workload, in the order the manifest lists them.
pub const ALL: [Workload; 4] = [
    Workload::Bank1Node,
    Workload::ReadMix1Node,
    Workload::Shard64Node,
    Workload::ChaosSoak,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bank1Node => "bank_1node",
            Workload::ReadMix1Node => "read_mix_1node",
            Workload::Shard64Node => "shard_64node",
            Workload::ChaosSoak => "chaos_soak",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Bank1Node => {
                "one node, 16 writers, hot set, 2 trail partitions: every completion record \
                 lands on one Monitor Audit Trail, then ROLLFORWARD of every volume"
            }
            Workload::ReadMix1Node => {
                "one node, 2 writers and 30 snapshot readers in cache: the same disc and TMP \
                 layers on the read path, no locks and no forces at read-only END"
            }
            Workload::Shard64Node => {
                "64 shards, 10% cross-shard and 10% replicated branch updates drained through \
                 $SUSPENSE: kernel-bound per-event and per-message cost"
            }
            Workload::ChaosSoak => {
                "soak seeds with takeovers, backouts, dumps, trail purge and a disaster drill: \
                 the only workload where the recovery machinery does work"
            }
        }
    }
}

/// Workload size: the benchmark's, or a smoke size that runs all four
/// workloads in seconds even in a debug build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What a repetition records besides plain timing.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Turn the flight recorder on (trace-hash-neutral) for exact
    /// virtual commit latencies and their attribution.
    pub recorder: bool,
    /// Time every `World::step` call.
    pub time_steps: bool,
}

pub const UNTRACED: Mode = Mode {
    recorder: false,
    time_steps: false,
};
/// Recorder on, steps untimed: the pass that yields virtual latencies.
pub const RECORDED: Mode = Mode {
    recorder: true,
    time_steps: false,
};
pub const TRACED: Mode = Mode {
    recorder: true,
    time_steps: true,
};

/// Soak seed with a full-disaster drill; every chaos_soak run includes it.
pub const DRILL_SEED: u64 = 10;

/// Soak seeds every chaos_soak run plays, starting with the drill seed.
/// Soak seeds differ widely in what they draw (6–9 epochs, 500–2 300
/// commits each), so a run plays this fixed corpus and adds one
/// seed derived from the benchmark seed: the figures stay comparable
/// across benchmark seeds, and each benchmark seed still plays a soak
/// schedule of its own.
pub const SOAK_CORPUS: std::ops::Range<u64> = DRILL_SEED..DRILL_SEED + 23;

/// The soak seeds a chaos_soak run plays for benchmark seed `seed`.
pub fn soak_seeds(seed: u64, size: Size) -> Vec<u64> {
    let corpus = match size {
        Size::Full => SOAK_CORPUS,
        Size::Smoke => DRILL_SEED..DRILL_SEED + 1,
    };
    corpus.chain([1_000u64.wrapping_add(seed)]).collect()
}

/// Relative difference allowed between two repetitions' run-phase
/// allocation counts. The kernel's std `HashMap`/`HashSet` tables are
/// seeded per process and per table, and whether a full table grows or
/// rehashes in place depends on where the hashes left tombstones, so the
/// count moves by a few allocations between repetitions of one seed.
/// Anything beyond this share, or [`ALLOC_SLACK`] allocations if that is
/// more, is a real divergence.
pub const ALLOC_TOLERANCE: f64 = 1e-5;
pub const ALLOC_SLACK: f64 = 16.0;

/// One repetition's results. Counts cover the run phase unless noted.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub drain_s: f64,
    pub recovery_s: f64,
    pub checks_s: f64,
    pub setup_allocs: u64,
    pub run_allocs: u64,
    /// Trace hash after the drain (chaos: every soak seed's hash folded).
    pub trace_hash: u64,
    /// Events dispatched by the end of the drain (chaos: 0, not visible).
    pub events: u64,
    pub run_events: u64,
    pub begins: u64,
    pub commits: u64,
    pub readonly_commits: u64,
    pub aborts: u64,
    /// Virtual seconds the run phase covered (chaos: every soak's span).
    pub virtual_run_s: f64,
    /// Run-phase deltas of the layers' own counters.
    pub counters: BTreeMap<String, u64>,
    /// Other deterministic per-layer values.
    pub extra: BTreeMap<&'static str, f64>,
    pub flight: Option<FlightStats>,
    pub step_ns: Vec<u32>,
    /// Failed output checks; empty on a correct run.
    pub problems: Vec<String>,
}

impl Rep {
    /// A counter's run-phase delta (zero if the run never touched it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Everything that must repeat exactly for one seed: trace hash,
    /// event count, and every virtual count. Allocations are compared
    /// apart, within [`ALLOC_TOLERANCE`].
    pub fn fingerprint(&self) -> String {
        format!(
            "hash {:016x} events {} run_events {} begins {} commits {} \
             ro {} aborts {} vrun {:?} counters {:?} extra {:?}",
            self.trace_hash,
            self.events,
            self.run_events,
            self.begins,
            self.commits,
            self.readonly_commits,
            self.aborts,
            self.virtual_run_s,
            self.counters,
            self.extra
        )
    }
}

/// The end state a traced repetition leaves for the isolated timings.
pub struct EndState {
    pub world: World,
    pub catalog: Catalog,
    pub volumes: Vec<VolumeRef>,
    /// Trail key holding each volume's images.
    pub trail_of: BTreeMap<VolumeRef, String>,
    pub map: Option<ShardMap>,
    pub keys: KeyDist,
}

/// The distribution the workload draws account keys from.
#[derive(Clone, Copy, Debug)]
pub struct KeyDist {
    pub accounts: u64,
    pub hot_fraction: f64,
    pub hot_set: u64,
}

impl KeyDist {
    /// Draw `n` account numbers from the distribution, deterministically.
    pub fn draw(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let hot = unit < self.hot_fraction;
                if hot {
                    next() % self.hot_set.max(1)
                } else {
                    next() % self.accounts.max(1)
                }
            })
            .collect()
    }
}

/// Run one repetition of `workload` for `seed`. Returns the end state
/// only when `keep_end` is set (and never for chaos_soak, whose runner
/// owns its world).
pub fn run_rep(
    workload: Workload,
    seed: u64,
    size: Size,
    mode: Mode,
    keep_end: bool,
    spans: &mut Spans,
) -> (Rep, Option<EndState>) {
    spans.next_run();
    match workload {
        Workload::ChaosSoak => (chaos_rep(seed, size, mode, spans), None),
        _ => world_rep(workload, seed, size, mode, keep_end, spans),
    }
}

/// A launched application plus what the benchmark needs to drive it.
struct Launched {
    app: AppHandles,
    map: Option<ShardMap>,
    terminals: u64,
    keys: KeyDist,
}

fn sim_config(mode: Mode) -> SimConfig {
    let mut sim = SimConfig::default();
    if mode.recorder {
        sim = sim.flight_recording();
        // keep every event: the latency percentiles need all commits
        sim.flight_capacity = 1 << 26;
    }
    sim
}

fn launch(workload: Workload, seed: u64, size: Size, mode: Mode) -> Launched {
    let smoke = size == Size::Smoke;
    match workload {
        Workload::Bank1Node => {
            let tmf = TmfNodeConfig::builder()
                .group_commit_window(SimDuration::from_millis(2))
                .audit_partitions(2)
                .build()
                .expect("valid bank_1node TMF config");
            let keys = KeyDist {
                accounts: if smoke { 2_000 } else { 50_000 },
                hot_fraction: 0.2,
                hot_set: 8,
            };
            let terminals = if smoke { 4 } else { 16 };
            let app = launch_bank_app(BankAppParams {
                node_cpus: vec![4],
                volumes_per_node: 2,
                history: false,
                accounts: keys.accounts,
                terminals_per_node: terminals,
                transactions_per_terminal: if smoke { 10 } else { 600 },
                think: SimDuration::from_millis(1),
                hot_fraction: keys.hot_fraction,
                hot_set: keys.hot_set,
                seed,
                sim: sim_config(mode),
                tmf,
                ..BankAppParams::default()
            });
            Launched {
                app,
                map: None,
                terminals: terminals as u64,
                keys,
            }
        }
        Workload::ReadMix1Node => {
            let keys = KeyDist {
                accounts: 2_000,
                hot_fraction: 0.0,
                hot_set: 1,
            };
            let (writers, readers) = if smoke { (1, 3) } else { (2, 30) };
            let app = launch_bank_app(BankAppParams {
                node_cpus: vec![4],
                volumes_per_node: 1,
                history: false,
                accounts: keys.accounts,
                terminals_per_node: writers,
                readonly_terminals_per_node: readers,
                transactions_per_terminal: if smoke { 10 } else { 1_000 },
                think: SimDuration::from_millis(1),
                seed,
                sim: sim_config(mode),
                ..BankAppParams::default()
            });
            Launched {
                app,
                map: None,
                terminals: (writers + readers) as u64,
                keys,
            }
        }
        Workload::Shard64Node => {
            let nodes = if smoke { 4 } else { 64 };
            let keys = KeyDist {
                accounts: nodes as u64 * 64,
                hot_fraction: 0.0,
                hot_set: 1,
            };
            let (app, map) = launch_shard_bank(ShardBankAppParams {
                nodes,
                accounts: keys.accounts,
                terminals_per_node: 4,
                transactions_per_terminal: if smoke { 5 } else { 30 },
                cross_shard_permille: 100,
                branch_permille: 100,
                branch_replicas: 2,
                think: SimDuration::from_millis(1),
                seed,
                sim: sim_config(mode),
                ..ShardBankAppParams::default()
            });
            Launched {
                app,
                map: Some(map),
                terminals: nodes as u64 * 4,
                keys,
            }
        }
        Workload::ChaosSoak => unreachable!("chaos_soak has no benchmark-side launch"),
    }
}

/// Snapshot a generation-0 archive of every volume straight from its
/// preloaded media: the archive ROLLFORWARD starts from.
fn archive_volumes(world: &mut World, volumes: &[VolumeRef]) {
    for v in volumes {
        let files = world
            .stable()
            .get::<VolumeMedia>(&media_key(v.node, &v.volume))
            .map(|m| m.files.clone())
            .unwrap_or_default();
        let vol = v.clone();
        world
            .stable_mut()
            .get_or_create::<ArchiveImage, _>(&archive_key(v, 0), move || ArchiveImage {
                volume: vol,
                files,
                audit_watermark: 0,
                purge_floor: 1,
                generation: 0,
            });
    }
}

fn counters(world: &World) -> BTreeMap<String, u64> {
    world.metrics().snapshot().into_iter().collect()
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, v)| *v > 0)
        .collect()
}

fn live_file_sizes(world: &World, v: &VolumeRef) -> Vec<(String, usize)> {
    world
        .stable()
        .get::<VolumeMedia>(&media_key(v.node, &v.volume))
        .map(|m| m.files.iter().map(|(n, f)| (n.clone(), f.len())).collect())
        .unwrap_or_default()
}

/// Events between stop-condition checks. The same in every mode, so
/// every mode stops at the same virtual instants.
const BATCH: u32 = 64;
/// Suspense backlogs are read from the media: check them less often.
const DRAIN_BATCH: u32 = 1024;
/// Virtual tail after the last terminal: phase two, write-behind
/// flushes and backouts settle before recovery reads the media.
const TAIL: SimDuration = SimDuration::from_secs(2);
const MAX_EVENTS: u64 = 200_000_000;

fn world_rep(
    workload: Workload,
    seed: u64,
    size: Size,
    mode: Mode,
    keep_end: bool,
    spans: &mut Spans,
) -> (Rep, Option<EndState>) {
    let mut rep = Rep::default();
    let a0 = allocations();
    let ((mut l, volumes), setup_s) = spans.time("setup", |s| {
        let (mut l, _) = s.time("launch", |_| launch(workload, seed, size, mode));
        let volumes = l.app.catalog.all_volumes();
        s.time("archive", |_| archive_volumes(&mut l.app.world, &volumes));
        (l, volumes)
    });
    rep.setup_s = setup_s;
    rep.setup_allocs = allocations() - a0;
    let before = counters(&l.app.world);
    let events0 = l.app.world.events_processed();
    let mut step_ns = Vec::new();
    let terminals = l.terminals;

    // run: every terminal finishes its transactions
    let a1 = allocations();
    let (finished, run_s) = spans.time("run", |_| {
        step_until(
            &mut l.app.world,
            BATCH,
            MAX_EVENTS,
            mode.time_steps.then_some(&mut step_ns),
            |w| w.metrics().get("tcp.terminals_finished") >= terminals,
        )
    });
    rep.run_allocs = allocations() - a1;
    rep.run_s = run_s;
    let run_end = l.app.world.now();
    rep.virtual_run_s = run_end.as_micros() as f64 / 1e6;
    rep.run_events = l.app.world.events_processed() - events0;
    rep.counters = delta(&counters(&l.app.world), &before);
    rep.begins = rep.counter("tmf.begins");
    rep.commits = rep.counter("tmf.commits");
    rep.readonly_commits = rep.counter("tmf.readonly_commits");
    rep.aborts = rep.counter("tmf.aborts");
    if !finished {
        rep.problems.push(format!(
            "run stalled: {}/{terminals} terminals finished",
            l.app.world.metrics().get("tcp.terminals_finished")
        ));
    }

    // drain: suspense backlogs to zero (shards), then the settle tail;
    // the checks require the backlogs still zero after it
    let nodes = l.app.nodes.clone();
    let sharded = l.map.is_some();
    let ((), drain_s) = spans.time("drain", |_| {
        let world = &mut l.app.world;
        if sharded {
            let drained = step_until(world, DRAIN_BATCH, MAX_EVENTS, None, |w| {
                nodes.iter().all(|&n| suspense_backlog(w, n, "$SB") == 0)
            });
            let ms = world.now().since(run_end).as_micros() as f64 / 1e3;
            rep.extra.insert("shard.drain_ms_virtual", ms);
            if !drained {
                rep.problems.push("suspense backlogs never drained".into());
            }
        }
        let until = world.now() + TAIL;
        step_until(world, BATCH, MAX_EVENTS, None, |w| w.now() >= until);
    });
    rep.drain_s = drain_s;
    rep.trace_hash = l.app.world.trace_hash();
    rep.events = l.app.world.events_processed();
    let drained_counters = delta(&counters(&l.app.world), &before);
    for (counter, metric) in [
        ("suspense.applied", "shard.suspense_applied"),
        ("suspense.retries", "shard.suspense_retries"),
    ] {
        let v = drained_counters.get(counter).copied().unwrap_or(0);
        rep.extra.insert(metric, v as f64);
    }
    let monitor_records: usize = nodes
        .iter()
        .filter_map(|&n| l.app.world.stable().get::<MonitorTrail>(&monitor_key(n)))
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    rep.extra
        .insert("audit.monitor_records", monitor_records as f64);

    // recovery: ROLLFORWARD every volume from its generation-0 archive
    let trail_of: BTreeMap<VolumeRef, String> = l
        .app
        .tmf
        .iter()
        .flat_map(|h| {
            let node = h.node;
            h.trail_key_of
                .iter()
                .map(move |(vol, key)| (VolumeRef::new(node, vol), key.clone()))
        })
        .collect();
    let live: Vec<Vec<(String, usize)>> = volumes
        .iter()
        .map(|v| live_file_sizes(&l.app.world, v))
        .collect();
    let (reports, recovery_s) = spans.time("recovery", |s| {
        volumes
            .iter()
            .map(|v| {
                let keys: Vec<String> = trail_of.get(v).cloned().into_iter().collect();
                s.time("rollforward_volume", |_| {
                    rollforward_volume(&mut l.app.world, v, &keys, 0)
                })
                .0
            })
            .collect::<Vec<_>>()
    });
    rep.recovery_s = recovery_s;
    let redone: usize = reports.iter().map(|r| r.redone).sum();
    let undone: usize = reports.iter().map(|r| r.undone).sum();
    rep.extra.insert("audit.rollforward_redone", redone as f64);
    rep.extra.insert("audit.rollforward_undone", undone as f64);

    // checks
    let ((), checks_s) = spans.time("checks", |_| {
        let m = l.app.world.metrics();
        let errors = m.get("tcp.program_errors");
        if errors > 0 {
            rep.problems
                .push(format!("{errors} terminal program errors"));
        }
        if sharded {
            for &n in &nodes {
                let backlog = suspense_backlog(&l.app.world, n, "$SB");
                if backlog > 0 {
                    rep.problems
                        .push(format!("suspense backlog {backlog} left at {n}"));
                }
            }
        }
        for ((v, live), report) in volumes.iter().zip(&live).zip(&reports) {
            let mut recovered = report.file_sizes.clone();
            recovered.sort();
            let mut live = live.clone();
            live.sort();
            if recovered != live {
                rep.problems.push(format!(
                    "ROLLFORWARD of {}.{} gave file sizes {recovered:?}, live media had {live:?}",
                    v.node, v.volume
                ));
            }
        }
        if rep.commits == 0 {
            rep.problems.push("no transaction committed".into());
        }
    });
    rep.checks_s = checks_s;

    if mode.recorder {
        let dropped = l.app.world.flightrec().dropped();
        if dropped > 0 {
            rep.problems
                .push(format!("flight recorder dropped {dropped} events"));
        }
        let reports = flight_reports(&l.app.world);
        rep.flight = Some(FlightStats::from_reports(
            reports.iter().map(|r| (&r.events[..], r.attribution)),
        ));
    }
    rep.step_ns = step_ns;

    let end = keep_end.then(|| EndState {
        world: l.app.world,
        catalog: l.app.catalog,
        volumes,
        trail_of,
        map: l.map,
        keys: l.keys,
    });
    (rep, end)
}

/// A chaos_soak set-up measurement: the median of this many timed
/// rounds, each drawing the whole schedule set [`SCHEDULE_DRAWS`] times
/// (one draw takes microseconds, too short to time alone).
const SCHEDULE_ROUNDS: usize = 25;
const SCHEDULE_DRAWS: usize = 64;

fn soak_schedules(seeds: &[u64]) -> Vec<Schedule> {
    seeds
        .iter()
        .map(|&s| {
            let mut schedule = Schedule::generate(s);
            schedule.soak_enabled = true;
            schedule
        })
        .collect()
}

fn chaos_rep(seed: u64, size: Size, mode: Mode, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let seeds = soak_seeds(seed, size);
    // set-up: drawing the soak schedules is the benchmark's own set-up
    // here; the runner launches its cluster inside the run phase
    let a0 = allocations();
    let schedules = soak_schedules(&seeds);
    rep.setup_allocs = allocations() - a0;
    spans.time("setup", |s| {
        let times: Vec<f64> = (0..SCHEDULE_ROUNDS)
            .map(|_| {
                let ((), t) = s.time("schedule_generate", |_| {
                    for _ in 0..SCHEDULE_DRAWS {
                        std::hint::black_box(soak_schedules(&seeds));
                    }
                });
                t / SCHEDULE_DRAWS as f64
            })
            .collect();
        rep.setup_s = crate::stats::median(&times);
    });

    let a1 = allocations();
    let (reports, run_s): (Vec<SoakReport>, f64) = spans.time("run", |s| {
        schedules
            .iter()
            .map(|sch| {
                s.time("run_soak_schedule", |_| {
                    run_soak_schedule_with(sch, mode.recorder)
                })
                .0
            })
            .collect()
    });
    rep.run_allocs = allocations() - a1;
    rep.run_s = run_s;

    let ((), checks_s) = spans.time("checks", |_| {
        for r in &reports {
            if !r.ok() {
                rep.problems.push(format!(
                    "soak seed {} failed its oracles: {}",
                    r.run.seed,
                    r.run.violations.join("; ")
                ));
            }
        }
        if !reports.iter().any(|r| r.drill.is_some()) {
            rep.problems
                .push("no soak seed ran a full-disaster drill".into());
        }
    });
    rep.checks_s = checks_s;

    const FNV_PRIME: u64 = 0x100_0000_01b3;
    rep.trace_hash = reports.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        (h ^ r.run.trace_hash).wrapping_mul(FNV_PRIME)
    });
    rep.commits = reports.iter().map(|r| r.run.commits).sum();
    rep.aborts = reports.iter().map(|r| r.run.aborts).sum();
    rep.begins = rep.commits + rep.aborts;
    rep.virtual_run_s = reports.iter().map(|r| r.run.end_ms).sum::<u64>() as f64 / 1e3;
    let sum = |f: fn(&SoakReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    rep.extra
        .insert("chaos.reader_restarts", sum(|r| r.reader_restarts));
    rep.extra
        .insert("chaos.client_respawns", sum(|r| r.client_respawns));
    rep.extra
        .insert("chaos.drills", sum(|r| u64::from(r.drill.is_some())));
    rep.extra
        .insert("chaos.dumps", sum(|r| r.run.dumps_completed));
    rep.extra.insert(
        "chaos.purged_trail_files",
        sum(|r| r.run.purged_trail_files),
    );

    if mode.recorder {
        let mut stats = FlightStats::default();
        for r in &reports {
            let Some(dump) = &r.run.flight else {
                rep.problems
                    .push(format!("soak seed {} returned no flight dump", r.run.seed));
                continue;
            };
            if let Some(dropped) = crate::flight::dropped_from_json(&dump.json) {
                if dropped > 0 {
                    rep.problems.push(format!(
                        "flight recorder dropped {dropped} events on soak seed {}",
                        r.run.seed
                    ));
                }
            }
            stats.merge(FlightStats::from_reports(
                dump.timelines_by_txn
                    .values()
                    .map(|events| (&events[..], encompass_sim::attribute_commit(events))),
            ));
        }
        rep.flight = Some(stats);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn soak_seeds_include_the_drill_and_follow_the_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            let s = soak_seeds(seed, Size::Full);
            assert_eq!(s.len(), 24);
            assert_eq!(s[0], DRILL_SEED);
            assert_eq!(s, soak_seeds(seed, Size::Full));
            assert_eq!(soak_seeds(seed, Size::Smoke)[0], DRILL_SEED);
        }
        assert_ne!(soak_seeds(1, Size::Full), soak_seeds(2, Size::Full));
    }

    #[test]
    fn key_draws_are_seeded_and_honour_the_hot_set() {
        let d = KeyDist {
            accounts: 50_000,
            hot_fraction: 0.2,
            hot_set: 8,
        };
        let a = d.draw(7, 10_000);
        assert_eq!(a, d.draw(7, 10_000));
        assert_ne!(a, d.draw(8, 10_000));
        assert!(a.iter().all(|&k| k < 50_000));
        let hot = a.iter().filter(|&&k| k < 8).count() as f64 / a.len() as f64;
        assert!((0.17..0.23).contains(&hot), "hot share {hot}");
    }
}
