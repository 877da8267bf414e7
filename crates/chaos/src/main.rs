//! Chaos-sweep CLI.
//!
//! ```text
//! encompass-chaos --seed N            # one schedule, verbose, run twice
//! encompass-chaos --sweep COUNT       # seeds 0..COUNT
//! encompass-chaos --sweep COUNT --start S
//! encompass-chaos --sweep 10 --window 2000   # force a 2ms group-commit window
//! encompass-chaos --soak --sweep 4    # the soak layer; --shards for the shard layer
//! encompass-chaos                     # default: the 25-schedule CI smoke
//! ```
//!
//! Every flag only sets a field of the seed's [`Schedule`]; one runner
//! ([`encompass_chaos::run`]) plays it. Exit status is 1 if any run
//! violates an invariant (or a seed fails to reproduce its own
//! determinism hash) and 2 on bad arguments, including flags the chosen
//! layer would ignore.

use encompass_chaos::{run, RunReport, Schedule, Tier};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: Option<u64> = None;
    let mut sweep: Option<u64> = None;
    let mut start: u64 = 0;
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let value = |name: &str| parse_num(args.get(i + 1), name);
        match args[i].as_str() {
            "--seed" => seed = Some(value("--seed")),
            "--sweep" => sweep = Some(value("--sweep")),
            "--start" => start = value("--start"),
            "--window" => flags.window = Some(value("--window")),
            "--partitions" => {
                let n = value("--partitions");
                if n == 0 {
                    eprintln!("--partitions needs a value >= 1");
                    std::process::exit(2);
                }
                flags.partitions = Some(n);
            }
            "--readers" => flags.readers = Some(value("--readers")),
            "--dumps" => flags.dumps = true,
            "--soak" => flags.soak = true,
            "--shards" => flags.shards = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                print_usage();
                std::process::exit(2);
            }
        }
        let takes_value = !matches!(args[i].as_str(), "--dumps" | "--soak" | "--shards");
        if !matches!(args[i].as_str(), "--seed" | "--sweep" | "--start") {
            flags
                .repro
                .push_str(&args[i..=i + usize::from(takes_value)].join(" "));
            flags.repro.push(' ');
        }
        i += 1 + usize::from(takes_value);
    }

    if let Some(problem) = flags.conflict() {
        eprintln!("{problem}");
        std::process::exit(2);
    }
    let failed = match (seed, sweep) {
        (Some(s), _) => run_single(s, &flags),
        (None, Some(count)) => run_sweep(start, count, &flags),
        // the CI smoke default of each layer
        (None, None) => {
            let count = match Tier::of(&flags.schedule(0)) {
                Tier::Plain => 25,
                Tier::Soak => 3,
                Tier::Shard => 5,
            };
            run_sweep(0, count, &flags)
        }
    };
    if failed {
        std::process::exit(1);
    }
}

/// The schedule-shaping flags.
#[derive(Default)]
struct Flags {
    window: Option<u64>,
    dumps: bool,
    partitions: Option<u64>,
    readers: Option<u64>,
    soak: bool,
    shards: bool,
    /// The flags as given, for repro lines.
    repro: String,
}

impl Flags {
    /// A flag the chosen layer would silently drop.
    fn conflict(&self) -> Option<&'static str> {
        if self.soak && self.shards {
            return Some("--soak and --shards are separate layers; pick one");
        }
        if self.soak && self.dumps {
            return Some("--soak draws its own rolling dump plan; --dumps does not apply");
        }
        if self.shards && (self.dumps || self.partitions.is_some() || self.readers.is_some()) {
            return Some(
                "--shards runs the sharded bank; --dumps, --partitions and --readers do not apply",
            );
        }
        None
    }

    /// Generate the schedule for `seed`, overriding the drawn
    /// group-commit window when `--window US` was given, enabling the
    /// online-dump plan when `--dumps` was, forcing both the
    /// audit-partition count and the volumes-per-node to N when
    /// `--partitions N` was, pinning the read-only terminal count when
    /// `--readers N` was (`--readers 0` replays every seed's historical
    /// trace byte-for-byte), and switching on the soak or shard layer.
    fn schedule(&self, seed: u64) -> Schedule {
        let mut schedule = Schedule::generate(seed);
        if let Some(us) = self.window {
            schedule.group_commit_window_us = us;
        }
        if let Some(p) = self.partitions {
            schedule.audit_partitions = p as usize;
            schedule.volumes_per_node = (p as usize).min(2);
        }
        if let Some(r) = self.readers {
            schedule.readonly_terminals_per_node = r as usize;
        }
        schedule.dumps_enabled = self.dumps;
        schedule.soak_enabled = self.soak;
        schedule.shards_enabled = self.shards;
        schedule
    }
}

fn parse_num(arg: Option<&String>, flag: &str) -> u64 {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a numeric argument");
        std::process::exit(2);
    })
}

fn print_usage() {
    println!(
        "usage: encompass-chaos [--seed N | --sweep COUNT [--start S]] [--window US] [--dumps] \
         [--partitions N] [--readers N] [--soak] [--shards]\n\
         default: --sweep 25 (the CI smoke subset)\n\
         --window US overrides each schedule's group-commit window (microseconds)\n\
         --dumps enables each schedule's online-dump plan + trail purging\n\
         --partitions N forces N audit-trail partitions (and up to 2 volumes per node)\n\
         --readers N forces N read-only (snapshot) terminals per node; 0 replays\n\
         historical schedules byte-for-byte\n\
         --soak runs each seed as a simulated-hours soak (epochs of kill/dump/restore\n\
         waves, long-hold writers, long-lived snapshot readers, liveness +\n\
         bounded-state oracles, and for a quarter of seeds a full-disaster drill)\n\
         --shards runs each seed as a 4-6-node sharded bank (cross-shard transfers,\n\
         replicated branch records, one partition/heal cycle, for half the seeds a\n\
         CPU kill on a $SUSPENSE primary; suspense drain-liveness + replica\n\
         convergence oracles on top of atomicity/conservation/leak checks)\n\
         --soak and --shards are exclusive; --soak takes no --dumps, --shards takes\n\
         none of --dumps/--partitions/--readers (exit 2)"
    );
}

/// One seed, verbose: print the schedule, run it twice — the second time
/// with the flight recorder on — and require both runs to produce the
/// same determinism hash (which also pins recorder-off/on equivalence).
fn run_single(seed: u64, flags: &Flags) -> bool {
    let schedule = flags.schedule(seed);
    print!("{}", schedule.describe());
    let a = run(&schedule, false);
    let b = run(&schedule, true);
    println!("{}", a.summary_line());
    if let Some(d) = &a.drill {
        println!("  disaster drill: {d}");
    }
    let mut failed = false;
    if a.trace_hash != b.trace_hash {
        println!(
            "DETERMINISM VIOLATION: recorded rerun produced hash {:016x} != {:016x}",
            b.trace_hash, a.trace_hash
        );
        failed = true;
    }
    for v in &a.violations {
        println!("  violation: {v}");
        failed = true;
    }
    if failed {
        dump_flight(&b);
    } else {
        println!("seed {seed}: all invariants hold, deterministic");
    }
    failed
}

/// Print the implicated-transaction timelines of a recorded failing run
/// and export the full recorder state to `flightrec.json` (plus the
/// rendered timelines to `flight-timelines.txt`, for CI artifacts).
fn dump_flight(report: &RunReport) {
    let Some(flight) = &report.flight else {
        return;
    };
    if report.implicated.is_empty() {
        println!("  implicated transactions: none named by the oracles");
    } else {
        println!(
            "  implicated transactions: {}",
            report.implicated.join(", ")
        );
        for t in &flight.timelines {
            print!("{t}");
        }
        let rendered: String = flight.timelines.concat();
        if let Err(e) = std::fs::write("flight-timelines.txt", rendered) {
            println!("  could not write flight-timelines.txt: {e}");
        }
    }
    match std::fs::write("flightrec.json", &flight.json) {
        Ok(()) => println!("  flight records written to flightrec.json"),
        Err(e) => println!("  could not write flightrec.json: {e}"),
    }
}

fn run_sweep(start: u64, count: u64, flags: &Flags) -> bool {
    let mut reports: Vec<RunReport> = Vec::new();
    for seed in start..start + count {
        let schedule = flags.schedule(seed);
        let report = run(&schedule, false);
        println!("{}", report.summary_line());
        if !report.ok() {
            println!(
                "--- failing schedule (repro: {}--seed {seed}) ---",
                flags.repro
            );
            print!("{}", report.schedule_desc);
            for v in &report.violations {
                println!("  violation: {v}");
            }
            // recording is hash-neutral, so this replays the same run
            dump_flight(&run(&schedule, true));
        }
        reports.push(report);
    }
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    let failures = reports.iter().filter(|r| !r.ok()).count() as u64;
    println!(
        "swept {count} schedules: {} ok, {failures} failed \
         ({} commits, {} aborts, {} commits completed by takeover)",
        count - failures,
        sum(|r| r.commits),
        sum(|r| r.aborts),
        sum(|r| r.takeover_commit_completions),
    );
    match reports.first().map(|r| r.tier) {
        Some(Tier::Plain) if flags.dumps => println!(
            "online dumps: {} completed, {} trail files purged",
            sum(|r| r.dumps_completed),
            sum(|r| r.purged_trail_files),
        ),
        Some(Tier::Soak) => println!(
            "soak: {} reader restarts, {} long-hold commits, {} client respawns, \
             {} disaster drills",
            sum(|r| r.reader_restarts),
            sum(|r| r.writer_commits),
            sum(|r| r.client_respawns),
            sum(|r| u64::from(r.drill.is_some())),
        ),
        Some(Tier::Shard) => println!(
            "shards: {} deferred updates drained, {} suspense takeovers",
            sum(|r| r.suspense_applied),
            sum(|r| r.suspense_takeovers),
        ),
        Some(Tier::Plain) | None => {}
    }
    failures > 0
}
