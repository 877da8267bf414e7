//! Trace-hash corpus: every schedule of the CI chaos smoke matrix replays
//! the exact execution recorded in `corpus.txt`.
//!
//! Each line of `corpus.txt` is `profile seed hash`. A profile names the
//! CLI flags of one CI sweep step: `plain` (no flags), `window-2000`
//! (`--window 2000`), `dumps`, `partitions-2-dumps` (`--partitions 2
//! --dumps`), `readers-2` (`--readers 2`), `soak` and `shards`. Any
//! refactor of the runner must leave every hash unchanged; a mismatch
//! names the profile and seed, and `encompass-chaos <flags> --seed N`
//! replays it. The first seed of each profile is also re-run with the
//! flight recorder on, which must not change the hash.
//!
//! A change that is *meant* to alter executions regenerates the file
//! (and must argue the new behaviour):
//!
//! ```text
//! cargo build --release -p encompass-chaos
//! B=target/release/encompass-chaos
//! row() { p=$1; shift; $B "$@" | awk -v p="$p" '/^seed .* hash /{print p, $2, $4}'; }
//! { row plain --sweep 25; row window-2000 --sweep 10 --window 2000
//!   row dumps --sweep 25 --dumps; row partitions-2-dumps --sweep 10 --partitions 2 --dumps
//!   row readers-2 --sweep 10 --readers 2; row soak --soak --sweep 4
//!   row soak --soak --seed 10; row shards --shards --sweep 8
//! } > crates/chaos/tests/corpus.txt
//! ```

use encompass_chaos::{run, Schedule};

const CORPUS: &str = include_str!("corpus.txt");

const PROFILES: [&str; 7] = [
    "plain",
    "window-2000",
    "dumps",
    "partitions-2-dumps",
    "readers-2",
    "soak",
    "shards",
];

/// The corpus rows of `profile`, as `(seed, hash)`.
fn rows(profile: &str) -> Vec<(u64, u64)> {
    CORPUS
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (p, seed, hash) = (f.next()?, f.next()?, f.next()?);
            (p == profile).then(|| {
                let seed = seed.parse().expect("corpus seed");
                (seed, u64::from_str_radix(hash, 16).expect("corpus hash"))
            })
        })
        .collect()
}

/// The schedule the CLI builds for `profile` and `seed`.
fn schedule(profile: &str, seed: u64) -> Schedule {
    let mut s = Schedule::generate(seed);
    match profile {
        "plain" => {}
        "window-2000" => s.group_commit_window_us = 2000,
        "dumps" => s.dumps_enabled = true,
        "partitions-2-dumps" => {
            s.audit_partitions = 2;
            s.volumes_per_node = 2;
            s.dumps_enabled = true;
        }
        "readers-2" => s.readonly_terminals_per_node = 2,
        "soak" => s.soak_enabled = true,
        "shards" => s.shards_enabled = true,
        other => panic!("unknown corpus profile {other:?}"),
    }
    s
}

/// Replay every row of `profile`, then re-run its first seed recorded.
fn replay(profile: &str) {
    let rows = rows(profile);
    assert!(!rows.is_empty(), "corpus has no {profile} rows");
    let mismatches: Vec<String> = rows
        .iter()
        .filter_map(|&(seed, want)| {
            let got = run(&schedule(profile, seed), false).trace_hash;
            (got != want)
                .then(|| format!("{profile} seed {seed}: hash {got:016x}, corpus has {want:016x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "trace hash drift:\n{}",
        mismatches.join("\n")
    );

    let (seed, want) = rows[0];
    let recorded = run(&schedule(profile, seed), true);
    assert_eq!(
        recorded.trace_hash, want,
        "{profile} seed {seed}: the flight recorder changed the execution"
    );
    assert!(
        recorded.flight.is_some(),
        "{profile} seed {seed}: recorded run exported no flight data"
    );
}

/// The corpus covers exactly the CI matrix: 93 rows over seven profiles.
#[test]
fn corpus_covers_the_ci_matrix() {
    assert_eq!(CORPUS.lines().count(), 93);
    let counts: Vec<usize> = PROFILES.iter().map(|p| rows(p).len()).collect();
    assert_eq!(counts, [25, 10, 25, 10, 10, 5, 8]);
}

#[test]
fn plain_replays() {
    replay("plain");
}

#[test]
fn window_2000_replays() {
    replay("window-2000");
}

#[test]
fn dumps_replays() {
    replay("dumps");
}

#[test]
fn partitions_2_dumps_replays() {
    replay("partitions-2-dumps");
}

#[test]
fn readers_2_replays() {
    replay("readers-2");
}

#[test]
fn soak_replays() {
    replay("soak");
}

#[test]
fn shards_replays() {
    replay("shards");
}
