//! `tmfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name and unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--smoke` shrinks the workload to a seconds-long check; `--manifest`
//! prints `BENCHMARK.json`. Exit code 0 on a correct run, 1 when a check
//! failed, 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;
use tmfbench::run::{run, Options};
use tmfbench::stats::result_json;
use tmfbench::workloads::{Size, Workload};

#[global_allocator]
static ALLOCATOR: tmfbench::alloc::Counting = tmfbench::alloc::Counting;

const USAGE: &str =
    "usage: tmfbench --workload <bank_1node|read_mix_1node|shard_64node|chaos_soak> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] | --manifest";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => return Ok(None),
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    }))
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => {
            print!("{}", tmfbench::metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("tmfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    for (name, value, unit) in &outcome.metrics {
        println!("{:<36} {value:>16.6} {unit}", name);
    }
    if opts.trace {
        // spans go inside the benchmark's own directory of the checkout
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, &outcome.spans_jsonl));
        match written {
            Ok(()) => eprintln!("tmfbench: spans written to {}", file.display()),
            Err(e) => eprintln!("tmfbench: could not write spans to {}: {e}", file.display()),
        }
    }
    for n in &outcome.notes {
        eprintln!("tmfbench: {n}");
    }
    for p in &outcome.problems {
        eprintln!("tmfbench: CHECK FAILED: {p}");
    }
    println!(
        "{}",
        result_json(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
