//! Run every figure and claim experiment in EXPERIMENTS.md in order, or
//! one of them with `--only ID` (e.g. `exp_all --only T3`).
use encompass_bench::experiments::{all, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = match args.as_slice() {
        [] => all(),
        [flag, id] if flag == "--only" => {
            match EXPERIMENTS
                .iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(id))
            {
                Some((_, f)) => f(),
                None => usage(&format!("unknown experiment {id:?}")),
            }
        }
        _ => usage("unexpected arguments"),
    };
    for table in tables {
        println!("{table}");
    }
}

fn usage(problem: &str) -> ! {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "{problem}\nusage: exp_all [--only ID]   (IDs: {})",
        ids.join(" ")
    );
    std::process::exit(2);
}
