//! Every workload at smoke size, untraced and traced: the run is
//! correct, every catalog metric is printed exactly once with a finite
//! value, and the result line has the agreed shape.

use tmfbench::metrics::{END_TO_END, PER_LAYER};
use tmfbench::run::{run, Options};
use tmfbench::stats::result_json;
use tmfbench::workloads::{Size, ALL};

// count allocations here too, so `allocs_per_commit` is real
#[global_allocator]
static ALLOCATOR: tmfbench::alloc::Counting = tmfbench::alloc::Counting;

#[test]
fn all_workloads_run_correctly_at_smoke_size() {
    for workload in ALL {
        for trace in [false, true] {
            let outcome = run(&Options {
                workload,
                seed: 3,
                seconds: 1,
                trace,
                size: Size::Smoke,
            });
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct(), "{what}: {:?}", outcome.problems);
            assert!(outcome.attempted >= 1, "{what}: nothing attempted");
            assert_eq!(outcome.failed, 0, "{what}");
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let names: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            assert_eq!(names, expected, "{what}");
            for (name, value, _) in &outcome.metrics {
                assert!(
                    value.is_finite() && *value >= 0.0,
                    "{what}: {name} = {value}"
                );
            }
            if !trace {
                for (name, value, _) in &outcome.metrics {
                    assert!(*value > 0.0, "{what}: end-to-end metric {name} is zero");
                }
            } else {
                assert!(!outcome.spans_jsonl.is_empty(), "{what}: no spans");
            }
            let line = result_json(true, outcome.attempted, outcome.failed, &outcome.metrics);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}
