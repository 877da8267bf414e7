//! The benchmark's own spans and its step loop.
//!
//! Spans are recorded here, around the calls the benchmark makes into
//! each crate's public API — never inside the program. They are kept in
//! memory (name, start, end, parent, run id) and written out as JSON
//! lines when the benchmark ends.
//!
//! Every phase that advances a simulated world goes through
//! [`step_until`], which dispatches events in fixed batches between
//! stop-condition checks. Untraced and traced runs therefore stop at the
//! same virtual instants; the traced run only wraps each `World::step`
//! call in a clock read, so its trace hash and event count must equal the
//! untraced run's.

use encompass_sim::World;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Repetition the span belongs to (all spans of one workload run share it).
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::list`].
    pub parent: Option<usize>,
}

/// In-memory span recorder for one benchmark process.
pub struct Spans {
    t0: Instant,
    run: u32,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            run: 0,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start a new repetition: later spans carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let idx = self.list.len();
        let start = self.now_ns();
        self.list.push(Span {
            name,
            run: self.run,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        self.list[idx].end_ns = end;
        (out, (end - start) as f64 / 1e9)
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// The spans as JSON lines, one object each, tagged with `workload`
    /// and `seed`.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        for (i, sp) in self.list.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                s,
                "{{\"id\": {i}, \"workload\": \"{workload}\", \"seed\": {seed}, \"run\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.run, sp.name, sp.start_ns, sp.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        s
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// Dispatch events in batches of `batch` until `done` holds, timing every
/// `World::step` into `step_ns` when it is given. Returns false if the
/// queue ran dry or `max_events` events passed without `done` holding.
pub fn step_until(
    world: &mut World,
    batch: u32,
    max_events: u64,
    mut step_ns: Option<&mut Vec<u32>>,
    mut done: impl FnMut(&World) -> bool,
) -> bool {
    let start = world.events_processed();
    while !done(world) {
        if world.events_processed() - start > max_events {
            return false;
        }
        for _ in 0..batch {
            let more = match step_ns.as_deref_mut() {
                Some(times) => {
                    let t = Instant::now();
                    let more = world.step();
                    times.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
                    more
                }
                None => world.step(),
            };
            if !more {
                return done(world);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut spans = Spans::new();
        spans.next_run();
        let ((), outer) = spans.time("outer", |s| {
            s.time("inner", |_| ());
        });
        assert!(outer >= 0.0);
        let list = spans.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "outer");
        assert_eq!(list[0].parent, None);
        assert_eq!(list[1].parent, Some(0));
        assert!(list[1].start_ns >= list[0].start_ns && list[1].end_ns <= list[0].end_ns);
        assert!(list.iter().all(|s| s.run == 1));
        let jsonl = spans.to_jsonl("bank_1node", 7);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\": 0"));
        assert!(jsonl.contains("\"parent\": null"));
    }
}
