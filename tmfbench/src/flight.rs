//! Virtual commit latency and its attribution, from the flight recorder.
//!
//! The recorder is trace-hash-neutral, so a recorded repetition runs the
//! same virtual execution as an unrecorded one; its per-transaction
//! timelines give the exact home-commit latency of every committed
//! read-write transaction (END-TRANSACTION to commit) and split each such
//! transaction's lifetime into lock wait, force, checkpoint and bus time.
//! Read-only transactions are left out: their END resolves locally with
//! no commit record, in zero virtual time.

use crate::stats::percentile_sorted;
use encompass_sim::{CommitAttribution, FlightCause, FlightEvent};

/// Latency samples and attribution sums over committed read-write
/// transactions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightStats {
    /// END→commit latency of each committed transaction, µs (sorted
    /// once all samples are in, by [`FlightStats::percentile_ms`]).
    pub commit_us: Vec<u64>,
    pub total_us: u64,
    pub lock_wait_us: u64,
    pub force_us: u64,
    pub checkpoint_us: u64,
    pub bus_us: u64,
    /// Process-pair takeovers that touched an in-flight transaction.
    pub takeovers: u64,
}

impl FlightStats {
    /// Fold per-transaction timelines with their attribution (`None` for
    /// transactions that did not commit). Only transactions that wrote a
    /// commit record count as commits.
    pub fn from_reports<'a>(
        reports: impl Iterator<Item = (&'a [FlightEvent], Option<CommitAttribution>)>,
    ) -> FlightStats {
        let mut s = FlightStats::default();
        for (events, attribution) in reports {
            s.takeovers += events
                .iter()
                .filter(|e| e.cause == FlightCause::Takeover)
                .count() as u64;
            let wrote_commit_record = events
                .iter()
                .any(|e| e.cause == FlightCause::MonitorEnqueued);
            if let Some(a) = attribution.filter(|_| wrote_commit_record) {
                s.commit_us.push(a.commit_us);
                s.total_us += a.total_us;
                s.lock_wait_us += a.lock_wait_us;
                s.force_us += a.force_us;
                s.checkpoint_us += a.checkpoint_us;
                s.bus_us += a.bus_us;
            }
        }
        s.commit_us.sort_unstable();
        s
    }

    pub fn merge(&mut self, other: FlightStats) {
        self.commit_us.extend(other.commit_us);
        self.commit_us.sort_unstable();
        self.total_us += other.total_us;
        self.lock_wait_us += other.lock_wait_us;
        self.force_us += other.force_us;
        self.checkpoint_us += other.checkpoint_us;
        self.bus_us += other.bus_us;
        self.takeovers += other.takeovers;
    }

    /// Nearest-rank percentile of commit latency, ms (0 with no commits).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.commit_us.is_empty() {
            return 0.0;
        }
        percentile_sorted(&self.commit_us, p) as f64 / 1e3
    }

    pub fn mean_ms(&self) -> f64 {
        self.tail_mean_ms(1.0)
    }

    /// Mean latency of the slowest `share` of commits (at least one), ms;
    /// 0 with no commits.
    pub fn tail_mean_ms(&self, share: f64) -> f64 {
        let len = self.commit_us.len();
        if len == 0 {
            return 0.0;
        }
        let n = ((len as f64 * share).ceil() as usize).clamp(1, len);
        self.commit_us[len - n..].iter().sum::<u64>() as f64 / n as f64 / 1e3
    }

    /// A component's share of committed transactions' lifetimes.
    pub fn share(&self, component_us: u64) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            component_us as f64 / self.total_us as f64
        }
    }
}

/// The `"dropped"` count at the head of a recorder JSON export.
pub fn dropped_from_json(json: &str) -> Option<u64> {
    let rest = &json[json.find("\"dropped\":")? + "\"dropped\":".len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attribution(commit_us: u64) -> Option<CommitAttribution> {
        Some(CommitAttribution {
            total_us: commit_us * 2,
            commit_us,
            lock_wait_us: commit_us,
            force_us: commit_us / 2,
            checkpoint_us: 0,
            bus_us: commit_us / 2,
        })
    }

    fn event(cause: FlightCause) -> FlightEvent {
        use encompass_sim::{CpuId, FlightTransid, NodeId, Pid, SimTime};
        FlightEvent {
            at: SimTime::ZERO,
            pid: Pid {
                node: NodeId(0),
                cpu: CpuId(0),
                index: 0,
            },
            transid: FlightTransid {
                home_node: 0,
                cpu: 0,
                seq: 1,
            },
            cause,
        }
    }

    #[test]
    fn percentiles_and_shares() {
        let write = [
            event(FlightCause::MonitorEnqueued),
            event(FlightCause::Takeover),
        ];
        let read_only = [event(FlightCause::EndRequested)];
        let s = FlightStats::from_reports(
            (1..=100)
                .map(|i| (&write[..], attribution(i * 1_000)))
                .chain([(&write[..], None), (&read_only[..], attribution(0))]),
        );
        assert_eq!(s.takeovers, 101);
        assert_eq!(s.commit_us.len(), 100);
        assert_eq!(s.percentile_ms(0.5), 50.0);
        assert_eq!(s.percentile_ms(0.99), 99.0);
        assert_eq!(s.share(s.lock_wait_us), 0.5);
        assert!((s.mean_ms() - 50.5).abs() < 1e-9);
        // slowest 1% of 100 commits = the single slowest; 5% = 96..=100
        assert_eq!(s.tail_mean_ms(0.01), 100.0);
        assert_eq!(s.tail_mean_ms(0.05), 98.0);
        let mut m = FlightStats::default();
        m.merge(s.clone());
        assert_eq!(m, s);
        assert_eq!(FlightStats::default().percentile_ms(0.5), 0.0);
    }

    #[test]
    fn dropped_count_parses() {
        assert_eq!(
            dropped_from_json("{\n  \"dropped\": 17,\n  \"transactions\": []}"),
            Some(17)
        );
        assert_eq!(dropped_from_json("{}"), None);
    }
}
