//! Oracle families over probe observations: **liveness** (every layer),
//! **bounded state** (soak) and **suspense drain** (shards).
//!
//! All are pure functions over observation structs so that unit tests
//! can feed synthetic stuck schedules (a transaction that never
//! resolves, a monitor boxcar that never flushes, a purge floor that
//! never advances) and assert that each oracle fires with a message
//! naming the implicated transid or process. The runner collects the
//! observations from live probes (`TmpMsg::ListOpen` and
//! `DiscRequest::LockAudit` on every layer; on the soak layer also
//! [`crate::probe::TmpStateProbe`], [`crate::probe::AuditStateProbe`],
//! `DiscRequest::StateAudit`) and from the stable storage (dump
//! registries, archive keys), then hands them here.

use encompass_storage::audit_api::AuditStateReport;
use encompass_storage::discprocess::DiscStateReport;
use tmf::tmp::TmpStateReport;

/// One process's answer to a state probe, tagged with who answered and
/// when (soak epoch index; `usize::MAX` = the final post-heal probe).
#[derive(Clone, Debug)]
pub struct StateObservation {
    /// Display name of the probed process, e.g. `"$TMP@\\N0"` or
    /// `"$BANK1@\\N2"`.
    pub process: String,
    /// Soak epoch at whose boundary the probe ran.
    pub epoch: usize,
    pub kind: StateKind,
}

/// The probed process's report.
#[derive(Clone, Debug)]
pub enum StateKind {
    Disc(DiscStateReport),
    Tmp(TmpStateReport),
    Audit(AuditStateReport),
    /// Count of `archive:<volume>:<gen>` keys present on stable storage
    /// for one volume.
    ArchiveKeys { volume: String, count: usize },
}

/// Caps for the bounded-state oracle. Everything the servers keep per
/// transid or per request must stay below these across the whole soak
/// horizon; a monotonically growing structure is a leak even when the
/// run is otherwise green.
#[derive(Clone, Copy, Debug)]
pub struct StateCaps {
    /// `DiscConfig::snapshot_undo_capacity` in effect for the run.
    pub snapshot_undo: usize,
    /// Live (unsettled) fenced transactions on one volume.
    pub fenced_live: usize,
    /// `DiscConfig::settled_fence_capacity` in effect for the run.
    pub settled_fences: usize,
    /// Counted-but-uncompleted lock waits on one volume.
    pub counted_waits: usize,
    /// Live transactions with retained (unforced) images on one volume.
    pub unforced_txns: usize,
    /// Transaction-table entries at one TMP.
    pub tmp_txns: usize,
    /// Reply-cache occupancy (each cache is bounded by construction;
    /// this is the largest capacity in the system).
    pub reply_cache: usize,
    /// Records buffered at one AUDITPROCESS awaiting a force.
    pub audit_buffered: usize,
    /// `archive:` keys retained per volume: `archive_retain` plus one
    /// in-flight generation.
    pub archive_keys: usize,
}

impl StateCaps {
    /// Caps used by the soak runner (matched to the facility knobs it
    /// configures).
    pub fn soak(snapshot_undo_capacity: usize, archive_retain: usize) -> StateCaps {
        StateCaps {
            snapshot_undo: snapshot_undo_capacity,
            fenced_live: 256,
            settled_fences: 4096,
            counted_waits: 512,
            unforced_txns: 64,
            tmp_txns: 256,
            reply_cache: 16384,
            audit_buffered: 4096,
            archive_keys: archive_retain + 1,
        }
    }
}

/// Bounded-state oracle: every per-transid / per-request structure a
/// server keeps must stay within its cap at every observation point.
/// Returns one violation string per breach, naming the process, the
/// field, the observed size, and the cap.
pub fn bounded_violations(obs: &[StateObservation], caps: &StateCaps) -> Vec<String> {
    let mut v = Vec::new();
    let mut breach = |process: &str, epoch: usize, field: &str, size: usize, cap: usize| {
        if size > cap {
            v.push(format!(
                "bounded-state: {process} {field}={size} exceeds cap {cap} at epoch {epoch}"
            ));
        }
    };
    for o in obs {
        let p = o.process.as_str();
        match &o.kind {
            StateKind::Disc(r) => {
                breach(p, o.epoch, "snapshot_undo", r.snapshot_undo, caps.snapshot_undo);
                breach(p, o.epoch, "fenced_live", r.fenced_live, caps.fenced_live);
                breach(p, o.epoch, "settled_fences", r.settled_fences, caps.settled_fences);
                breach(p, o.epoch, "counted_waits", r.counted_waits, caps.counted_waits);
                breach(p, o.epoch, "unforced_txns", r.unforced_txns, caps.unforced_txns);
                breach(p, o.epoch, "reply_cache", r.reply_cache, caps.reply_cache);
                // images/low-seq pins exist only for live fenced txns
                breach(p, o.epoch, "txn_images", r.txn_images, caps.fenced_live);
                breach(p, o.epoch, "txn_low_seq", r.txn_low_seq, caps.fenced_live);
            }
            StateKind::Tmp(r) => {
                breach(p, o.epoch, "txns", r.txns, caps.tmp_txns);
                breach(p, o.epoch, "reply_cache", r.reply_cache, caps.reply_cache);
            }
            StateKind::Audit(r) => {
                breach(p, o.epoch, "buffered", r.buffered, caps.audit_buffered);
                breach(p, o.epoch, "reply_cache", r.reply_cache, caps.reply_cache);
            }
            StateKind::ArchiveKeys { volume, count } => {
                breach(
                    &format!("{p} archive set for {volume}"),
                    o.epoch,
                    "archive_keys",
                    *count,
                    caps.archive_keys,
                );
            }
        }
    }
    v
}

/// One process's answer to the *final* (post-heal, post-quiesce)
/// liveness probes. Everything in here must be fully drained: the
/// workload is over, every fault is healed, and the system has had a
/// generous quiesce window.
#[derive(Clone, Debug, Default)]
pub struct LivenessObservation {
    /// Display name, e.g. `"$TMP@\\N1"`.
    pub process: String,
    /// Transids still in the transaction table (`TmpMsg::ListOpen`).
    pub open_transids: Vec<String>,
    /// Completion records still parked in the monitor boxcar.
    pub monitor_boxcar: usize,
    /// Completion records still in a monitor force in flight.
    pub monitor_inflight: usize,
    /// Safe-delivery / backout / phase-one rpcs still outstanding.
    pub outstanding_rpcs: usize,
    /// Records still buffered (unforced) at an AUDITPROCESS.
    pub audit_buffered: usize,
    /// Force waiters still parked at an AUDITPROCESS.
    pub audit_waiters: usize,
    /// Lock waiters still parked at a DISCPROCESS.
    pub lock_waiters: usize,
    /// Locks still held at a DISCPROCESS.
    pub locks_held: usize,
    /// The probe never heard back (process unreachable after heal).
    pub unreachable: bool,
}

/// Purge-floor progress for one volume across the soak horizon.
#[derive(Clone, Debug)]
pub struct PurgeFloorTrack {
    pub volume: String,
    /// Registry generation at the first epoch boundary where the volume
    /// had a completed dump.
    pub first_generation: u64,
    /// Registry generation at the end of the run.
    pub last_generation: u64,
    /// Purge floor at the first observation.
    pub first_floor: u64,
    /// Purge floor at the end of the run.
    pub last_floor: u64,
}

/// A long-lived soak client's terminal status: `None` means it never
/// reported finishing.
#[derive(Clone, Debug)]
pub struct ClientStatus {
    /// Display name, e.g. `"soak-writer[\\N0:$BANK1]"`.
    pub name: String,
    /// `Some(summary)` once the client reached its terminal state.
    pub finished: Option<String>,
    /// Last state-machine transition the client recorded, for
    /// diagnosing where it wedged.
    pub last_state: String,
}

/// Liveness oracle: after the heal barrier and quiesce window, every
/// begun transaction has reached a terminal state, every boxcar and
/// waiter queue has drained, every long-lived client has finished, and
/// purge floors moved forward on volumes that completed dumps. Returns
/// one violation per breach, naming the implicated transid, process, or
/// volume.
pub fn liveness_violations(
    obs: &[LivenessObservation],
    clients: &[ClientStatus],
    floors: &[PurgeFloorTrack],
) -> Vec<String> {
    let mut v = Vec::new();
    for o in obs {
        let p = o.process.as_str();
        if o.unreachable {
            v.push(format!("liveness: {p} unreachable after heal"));
            continue;
        }
        for t in &o.open_transids {
            v.push(format!(
                "liveness: transaction {t} never reached a terminal state (still open at {p})"
            ));
        }
        if o.monitor_boxcar > 0 {
            v.push(format!(
                "liveness: monitor boxcar at {p} never flushed ({} completion records parked)",
                o.monitor_boxcar
            ));
        }
        if o.monitor_inflight > 0 {
            v.push(format!(
                "liveness: monitor force at {p} never completed ({} records in flight)",
                o.monitor_inflight
            ));
        }
        if o.outstanding_rpcs > 0 {
            v.push(format!(
                "liveness: {} rpcs still outstanding at {p} after quiesce",
                o.outstanding_rpcs
            ));
        }
        if o.audit_buffered > 0 {
            v.push(format!(
                "liveness: {} audit records never forced at {p}",
                o.audit_buffered
            ));
        }
        if o.audit_waiters > 0 {
            v.push(format!(
                "liveness: {} force waiters still parked at {p}",
                o.audit_waiters
            ));
        }
        if o.lock_waiters > 0 {
            v.push(format!(
                "liveness: {} lock waiters still parked at {p}",
                o.lock_waiters
            ));
        }
        if o.locks_held > 0 {
            v.push(format!("liveness: {} locks still held at {p}", o.locks_held));
        }
    }
    for c in clients {
        if c.finished.is_none() {
            v.push(format!(
                "liveness: soak client {} never reached a terminal state (last: {})",
                c.name, c.last_state
            ));
        }
    }
    for f in floors {
        // Two completed dump generations bracket at least one full
        // epoch of settle traffic, so the floor proven by the later
        // dump must exceed the floor proven by the earlier one.
        if f.last_generation >= f.first_generation + 2 && f.last_floor <= f.first_floor {
            v.push(format!(
                "liveness: purge floor of {} never advanced ({} at generation {}, still {} at generation {})",
                f.volume, f.first_floor, f.first_generation, f.last_floor, f.last_generation
            ));
        }
    }
    v
}

/// One node's suspense-file drain status, observed by the shard layer
/// after the heal barrier and a bounded drain window.
#[derive(Clone, Debug)]
pub struct SuspenseObservation {
    /// Display name of the node, e.g. `"\\N2"`.
    pub node: String,
    /// Suspense-file entries still queued when the heal barrier ran.
    pub backlog_at_heal: usize,
    /// Entries still queued at the end of the drain window. Anything
    /// nonzero here is a stuck monitor: the partition is healed, the
    /// workload is over, and the window is bounded sim-time.
    pub backlog_final: usize,
    /// The monitor pair's own `SuspenseMsg::Backlog` answer —
    /// `(pending, applied)` — or `None` if the probe never heard back.
    pub probe: Option<(u64, u64)>,
}

/// Drain-liveness oracle for the suspense-file subsystem: within a
/// bounded sim-time window after every partition heals, each node's
/// suspense backlog must reach zero and its monitor pair must be alive
/// and agree that nothing is pending. Returns one violation per breach,
/// naming the implicated node.
pub fn suspense_drain_violations(
    obs: &[SuspenseObservation],
    drain_window_ms: u64,
) -> Vec<String> {
    let mut v = Vec::new();
    for o in obs {
        let n = o.node.as_str();
        if o.backlog_final > 0 {
            v.push(format!(
                "suspense: backlog at {n} never drained ({} deferred update(s) still \
                 queued {drain_window_ms}ms after the heal, {} at the heal barrier)",
                o.backlog_final, o.backlog_at_heal
            ));
        }
        match o.probe {
            None => v.push(format!("suspense: monitor at {n} unreachable after heal")),
            Some((pending, _)) if pending > 0 => v.push(format!(
                "suspense: monitor at {n} still reports {pending} pending record(s) \
                 after the drain window"
            )),
            Some(_) => {}
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> StateCaps {
        StateCaps::soak(64, 2)
    }

    #[test]
    fn clean_observations_raise_nothing() {
        let obs = vec![
            StateObservation {
                process: "$BANK@\\N0".into(),
                epoch: 3,
                kind: StateKind::Disc(DiscStateReport::default()),
            },
            StateObservation {
                process: "$TMP@\\N0".into(),
                epoch: 3,
                kind: StateKind::Tmp(TmpStateReport::default()),
            },
            StateObservation {
                process: "$AUDIT@\\N0".into(),
                epoch: 3,
                kind: StateKind::Audit(AuditStateReport::default()),
            },
        ];
        assert!(bounded_violations(&obs, &caps()).is_empty());
        let live = vec![LivenessObservation {
            process: "$TMP@\\N0".into(),
            ..Default::default()
        }];
        let clients = vec![ClientStatus {
            name: "soak-writer[\\N0:$BANK]".into(),
            finished: Some("commits=12".into()),
            last_state: "done".into(),
        }];
        let floors = vec![PurgeFloorTrack {
            volume: "\\N0:$BANK".into(),
            first_generation: 1,
            last_generation: 5,
            first_floor: 40,
            last_floor: 900,
        }];
        assert!(liveness_violations(&live, &clients, &floors).is_empty());
    }

    #[test]
    fn stuck_transaction_names_the_transid() {
        // synthetic stuck schedule: a transaction begun in epoch 2
        // never resolves and is still in \N1's table after the heal
        let live = vec![LivenessObservation {
            process: "$TMP@\\N1".into(),
            open_transids: vec!["\\N1:2:417".into()],
            ..Default::default()
        }];
        let v = liveness_violations(&live, &[], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("\\N1:2:417"), "{}", v[0]);
        assert!(v[0].contains("$TMP@\\N1"), "{}", v[0]);
        assert!(v[0].contains("never reached a terminal state"), "{}", v[0]);
    }

    #[test]
    fn stuck_boxcar_names_the_monitor() {
        // synthetic stuck schedule: the monitor boxcar holds three
        // completion records and no force ever fires
        let live = vec![LivenessObservation {
            process: "$TMP@\\N0".into(),
            monitor_boxcar: 3,
            ..Default::default()
        }];
        let v = liveness_violations(&live, &[], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("monitor boxcar at $TMP@\\N0 never flushed"), "{}", v[0]);
    }

    #[test]
    fn stuck_purge_floor_names_the_volume() {
        // synthetic stuck schedule: four dump generations complete but
        // the proven floor never moves
        let floors = vec![PurgeFloorTrack {
            volume: "\\N2:$BANK1".into(),
            first_generation: 1,
            last_generation: 5,
            first_floor: 12,
            last_floor: 12,
        }];
        let v = liveness_violations(&[], &[], &floors);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("purge floor of \\N2:$BANK1 never advanced"), "{}", v[0]);
    }

    #[test]
    fn floor_not_required_to_advance_without_two_dumps() {
        let floors = vec![PurgeFloorTrack {
            volume: "\\N0:$BANK".into(),
            first_generation: 2,
            last_generation: 3,
            first_floor: 7,
            last_floor: 7,
        }];
        assert!(liveness_violations(&[], &[], &floors).is_empty());
    }

    #[test]
    fn stuck_client_names_the_client_and_its_last_state() {
        let clients = vec![ClientStatus {
            name: "soak-writer[\\N0:$BANK1]".into(),
            finished: None,
            last_state: "holding \\N0:1:93".into(),
        }];
        let v = liveness_violations(&[], &clients, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("soak-writer[\\N0:$BANK1]"), "{}", v[0]);
        assert!(v[0].contains("\\N0:1:93"), "{}", v[0]);
    }

    #[test]
    fn parked_waiters_and_held_locks_fire() {
        let live = vec![LivenessObservation {
            process: "$BANK@\\N0".into(),
            lock_waiters: 2,
            locks_held: 5,
            audit_buffered: 0,
            ..Default::default()
        }];
        let v = liveness_violations(&live, &[], &[]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|s| s.contains("2 lock waiters still parked")));
        assert!(v.iter().any(|s| s.contains("5 locks still held")));
    }

    #[test]
    fn snapshot_undo_over_cap_names_the_volume_process() {
        let obs = vec![StateObservation {
            process: "$BANK1@\\N1".into(),
            epoch: 4,
            kind: StateKind::Disc(DiscStateReport {
                snapshot_undo: 65,
                ..Default::default()
            }),
        }];
        let v = bounded_violations(&obs, &caps());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("$BANK1@\\N1"), "{}", v[0]);
        assert!(v[0].contains("snapshot_undo=65"), "{}", v[0]);
        assert!(v[0].contains("cap 64"), "{}", v[0]);
        assert!(v[0].contains("epoch 4"), "{}", v[0]);
    }

    #[test]
    fn leaked_per_transid_maps_fire() {
        // post-settlement leak: counted_waits / unforced images growing
        // past any plausible live population
        let obs = vec![StateObservation {
            process: "$BANK@\\N0".into(),
            epoch: 7,
            kind: StateKind::Disc(DiscStateReport {
                counted_waits: 513,
                unforced_txns: 65,
                ..Default::default()
            }),
        }];
        let v = bounded_violations(&obs, &caps());
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|s| s.contains("counted_waits=513")));
        assert!(v.iter().any(|s| s.contains("unforced_txns=65")));
    }

    #[test]
    fn drained_suspense_raises_nothing() {
        let obs = vec![SuspenseObservation {
            node: "\\N1".into(),
            backlog_at_heal: 7,
            backlog_final: 0,
            probe: Some((0, 7)),
        }];
        assert!(suspense_drain_violations(&obs, 30_000).is_empty());
    }

    #[test]
    fn stuck_suspense_backlog_names_the_node() {
        // synthetic stuck schedule: \N2 accumulated 5 deferred updates
        // behind the partition and its monitor never drained them
        let obs = vec![
            SuspenseObservation {
                node: "\\N0".into(),
                backlog_at_heal: 2,
                backlog_final: 0,
                probe: Some((0, 2)),
            },
            SuspenseObservation {
                node: "\\N2".into(),
                backlog_at_heal: 5,
                backlog_final: 5,
                probe: Some((5, 0)),
            },
        ];
        let v = suspense_drain_violations(&obs, 30_000);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("\\N2"), "{}", v[0]);
        assert!(v[0].contains("never drained"), "{}", v[0]);
        assert!(v[0].contains("5 deferred update(s)"), "{}", v[0]);
        assert!(v[0].contains("30000ms"), "{}", v[0]);
        assert!(v[1].contains("\\N2"), "{}", v[1]);
        assert!(v[1].contains("5 pending"), "{}", v[1]);
        assert!(!v.iter().any(|s| s.contains("\\N0")), "{v:?}");
    }

    #[test]
    fn unreachable_suspense_monitor_names_the_node() {
        let obs = vec![SuspenseObservation {
            node: "\\N3".into(),
            backlog_at_heal: 0,
            backlog_final: 0,
            probe: None,
        }];
        let v = suspense_drain_violations(&obs, 30_000);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("monitor at \\N3 unreachable"), "{}", v[0]);
    }

    #[test]
    fn archive_retention_over_cap_fires() {
        let obs = vec![StateObservation {
            process: "stable".into(),
            epoch: 6,
            kind: StateKind::ArchiveKeys {
                volume: "\\N0:$BANK".into(),
                count: 4,
            },
        }];
        let v = bounded_violations(&obs, &caps());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("\\N0:$BANK"), "{}", v[0]);
        assert!(v[0].contains("archive_keys=4"), "{}", v[0]);
    }
}
