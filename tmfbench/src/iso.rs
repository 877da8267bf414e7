//! Isolated timings: single public functions of each layer, timed on a
//! traced run's real end state with inputs drawn from the workload's own
//! key distribution. They cover what the criterion-shim benches time
//! (B+tree get, lock acquire/release, trail force, rollforward — the last
//! as the recovery span) as versioned benchmark output.

use crate::stats::median;
use crate::workloads::EndState;
use bytes::Bytes;
use encompass::workload::account_key;
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_audit::trail::TrailMedia;
use encompass_sim::{NodeId, Payload};
use encompass_storage::audit_api::ImageRecord;
use encompass_storage::discprocess::DiscReply;
use encompass_storage::locks::{LockManager, LockMode, LockScope};
use encompass_storage::media::{media_key, FileImage, VolumeMedia};
use encompass_storage::types::Transid;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum duration of one timing round.
const ROUND: Duration = Duration::from_millis(3);
const ROUNDS: usize = 5;
/// Inputs drawn per measurement (cycled through).
const DRAWS: usize = 4096;
/// Images per forced boxcar in the trail-force timing.
const FORCE_BATCH: usize = 16;

/// Nanoseconds per call of `f`: the iteration count doubles until one
/// round lasts [`ROUND`], then the median of [`ROUNDS`] rounds.
pub fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let mut iters = 8usize;
    loop {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        if t.elapsed() >= ROUND || iters >= 1 << 26 {
            break;
        }
        iters *= 2;
    }
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// Every isolated timing, by metric name, in ns per call. Timings that
/// do not apply to the end state (no shard map) are absent.
pub fn measure(end: &EndState, seed: u64) -> Vec<(&'static str, f64)> {
    let world = &end.world;
    let mut out = Vec::new();
    let draws = end.keys.draw(seed, DRAWS);
    let keys: Vec<Bytes> = draws.iter().map(|&a| account_key(a)).collect();

    // sim: a counter bump on a copy of the run's final counters, cycling
    // through the names the run used
    let mut metrics = world.metrics().clone();
    let names: Vec<String> = metrics.snapshot().into_iter().map(|(n, _)| n).collect();
    out.push((
        "sim.metrics_inc_ns",
        ns_per_call(|i| metrics.inc(&names[i % names.len()])),
    ));
    out.push((
        "sim.payload_roundtrip_ns",
        ns_per_call(|i| {
            let p = Payload::new(DiscReply::Value(Some(keys[i % DRAWS].clone())));
            black_box(p.downcast::<DiscReply>().is_ok());
        }),
    ));

    // storage: the live account files, each key read on its own volume
    let accounts = end
        .catalog
        .get("accounts")
        .expect("the accounts file is in the catalog");
    let files: Vec<&FileImage> = keys
        .iter()
        .map(|k| {
            let v = accounts.volume_for(k);
            world
                .stable()
                .get::<VolumeMedia>(&media_key(v.node, &v.volume))
                .and_then(|m| m.file("accounts"))
                .expect("every account volume has media")
        })
        .collect();
    out.push((
        "storage.file_read_ns",
        ns_per_call(|i| {
            black_box(files[i % DRAWS].read(&keys[i % DRAWS]));
        }),
    ));
    out.push((
        "storage.btree_get_ns",
        ns_per_call(|i| {
            if let FileImage::KeySequenced(t) = files[i % DRAWS] {
                black_box(t.get(&keys[i % DRAWS]));
            }
        }),
    ));
    let scopes: Vec<LockScope> = keys
        .iter()
        .map(|k| LockScope::Record {
            file: "accounts".into(),
            key: k.clone(),
        })
        .collect();
    let mut locks = LockManager::new();
    out.push((
        "storage.lock_cycle_ns",
        ns_per_call(|i| {
            let txn = Transid {
                home_node: NodeId(0),
                cpu: 0,
                seq: i as u64,
            };
            black_box(locks.acquire(
                txn,
                scopes[i % DRAWS].clone(),
                LockMode::Exclusive,
                i as u64,
            ));
            black_box(locks.release_all(txn));
        }),
    ));

    // audit: the real Monitor Audit Trail and data trail
    let node = end.volumes[0].node;
    if let Some(monitor) = world.stable().get::<MonitorTrail>(&monitor_key(node)) {
        let n = monitor.records.len().max(1);
        let probes: Vec<Transid> = draws
            .iter()
            .filter_map(|&d| monitor.records.get(d as usize % n).map(|r| r.transid))
            .collect();
        if !probes.is_empty() {
            out.push((
                "audit.monitor_outcome_ns",
                ns_per_call(|i| {
                    black_box(monitor.outcome(probes[i % probes.len()]));
                }),
            ));
        }
    }
    let volume = &end.volumes[0];
    if let Some(trail) = end
        .trail_of
        .get(volume)
        .and_then(|k| world.stable().get::<TrailMedia>(k))
    {
        out.push((
            "audit.volume_images_ns",
            ns_per_call(|_| {
                black_box(trail.volume_images(volume));
            }),
        ));
        let tail: Vec<ImageRecord> = trail
            .files
            .iter()
            .rev()
            .flat_map(|f| f.records.iter().rev())
            .take(FORCE_BATCH)
            .cloned()
            .collect();
        if !tail.is_empty() {
            let rotate = trail.rotate_every;
            let mut fresh = TrailMedia::new(rotate);
            out.push((
                "audit.trail_force_ns",
                ns_per_call(|i| {
                    if i % 1024 == 0 {
                        // bound the copy's growth
                        fresh = TrailMedia::new(rotate);
                    }
                    fresh.force(tail.clone());
                }),
            ));
        }
    }

    // shard: routing a key to its master
    if let Some(map) = &end.map {
        out.push((
            "shard.master_of_ns",
            ns_per_call(|i| {
                black_box(map.master_of(&keys[i % DRAWS]));
            }),
        ));
    }
    out
}
