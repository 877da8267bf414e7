//! The shard layer: a sharded-bank schedule, with the sharding layer's
//! invariants checked on top of the core TMF oracles.
//!
//! The `--shards` tier aims faults at the suspense-file subsystem: a
//! partition isolates one shard mid-run so deferred branch updates pile
//! up in its peers' suspense files, the heal lets the monitors drain,
//! and for half the seeds an extra CPU kill lands on a `$SUSPENSE`
//! primary so the drain must resume from the backup. The layer supplies
//! the one runner's ([`crate::run`]) launch and fault phase ([`play`]),
//! its post-tail heal barrier and drain window, its `$SUSPENSE` probes,
//! and these oracles on top of atomicity and liveness:
//!
//! * **conservation** — transfers move money between accounts and
//!   branch credits never touch them, so the account total is constant;
//! * **drain liveness** — within a bounded sim-time window after the
//!   heal, every node's suspense backlog reaches zero and its monitor
//!   pair answers its own backlog probe with nothing pending
//!   ([`crate::oracles::suspense_drain_violations`], which names the
//!   implicated node);
//! * **replica convergence** — once the backlogs are empty, every ring
//!   replica of every master's branch record equals the master copy.

use crate::oracles::{suspense_drain_violations, SuspenseObservation};
use crate::runner::{Layer, Played};
use crate::schedule::Schedule;
use encompass::app::{
    launch_shard_bank, read_branch_copy, suspense_backlog, AppHandles, ShardBankAppParams,
};
use encompass::workload::total_balance;
use encompass_shard::{ShardMap, SuspenseProbe, SuspenseReply, SUSPENSE_SERVICE};
use encompass_sim::{CpuId, Fault, SimConfig, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Bounded drain window after the final heal barrier (sim-time, ms):
/// the liveness oracle requires every suspense backlog to reach zero
/// within it.
pub(crate) const DRAIN_WINDOW_MS: u64 = 30_000;

/// What the shard layer carries from its fault phase into the runner's
/// shared phases.
pub(crate) struct Shard {
    map: ShardMap,
    /// Terminals across the shard bank.
    pub(crate) terminals: usize,
    /// When the partition healed; the run-out deadline counts from here.
    pub(crate) heal_at: SimTime,
    initial_total: i64,
    backlog_at_heal: Vec<usize>,
    probes: Vec<Rc<RefCell<Option<SuspenseReply>>>>,
}

/// The shard layer's launch and fault phase: the shard bank, then one
/// partition/heal cycle and the optional `$SUSPENSE` monitor kill.
pub(crate) fn play(schedule: &Schedule, sim: SimConfig) -> Played {
    let plan = &schedule.shard;
    let tmf = tmf::facility::TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_micros(schedule.group_commit_window_us))
        .build()
        .expect("schedule produced an invalid TMF config");
    let accounts = plan.nodes as u64 * plan.accounts_per_node;
    let (mut app, map) = launch_shard_bank(ShardBankAppParams {
        nodes: plan.nodes,
        accounts,
        terminals_per_node: plan.terminals_per_node,
        transactions_per_terminal: plan.transactions_per_terminal,
        cross_shard_permille: plan.cross_shard_permille,
        branch_permille: plan.branch_permille,
        branch_replicas: plan.branch_replicas,
        think: SimDuration::from_millis(5),
        lock_wait: SimDuration::from_millis(300),
        seed: schedule.seed,
        sim,
        tmf,
        ..ShardBankAppParams::default()
    });

    let partition_at = SimTime::from_micros(plan.partition_at_us);
    let heal_at = SimTime::from_micros(plan.partition_at_us + plan.heal_after_us);
    app.world.run_until(partition_at);
    app.world
        .inject(Fault::Partition(vec![plan.partition_node]));
    app.world.run_until(heal_at);
    app.world.inject(Fault::HealAllLinks);
    let backlog_at_heal = app
        .nodes
        .iter()
        .map(|&n| suspense_backlog(&app.world, n, "$SB"))
        .collect();
    if let Some((node, at)) = plan.monitor_kill {
        app.world.run_until(SimTime::from_micros(at));
        if let Some(pid) = app.world.lookup_name(node, SUSPENSE_SERVICE) {
            if app.world.cpu_up(node, pid.cpu) {
                app.world.inject(Fault::KillCpu(node, pid.cpu));
            }
        }
    }
    // every shard volume is a node's `$SB`
    let volumes = app.catalog.all_volumes();
    Played {
        app,
        volumes,
        layer: Layer::Shard(Shard {
            map,
            terminals: plan.nodes * plan.terminals_per_node,
            heal_at,
            initial_total: accounts as i64 * 1000,
            backlog_at_heal,
            probes: Vec::new(),
        }),
    }
}

/// Post-tail: heal every link and restore every CPU, then give the
/// suspense monitors the bounded drain window.
pub(crate) fn heal_and_drain(app: &mut AppHandles) {
    app.world.inject(Fault::HealAllLinks);
    for &node in &app.nodes {
        for c in 0..app.world.cpu_count(node) {
            if !app.world.cpu_up(node, CpuId(c)) {
                app.world.inject(Fault::RestoreCpu(node, CpuId(c)));
            }
        }
    }
    app.world.run_for(SimDuration::from_millis(DRAIN_WINDOW_MS));
}

impl Shard {
    /// Spawn one `$SUSPENSE` backlog probe per node (before the runner's
    /// TMP and lock probes).
    pub(crate) fn spawn_probes(&mut self, app: &mut AppHandles) {
        self.probes = app
            .nodes
            .iter()
            .map(|&n| SuspenseProbe::spawn(&mut app.world, n))
            .collect();
    }

    /// Oracle: the account total is constant.
    pub(crate) fn check_conservation(&self, app: &mut AppHandles, violations: &mut Vec<String>) {
        let final_total = total_balance(&mut app.world, &app.catalog, "accounts");
        if final_total != self.initial_total {
            violations.push(format!(
                "conservation: account total {final_total} != initial {} (off by {})",
                self.initial_total,
                self.initial_total - final_total
            ));
        }
    }

    /// Oracles: every suspense backlog drained within the window, and
    /// every branch-record replica equals its master copy.
    pub(crate) fn check_drain_and_replicas(
        &self,
        app: &AppHandles,
        schedule: &Schedule,
        violations: &mut Vec<String>,
    ) {
        let obs: Vec<SuspenseObservation> = app
            .nodes
            .iter()
            .zip(&self.probes)
            .zip(&self.backlog_at_heal)
            .map(|((&node, slot), &backlog_at_heal)| SuspenseObservation {
                node: node.to_string(),
                backlog_at_heal,
                backlog_final: suspense_backlog(&app.world, node, "$SB"),
                probe: slot.borrow().as_ref().map(|r| match r {
                    SuspenseReply::Backlog {
                        pending, applied, ..
                    } => (*pending, *applied),
                    SuspenseReply::Drained => (0, 0),
                }),
            })
            .collect();
        violations.extend(suspense_drain_violations(&obs, DRAIN_WINDOW_MS));

        for &m in &app.nodes {
            let master_copy = read_branch_copy(&app.world, m, m);
            for r in self.map.replica_set(m, schedule.shard.branch_replicas) {
                let replica_copy = read_branch_copy(&app.world, r, m);
                if replica_copy != master_copy {
                    violations.push(format!(
                        "convergence: replica at {r} of {m}'s branch record diverges \
                         after drain ({replica_copy:?} vs master {master_copy:?})"
                    ));
                }
            }
        }
    }
}
