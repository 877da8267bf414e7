//! The one chaos runner: play a schedule end-to-end and check every TMF
//! invariant.
//!
//! [`run`] is a single phase sequence. The schedule's layer flags
//! (`soak_enabled`, `shards_enabled`, and `dumps_enabled` on the plain
//! layer) pick what each phase does; DESIGN.md §D17 has the table.
//!
//! 1. **launch + fault phase** — the bank app (with a generation-0
//!    archive of every volume: the preload writes the account records
//!    straight to the media, bypassing TMF, like a pre-TMF bulk load
//!    followed by an online dump) plus the short fault timeline and its
//!    online dumps, or the bank app plus soak epochs
//!    ([`crate::soak`]), or the shard bank plus its
//!    partition/heal/monitor-kill cycle ([`crate::shard`]);
//! 2. **run-out** — run until every terminal (and every soak client)
//!    finished, or the layer's deadline passes;
//! 3. **tail** — 5 s for phase 2, abort notifications and backouts;
//! 4. **post-tail** — the AUDITPROCESS flush barrier, or the shard heal
//!    barrier and drain window;
//! 5. **probes** — TMP open-transaction and lock-audit probes on every
//!    layer, plus `$SUSPENSE` backlog or soak state probes;
//! 6. **oracles** — then one [`RunReport`].
//!
//! Pids are assigned in spawn order and feed the trace hash, so every
//! layer issues its world operations (`spawn`, `inject`, `run_until`,
//! `run_for`) in one fixed order; moving one changes every hash.
//!
//! The oracles are the paper's own guarantees:
//!
//! * **atomicity** — a transid's outcome must agree across every node's
//!   Monitor Audit Trail (committed everywhere or aborted everywhere);
//! * **conservation** — on the bank, debits move money, so
//!   `initial_total - sum(history amounts) == final_total`, which only
//!   holds if backout undid the history appends of every aborted
//!   transaction and phase 2 landed every committed one; on the shard
//!   bank, transfers keep the account total constant;
//! * **liveness / no leaks** — after quiesce + heal, every TMP
//!   transaction table is empty and every lock manager holds nothing and
//!   queues nobody (soak adds drained boxcars, finished clients and
//!   advancing purge floors, see [`crate::oracles`]);
//! * **durability / convergence** — ROLLFORWARD from the latest archive
//!   plus the audit trails rebuilds media byte-identical to the live
//!   volumes (the shard layer checks suspense drain and replica
//!   convergence instead).

use crate::oracles::{liveness_violations, LivenessObservation};
use crate::probe::TmpProbe;
use crate::schedule::{ChaosAction, Schedule, ScheduledDump};
use crate::{shard, soak};
use bytes::Bytes;
use encompass::app::{launch_bank_app, AppHandles, BankAppParams};
use encompass::workload::total_balance;
use encompass_audit::dump::{DumpMsg, DumpReply};
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_audit::rollforward::rollforward_volume;
use encompass_sim::{
    format_timeline, CpuId, Ctx, Fault, FlightEvent, FlightTransid, NodeId, Payload, Pid,
    SimConfig, SimDuration, SimTime, TimerId, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply};
use encompass_storage::discprocess::{DiscReply, DiscRequest};
use encompass_storage::media::{archive_key, ArchiveImage, VolumeMedia};
use encompass_storage::media::{dump_registry_key, media_key, DumpRegistry};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{Rpc, Target, TimerOutcome};
use std::collections::{BTreeMap, HashMap};
use tmf::facility::{TmfNodeConfig, TmfNodeConfigBuilder};

/// Accounts preloaded per bank run (balance 1000 each).
pub(crate) const ACCOUNTS: u64 = 120;

/// The runner layer a schedule's flags select. `shards_enabled` wins
/// over `soak_enabled`; the CLI refuses the combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The short fault timeline (plus online dumps with `dumps_enabled`).
    Plain,
    /// Simulated hours of fault epochs ([`crate::soak`]).
    Soak,
    /// The sharded bank's partition/heal cycle ([`crate::shard`]).
    Shard,
}

impl Tier {
    pub fn of(schedule: &Schedule) -> Tier {
        if schedule.shards_enabled {
            Tier::Shard
        } else if schedule.soak_enabled {
            Tier::Soak
        } else {
            Tier::Plain
        }
    }
}

/// What one chaos run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub seed: u64,
    pub tier: Tier,
    /// The determinism hash: same seed ⇒ same hash, always.
    pub trace_hash: u64,
    pub commits: u64,
    pub aborts: u64,
    pub takeover_commit_completions: u64,
    /// Online dumps that completed (archive + registry durable).
    pub dumps_completed: u64,
    /// Trail files dropped by the TMP's capacity-purge pass.
    pub purged_trail_files: u64,
    pub end_ms: u64,
    /// Soak epochs played (0 off the soak layer).
    pub epochs: usize,
    /// Read-only soak transactions restarted on `SnapshotTooOld`.
    pub reader_restarts: u64,
    /// Long-hold soak writer commits / aborts.
    pub writer_commits: u64,
    pub writer_aborts: u64,
    /// Soak clients respawned after dying with their processor.
    pub client_respawns: u64,
    /// `Some(description)` when the soak full-disaster drill ran.
    pub drill: Option<String>,
    /// Deferred updates the `$SUSPENSE` monitors applied to replicas.
    pub suspense_applied: u64,
    /// Monitor apply transactions that aborted and were retried.
    pub suspense_retries: u64,
    /// `$SUSPENSE` takeovers (nonzero whenever the monitor kill landed).
    pub suspense_takeovers: u64,
    pub violations: Vec<String>,
    /// The fault timeline, for one-line repro reports.
    pub schedule_desc: String,
    /// Transids implicated in oracle failures (atomicity disagreements
    /// and transactions left open in a TMP table), as display strings.
    pub implicated: Vec<String>,
    /// Flight-recorder artifacts; `Some` only on recorder-enabled runs.
    pub flight: Option<FlightDump>,
}

/// What a recorder-enabled run exports for post-mortems.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// The full recorder export — the `flightrec.json` payload.
    pub json: String,
    /// Rendered per-transaction timelines of the implicated transids.
    pub timelines: Vec<String>,
    /// Merged per-transaction event timelines, every transaction.
    pub timelines_by_txn: BTreeMap<FlightTransid, Vec<FlightEvent>>,
    /// Transids the Monitor Audit Trails record as committed.
    pub committed: Vec<FlightTransid>,
}

impl RunReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn summary_line(&self) -> String {
        let layer = match self.tier {
            Tier::Plain => String::new(),
            Tier::Soak => format!(
                "epochs {}  restarts {:>2}  holds {:>3}  {}",
                self.epochs,
                self.reader_restarts,
                self.writer_commits,
                if self.drill.is_some() { "drill  " } else { "" },
            ),
            Tier::Shard => format!(
                "drained {:>4}  takeovers {:>2}  ",
                self.suspense_applied, self.suspense_takeovers,
            ),
        };
        format!(
            "seed {:>6}  hash {:016x}  commits {:>5}  aborts {:>4}  t_end {:>8}ms  {layer}{}",
            self.seed,
            self.trace_hash,
            self.commits,
            self.aborts,
            self.end_ms,
            if self.ok() {
                "ok".to_string()
            } else {
                format!("FAIL ({})", self.violations.len())
            }
        )
    }
}

/// A launched cluster after its layer's fault phase.
pub(crate) struct Played {
    pub(crate) app: AppHandles,
    /// Every audited volume: the lock probes' targets.
    pub(crate) volumes: Vec<VolumeRef>,
    pub(crate) layer: Layer,
}

/// What a layer carries from its fault phase into the shared phases.
pub(crate) enum Layer {
    Plain,
    Soak(Box<soak::Soak>),
    Shard(shard::Shard),
}

/// Run one schedule to completion and evaluate every oracle, optionally
/// with the flight recorder on. Recording is a pure side channel, so the
/// trace hash is identical either way — a failing seed can be re-run
/// recorded and the same execution replays.
pub fn run(schedule: &Schedule, flight_recorder: bool) -> RunReport {
    let sim = if flight_recorder {
        SimConfig::default().flight_recording()
    } else {
        SimConfig::default()
    };
    let tier = Tier::of(schedule);

    // ---- 1. launch + fault phase: the layer's own --------------------
    let Played {
        mut app,
        volumes,
        mut layer,
    } = match tier {
        Tier::Plain => play_timeline(schedule, sim),
        Tier::Soak => soak::play(schedule, sim),
        Tier::Shard => shard::play(schedule, sim),
    };

    // ---- 2. run the workload out -------------------------------------
    let bank_terminals =
        schedule.nodes * (schedule.terminals_per_node + schedule.readonly_terminals_per_node);
    let (terminals, step, deadline) = match &layer {
        Layer::Plain => (
            bank_terminals,
            SimDuration::from_millis(500),
            schedule.heal_at + SimDuration::from_secs(120),
        ),
        Layer::Soak(s) => (
            bank_terminals,
            SimDuration::from_secs(2),
            s.horizon + SimDuration::from_secs(900),
        ),
        Layer::Shard(s) => (
            s.terminals,
            SimDuration::from_millis(500),
            s.heal_at + SimDuration::from_secs(120),
        ),
    };
    let terminals = terminals as u64;
    let finished = |world: &World| world.metrics().get("tcp.terminals_finished");
    loop {
        let clients_done = match &layer {
            Layer::Soak(s) => s.clients_done(&app.world),
            _ => true,
        };
        if (finished(&app.world) >= terminals && clients_done) || app.world.now() >= deadline {
            break;
        }
        app.world.run_for(step);
    }
    let mut violations = Vec::new();
    if finished(&app.world) < terminals {
        violations.push(format!(
            "workload stalled: {}/{terminals} terminals finished by t={}ms",
            finished(&app.world),
            app.world.now().as_millis()
        ));
    }
    if let Layer::Soak(s) = &layer {
        s.excuse_dead_clients(&app.world);
    }

    // ---- 3. safe-delivery tail: phase 2, abort notifications, backouts
    app.world.run_for(SimDuration::from_secs(5));

    // ---- 4. post-tail ------------------------------------------------
    match &layer {
        // When dumps ran, drain every AUDITPROCESS buffer to the trail
        // media before the convergence oracle reads the trails: a fuzzy
        // archive may have caught a dirty value whose undo image is still
        // sitting in a buffer.
        Layer::Plain => {
            if schedule.dumps_enabled {
                flush_audit(&mut app);
            }
        }
        // the soak liveness probes read the buffers too
        Layer::Soak(_) => {
            flush_audit(&mut app);
            app.world.run_for(SimDuration::from_secs(2));
        }
        Layer::Shard(_) => shard::heal_and_drain(&mut app),
    }

    // ---- 5. probes -----------------------------------------------------
    if let Layer::Shard(s) = &mut layer {
        s.spawn_probes(&mut app);
    }
    let open_probes: Vec<_> = app
        .nodes
        .iter()
        .map(|&n| (n, TmpProbe::spawn(&mut app.world, n)))
        .collect();
    if let Layer::Soak(s) = &mut layer {
        s.spawn_final_probes(&mut app, &volumes);
    }
    let lock_probes: Vec<_> = volumes
        .iter()
        .map(|v| {
            let replies = encompass_storage::testkit::run_script(
                &mut app.world,
                v.node,
                0,
                Target::Named(v.node, v.volume.clone()),
                vec![DiscRequest::LockAudit],
            );
            (v.clone(), replies)
        })
        .collect();
    app.world.run_for(SimDuration::from_secs(3));
    if let Layer::Soak(s) = &mut layer {
        s.observe_final(&app.world, &volumes);
    }

    let trace_hash = app.world.trace_hash();
    let metric = |name: &str| app.world.metrics().get(name);
    let mut report = RunReport {
        seed: schedule.seed,
        tier,
        trace_hash,
        commits: metric("tmf.commits"),
        aborts: metric("tmf.aborts"),
        takeover_commit_completions: metric("tmf.takeover_commit_completions"),
        dumps_completed: metric("dump.completed"),
        purged_trail_files: metric("tmf.purged_trail_files"),
        end_ms: app.world.now().as_millis(),
        epochs: 0,
        reader_restarts: metric("chaos.reader_restarts"),
        writer_commits: metric("chaos.soak_writer_commits"),
        writer_aborts: metric("chaos.soak_writer_aborts"),
        client_respawns: metric("chaos.soak_respawns"),
        drill: None,
        suspense_applied: metric("suspense.applied"),
        suspense_retries: metric("suspense.retries"),
        suspense_takeovers: metric("suspense.takeovers"),
        violations: Vec::new(),
        schedule_desc: schedule.describe(),
        implicated: Vec::new(),
        flight: None,
    };

    // ---- 6. oracles ----------------------------------------------------
    let mut implicated: Vec<Transid> = Vec::new();
    check_atomicity(&mut app.world, &app.nodes, &mut violations, &mut implicated);
    match &layer {
        Layer::Shard(s) => s.check_conservation(&mut app, &mut violations),
        _ => check_conservation(&mut app.world, &app.catalog, &app.nodes, &mut violations),
    }
    let mut live_obs: Vec<LivenessObservation> = Vec::new();
    for (node, slot) in &open_probes {
        let mut o = LivenessObservation {
            process: format!("$TMP@{node}"),
            ..Default::default()
        };
        match &*slot.borrow() {
            None => o.unreachable = true,
            Some(open) => {
                implicated.extend(open.iter().copied());
                o.open_transids = open.iter().map(|t| t.to_string()).collect();
            }
        }
        live_obs.push(o);
    }
    if let Layer::Soak(s) = &layer {
        s.add_liveness_detail(&mut live_obs);
    }
    for (vol, replies) in &lock_probes {
        let mut o = LivenessObservation {
            process: format!("{}@{}", vol.volume, vol.node),
            ..Default::default()
        };
        match replies.borrow().first() {
            Some(DiscReply::LockAudit { held, waiting }) => {
                o.locks_held = *held;
                o.lock_waiters = *waiting;
            }
            _ => o.unreachable = true,
        }
        live_obs.push(o);
    }
    implicated.sort();
    implicated.dedup();
    match &mut layer {
        Layer::Plain => violations.extend(liveness_violations(&live_obs, &[], &[])),
        Layer::Soak(s) => {
            violations.extend(s.liveness_and_bounded_violations(&live_obs));
            report.epochs = schedule.soak.epochs;
            report.drill = s.drill.take();
        }
        Layer::Shard(s) => {
            violations.extend(liveness_violations(&live_obs, &[], &[]));
            s.check_drain_and_replicas(&app, schedule, &mut violations);
        }
    }
    if !matches!(layer, Layer::Shard(_)) {
        let trail_keys = trail_key_of(&app);
        check_convergence(&mut app.world, &volumes, &trail_keys, &mut violations);
    }

    if flight_recorder {
        let by_txn = app.world.flightrec().timelines();
        let empty = Vec::new();
        let timelines = implicated
            .iter()
            .map(|t| {
                let ft = t.flight_id();
                format_timeline(ft, by_txn.get(&ft).unwrap_or(&empty))
            })
            .collect();
        report.flight = Some(FlightDump {
            json: app.world.flightrec().to_json(),
            timelines,
            timelines_by_txn: by_txn,
            committed: committed_transids(&app.world, &app.nodes),
        });
    }
    report.violations = violations;
    report.implicated = implicated.iter().map(|t| t.to_string()).collect();
    report
}

/// The TMF configuration every bank-layer run starts from.
pub(crate) fn tmf_config(schedule: &Schedule) -> TmfNodeConfigBuilder {
    TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_micros(schedule.group_commit_window_us))
        .audit_partitions(schedule.audit_partitions.max(1))
}

/// Launch the bank app for the schedule's cluster shape and snapshot a
/// generation-0 archive of every volume.
pub(crate) fn launch_bank(
    schedule: &Schedule,
    tmf: TmfNodeConfigBuilder,
    sim: SimConfig,
    transactions_per_terminal: u64,
    think: SimDuration,
) -> (AppHandles, Vec<VolumeRef>) {
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![schedule.cpus_per_node; schedule.nodes],
        volumes_per_node: schedule.volumes_per_node.max(1),
        accounts: ACCOUNTS,
        terminals_per_node: schedule.terminals_per_node,
        readonly_terminals_per_node: schedule.readonly_terminals_per_node,
        transactions_per_terminal,
        think,
        hot_fraction: schedule.hot_fraction,
        hot_set: 8,
        seed: schedule.seed,
        lock_wait: SimDuration::from_millis(300),
        sim,
        tmf: tmf.build().expect("schedule produced an invalid TMF config"),
        ..BankAppParams::default()
    });
    let volumes = app.catalog.all_volumes();
    snapshot_archives(&mut app.world, &volumes);
    (app, volumes)
}

/// The plain layer's fault phase: the short fault timeline, with the
/// online-dump plan interleaved when `dumps_enabled`, then heal
/// everything.
fn play_timeline(schedule: &Schedule, sim: SimConfig) -> Played {
    let mut tmf = tmf_config(schedule);
    let dumps: &[ScheduledDump] = if schedule.dumps_enabled {
        tmf = tmf
            .trail_purge_interval(SimDuration::from_micros(schedule.trail_purge_interval_us))
            .audit_rotate_every(schedule.audit_rotate_every);
        &schedule.dumps
    } else {
        &[]
    };
    let (mut app, volumes) = launch_bank(
        schedule,
        tmf,
        sim,
        schedule.transactions_per_terminal,
        SimDuration::from_millis(5),
    );
    let mut next_dump = 0usize;
    for ev in &schedule.events {
        start_due_dumps(&mut app.world, &volumes, dumps, &mut next_dump, ev.at);
        app.world.run_until(ev.at);
        apply(&mut app.world, &ev.action);
    }
    start_due_dumps(&mut app.world, &volumes, dumps, &mut next_dump, schedule.heal_at);
    app.world.run_until(schedule.heal_at);
    heal_everything(&mut app.world, schedule);
    Played {
        app,
        volumes,
        layer: Layer::Plain,
    }
}

/// Per-volume trail keys: with partitioned trails a volume's images live
/// on exactly one partition, and a *sibling* partition may have purged
/// past this volume's floor — scanning every trail of the service would
/// trip ROLLFORWARD's purge-floor check spuriously.
pub(crate) fn trail_key_of(app: &AppHandles) -> BTreeMap<(NodeId, String), String> {
    app.tmf
        .iter()
        .flat_map(|h| {
            let node = h.node;
            h.trail_key_of
                .iter()
                .map(move |(vol, key)| ((node, vol.clone()), key.clone()))
        })
        .collect()
}

/// Spawn one [`AuditFlushClient`] per node (no run).
fn flush_audit(app: &mut AppHandles) {
    for &node in &app.nodes {
        app.world
            .spawn(node, 0, Box::new(AuditFlushClient::new(node)));
    }
}

/// Snapshot a generation-0 archive of every volume, straight from the
/// (preloaded) media — the online-dump the paper's ROLLFORWARD starts
/// from.
fn snapshot_archives(world: &mut World, volumes: &[VolumeRef]) {
    for v in volumes {
        let files = world
            .stable()
            .get::<VolumeMedia>(&media_key(v.node, &v.volume))
            .map(|m| m.files.clone())
            .unwrap_or_default();
        let key = archive_key(v, 0);
        let vol = v.clone();
        world.stable_mut().get_or_create::<ArchiveImage, _>(&key, move || ArchiveImage {
            volume: vol,
            files,
            audit_watermark: 0,
            purge_floor: 1,
            generation: 0,
        });
    }
}

/// Start every scheduled dump due at or before `upto`.
fn start_due_dumps(
    world: &mut World,
    volumes: &[VolumeRef],
    dumps: &[ScheduledDump],
    next: &mut usize,
    upto: SimTime,
) {
    while *next < dumps.len() && dumps[*next].at <= upto {
        start_dump(world, volumes, &dumps[*next]);
        *next += 1;
    }
}

/// Run to the dump's time, then spawn one [`DumpClient`] per volume of
/// the dump's node.
pub(crate) fn start_dump(world: &mut World, volumes: &[VolumeRef], d: &ScheduledDump) {
    world.run_until(d.at);
    // the dump may be scheduled while a processor of the node is down;
    // host the client on any live one
    let cpu = live_cpu(world, d.node);
    for v in volumes.iter().filter(|v| v.node == d.node) {
        world.spawn(
            d.node,
            cpu,
            Box::new(DumpClient {
                volume: v.clone(),
                generation: d.generation,
                rpc: Rpc::new(2),
            }),
        );
    }
}

/// The first processor of `node` that is up (0 if none is).
pub(crate) fn live_cpu(world: &World, node: NodeId) -> u8 {
    (0..world.cpu_count(node))
        .find(|&c| world.cpu_up(node, CpuId(c)))
        .unwrap_or(0)
}

/// One-shot client asking a node's `$DUMP` pair for one online dump. The
/// request retries persistently — a CPU fault mid-copy forces a takeover
/// that drops the dump, and the retry is what restarts it after the heal.
struct DumpClient {
    volume: VolumeRef,
    generation: u64,
    rpc: Rpc<DumpMsg, DumpReply>,
}

impl encompass_sim::Process for DumpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.volume.node, "$DUMP".into()),
            DumpMsg::DumpVolume {
                volume: self.volume.clone(),
                generation: self.generation,
            },
            SimDuration::from_millis(100),
            0,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if self.rpc.accept(ctx, payload).is_ok() {
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "dump-client"
    }
}

/// One-shot client that sends a node's `$AUDIT` an empty forced append —
/// the flush barrier that pushes every buffered image onto the trail.
struct AuditFlushClient {
    node: NodeId,
    rpc: Rpc<AuditMsg, AuditReply>,
}

impl AuditFlushClient {
    fn new(node: NodeId) -> AuditFlushClient {
        AuditFlushClient {
            node,
            rpc: Rpc::new(3),
        }
    }
}

impl encompass_sim::Process for AuditFlushClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.node, "$AUDIT".into()),
            AuditMsg::Append {
                records: Vec::new(),
                force: true,
            },
            SimDuration::from_millis(100),
            0,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if self.rpc.accept(ctx, payload).is_ok() {
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "audit-flush-client"
    }
}

pub(crate) fn apply(world: &mut World, action: &ChaosAction) {
    match action {
        ChaosAction::Fault(f) => world.inject(f.clone()),
        ChaosAction::KillServiceCpu { node, service } => {
            if let Some(pid) = world.lookup_name(*node, service) {
                if world.cpu_up(*node, pid.cpu) {
                    world.inject(Fault::KillCpu(*node, pid.cpu));
                }
            }
        }
        ChaosAction::RestoreDownCpus { node } => {
            for c in 0..world.cpu_count(*node) {
                if !world.cpu_up(*node, CpuId(c)) {
                    world.inject(Fault::RestoreCpu(*node, CpuId(c)));
                }
            }
        }
        ChaosAction::KillServerProcess { node, nth } => {
            let mut servers = Vec::new();
            for c in 0..world.cpu_count(*node) {
                for pid in world.procs_on_cpu(*node, CpuId(c)) {
                    if world.process_kind(pid) == Some("server") && world.is_alive(pid) {
                        servers.push(pid);
                    }
                }
            }
            if !servers.is_empty() {
                world.inject(Fault::KillProcess(servers[nth % servers.len()]));
            }
        }
    }
}

pub(crate) fn heal_everything(world: &mut World, schedule: &Schedule) {
    world.inject(Fault::HealAllLinks);
    for n in 0..schedule.nodes as u8 {
        let node = NodeId(n);
        world.inject(Fault::HealBus(node, 0));
        world.inject(Fault::HealBus(node, 1));
        for c in 0..world.cpu_count(node) {
            if !world.cpu_up(node, CpuId(c)) {
                world.inject(Fault::RestoreCpu(node, CpuId(c)));
            }
        }
    }
}

/// Every transid any node's Monitor Audit Trail records as committed,
/// sorted and deduplicated — the ground truth the timeline-completeness
/// test checks flight records against.
fn committed_transids(world: &World, nodes: &[NodeId]) -> Vec<FlightTransid> {
    let mut out: Vec<FlightTransid> = Vec::new();
    for &node in nodes {
        let Some(trail) = world.stable().get::<MonitorTrail>(&monitor_key(node)) else {
            continue;
        };
        out.extend(
            trail
                .records
                .iter()
                .filter(|r| r.committed)
                .map(|r| r.transid.flight_id()),
        );
    }
    out.sort();
    out.dedup();
    out
}

/// Oracle: a transid is committed everywhere or aborted everywhere, as
/// judged by each node's Monitor Audit Trail.
fn check_atomicity(
    world: &mut World,
    nodes: &[NodeId],
    violations: &mut Vec<String>,
    implicated: &mut Vec<Transid>,
) {
    let mut first_seen: HashMap<Transid, (bool, NodeId)> = HashMap::new();
    for &node in nodes {
        let Some(trail) = world.stable().get::<MonitorTrail>(&monitor_key(node)) else {
            continue;
        };
        for rec in &trail.records {
            match first_seen.get(&rec.transid) {
                None => {
                    first_seen.insert(rec.transid, (rec.committed, node));
                }
                Some(&(committed, first_node)) if committed != rec.committed => {
                    implicated.push(rec.transid);
                    violations.push(format!(
                        "atomicity: {:?} is {} on {first_node} but {} on {node}",
                        rec.transid,
                        outcome(committed),
                        outcome(rec.committed),
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

fn outcome(committed: bool) -> &'static str {
    if committed {
        "committed"
    } else {
        "aborted"
    }
}

/// Oracle: money is conserved. Every committed debit appended exactly one
/// history record (`account:amount`), and backout removed the records of
/// every aborted transaction, so the history file's sum must equal the
/// total drained from the account balances.
fn check_conservation(
    world: &mut World,
    catalog: &encompass_storage::Catalog,
    nodes: &[NodeId],
    violations: &mut Vec<String>,
) {
    let initial_total = ACCOUNTS as i64 * 1000;
    let final_total = total_balance(world, catalog, "accounts");
    let mut history_sum: i64 = 0;
    let mut history_records = 0usize;
    if let Some(media) = world
        .stable()
        .get::<VolumeMedia>(&media_key(nodes[0], "$BANK"))
    {
        if let Some(img) = media.file("history") {
            for (_, v) in img.scan(&[], None, usize::MAX) {
                history_records += 1;
                match parse_history_amount(&v) {
                    Some(a) => history_sum += a,
                    None => violations.push(format!(
                        "conservation: unparseable history record {:?}",
                        String::from_utf8_lossy(&v)
                    )),
                }
            }
        }
    }
    if initial_total - history_sum != final_total {
        violations.push(format!(
            "conservation: initial {initial_total} - {history_records} debits summing \
             {history_sum} != final {final_total} (off by {})",
            initial_total - history_sum - final_total
        ));
    }
}

fn parse_history_amount(v: &Bytes) -> Option<i64> {
    let s = std::str::from_utf8(v).ok()?;
    s.rsplit(':').next()?.parse().ok()
}

/// Oracle: ROLLFORWARD from the latest completed dump (the fuzzy online
/// archive, when one registered; the generation-0 snapshot otherwise)
/// plus every surviving audit trail reproduces the live media exactly.
fn check_convergence(
    world: &mut World,
    volumes: &[VolumeRef],
    trail_key_of: &BTreeMap<(NodeId, String), String>,
    violations: &mut Vec<String>,
) {
    for v in volumes {
        let generation = world
            .stable()
            .get::<DumpRegistry>(&dump_registry_key(v))
            .map(|r| r.generation)
            .unwrap_or(0);
        let keys: Vec<String> = trail_key_of
            .get(&(v.node, v.volume.clone()))
            .map(|k| vec![k.clone()])
            .unwrap_or_default();
        let live = snapshot_volume(world, v);
        let _ = rollforward_volume(world, v, &keys, generation);
        let rebuilt = snapshot_volume(world, v);
        if live != rebuilt {
            let detail = diff_summary(&live, &rebuilt);
            violations.push(format!(
                "durability: rollforward of {}.{} diverges from the live volume: {detail}",
                v.node, v.volume
            ));
        }
    }
}

type VolumeSnapshot = BTreeMap<String, Vec<(Bytes, Bytes)>>;

fn snapshot_volume(world: &World, v: &VolumeRef) -> VolumeSnapshot {
    let mut out = BTreeMap::new();
    if let Some(media) = world.stable().get::<VolumeMedia>(&media_key(v.node, &v.volume)) {
        for (name, img) in &media.files {
            out.insert(name.clone(), img.scan(&[], None, usize::MAX));
        }
    }
    out
}

fn diff_summary(live: &VolumeSnapshot, rebuilt: &VolumeSnapshot) -> String {
    for (name, records) in live {
        match rebuilt.get(name) {
            None => return format!("file {name} missing after recovery"),
            Some(r) if r != records => {
                let mismatches: Vec<String> = records
                    .iter()
                    .filter(|(k, v)| {
                        r.iter().find(|(k2, _)| k2 == k).map(|(_, v2)| v2) != Some(v)
                    })
                    .map(|(k, v)| {
                        let recovered = r
                            .iter()
                            .find(|(k2, _)| k2 == k)
                            .map(|(_, v2)| String::from_utf8_lossy(v2).into_owned());
                        format!(
                            "{}: live {:?} recovered {recovered:?}",
                            String::from_utf8_lossy(k),
                            String::from_utf8_lossy(v)
                        )
                    })
                    .take(5)
                    .collect();
                return format!(
                    "file {name}: {} live vs {} recovered records [{}]",
                    records.len(),
                    r.len(),
                    mismatches.join("; ")
                );
            }
            Some(_) => {}
        }
    }
    for name in rebuilt.keys() {
        if !live.contains_key(name) {
            return format!("file {name} appeared only after recovery");
        }
    }
    "no textual diff (ordering?)".to_string()
}
