//! The soak layer: simulated hours per seed.
//!
//! A soak run stretches one seed over at least one simulated hour,
//! structured as repeating fault *epochs*. Each epoch delivers one
//! CPU-kill/takeover wave, one rolling ONLINEDUMP generation on a drawn
//! node, and a restore; throughout, long-lived writer transactions (held
//! open across epochs) and long-lived snapshot readers (fences pinned
//! across fault waves, restarted on `SnapshotTooOld`) run alongside the
//! normal bank terminals. A quarter of seeds additionally run one
//! full-disaster drill: both mirrored drives of one volume fail
//! mid-traffic, and the volume is recovered with ROLLFORWARD from its
//! latest fuzzy archive while the survivors keep serving.
//!
//! The layer supplies the one runner's ([`crate::run`]) fault phase
//! ([`play`]), its run-out condition (soak clients must finish too),
//! its state probes, and two oracle families that only make sense over
//! a long horizon — see [`crate::oracles`]:
//!
//! * **liveness** — every begun transaction reaches a terminal state,
//!   monitor/audit boxcars and lock wait queues drain, purge floors
//!   advance, and every long-lived client finishes;
//! * **bounded state** — per-transid maps, snapshot-undo rings, reply
//!   caches, and stable-storage archive sets stay within their caps at
//!   every epoch boundary (a leak shows up as monotonic growth long
//!   before it hurts a short run).

use crate::oracles::{
    bounded_violations, liveness_violations, ClientStatus, LivenessObservation, PurgeFloorTrack,
    StateCaps, StateKind, StateObservation,
};
use crate::probe::{AuditStateProbe, TmpStateProbe};
use crate::runner::{
    apply, heal_everything, launch_bank, live_cpu, start_dump, tmf_config, trail_key_of, Layer,
    Played, RunReport, ACCOUNTS,
};
use crate::schedule::{ChaosAction, Schedule, ScheduledDump};
use bytes::Bytes;
use encompass::app::AppHandles;
use encompass::workload::account_key;
use encompass_audit::rollforward::rollforward_volume;
use encompass_sim::{
    Ctx, Fault, NodeId, Payload, Pid, Process, SimConfig, SimDuration, SimTime, TimerId,
    World,
};
use encompass_storage::discprocess::{DiscError, DiscReply, DiscRequest};
use encompass_storage::media::{
    archive_key, dump_registry_key, media_key, ArchiveImage, DumpRegistry, VolumeMedia,
};
use encompass_storage::types::VolumeRef;
use encompass_storage::Catalog;
use guardian::Target;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use tmf::session::{DbOp, SessionEvent, SessionOptions, TmfSession};
use tmf::state::AbortReason;

/// Snapshot-undo ring capacity while soaking: small enough that a
/// long-lived reader's fence falls off the ring within an epoch or two,
/// exercising the `SnapshotTooOld` restart path.
const SOAK_SNAPSHOT_UNDO: usize = 64;
/// Archive generations retained per volume while soaking.
const SOAK_ARCHIVE_RETAIN: u64 = 2;

/// A soak run's report in the shape the benchmark compiles against: the
/// one runner's [`RunReport`] plus copies of its soak tallies.
#[derive(Clone, Debug)]
pub struct SoakReport {
    pub run: RunReport,
    /// Soak epochs played.
    pub epochs: usize,
    /// Read-only transactions restarted on `SnapshotTooOld`.
    pub reader_restarts: u64,
    /// Long-hold writer commits / aborts.
    pub writer_commits: u64,
    pub writer_aborts: u64,
    /// Soak clients respawned after dying with their processor.
    pub client_respawns: u64,
    /// `Some(description)` when the full-disaster drill ran.
    pub drill: Option<String>,
}

impl SoakReport {
    pub fn ok(&self) -> bool {
        self.run.ok()
    }

    pub fn summary_line(&self) -> String {
        self.run.summary_line()
    }
}

/// [`crate::run`] on a schedule with `soak_enabled` set, reported as a
/// [`SoakReport`].
pub fn run_soak_schedule_with(schedule: &Schedule, flight_recorder: bool) -> SoakReport {
    let run = crate::run(schedule, flight_recorder);
    SoakReport {
        epochs: run.epochs,
        reader_restarts: run.reader_restarts,
        writer_commits: run.writer_commits,
        writer_aborts: run.writer_aborts,
        client_respawns: run.client_respawns,
        drill: run.drill.clone(),
        run,
    }
}

/// What the soak layer carries from its fault phase into the runner's
/// shared phases.
pub(crate) struct Soak {
    /// End of the last epoch; the run-out deadline counts from here.
    pub(crate) horizon: SimTime,
    clients: Vec<ClientHandle>,
    bounded_obs: Vec<StateObservation>,
    floors: BTreeMap<String, PurgeFloorTrack>,
    max_generation: u64,
    final_probes: Option<StateProbes>,
    /// `Some(description)` once the full-disaster drill ran.
    pub(crate) drill: Option<String>,
}

/// The soak layer's launch and fault phase: the bank app with a soak TMF
/// configuration, one long-hold writer and one long-lived reader per
/// node, then the epoch loop, then heal everything.
pub(crate) fn play(schedule: &Schedule, sim: SimConfig) -> Played {
    let plan = &schedule.soak;
    let gap = plan.epoch_gap_us;
    let horizon = SimTime::from_micros(plan.epochs as u64 * gap);
    let tmf = tmf_config(schedule)
        .trail_purge_interval(SimDuration::from_micros(plan.trail_purge_interval_us))
        .audit_rotate_every(schedule.audit_rotate_every)
        .archive_retain(SOAK_ARCHIVE_RETAIN)
        .snapshot_undo_capacity(SOAK_SNAPSHOT_UNDO);
    // Terminals pace themselves over the horizon: cap the drawn think
    // time so each terminal's budget fits in ~60% of it, leaving the
    // run-out phase to absorb fault-induced restarts.
    let think_ms = plan
        .think_ms
        .min(horizon.as_millis() * 3 / 5 / plan.transactions_per_terminal.max(1));
    let (mut app, volumes) = launch_bank(
        schedule,
        tmf,
        sim,
        plan.transactions_per_terminal,
        SimDuration::from_millis(think_ms.max(1)),
    );

    // Partition-slot layout, mirroring the bank app: slot j covers
    // accounts [ACCOUNTS*j/slots, ...) on volume j%vpn of node j/vpn.
    let vpn = schedule.volumes_per_node.max(1);
    let slots: Vec<VolumeRef> = (0..schedule.nodes * vpn)
        .map(|j| {
            let name = if j % vpn == 0 {
                "$BANK".to_string()
            } else {
                format!("$BANK{}", j % vpn)
            };
            VolumeRef::new(NodeId((j / vpn) as u8), &name)
        })
        .collect();
    let drill: Option<(usize, usize)> = plan.disaster.map(|(e, s)| (e, s % slots.len()));
    let drill_slot = drill.map(|(_, s)| s);
    // the drill's rollforward reads only its volume's trail partition
    let trail_key_of = trail_key_of(&app);

    // ---- long-lived soak clients ------------------------------------
    // One long-hold writer and one long-lived snapshot reader per node.
    // Writers never touch the drill volume: a transaction spanning the
    // outage could have flushed-and-evicted images wiped by the drive
    // loss yet commit after the drill's rollforward, which live media
    // would then be missing — the end-of-run convergence oracle (which
    // rolls forward again, with the commit on the trail) covers that
    // data; the in-run drill intentionally only recovers what had
    // settled by its own rollforward point.
    let hold = SimDuration::from_micros(gap.saturating_mul(plan.writer_hold_epochs.max(1)));
    let reader_pause = SimDuration::from_millis(plan.reader_pause_ms);
    let mut soak = Soak {
        horizon,
        clients: Vec::new(),
        bounded_obs: Vec::new(),
        floors: BTreeMap::new(),
        max_generation: plan.epochs as u64 + 1,
        final_probes: None,
        drill: None,
    };
    for (i, &node) in app.nodes.iter().enumerate() {
        let slot = writer_slot(i, vpn, slots.len(), drill_slot);
        soak.clients.push(spawn_writer(
            &mut app.world,
            &app.catalog,
            node,
            slot,
            slots.len(),
            1,
            hold,
            horizon,
        ));
        soak.clients.push(spawn_reader(
            &mut app.world,
            &app.catalog,
            node,
            1,
            reader_pause,
            horizon,
        ));
    }

    // ---- the epoch loop ---------------------------------------------
    for e in 0..plan.epochs {
        let base = e as u64 * gap;
        let ep = &plan.plan[e];
        let drill_volume: Option<&VolumeRef> = drill
            .filter(|&(de, _)| de == e)
            .map(|(_, s)| &slots[s]);

        // kill wave at 15% — skipped when the drill owns this epoch's
        // node, so the lost volume's DISCPROCESS pair stays whole
        let kill_skipped = drill_volume.is_some_and(|v| v.node == ep.kill_node);
        if !kill_skipped {
            app.world
                .run_until(SimTime::from_micros(base + gap * 15 / 100));
            match &ep.kill_service {
                Some(svc) => apply(
                    &mut app.world,
                    &ChaosAction::KillServiceCpu {
                        node: ep.kill_node,
                        service: svc.clone(),
                    },
                ),
                None => {
                    if app.world.cpu_up(ep.kill_node, ep.kill_cpu) {
                        app.world.inject(Fault::KillCpu(ep.kill_node, ep.kill_cpu));
                    }
                }
            }
        }

        // disaster drill part 1 at 25%: both mirrored drives lost
        if let Some(v) = drill_volume {
            app.world
                .run_until(SimTime::from_micros(base + gap * 25 / 100));
            let key = media_key(v.node, &v.volume);
            if let Some(media) = app.world.stable_mut().get_mut::<VolumeMedia>(&key) {
                media.fail_drive(0);
                media.fail_drive(1);
            }
            app.world.metrics_mut().add("chaos.drill_losses", 1);
        }

        // rolling dump generation at 35% on the drawn node
        let dump = ScheduledDump {
            at: SimTime::from_micros(base + gap * 35 / 100),
            node: ep.dump_node,
            generation: e as u64 + 1,
        };
        start_dump(&mut app.world, &volumes, &dump);

        // restore wave at 55%
        if !kill_skipped {
            app.world
                .run_until(SimTime::from_micros(base + gap * 55 / 100));
            apply(
                &mut app.world,
                &ChaosAction::RestoreDownCpus { node: ep.kill_node },
            );
        }

        // disaster drill part 2 at 75%: revive the drives and recover
        // the volume with ROLLFORWARD from its registry archive while
        // the rest of the cluster keeps serving
        if let Some(v) = drill_volume {
            app.world
                .run_until(SimTime::from_micros(base + gap * 75 / 100));
            let key = media_key(v.node, &v.volume);
            if let Some(media) = app.world.stable_mut().get_mut::<VolumeMedia>(&key) {
                media.revive_drive(0);
                media.revive_drive(1);
            }
            let generation = app
                .world
                .stable()
                .get::<DumpRegistry>(&dump_registry_key(v))
                .map(|r| r.generation)
                .unwrap_or(0);
            let keys: Vec<String> = trail_key_of
                .get(&(v.node, v.volume.clone()))
                .map(|k| vec![k.clone()])
                .unwrap_or_default();
            let _ = rollforward_volume(&mut app.world, v, &keys, generation);
            app.world.metrics_mut().add("chaos.drill_recoveries", 1);
            soak.drill = Some(format!(
                "epoch {e}: {}.{} lost both drives mid-traffic, rolled forward from \
                 archive generation {generation}",
                v.node, v.volume
            ));
        }

        // epoch-boundary state probes (everything is healed by now)
        app.world
            .run_until(SimTime::from_micros(base + gap - 4_000_000));
        let probes = spawn_state_probes(&mut app.world, &app.nodes, &volumes);
        app.world
            .run_until(SimTime::from_micros(base + gap - 1_000_000));
        soak.observe(&app.world, &probes, &volumes, e);

        app.world.run_until(SimTime::from_micros(base + gap));
        // respawn soak clients that died with their processor (a plain
        // process does not survive a CPU kill); the replacement gets a
        // fresh key generation so its inserts never collide
        for idx in 0..soak.clients.len() {
            let c = &soak.clients[idx];
            if c.finished.borrow().is_none() && !app.world.is_alive(c.pid) {
                *c.finished.borrow_mut() =
                    Some("died with its processor; respawned".to_string());
                app.world.metrics_mut().add("chaos.soak_respawns", 1);
                let replacement = match c.kind {
                    ClientKind::Writer { slot } => spawn_writer(
                        &mut app.world,
                        &app.catalog,
                        c.node,
                        slot,
                        slots.len(),
                        c.generation + 1,
                        hold,
                        horizon,
                    ),
                    ClientKind::Reader => spawn_reader(
                        &mut app.world,
                        &app.catalog,
                        c.node,
                        c.generation + 1,
                        reader_pause,
                        horizon,
                    ),
                };
                soak.clients.push(replacement);
            }
        }
    }
    heal_everything(&mut app.world, schedule);
    Played {
        app,
        volumes,
        layer: Layer::Soak(Box::new(soak)),
    }
}

impl Soak {
    /// Run-out condition: every soak client finished or died.
    pub(crate) fn clients_done(&self, world: &World) -> bool {
        self.clients
            .iter()
            .all(|c| c.finished.borrow().is_some() || !world.is_alive(c.pid))
    }

    /// A client that died inside the final epoch has no boundary left to
    /// respawn it; excuse it (its transactions are still covered by the
    /// leak and atomicity oracles).
    pub(crate) fn excuse_dead_clients(&self, world: &World) {
        for c in &self.clients {
            if c.finished.borrow().is_none() && !world.is_alive(c.pid) {
                *c.finished.borrow_mut() = Some("died in the final epoch".to_string());
            }
        }
    }

    /// Spawn the end-of-run state probes (between the runner's TMP and
    /// lock probes).
    pub(crate) fn spawn_final_probes(&mut self, app: &mut AppHandles, volumes: &[VolumeRef]) {
        self.final_probes = Some(spawn_state_probes(&mut app.world, &app.nodes, volumes));
    }

    /// Fold the answered end-of-run state probes into the observations.
    pub(crate) fn observe_final(&mut self, world: &World, volumes: &[VolumeRef]) {
        let probes = self.final_probes.take().expect("final state probes spawned");
        self.observe(world, &probes, volumes, usize::MAX);
        self.final_probes = Some(probes);
    }

    /// Record one boundary's bounded-state observations and purge-floor
    /// progress.
    fn observe(&mut self, world: &World, probes: &StateProbes, volumes: &[VolumeRef], epoch: usize) {
        collect_state_probes(probes, epoch, &mut self.bounded_obs);
        observe_stable_state(world, volumes, epoch, self.max_generation, &mut self.bounded_obs);
        track_purge_floors(world, volumes, &mut self.floors);
    }

    /// Add the final state probes' detail to the runner's per-node `$TMP`
    /// observations (`obs` holds exactly those, in node order), then one
    /// observation per `$AUDIT`.
    pub(crate) fn add_liveness_detail(&self, obs: &mut Vec<LivenessObservation>) {
        let probes = self.final_probes.as_ref().expect("final state probes spawned");
        for (o, (_, slot)) in obs.iter_mut().zip(&probes.tmp) {
            if let Some(r) = &*slot.borrow() {
                o.monitor_boxcar = r.monitor_boxcar;
                o.monitor_inflight = r.monitor_inflight;
                o.outstanding_rpcs = r.deliveries
                    + r.early_releases
                    + r.backouts
                    + r.phase1_disc
                    + r.phase1_tmp
                    + r.remote_begins
                    + r.janitor_rpcs
                    + r.purge_rpcs;
            }
        }
        for (node, slot) in &probes.audit {
            let mut o = LivenessObservation {
                process: format!("$AUDIT@{node}"),
                ..Default::default()
            };
            match &*slot.borrow() {
                None => o.unreachable = true,
                Some(r) => {
                    o.audit_buffered = r.buffered;
                    o.audit_waiters = r.waiters;
                }
            }
            obs.push(o);
        }
    }

    /// The liveness oracle over `obs` plus every soak client and purge
    /// floor, then the bounded-state oracle.
    pub(crate) fn liveness_and_bounded_violations(
        &mut self,
        obs: &[LivenessObservation],
    ) -> Vec<String> {
        let clients: Vec<ClientStatus> = self
            .clients
            .iter()
            .map(|c| ClientStatus {
                name: c.name.clone(),
                finished: c.finished.borrow().clone(),
                last_state: c.last_state.borrow().clone(),
            })
            .collect();
        let floors: Vec<PurgeFloorTrack> = std::mem::take(&mut self.floors).into_values().collect();
        let mut v = liveness_violations(obs, &clients, &floors);
        v.extend(bounded_violations(
            &self.bounded_obs,
            &StateCaps::soak(SOAK_SNAPSHOT_UNDO, SOAK_ARCHIVE_RETAIN as usize),
        ));
        v
    }
}

/// Pick the partition slot a node's long-hold writer works, preferring a
/// slot local to the node and never the drill volume's.
fn writer_slot(node_idx: usize, vpn: usize, slots: usize, drill: Option<usize>) -> usize {
    for j in node_idx * vpn..(node_idx + 1) * vpn {
        if Some(j) != drill {
            return j;
        }
    }
    (0..slots).find(|&j| Some(j) != drill).unwrap_or(0)
}

// ---------------------------------------------------------------------
// epoch-boundary probes

struct StateProbes {
    tmp: Vec<(NodeId, crate::probe::TmpState)>,
    audit: Vec<(NodeId, crate::probe::AuditState)>,
    disc: Vec<(VolumeRef, encompass_storage::testkit::Replies)>,
}

fn spawn_state_probes(world: &mut World, nodes: &[NodeId], volumes: &[VolumeRef]) -> StateProbes {
    let tmp = nodes
        .iter()
        .map(|&n| (n, TmpStateProbe::spawn(world, n)))
        .collect();
    let audit = nodes
        .iter()
        .map(|&n| (n, AuditStateProbe::spawn(world, n, "$AUDIT")))
        .collect();
    let disc = volumes
        .iter()
        .map(|v| {
            let replies = encompass_storage::testkit::run_script(
                world,
                v.node,
                0,
                Target::Named(v.node, v.volume.clone()),
                vec![DiscRequest::StateAudit],
            );
            (v.clone(), replies)
        })
        .collect();
    StateProbes { tmp, audit, disc }
}

/// Fold whatever the probes answered into bounded-state observations.
/// A probe that never heard back mid-run is skipped (the *final* probes
/// feed the liveness oracle, which does flag unreachability).
fn collect_state_probes(probes: &StateProbes, epoch: usize, out: &mut Vec<StateObservation>) {
    for (node, slot) in &probes.tmp {
        if let Some(r) = &*slot.borrow() {
            out.push(StateObservation {
                process: format!("$TMP@{node}"),
                epoch,
                kind: StateKind::Tmp(*r),
            });
        }
    }
    for (node, slot) in &probes.audit {
        if let Some(r) = &*slot.borrow() {
            out.push(StateObservation {
                process: format!("$AUDIT@{node}"),
                epoch,
                kind: StateKind::Audit(*r),
            });
        }
    }
    for (vol, replies) in &probes.disc {
        if let Some(DiscReply::State(r)) = replies.borrow().first() {
            out.push(StateObservation {
                process: format!("{}@{}", vol.volume, vol.node),
                epoch,
                kind: StateKind::Disc(*r),
            });
        }
    }
}

/// Count the `archive:` keys each volume retains on stable storage —
/// the bounded-state check for satellite retention: rolling dump
/// generations must delete superseded archives.
fn observe_stable_state(
    world: &World,
    volumes: &[VolumeRef],
    epoch: usize,
    max_generation: u64,
    out: &mut Vec<StateObservation>,
) {
    for v in volumes {
        let count = (0..=max_generation)
            .filter(|&g| world.stable().get::<ArchiveImage>(&archive_key(v, g)).is_some())
            .count();
        out.push(StateObservation {
            process: "stable-storage".to_string(),
            epoch,
            kind: StateKind::ArchiveKeys {
                volume: format!("{}.{}", v.node, v.volume),
                count,
            },
        });
    }
}

/// Record each volume's dump-registry progress (generation and proven
/// purge floor) for the liveness oracle's floor-advance check.
fn track_purge_floors(
    world: &World,
    volumes: &[VolumeRef],
    floors: &mut BTreeMap<String, PurgeFloorTrack>,
) {
    for v in volumes {
        let Some(reg) = world.stable().get::<DumpRegistry>(&dump_registry_key(v)) else {
            continue;
        };
        let name = format!("{}.{}", v.node, v.volume);
        floors
            .entry(name.clone())
            .and_modify(|t| {
                t.last_generation = reg.generation;
                t.last_floor = reg.purge_floor;
            })
            .or_insert(PurgeFloorTrack {
                volume: name,
                first_generation: reg.generation,
                last_generation: reg.generation,
                first_floor: reg.purge_floor,
                last_floor: reg.purge_floor,
            });
    }
}

// ---------------------------------------------------------------------
// long-lived soak clients

#[derive(Clone, Copy)]
enum ClientKind {
    Writer { slot: usize },
    Reader,
}

struct ClientHandle {
    name: String,
    pid: Pid,
    node: NodeId,
    generation: u32,
    kind: ClientKind,
    finished: Rc<RefCell<Option<String>>>,
    last_state: Rc<RefCell<String>>,
}

#[allow(clippy::too_many_arguments)]
fn spawn_writer(
    world: &mut World,
    catalog: &Catalog,
    node: NodeId,
    slot: usize,
    n_slots: usize,
    generation: u32,
    hold: SimDuration,
    deadline: SimTime,
) -> ClientHandle {
    let low = ACCOUNTS * slot as u64 / n_slots as u64;
    let name = format!("soak-writer[{node} slot {slot} g{generation}]");
    let finished: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let last_state = Rc::new(RefCell::new("spawned".to_string()));
    let cpu = live_cpu(world, node);
    let pid = world.spawn(
        node,
        cpu,
        Box::new(SoakWriter {
            session: TmfSession::new(catalog.clone(), 7),
            key_prefix: format!(
                "{}:w{}g{}",
                String::from_utf8_lossy(&account_key(low)),
                node.0,
                generation
            ),
            attempt: 0,
            hold,
            deadline,
            state: WriterState::Idle,
            commits: 0,
            aborts: 0,
            finished: finished.clone(),
            last_state: last_state.clone(),
        }),
    );
    ClientHandle {
        name,
        pid,
        node,
        generation,
        kind: ClientKind::Writer { slot },
        finished,
        last_state,
    }
}

fn spawn_reader(
    world: &mut World,
    catalog: &Catalog,
    node: NodeId,
    generation: u32,
    pause: SimDuration,
    deadline: SimTime,
) -> ClientHandle {
    let name = format!("soak-reader[{node} g{generation}]");
    let finished: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let last_state = Rc::new(RefCell::new("spawned".to_string()));
    let cpu = live_cpu(world, node);
    let pid = world.spawn(
        node,
        cpu,
        Box::new(SoakReader {
            session: TmfSession::new(catalog.clone(), 8),
            pause,
            deadline,
            step: node.0 as u64,
            reads: 0,
            restarts: 0,
            state: ReaderState::Idle,
            finished: finished.clone(),
            last_state: last_state.clone(),
        }),
    );
    ClientHandle {
        name,
        pid,
        node,
        generation,
        kind: ClientKind::Reader,
        finished,
        last_state,
    }
}

const TAG_HOLD: u64 = 1;
const TAG_RETRY: u64 = 2;
const TAG_PAUSE: u64 = 3;

#[derive(Clone, Copy, PartialEq)]
enum WriterState {
    Idle,
    WaitBegin,
    WaitInsert1,
    WaitInsert2,
    Holding,
    WaitEnd,
    WaitAbort,
    Done,
}

/// A long-hold writer: begins a transaction, inserts a balanced pair of
/// records (+7 / −7, so conservation is untouched) into its partition
/// slot, then sits on its locks for [`crate::schedule::SoakPlan::writer_hold_epochs`]
/// epochs before committing — a transaction that spans fault epochs,
/// pins purge floors, and exercises multi-epoch lock retention. On any
/// failure it aborts, halves its hold, and retries with fresh keys.
struct SoakWriter {
    session: TmfSession,
    key_prefix: String,
    attempt: u64,
    hold: SimDuration,
    deadline: SimTime,
    state: WriterState,
    commits: u64,
    aborts: u64,
    finished: Rc<RefCell<Option<String>>>,
    last_state: Rc<RefCell<String>>,
}

impl SoakWriter {
    fn note(&self, s: String) {
        *self.last_state.borrow_mut() = s;
    }

    fn key(&self, leg: char) -> Bytes {
        Bytes::from(format!("{}.{}.{}", self.key_prefix, self.attempt, leg))
    }

    fn start_attempt(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now() + SimDuration::from_secs(30) >= self.deadline {
            self.state = WriterState::Done;
            *self.finished.borrow_mut() =
                Some(format!("commits={} aborts={}", self.commits, self.aborts));
            self.note("done".to_string());
            ctx.exit();
            return;
        }
        self.attempt += 1;
        self.state = WriterState::WaitBegin;
        self.note(format!("beginning attempt {}", self.attempt));
        self.session.begin(ctx, SessionOptions::default(), 0);
    }

    /// Abort if a transaction is open, otherwise back off and retry.
    fn recover(&mut self, ctx: &mut Ctx<'_>) {
        if self.session.transid().is_some() && !self.session.busy() {
            self.state = WriterState::WaitAbort;
            self.note("aborting".to_string());
            self.session.abort(ctx, AbortReason::Voluntary, 0);
        } else {
            self.state = WriterState::Idle;
            ctx.set_timer(SimDuration::from_secs(5), TAG_RETRY);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        match (self.state, ev) {
            (WriterState::WaitBegin, SessionEvent::Began { transid, .. }) => {
                self.state = WriterState::WaitInsert1;
                self.note(format!("in {transid}, inserting"));
                let refused = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "accounts".to_string(),
                        key: self.key('a'),
                        value: Bytes::from_static(b"7"),
                    },
                    0,
                );
                debug_assert!(refused.is_none());
            }
            (WriterState::WaitInsert1, SessionEvent::OpDone { reply: DiscReply::Ok, .. }) => {
                self.state = WriterState::WaitInsert2;
                let refused = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "accounts".to_string(),
                        key: self.key('b'),
                        value: Bytes::from_static(b"-7"),
                    },
                    0,
                );
                debug_assert!(refused.is_none());
            }
            (WriterState::WaitInsert2, SessionEvent::OpDone { reply: DiscReply::Ok, .. }) => {
                self.state = WriterState::Holding;
                let remaining = self.deadline.since(ctx.now()) - SimDuration::from_secs(25);
                let hold = self.hold.min(remaining).max(SimDuration::from_secs(1));
                self.note(format!(
                    "holding {} for {}s",
                    self.session
                        .transid()
                        .map(|t| t.to_string())
                        .unwrap_or_default(),
                    hold.as_millis() / 1000
                ));
                ctx.set_timer(hold, TAG_HOLD);
            }
            (_, SessionEvent::OpDone { .. }) => self.recover(ctx),
            (WriterState::WaitEnd, SessionEvent::Committed { .. }) => {
                self.commits += 1;
                ctx.count("chaos.soak_writer_commits", 1);
                self.start_attempt(ctx);
            }
            (_, SessionEvent::Aborted { .. }) => {
                self.aborts += 1;
                ctx.count("chaos.soak_writer_aborts", 1);
                // halve the hold so a fault-prone epoch converges on a
                // hold short enough to commit between waves
                self.hold = self
                    .hold
                    .min(SimDuration::from_micros(self.hold.as_micros() / 2))
                    .max(SimDuration::from_secs(10));
                self.state = WriterState::Idle;
                ctx.set_timer(SimDuration::from_secs(5), TAG_RETRY);
            }
            (_, SessionEvent::Failed { .. }) => self.recover(ctx),
            (_, SessionEvent::Began { .. }) | (_, SessionEvent::Committed { .. }) => {
                // stale event for a state we already left; ignore
            }
        }
    }
}

impl Process for SoakWriter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start_attempt(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        match tag {
            TAG_HOLD => {
                if self.state == WriterState::Holding {
                    self.state = WriterState::WaitEnd;
                    self.note("ending".to_string());
                    self.session.end(ctx, 0);
                }
            }
            TAG_RETRY => {
                if self.state != WriterState::Idle {
                    return;
                }
                if self.session.transid().is_some() {
                    self.recover(ctx);
                } else {
                    self.start_attempt(ctx);
                }
            }
            _ => {
                if let Some(ev) = self.session.on_timer(ctx, tag) {
                    self.on_event(ctx, ev);
                }
            }
        }
    }

    fn kind(&self) -> &'static str {
        "soak-writer"
    }
}

#[derive(Clone, Copy, PartialEq)]
enum ReaderState {
    Idle,
    WaitBegin,
    WaitRead,
    Pausing,
    WaitRestartAbort,
    WaitEnd,
    Done,
}

/// A long-lived snapshot reader: one read-only transaction held open
/// across fault epochs, snapshot-reading a rotating account every
/// [`crate::schedule::SoakPlan::reader_pause_ms`]. The small soak
/// snapshot-undo ring guarantees its pinned fences eventually fall off;
/// the reader then restarts the read-only transaction with a fresh
/// fence, counted as `chaos.reader_restarts`.
struct SoakReader {
    session: TmfSession,
    pause: SimDuration,
    deadline: SimTime,
    step: u64,
    reads: u64,
    restarts: u64,
    state: ReaderState,
    finished: Rc<RefCell<Option<String>>>,
    last_state: Rc<RefCell<String>>,
}

impl SoakReader {
    fn note(&self, s: String) {
        *self.last_state.borrow_mut() = s;
    }

    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        self.state = ReaderState::WaitBegin;
        self.note("beginning read-only transaction".to_string());
        self.session
            .begin(ctx, SessionOptions::new().read_only(), 0);
    }

    fn finish_or_pause(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now() + SimDuration::from_secs(10) >= self.deadline {
            if self.session.transid().is_some() && !self.session.busy() {
                self.state = ReaderState::WaitEnd;
                self.note("ending".to_string());
                self.session.end(ctx, 0);
            } else {
                self.done(ctx);
            }
        } else {
            self.state = ReaderState::Pausing;
            ctx.set_timer(self.pause, TAG_PAUSE);
        }
    }

    fn done(&mut self, ctx: &mut Ctx<'_>) {
        self.state = ReaderState::Done;
        *self.finished.borrow_mut() = Some(format!(
            "reads={} restarts={}",
            self.reads, self.restarts
        ));
        self.note("done".to_string());
        ctx.exit();
    }

    fn read_next(&mut self, ctx: &mut Ctx<'_>) {
        self.state = ReaderState::WaitRead;
        let idx = (self.step * 37) % ACCOUNTS;
        self.step += 1;
        self.note(format!("snapshot-reading acct{idx:08}"));
        let refused = self.session.op(
            ctx,
            DbOp::Read {
                file: "accounts".to_string(),
                key: account_key(idx),
            },
            0,
        );
        debug_assert!(refused.is_none());
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        match (self.state, ev) {
            (ReaderState::WaitBegin, SessionEvent::Began { .. }) => self.read_next(ctx),
            (ReaderState::WaitRead, SessionEvent::OpDone { reply, .. }) => match reply {
                DiscReply::Err(DiscError::SnapshotTooOld) => {
                    // the pinned fence fell off the snapshot-undo ring:
                    // restart the read-only transaction for a fresh one
                    self.restarts += 1;
                    ctx.count("chaos.reader_restarts", 1);
                    self.state = ReaderState::WaitRestartAbort;
                    self.note("restarting on SnapshotTooOld".to_string());
                    self.session.abort(ctx, AbortReason::Voluntary, 0);
                }
                _ => {
                    // values (and transient VolumeDown during a fault
                    // wave) are all fine — snapshot reads assert nothing
                    self.reads += 1;
                    self.finish_or_pause(ctx);
                }
            },
            (ReaderState::WaitRestartAbort, SessionEvent::Aborted { .. }) => self.begin(ctx),
            (ReaderState::WaitEnd, SessionEvent::Committed { .. })
            | (ReaderState::WaitEnd, SessionEvent::Aborted { .. }) => self.done(ctx),
            (_, SessionEvent::Aborted { .. }) => {
                // aborted from outside (e.g. the TMP died with our
                // processor's transactions): begin anew or wind down
                if ctx.now() + SimDuration::from_secs(10) >= self.deadline {
                    self.done(ctx);
                } else {
                    self.begin(ctx);
                }
            }
            (_, SessionEvent::Failed { .. }) => {
                if self.session.transid().is_some() && !self.session.busy() {
                    self.state = ReaderState::WaitRestartAbort;
                    self.session.abort(ctx, AbortReason::Voluntary, 0);
                } else {
                    self.state = ReaderState::Idle;
                    ctx.set_timer(SimDuration::from_secs(5), TAG_RETRY);
                }
            }
            _ => {}
        }
    }
}

impl Process for SoakReader {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        match tag {
            TAG_PAUSE => {
                if self.state == ReaderState::Pausing {
                    if self.session.transid().is_some() {
                        self.read_next(ctx);
                    } else {
                        self.begin(ctx);
                    }
                }
            }
            TAG_RETRY => {
                if self.state == ReaderState::Idle {
                    if ctx.now() + SimDuration::from_secs(10) >= self.deadline {
                        self.done(ctx);
                    } else if self.session.transid().is_none() {
                        self.begin(ctx);
                    }
                }
            }
            _ => {
                if let Some(ev) = self.session.on_timer(ctx, tag) {
                    self.on_event(ctx, ev);
                }
            }
        }
    }

    fn kind(&self) -> &'static str {
        "soak-reader"
    }
}
