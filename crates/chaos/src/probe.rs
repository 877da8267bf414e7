//! Post-run introspection probes.
//!
//! After the heal-everything barrier and the quiesce window, the runner
//! spawns one [`TmpProbe`] per node to ask its `$TMP` for the transids
//! still in the transaction table (`TmpMsg::ListOpen`), and uses the
//! storage test kit to ask every DISCPROCESS for a lock audit
//! (`DiscRequest::LockAudit`). Both answers feed the liveness oracle:
//! after quiesce + heal there must be no open transactions, no held
//! locks, and no parked lock waiters anywhere.

use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimDuration, TimerId};
use encompass_storage::audit_api::{AuditMsg, AuditReply, AuditStateReport};
use encompass_storage::types::Transid;
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use tmf::tmp::{TmpMsg, TmpReply, TmpStateReport};

/// Shared result slot: `None` until the probe hears back.
pub type OpenTxns = Rc<RefCell<Option<Vec<Transid>>>>;

/// One-shot client that asks a node's `$TMP` for its open transactions.
pub struct TmpProbe {
    node: NodeId,
    rpc: Rpc<TmpMsg, TmpReply>,
    out: OpenTxns,
}

impl TmpProbe {
    pub fn spawn(world: &mut encompass_sim::World, node: NodeId) -> OpenTxns {
        let out: OpenTxns = Rc::new(RefCell::new(None));
        world.spawn(
            node,
            0,
            Box::new(TmpProbe {
                node,
                rpc: Rpc::new(11),
                out: out.clone(),
            }),
        );
        out
    }
}

impl Process for TmpProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // persistent: the TMP pair may still be mid-takeover right after
        // the heal; keep retrying until it answers
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.node, "$TMP".into()),
            TmpMsg::ListOpen,
            SimDuration::from_millis(100),
            0,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            if let TmpReply::Open { transids } = c.body {
                *self.out.borrow_mut() = Some(transids);
            }
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "chaos-probe"
    }
}

/// Shared result slot for a [`TmpStateProbe`].
pub type TmpState = Rc<RefCell<Option<TmpStateReport>>>;

/// One-shot client that asks a node's `$TMP` for its in-memory state
/// sizes (`TmpMsg::StateAudit`). Used by the soak tier's bounded-state
/// oracle at epoch boundaries.
pub struct TmpStateProbe {
    node: NodeId,
    rpc: Rpc<TmpMsg, TmpReply>,
    out: TmpState,
}

impl TmpStateProbe {
    pub fn spawn(world: &mut encompass_sim::World, node: NodeId) -> TmpState {
        let out: TmpState = Rc::new(RefCell::new(None));
        world.spawn(
            node,
            0,
            Box::new(TmpStateProbe {
                node,
                rpc: Rpc::new(12),
                out: out.clone(),
            }),
        );
        out
    }
}

impl Process for TmpStateProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.node, "$TMP".into()),
            TmpMsg::StateAudit,
            SimDuration::from_millis(100),
            0,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            if let TmpReply::State(report) = c.body {
                *self.out.borrow_mut() = Some(report);
            }
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "chaos-probe"
    }
}

/// Shared result slot for an [`AuditStateProbe`].
pub type AuditState = Rc<RefCell<Option<AuditStateReport>>>;

/// One-shot client that asks a node's AUDITPROCESS for its in-memory
/// state sizes (`AuditMsg::StateAudit`).
pub struct AuditStateProbe {
    node: NodeId,
    service: String,
    rpc: Rpc<AuditMsg, AuditReply>,
    out: AuditState,
}

impl AuditStateProbe {
    pub fn spawn(world: &mut encompass_sim::World, node: NodeId, service: &str) -> AuditState {
        let out: AuditState = Rc::new(RefCell::new(None));
        world.spawn(
            node,
            0,
            Box::new(AuditStateProbe {
                node,
                service: service.to_string(),
                rpc: Rpc::new(13),
                out: out.clone(),
            }),
        );
        out
    }
}

impl Process for AuditStateProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.node, self.service.clone()),
            AuditMsg::StateAudit,
            SimDuration::from_millis(100),
            0,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            if let AuditReply::State(report) = c.body {
                *self.out.borrow_mut() = Some(report);
            }
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "chaos-probe"
    }
}
