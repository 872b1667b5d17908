//! The runtime reconfiguration engine.
//!
//! Paper §2 (describing the authors' Spectrum prototype, which FlexNet
//! generalizes): "While keeping the device live, match/action tables can be
//! added and removed on-the-fly without packet loss. Parser states can be
//! similarly manipulated … Program changes complete within a second, and
//! during this transition, packets are either processed by the new program
//! or old one in a consistent manner."
//!
//! Three reconfiguration modes are implemented:
//!
//! - [`ReconfigMode::RuntimeHitless`] — the FlexNet mode. A *shadow* copy of
//!   the new program is materialized beside the active one; packets keep
//!   flowing through the old program during the transition; when every op
//!   has been applied (cost-model time), one atomic version flip carries
//!   the shared state and table entries over and makes the shadow active.
//!   Zero loss; every packet sees exactly the old or exactly the new
//!   program.
//! - [`ReconfigMode::DrainAndReflash`] — the compile-time baseline: the
//!   device refuses traffic for drain + reflash + redeploy, and device state
//!   is wiped (as a real reflash does).
//! - [`ReconfigMode::UnsafeInPlace`] — an ablation: ops are applied one at a
//!   time *to the live program* with no shadow. Packets processed mid-
//!   transition can observe a program that is neither the old nor the new
//!   one (experiment E1's consistency ablation).

use crate::arch::Placed;
use crate::device::{Device, InstalledProgram, Placement};
use crate::image::{ProgramImage, SealTarget};
use crate::state::CarryMap;
use flexnet_lang::ast::{HeaderDecl, Program, TableDecl};
use flexnet_lang::diff::{diff_bundles, ProgramBundle, ReconfigOp};
use flexnet_lang::ir::{handler_demand, parser_demand, state_demand, table_demand};
use flexnet_types::{FlexError, ResourceVec, Result, SimDuration, SimTime};
use std::sync::Arc;

/// The entry carry-over rule of a hitless program change: a table's
/// entries cross the flip exactly when `new` declares the table
/// unchanged (same name, keys, actions, default and size). The
/// controller's intended-state store applies this function and the
/// device's flip the same test, declaration by declaration
/// (`TableSet::carrying`), so their digests agree right after the flip.
pub fn entries_carry_over(old: &Arc<TableDecl>, new: &Program) -> bool {
    new.table(&old.name) == Some(old)
}

/// What a device needs to know to change from one program to another,
/// worked out once per (active program, target image) pair: the primitive
/// ops, what each addition asks of the allocator, and the carry map of the
/// flip. What is freed and un-parsed at the flip are the removals among
/// `ops`; what crosses the flip is everything they leave alone, slot by
/// slot. How long the change takes is each device's own
/// (`CostModel::plan_duration`).
///
/// A control operation shares one plan among the devices that run the
/// same sealed image (`SealedTargets`); nothing in a plan is per device.
/// A device holds the plan from its begin to its flip or abort.
#[derive(Debug)]
pub struct ReconfigPlan {
    /// The image this plan leads to.
    pub(crate) target: Arc<ProgramImage>,
    ops: Vec<ReconfigOp>,
    /// Make-before-break placements in op order, parser states first: the
    /// element, its demand, and whether a same-named element is freed first
    /// (break-before-make for one that is modified in place). The names are
    /// made once here; every device's allocator keys its placement by the
    /// same pointer.
    placements: Vec<(Arc<str>, ResourceVec, bool)>,
    /// A user header the target redefines (its diff removes and re-adds
    /// it), which a hitless change refuses ([`FlexError::LiveHeaderRedefined`]).
    redefined_header: Option<String>,
    /// Where each state object of the target starts: the active program's
    /// slot holding it (`None`: an empty device, which installs at once).
    pub(crate) carry: Option<CarryMap>,
}

impl ReconfigPlan {
    /// The plan from `active` (`None`: an empty device) to `target`.
    pub(crate) fn new(
        active: Option<&InstalledProgram>,
        target: Arc<ProgramImage>,
    ) -> ReconfigPlan {
        let ops = match active {
            Some(p) => diff_bundles(p.bundle(), target.bundle()),
            None => {
                let program = &target.bundle().program;
                let empty = ProgramBundle::new(Program::empty(&program.name, program.kind));
                diff_bundles(&empty, target.bundle())
            }
        };
        let registry = target.registry();
        let placements = ops.iter().filter_map(|op| {
            let (name, demand, replace) = match op {
                ReconfigOp::AddParserState(h) => (&h.name, parser_demand(h), false),
                ReconfigOp::AddTable(t) => (&t.name, table_demand(t, registry), false),
                ReconfigOp::ModifyTable(t) => (&t.name, table_demand(t, registry), true),
                ReconfigOp::AddState(s) => (&s.name, state_demand(s), false),
                ReconfigOp::ModifyState(s) => (&s.name, state_demand(s), true),
                ReconfigOp::SetHandler(h) => (&h.name, handler_demand(h), true),
                _ => return None,
            };
            Some((Arc::from(name.as_str()), demand, replace))
        });
        let placements = placements.collect();
        let carry = active.map(|p| CarryMap::between(p.state.layout(), target.layout()));
        let added = |n: &String| {
            ops.iter()
                .any(|op| matches!(op, ReconfigOp::AddParserState(h) if h.name == *n))
        };
        let redefined_header = ops.iter().find_map(|op| match op {
            ReconfigOp::RemoveParserState(n) if added(n) => Some(n.clone()),
            _ => None,
        });
        ReconfigPlan {
            target,
            ops,
            placements,
            redefined_header,
            carry,
        }
    }

    /// The elements the plan's removals free at the flip, parser states
    /// included, in op order.
    fn freed(&self) -> impl Iterator<Item = &str> {
        self.ops.iter().filter_map(|op| match op {
            ReconfigOp::RemoveTable(n)
            | ReconfigOp::RemoveState(n)
            | ReconfigOp::RemoveHandler(n)
            | ReconfigOp::RemoveParserState(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// The parser states the plan's removals un-parse at the flip.
    fn unparsed(&self) -> impl Iterator<Item = &str> {
        self.ops.iter().filter_map(|op| match op {
            ReconfigOp::RemoveParserState(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// The user headers the plan parses at begin, in op order.
    fn parsed(&self) -> impl Iterator<Item = &HeaderDecl> {
        self.ops.iter().filter_map(|op| match op {
            ReconfigOp::AddParserState(h) => Some(&**h),
            _ => None,
        })
    }
}

/// What a hitless begin added to a device's placement: how many of its
/// plan's parser states it parsed and of its placements it made, in plan
/// order, and the placements those replaced. An abort takes it back, as
/// does the begin itself when the device refuses an addition; the flip
/// keeps it.
#[derive(Debug, Default)]
struct Added {
    parsed: usize,
    placed: usize,
    replaced: Vec<Placed>,
}

impl Placement {
    /// Parses and places `plan`'s additions, counting in `added` what it
    /// did (a diff lists parser states first).
    fn add(&mut self, plan: &ReconfigPlan, added: &mut Added) -> Result<()> {
        for h in plan.parsed() {
            self.parser.add_state(h)?;
            added.parsed += 1;
        }
        for (name, demand, replace) in &plan.placements {
            if *replace {
                added.replaced.extend(self.allocator.take(name));
            }
            self.allocator.alloc(name.clone(), demand, 0)?;
            added.placed += 1;
        }
        Ok(())
    }

    /// Takes back what [`Placement::add`] did for `plan`, latest first:
    /// frees what it placed, puts back what that replaced and un-parses
    /// what it parsed.
    fn take_back(&mut self, plan: &ReconfigPlan, added: Added) {
        for (name, ..) in plan.placements[..added.placed].iter().rev() {
            self.allocator.take(name);
        }
        for placed in added.replaced.into_iter().rev() {
            self.allocator.restore(placed);
        }
        let parsed: Vec<&HeaderDecl> = plan.parsed().take(added.parsed).collect();
        for h in parsed.into_iter().rev() {
            let _ = self.parser.remove_state(&h.name);
        }
    }
}

/// How a program change is rolled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigMode {
    /// Shadow build + atomic flip (FlexNet).
    RuntimeHitless,
    /// Drain, reflash, redeploy (compile-time baseline).
    DrainAndReflash,
    /// In-place op-by-op mutation (consistency ablation).
    UnsafeInPlace,
}

/// How a reconfiguration transaction ended (or stands, at report time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigOutcome {
    /// The transition is in flight; the flip happens at `ready_at`.
    InFlight,
    /// The new program is active.
    Committed,
    /// The transition was rolled back; the pre-reconfig program, table
    /// entries, parser graph, and resource placement were restored.
    Aborted,
}

/// Summary returned when a reconfiguration is initiated or aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// The rollout mode.
    pub mode: ReconfigMode,
    /// Number of primitive ops in the change.
    pub ops: usize,
    /// Simulated duration of the transition.
    pub duration: SimDuration,
    /// When the new program becomes active.
    pub ready_at: SimTime,
    /// Whether the change is in flight, committed, or rolled back.
    pub outcome: ReconfigOutcome,
}

/// The identity a two-phase-commit coordinator stamps on a prepared
/// shadow: which transaction owns it, and under which controller epoch it
/// was created.
///
/// The tag is the unit of *epoch fencing*: every transactional command
/// (prepare, commit, abort) carries the coordinator's epoch, and a device
/// rejects any command whose epoch is lower than the highest it has seen
/// ([`FlexError::Fenced`]). After a failover bumps the epoch, a deposed
/// zombie coordinator can no longer flip, abort, or prepare anything —
/// split-brain flips are structurally impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnTag {
    /// The owning transaction.
    pub txn_id: u64,
    /// The coordinator epoch under which the command was issued.
    pub epoch: u64,
}

/// In-flight reconfiguration state held by a device.
#[derive(Debug)]
pub(crate) struct PendingReconfig {
    /// When the change completes: the flip of a hitless change or a
    /// reflash, the last op of an in-place one.
    ready_at: SimTime,
    /// When the transition was initiated (for abort reports).
    started_at: SimTime,
    /// Number of primitive ops in the change (for reports).
    ops: usize,
    change: Change,
}

/// What a pending change holds: what its mode needs to finish, and to be
/// undone.
#[derive(Debug)]
enum Change {
    /// Shadow build + atomic flip.
    Hitless {
        /// The program that becomes active at the flip. It holds no tables
        /// and no state until the flip builds them from what the outgoing
        /// program holds then.
        shadow: InstalledProgram,
        /// The plan: what the flip carries by, frees and un-parses, and
        /// what an abort takes back.
        plan: Arc<ReconfigPlan>,
        /// The transaction that owns this shadow, if it was prepared
        /// through the two-phase-commit path (orphan-shadow enumeration
        /// keys on this).
        txn: Option<TxnTag>,
        /// `true` while the shadow awaits an explicit commit/abort
        /// decision: the flip is withheld even past `ready_at`, so an
        /// in-doubt prepared device never unilaterally commits (2PC
        /// safety).
        await_decision: bool,
        /// What the begin added to the placement, taken back on abort.
        added: Added,
    },
    /// Drain + reflash: the program and its from-scratch placement, which
    /// replace the active ones at `ready_at`. The device refuses traffic
    /// until then. The placement is boxed: a hitless change, the common
    /// one, holds no placement of its own.
    Reflash(InstalledProgram, Box<Placement>),
    /// Unsafe in-place: the (apply-at, op) pairs not yet applied, and the
    /// program as it was before the first (entries and state included),
    /// restored on abort since the ops mutate the live program.
    InPlace {
        staged: Vec<(SimTime, ReconfigOp)>,
        before: InstalledProgram,
    },
}

impl PendingReconfig {
    /// Whether the device refuses traffic while this change is pending.
    pub(crate) fn drains(&self) -> bool {
        matches!(self.change, Change::Reflash(..))
    }

    fn mode(&self) -> ReconfigMode {
        match self.change {
            Change::Hitless { .. } => ReconfigMode::RuntimeHitless,
            Change::Reflash(..) => ReconfigMode::DrainAndReflash,
            Change::InPlace { .. } => ReconfigMode::UnsafeInPlace,
        }
    }

    /// The report of this change as it stands, ending at `at`.
    fn report(&self, at: SimTime, outcome: ReconfigOutcome) -> ReconfigReport {
        ReconfigReport {
            mode: self.mode(),
            ops: self.ops,
            duration: at.saturating_since(self.started_at),
            ready_at: at,
            outcome,
        }
    }

    /// The transaction of a hitless shadow prepared through 2PC.
    fn txn(&self) -> Option<TxnTag> {
        match self.change {
            Change::Hitless { txn, .. } => txn,
            _ => None,
        }
    }
}

impl Device {
    /// Errors unless the device is up with no change in flight: a device
    /// runs one change at a time.
    fn accept_change(&self) -> Result<()> {
        self.ensure_up()?;
        match self.pending {
            Some(_) => Err(FlexError::Reconfig(
                "a reconfiguration is already in progress".into(),
            )),
            None => Ok(()),
        }
    }

    /// Whether a reconfiguration is in flight.
    pub fn reconfig_in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// Advances reconfiguration state to time `now` without a packet.
    pub fn tick(&mut self, now: SimTime) {
        commit_if_ready(self, now);
    }

    /// Defers the pending transition's flip to `at` (if later than the
    /// currently planned instant). A two-phase-commit coordinator uses this
    /// to align the atomic flips of every prepared device on the slowest
    /// participant, so the whole network changes programs at one instant.
    pub fn hold_pending_until(&mut self, at: SimTime) -> Result<()> {
        let pending = self
            .pending
            .as_mut()
            .ok_or_else(|| FlexError::Reconfig("no reconfiguration in progress to hold".into()))?;
        if let Change::InPlace { .. } = pending.change {
            return Err(FlexError::Reconfig(
                "unsafe in-place changes have no atomic flip to defer".into(),
            ));
        }
        pending.ready_at = pending.ready_at.max(at);
        Ok(())
    }

    /// Aborts the pending reconfiguration, restoring the exact pre-reconfig
    /// program, table entries, state, parser graph, and resource placement.
    ///
    /// This is the rollback half of two-phase commit: a prepared shadow is
    /// discarded and the device keeps serving traffic on the old program as
    /// if the transition had never been initiated.
    pub fn abort_reconfig(&mut self, now: SimTime) -> Result<ReconfigReport> {
        let pending = self
            .pending
            .take()
            .ok_or_else(|| FlexError::Reconfig("no reconfiguration in progress to abort".into()))?;
        let report = pending.report(now, ReconfigOutcome::Aborted);
        self.undo(*pending);
        Ok(report)
    }

    /// Undoes a change taken out of `pending`: a hitless change gives back
    /// the room its additions took, an in-place one puts the pre-change
    /// program back. A reflash changed nothing yet; with it pending gone,
    /// the drain ends.
    pub(crate) fn undo(&mut self, pending: PendingReconfig) {
        match pending.change {
            Change::Hitless { plan, added, .. } => self.placement.take_back(&plan, added),
            Change::Reflash(..) => {}
            Change::InPlace { before, .. } => self.set_active(before),
        }
    }

    // -- epoch fencing and transactional (2PC) commands ----------------------

    /// The highest controller epoch this device has accepted.
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// Accepts a command stamped with controller `epoch`.
    ///
    /// Fencing rule: epochs are monotone. A command from an epoch older
    /// than the highest one seen is rejected with [`FlexError::Fenced`] —
    /// its sender lost a failover election and must stand down. Accepting
    /// an equal-or-newer epoch raises the fence.
    pub fn observe_epoch(&mut self, epoch: u64) -> Result<()> {
        self.ensure_up()?;
        if epoch < self.fence {
            return Err(FlexError::Fenced {
                seen: self.fence,
                got: epoch,
            });
        }
        self.fence = epoch;
        Ok(())
    }

    /// The transaction whose shadow, prepared through the two-phase-commit
    /// path, is still awaiting a commit/abort decision — shadows already
    /// released by a commit that merely await their flip instant are
    /// excluded. A `Some` after recovery finished is an orphan.
    pub fn txn_in_doubt(&self) -> Option<TxnTag> {
        match self.pending.as_ref()?.change {
            Change::Hitless {
                txn,
                await_decision: true,
                ..
            } => txn,
            _ => None,
        }
    }

    /// Phase 1 of two-phase commit: prepares a shadow for `tag`'s
    /// transaction, fenced by `tag.epoch`.
    ///
    /// Unlike [`Device::begin_runtime_reconfig`], the prepared shadow does
    /// **not** flip when its transition completes — the device holds it,
    /// in-doubt, until the coordinator (or its successor, after a crash)
    /// decides via [`Device::commit_txn`] or [`Device::abort_txn`]. An
    /// empty device still installs immediately (there is no old program to
    /// keep serving), which the returned report's `Committed` outcome
    /// makes visible to the coordinator.
    /// Prepare is idempotent per transaction: a duplicate prepare for
    /// the transaction that already owns the in-flight shadow (a
    /// duplicated fabric delivery, or a coordinator retry after a lost
    /// ack) is re-acknowledged — the shadow is **not** rebuilt, `target`
    /// is not sealed, and the transition clock does not restart.
    pub fn prepare_txn_reconfig(
        &mut self,
        target: impl SealTarget,
        now: SimTime,
        tag: TxnTag,
    ) -> Result<ReconfigReport> {
        self.observe_epoch(tag.epoch)?;
        if let Some(p) = self.pending.as_ref() {
            if p.txn().is_some_and(|t| t.txn_id == tag.txn_id) {
                // Duplicate delivery of our own prepare: ack the existing
                // shadow as-is (exactly-once application).
                return Ok(p.report(p.ready_at, ReconfigOutcome::InFlight));
            }
        }
        let report = self.begin_runtime_reconfig(target, now)?;
        if let Some(Change::Hitless {
            txn,
            await_decision,
            ..
        }) = self.pending.as_mut().map(|p| &mut p.change)
        {
            *txn = Some(tag);
            *await_decision = true;
        }
        Ok(report)
    }

    /// Phase 2 (commit) of two-phase commit: releases the shadow prepared
    /// for `tag.txn_id` so it flips at `at` (or when its transition
    /// completes, whichever is later), fenced by `tag.epoch`.
    ///
    /// Returns `true` when a matching shadow was released now, `false`
    /// when nothing was pending — either the flip already happened (a
    /// duplicate commit after a lost ack: idempotent) or the shadow died
    /// with the device's volatile memory (the caller re-prepares).
    /// A pending shadow owned by a *different* transaction is a protocol
    /// violation and errors.
    pub fn commit_txn(&mut self, tag: TxnTag, at: SimTime) -> Result<bool> {
        self.observe_epoch(tag.epoch)?;
        let Some(p) = self.pending.as_mut() else {
            return Ok(false);
        };
        match p.txn() {
            Some(t) if t.txn_id == tag.txn_id => {
                if let Change::Hitless { await_decision, .. } = &mut p.change {
                    *await_decision = false;
                }
                p.ready_at = p.ready_at.max(at);
                Ok(true)
            }
            Some(t) => Err(FlexError::Conflict(format!(
                "commit for txn {} but pending shadow belongs to txn {}",
                tag.txn_id, t.txn_id
            ))),
            None => Err(FlexError::Conflict(format!(
                "commit for txn {} but the pending reconfiguration is not transactional",
                tag.txn_id
            ))),
        }
    }

    /// Phase 2 (abort) of two-phase commit: discards the shadow prepared
    /// for `tag.txn_id`, fenced by `tag.epoch`.
    ///
    /// Returns the rollback report, or `None` when nothing matching was
    /// pending (never prepared, or the shadow died with a crash) — abort
    /// is idempotent so retries after lost acks are safe. A shadow owned
    /// by a different transaction is left untouched and errors.
    pub fn abort_txn(&mut self, tag: TxnTag, now: SimTime) -> Result<Option<ReconfigReport>> {
        self.observe_epoch(tag.epoch)?;
        match self.pending.as_deref().and_then(PendingReconfig::txn) {
            Some(t) if t.txn_id == tag.txn_id => self.abort_reconfig(now).map(Some),
            Some(t) => Err(FlexError::Conflict(format!(
                "abort for txn {} but pending shadow belongs to txn {}",
                tag.txn_id, t.txn_id
            ))),
            None if self.pending.is_some() => Err(FlexError::Conflict(format!(
                "abort for txn {} but the pending reconfiguration is not transactional",
                tag.txn_id
            ))),
            None => Ok(None),
        }
    }

    /// Begins a hitless runtime reconfiguration to `target`.
    ///
    /// Traffic continues on the old program during the transition; at
    /// `ready_at` the shadow becomes active atomically. State objects and
    /// table entries shared between the two programs are carried over as
    /// they stand at that instant (`InstalledProgram::carry_over`), so
    /// nothing the window wrote is lost. `target` is sealed only once the
    /// device has accepted the command (see [`SealTarget`]); a rejected
    /// begin leaves placement and parser as they were.
    pub fn begin_runtime_reconfig(
        &mut self,
        target: impl SealTarget,
        now: SimTime,
    ) -> Result<ReconfigReport> {
        self.accept_change()?;
        let plan = target.into_plan(self.program())?;
        self.check_kind(plan.target.bundle().program.kind)?;
        if let Some(header) = &plan.redefined_header {
            return Err(FlexError::LiveHeaderRedefined {
                header: header.clone(),
            });
        }
        let duration = self.cost_model().plan_duration(&plan.ops);
        let report = |outcome| ReconfigReport {
            mode: ReconfigMode::RuntimeHitless,
            ops: plan.ops.len(),
            duration,
            ready_at: now + duration,
            outcome,
        };
        if self.program().is_none() {
            // First install: no old program to keep alive; still pay the
            // op costs, but there is no traffic to disturb.
            self.install(plan.target.clone())?;
            return Ok(report(ReconfigOutcome::Committed));
        }
        // The shadow is the image and its bytecode, checked against the
        // slot layout the flip will build; the storage comes at the flip.
        let shadow = InstalledProgram::shadow(plan.target.clone(), self.encoding())?;

        // Make-before-break: parse and place the additions now, free the
        // removals at the flip. What the additions did is recorded, and a
        // refusal takes it back, leaving the device as it was.
        let mut added = Added::default();
        if let Err(refused) = self.placement.add(&plan, &mut added) {
            self.placement.take_back(&plan, added);
            return Err(refused);
        }

        let report = report(ReconfigOutcome::InFlight);
        self.pending = Some(Box::new(PendingReconfig {
            ready_at: report.ready_at,
            started_at: now,
            ops: report.ops,
            change: Change::Hitless {
                shadow,
                plan,
                txn: None,
                await_decision: false,
                added,
            },
        }));
        Ok(report)
    }

    /// Begins a compile-time drain/reflash/redeploy to `target`.
    ///
    /// The device refuses all traffic until the reflash completes, and the
    /// old program's state is wiped (a reflash clears device memory).
    pub fn begin_reflash(&mut self, target: ProgramBundle, now: SimTime) -> Result<ReconfigReport> {
        self.accept_change()?;
        // Admit the target now: a program that does not compile or fit
        // aborts the maintenance window before draining.
        let program = InstalledProgram::new(target, self.encoding())?;
        let placement = self.admit_program(&program)?;
        let ready_at = now + self.cost_model().reflash_downtime();
        let pending = PendingReconfig {
            ready_at,
            started_at: now,
            ops: 1,
            change: Change::Reflash(program, Box::new(placement)),
        };
        let report = pending.report(ready_at, ReconfigOutcome::InFlight);
        self.pending = Some(Box::new(pending));
        Ok(report)
    }

    /// Begins the unsafe in-place ablation: each op mutates the live
    /// program as its (cost-model) time arrives, with no shadow and no
    /// atomic flip. `target` must seal, like any other target; what the
    /// ops leave behind on the device is the unverified patched copy.
    pub fn begin_unsafe_inplace(
        &mut self,
        target: ProgramBundle,
        now: SimTime,
    ) -> Result<ReconfigReport> {
        self.accept_change()?;
        let Some(active) = self.program() else {
            return Err(FlexError::Reconfig(
                "no active program to mutate in place".into(),
            ));
        };
        let before = active.clone();
        let ops = ReconfigPlan::new(Some(active), ProgramImage::seal(target)?).ops;
        let mut staged = Vec::new();
        let mut t = now;
        for op in ops {
            t += self.cost_model().op_duration(&op);
            staged.push((t, op));
        }
        let pending = PendingReconfig {
            ready_at: t,
            started_at: now,
            ops: staged.len(),
            change: Change::InPlace { staged, before },
        };
        let report = pending.report(t, ReconfigOutcome::InFlight);
        self.pending = Some(Box::new(pending));
        Ok(report)
    }
}

/// Advances/commits any pending reconfiguration on `dev` at time `now`.
/// Called from `Device::process` and `Device::tick`.
pub(crate) fn commit_if_ready(dev: &mut Device, now: SimTime) {
    let Some(pending) = dev.pending.as_mut() else {
        return;
    };
    match &mut pending.change {
        Change::InPlace { staged, .. } => {
            // Apply every op whose time has come, directly to the live
            // program. This is exactly the inconsistency the shadow+flip
            // design avoids.
            let mut due = Vec::new();
            staged.retain(|(t, op)| {
                let keep = *t > now;
                if !keep {
                    due.push(op.clone());
                }
                keep
            });
            let finished = staged.is_empty();
            if let Some(active) = dev.program_mut() {
                for op in due {
                    let _ = active.apply_op(&op);
                }
            }
            if finished {
                dev.pending = None;
                dev.bump_version();
            }
        }
        // 2PC in-doubt shadow: the flip is withheld until the coordinator
        // (or its recovery successor) decides.
        Change::Hitless {
            await_decision: true,
            ..
        } => {}
        _ if now < pending.ready_at => {}
        _ => match dev.pending.take().map(|p| p.change) {
            Some(Change::Hitless {
                mut shadow, plan, ..
            }) => {
                // Atomic flip: packets before this instant saw the old
                // program, packets after see the new one, which starts from
                // the state and entries the old one holds now.
                if let Some(old) = dev.program() {
                    shadow.carry_over(old, plan.carry.as_ref());
                }
                for n in plan.unparsed() {
                    drop(dev.placement.parser.remove_state(n));
                }
                for n in plan.freed() {
                    drop(dev.allocator_mut().free(n));
                }
                dev.commit(shadow);
            }
            Some(Change::Reflash(program, placement)) => {
                dev.placement = *placement;
                dev.commit(program);
            }
            Some(Change::InPlace { .. }) | None => {}
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::device::tests::bundle;
    use crate::state::StateEncoding;
    use flexnet_types::{NodeId, Packet, ProgramVersion, Verdict};

    fn v1() -> ProgramBundle {
        bundle("program app kind any { handler ingress(pkt) { forward(1); } }")
    }

    fn v2() -> ProgramBundle {
        bundle(
            "program app kind any {
               counter c;
               handler ingress(pkt) { count(c); forward(2); }
             }",
        )
    }

    /// One UDP packet through `d` at `at`.
    fn send(d: &mut Device, at: SimTime) -> crate::device::ProcessResult {
        d.process(&mut Packet::udp(1, 1, 2, 3, 4), at).unwrap()
    }

    fn empty() -> Device {
        Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        )
    }

    fn dev() -> Device {
        let mut d = empty();
        d.install(v1()).unwrap();
        d
    }

    fn stateful_base() -> ProgramBundle {
        bundle(
            "program app kind any {
               counter c;
               table t {
                 key { ipv4.src : exact; }
                 action deny() { drop(); }
                 size 8;
               }
               handler ingress(pkt) { count(c); apply t; forward(1); }
             }",
        )
    }

    /// A device running `stateful_base()` that has counted one packet and
    /// holds one entry, denying source 9.
    fn warmed_up() -> Device {
        let mut d = empty();
        d.install(stateful_base()).unwrap();
        d.process(&mut Packet::tcp(1, 9, 2, 3, 4, 0), SimTime::ZERO)
            .unwrap();
        let deny = flexnet_lang::ast::ActionCall {
            action: "deny".into(),
            args: vec![],
        };
        d.add_entry("t", crate::table::TableEntry::exact(&[9], deny))
            .unwrap();
        d
    }

    #[test]
    fn hitless_reconfig_is_sub_second_and_lossless() {
        let mut d = dev();
        let t0 = SimTime::from_secs(10);
        let report = d.begin_runtime_reconfig(v2(), t0).unwrap();
        assert_eq!(report.mode, ReconfigMode::RuntimeHitless);
        assert!(
            report.duration < SimDuration::from_secs(1),
            "paper claim: changes complete within a second (got {})",
            report.duration
        );

        // During the transition, packets are processed (no loss) by the OLD
        // program.
        let r = send(&mut d, t0 + SimDuration::from_millis(1));
        assert!(!r.refused);
        assert_eq!(r.verdict, Verdict::Forward(1), "old program semantics");

        // After ready_at, the NEW program answers.
        let r2 = send(&mut d, report.ready_at + SimDuration::from_nanos(1));
        assert_eq!(r2.verdict, Verdict::Forward(2), "new program semantics");
        assert!(r2.version > r.version, "version flipped atomically");
        assert_eq!(d.stats().refused, 0, "hitless = zero loss");
    }

    #[test]
    fn reflash_baseline_loses_traffic_and_state() {
        let mut d = dev();
        let t0 = SimTime::from_secs(5);
        let report = d.begin_reflash(v2(), t0).unwrap();
        assert!(
            report.duration >= SimDuration::from_secs(10),
            "reflash downtime is tens of seconds (got {})",
            report.duration
        );
        // Mid-window: refused.
        let r = send(&mut d, t0 + SimDuration::from_secs(1));
        assert!(r.refused);
        assert_eq!(d.stats().refused, 1);
        // After the window: new program runs.
        let r2 = send(&mut d, report.ready_at);
        assert!(!r2.refused);
        assert_eq!(r2.verdict, Verdict::Forward(2));
    }

    #[test]
    fn unsafe_inplace_exposes_mixed_program() {
        // v2 changes the handler AND adds a counter. In-place, the handler
        // flip and the counter add land at different instants.
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let report = d.begin_unsafe_inplace(v2(), t0).unwrap();
        assert_eq!(report.mode, ReconfigMode::UnsafeInPlace);
        assert!(report.ops >= 2);

        // Diff order: AddState(c) first, then SetHandler. Probe between the
        // two: state added but handler still old -> a mix.
        let state_op = cost_model_state_op(&d);
        let mid = t0 + state_op + SimDuration::from_nanos(1);
        let r = send(&mut d, mid);
        // Old handler (forward(1)) but new state exists: neither old nor new
        // program as a whole.
        assert_eq!(r.verdict, Verdict::Forward(1));
        assert!(d.program().unwrap().state.has("c"), "state already added");

        // After completion the program is fully v2.
        let r2 = send(&mut d, report.ready_at);
        assert_eq!(r2.verdict, Verdict::Forward(2));
    }

    fn cost_model_state_op(d: &Device) -> SimDuration {
        d.cost_model().state_op
    }

    #[test]
    fn concurrent_reconfigs_rejected() {
        let mut d = dev();
        d.begin_runtime_reconfig(v2(), SimTime::ZERO).unwrap();
        assert!(d.begin_runtime_reconfig(v1(), SimTime::ZERO).is_err());
        assert!(d.begin_reflash(v1(), SimTime::ZERO).is_err());
        assert!(d.begin_unsafe_inplace(v1(), SimTime::ZERO).is_err());
        assert!(d.reconfig_in_progress());
        d.tick(SimTime::from_secs(100));
        assert!(!d.reconfig_in_progress());
        // Now a new one is accepted.
        d.begin_runtime_reconfig(v1(), SimTime::from_secs(100))
            .unwrap();
    }

    #[test]
    fn a_hitless_change_that_redefines_a_live_header_is_refused_and_a_reflash_is_not() {
        let with = |fields: &str| {
            bundle(&format!(
                "header foo {{ fields {{ {fields} }} follows udp when udp.dport == 9000; }}
                 program app kind any {{ handler ingress(pkt) {{ forward(1); }} }}"
            ))
        };
        let mut d = empty();
        d.install(with("x: 8;")).unwrap();
        let footprint = |d: &Device| (format!("{:?}", d.parser()), d.used(), d.version());
        let before = footprint(&d);
        let err = d
            .begin_runtime_reconfig(with("x: 8; y: 8;"), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            FlexError::LiveHeaderRedefined {
                header: "foo".into()
            }
        );
        let why = err.to_string();
        let names = ["`foo`", "old-XOR-new", "reflash"];
        assert!(names.iter().all(|n| why.contains(n)), "{why}");
        assert!(!d.reconfig_in_progress());
        assert_eq!(
            footprint(&d),
            before,
            "parser, placement and version untouched"
        );
        assert_eq!(d.program().unwrap().bundle(), &with("x: 8;"));

        let report = d.begin_reflash(with("x: 8; y: 8;"), SimTime::ZERO).unwrap();
        d.tick(report.ready_at);
        assert_eq!(d.program().unwrap().bundle(), &with("x: 8; y: 8;"));
    }

    #[test]
    fn hitless_on_empty_device_installs() {
        let mut d = empty();
        let report = d.begin_runtime_reconfig(v1(), SimTime::ZERO).unwrap();
        assert!(report.ops > 0);
        assert!(d.program().is_some());
    }

    #[test]
    fn hitless_rejects_invalid_target() {
        let mut d = dev();
        // Unknown table reference fails the type checker.
        let bad = bundle("program app kind any { handler ingress(pkt) { apply nope; } }");
        assert!(d.begin_runtime_reconfig(bad, SimTime::ZERO).is_err());
        assert!(!d.reconfig_in_progress(), "failed begin leaves no residue");
    }

    #[test]
    fn version_increments_once_per_hitless_change() {
        let mut d = dev();
        let v_before = d.version();
        let r = d.begin_runtime_reconfig(v2(), SimTime::ZERO).unwrap();
        d.tick(r.ready_at);
        assert_eq!(d.version(), ProgramVersion(v_before.0 + 1));
    }

    #[test]
    fn abort_restores_pre_reconfig_program_exactly() {
        let mut d = warmed_up();

        let bundle_before = d.program().unwrap().bundle().clone();
        let tables_before = d.program().unwrap().tables().clone();
        let state_before = d.snapshot_state().unwrap();
        let used_before = d.used();
        let version_before = d.version();

        let t0 = SimTime::from_secs(1);
        let rep = d.begin_runtime_reconfig(v2(), t0).unwrap();
        assert_eq!(rep.outcome, ReconfigOutcome::InFlight);
        let abort = d.abort_reconfig(t0 + SimDuration::from_millis(3)).unwrap();
        assert_eq!(abort.outcome, ReconfigOutcome::Aborted);
        assert_eq!(abort.duration, SimDuration::from_millis(3));

        assert!(!d.reconfig_in_progress());
        let p = d.program().unwrap();
        assert_eq!(p.bundle(), &bundle_before, "program restored verbatim");
        assert_eq!(p.tables(), &tables_before, "entries restored");
        assert_eq!(d.snapshot_state().unwrap(), state_before, "state restored");
        assert_eq!(d.used(), used_before, "placement restored");
        assert_eq!(d.version(), version_before, "no version flip happened");

        // Ticking past the old ready_at must not resurrect the shadow.
        d.tick(SimTime::from_secs(100));
        assert_eq!(d.version(), version_before);
        // And a fresh reconfiguration is accepted.
        d.begin_runtime_reconfig(v2(), SimTime::from_secs(100))
            .unwrap();
    }

    /// An abort, and a begin the device refuses after placing part of its
    /// change, take back exactly what the begin did: the parser, and on an
    /// RMT pipeline every element on its stage with the demand it had —
    /// also the table the change modifies, which sits in stage 1 (`big`
    /// fills stage 0) and which the begin freed and placed again.
    #[test]
    fn a_begin_taken_back_leaves_every_placement_where_it_was() {
        let base = bundle(
            "program app kind any {
               counter c;
               table big { key { ipv4.dst : exact; } action deny() { drop(); } size 100000; }
               table t { key { ipv4.src : exact; } action deny() { drop(); } size 100000; }
               handler ingress(pkt) { count(c); apply big; apply t; forward(1); }
             }",
        );
        let change = |u_size: u64| {
            bundle(&format!(
                "header foo {{ fields {{ x: 8; }} follows udp when udp.dport == 9000; }}
                 program app kind any {{
                   counter c;
                   counter n;
                   table big {{ key {{ ipv4.dst : exact; }} action deny() {{ drop(); }} size 100000; }}
                   table t {{ key {{ ipv4.src : exact; }} action deny() {{ drop(); }} size 100001; }}
                   table u {{ key {{ tcp.dport : exact; }} action deny() {{ drop(); }} size {u_size}; }}
                   handler ingress(pkt) {{ count(c); count(n); apply big; apply t; apply u; forward(1); }}
                 }}"
            ))
        };
        let mut d = Device::new(
            NodeId(1),
            Architecture::rmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(base).unwrap();
        assert_eq!(
            d.allocator().location("t"),
            Some(crate::arch::Location::Stage(1))
        );
        let footprint = |d: &Device| format!("{:?} {:?}", d.allocator(), d.parser());
        let before = footprint(&d);

        d.begin_runtime_reconfig(change(8), SimTime::ZERO).unwrap();
        assert_ne!(footprint(&d), before, "the begin placed its additions");
        d.abort_reconfig(SimTime::ZERO).unwrap();
        assert_eq!(footprint(&d), before, "an abort takes the begin back");

        // `u` does not fit; the header, `n` and the modified `t` were
        // placed before it.
        let err = d
            .begin_runtime_reconfig(change(1 << 30), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlexError::ResourceExhausted { .. }), "{err}");
        assert!(!d.reconfig_in_progress());
        assert_eq!(footprint(&d), before, "a refusal takes the begin back");
    }

    #[test]
    fn abort_unsafe_inplace_restores_partially_applied_program() {
        let mut d = dev();
        let rep = d.begin_unsafe_inplace(v2(), SimTime::ZERO).unwrap();
        let bundle_expected = v1();
        // Let some (but not all) staged ops apply.
        let mid = SimTime::ZERO + d.cost_model().state_op + SimDuration::from_nanos(1);
        send(&mut d, mid);
        assert!(d.program().unwrap().state.has("c"), "op already applied");
        assert!(mid < rep.ready_at, "still mid-transition");

        d.abort_reconfig(mid).unwrap();
        assert!(!d.program().unwrap().state.has("c"), "mutation rolled back");
        assert_eq!(
            d.program().unwrap().bundle().program,
            bundle_expected.program
        );
    }

    #[test]
    fn abort_reflash_cancels_drain() {
        let mut d = dev();
        let t0 = SimTime::from_secs(5);
        d.begin_reflash(v2(), t0).unwrap();
        d.abort_reconfig(t0 + SimDuration::from_secs(1)).unwrap();
        // Traffic is served again, by the old program.
        let r = send(&mut d, t0 + SimDuration::from_secs(2));
        assert!(!r.refused);
        assert_eq!(r.verdict, Verdict::Forward(1), "old program semantics");
    }

    #[test]
    fn abort_without_pending_rejected() {
        let mut d = dev();
        assert!(d.abort_reconfig(SimTime::ZERO).is_err());
    }

    #[test]
    fn hold_pending_defers_flip() {
        let mut d = dev();
        let rep = d.begin_runtime_reconfig(v2(), SimTime::ZERO).unwrap();
        let hold = rep.ready_at + SimDuration::from_millis(50);
        d.hold_pending_until(hold).unwrap();
        // At the original ready_at the old program still answers.
        let r = send(&mut d, rep.ready_at + SimDuration::from_nanos(1));
        assert_eq!(r.verdict, Verdict::Forward(1), "flip deferred");
        // At the held instant the new program answers.
        let r2 = send(&mut d, hold);
        assert_eq!(r2.verdict, Verdict::Forward(2));
        // Holding earlier than the plan is a no-op; holding without a
        // pending change is an error.
        assert!(d.hold_pending_until(hold).is_err());
    }

    #[test]
    fn prepared_txn_shadow_never_flips_without_a_decision() {
        let mut d = dev();
        let tag = TxnTag {
            txn_id: 7,
            epoch: 1,
        };
        let rep = d.prepare_txn_reconfig(v2(), SimTime::ZERO, tag).unwrap();
        assert_eq!(rep.outcome, ReconfigOutcome::InFlight);
        assert_eq!(d.txn_in_doubt(), Some(tag));
        // Far past the transition's ready_at, the shadow is still in doubt.
        d.tick(rep.ready_at + SimDuration::from_secs(3600));
        assert!(d.reconfig_in_progress(), "in-doubt shadow held");
        let r = send(&mut d, rep.ready_at + SimDuration::from_secs(7200));
        assert_eq!(r.verdict, Verdict::Forward(1), "old program still serves");
        // The commit decision releases it.
        let commit_at = rep.ready_at + SimDuration::from_secs(9000);
        assert!(d.commit_txn(tag, commit_at).unwrap());
        d.tick(commit_at);
        assert!(!d.reconfig_in_progress());
        let r2 = send(&mut d, commit_at);
        assert_eq!(r2.verdict, Verdict::Forward(2), "flip happened at commit");
        // A duplicate commit (lost ack) is an idempotent no-op.
        assert!(!d.commit_txn(tag, commit_at).unwrap());
    }

    #[test]
    fn duplicate_prepare_is_reacked_not_reapplied() {
        let mut d = dev();
        let tag = TxnTag {
            txn_id: 7,
            epoch: 1,
        };
        let first = d.prepare_txn_reconfig(v2(), SimTime::ZERO, tag).unwrap();
        let v_before = d.version();
        // A duplicated fabric delivery of the same prepare, arbitrarily
        // later: acknowledged with the existing shadow's schedule, the
        // transition clock does not restart.
        let dup = d
            .prepare_txn_reconfig(v2(), SimTime::from_millis(40), tag)
            .unwrap();
        assert_eq!(dup.ready_at, first.ready_at, "clock not restarted");
        assert_eq!(dup.ops, first.ops);
        assert_eq!(dup.outcome, ReconfigOutcome::InFlight);
        assert_eq!(d.version(), v_before, "no second shadow was built");
        assert_eq!(d.txn_in_doubt(), Some(tag));
        // The shadow still commits exactly once.
        assert!(d.commit_txn(tag, first.ready_at).unwrap());
        d.tick(first.ready_at);
        assert!(!d.reconfig_in_progress());
        // A *different* transaction's prepare still conflicts.
        let other = TxnTag {
            txn_id: 8,
            epoch: 1,
        };
        d.prepare_txn_reconfig(v1(), SimTime::from_secs(1), other)
            .unwrap();
        assert!(d
            .prepare_txn_reconfig(v2(), SimTime::from_secs(1), tag)
            .is_err());
    }

    #[test]
    fn dedup_window_absorbs_replays_bounded_and_persistent() {
        let mut d = dev();
        d.absorb_command(0xA1).unwrap();
        assert!(matches!(
            d.absorb_command(0xA1),
            Err(FlexError::StaleDuplicate { token: 0xA1 })
        ));
        assert!(d.seen_command(0xA1));
        // Bounded: a dup-flood of distinct tokens never grows past the
        // window, evicting oldest-first.
        for t in 0..(3 * crate::device::DEDUP_WINDOW as u64) {
            let _ = d.absorb_command(0x1000 + t);
        }
        assert_eq!(d.dedup_len(), crate::device::DEDUP_WINDOW);
        assert!(!d.seen_command(0xA1), "oldest token evicted");
        // Persistent: the window survives crash + restart, so a replay
        // delivered after the reboot is still absorbed.
        d.absorb_command(0xB2).unwrap();
        d.crash(SimTime::from_millis(1));
        assert!(d.absorb_command(0xB2).is_err(), "down devices refuse");
        d.restart(SimTime::from_millis(2)).unwrap();
        assert!(matches!(
            d.absorb_command(0xB2),
            Err(FlexError::StaleDuplicate { token: 0xB2 })
        ));
    }

    #[test]
    fn txn_abort_is_idempotent_and_exact() {
        let mut d = dev();
        let tag = TxnTag {
            txn_id: 3,
            epoch: 2,
        };
        d.prepare_txn_reconfig(v2(), SimTime::ZERO, tag).unwrap();
        let rep = d.abort_txn(tag, SimTime::from_millis(1)).unwrap();
        assert_eq!(rep.unwrap().outcome, ReconfigOutcome::Aborted);
        assert_eq!(d.program().unwrap().bundle(), &v1(), "rolled back exactly");
        // Nothing pending: a retried abort is Ok(None), not an error.
        assert_eq!(d.abort_txn(tag, SimTime::from_millis(2)).unwrap(), None);
    }

    #[test]
    fn txn_commands_respect_ownership() {
        let mut d = dev();
        let mine = TxnTag {
            txn_id: 1,
            epoch: 1,
        };
        let theirs = TxnTag {
            txn_id: 2,
            epoch: 1,
        };
        d.prepare_txn_reconfig(v2(), SimTime::ZERO, mine).unwrap();
        // Another transaction can neither commit nor abort my shadow.
        assert!(matches!(
            d.commit_txn(theirs, SimTime::from_secs(1)),
            Err(FlexError::Conflict(_))
        ));
        assert!(matches!(
            d.abort_txn(theirs, SimTime::from_secs(1)),
            Err(FlexError::Conflict(_))
        ));
        assert!(d.reconfig_in_progress(), "shadow untouched");
        // And a non-transactional pending shadow rejects txn decisions.
        d.abort_txn(mine, SimTime::from_secs(1)).unwrap();
        d.begin_runtime_reconfig(v2(), SimTime::from_secs(2))
            .unwrap();
        assert!(matches!(
            d.commit_txn(mine, SimTime::from_secs(3)),
            Err(FlexError::Conflict(_))
        ));
    }

    #[test]
    fn stale_epochs_are_fenced_everywhere() {
        let mut d = dev();
        d.observe_epoch(5).unwrap();
        assert_eq!(d.fence(), 5);
        // Same epoch is fine (the fence is monotone, not strictly rising).
        d.observe_epoch(5).unwrap();
        let zombie = TxnTag {
            txn_id: 9,
            epoch: 4,
        };
        assert!(matches!(
            d.prepare_txn_reconfig(v2(), SimTime::ZERO, zombie),
            Err(FlexError::Fenced { seen: 5, got: 4 })
        ));
        assert!(matches!(
            d.commit_txn(zombie, SimTime::ZERO),
            Err(FlexError::Fenced { .. })
        ));
        assert!(matches!(
            d.abort_txn(zombie, SimTime::ZERO),
            Err(FlexError::Fenced { .. })
        ));
        assert!(!d.reconfig_in_progress(), "zombie changed nothing");
        // A newer coordinator raises the fence through its commands.
        let fresh = TxnTag {
            txn_id: 9,
            epoch: 6,
        };
        d.prepare_txn_reconfig(v2(), SimTime::ZERO, fresh).unwrap();
        assert_eq!(d.fence(), 6);
    }

    #[test]
    fn fence_survives_crash_and_restart() {
        let mut d = dev();
        d.observe_epoch(3).unwrap();
        let tag = TxnTag {
            txn_id: 1,
            epoch: 3,
        };
        d.prepare_txn_reconfig(v2(), SimTime::ZERO, tag).unwrap();
        d.crash(SimTime::from_millis(1));
        d.restart(SimTime::from_millis(2)).unwrap();
        assert_eq!(d.txn_in_doubt(), None, "volatile shadow lost in the crash");
        assert_eq!(d.fence(), 3, "fencing token is persistent");
        assert!(matches!(
            d.observe_epoch(2),
            Err(FlexError::Fenced { seen: 3, got: 2 })
        ));
    }

    #[test]
    fn crash_aborts_pending_and_refuses_everything() {
        let mut d = dev();
        d.begin_runtime_reconfig(v2(), SimTime::ZERO).unwrap();
        d.crash(SimTime::from_millis(1));
        assert!(!d.is_up());
        assert!(!d.reconfig_in_progress(), "shadow lost with the crash");
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        assert!(d.process(&mut pkt, SimTime::from_millis(2)).is_err());
        assert!(d
            .begin_runtime_reconfig(v2(), SimTime::from_millis(2))
            .is_err());
        assert!(d.install(v2()).is_err());
    }

    #[test]
    fn restart_wipes_state_but_keeps_program_image() {
        let mut d = warmed_up();
        let v_before = d.version();

        d.crash(SimTime::from_secs(1));
        assert!(d.restart(SimTime::from_secs(2)).is_ok());
        assert!(d.is_up());
        assert!(d.restart(SimTime::from_secs(2)).is_err(), "already up");

        let p = d.program().unwrap();
        assert_eq!(p.state.counter_read("c"), 0, "counters wiped");
        assert_eq!(p.tables().get("t").unwrap().len(), 0, "entries wiped");
        assert_eq!(p.bundle(), &stateful_base(), "program image survives");
        assert!(d.version() > v_before, "restart is a new incarnation");
        // And it serves traffic again.
        let mut pkt = Packet::tcp(2, 9, 2, 3, 4, 0);
        let r = d.process(&mut pkt, SimTime::from_secs(3)).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(1));
    }
}
