//! Transactional network-wide reconfiguration: two-phase commit over the
//! control fabric.
//!
//! A FlexNet reconfiguration usually spans several devices — the paper's
//! E1 scenario reprograms every switch on a path — and partial
//! deployment is worse than no deployment: half the network running the
//! new program breaks end-to-end invariants that each device's local
//! hitless flip preserves. [`transactional_reconfig`] makes the
//! network-wide change atomic:
//!
//! 1. **Prepare** — every affected device builds a shadow program
//!    ([`Device::begin_runtime_reconfig`]) while traffic continues on the
//!    old one. A device that is down, out of resources, or rejects the
//!    target fails the prepare.
//! 2. **Commit** — only when *all* devices acked their prepare, the
//!    coordinator aligns their atomic flips on the slowest participant
//!    ([`Device::hold_pending_until`]), so the whole network switches
//!    programs at a single simulated instant.
//! 3. **Abort** — on any prepare failure (or an undeliverable command past
//!    the retry deadline) every already-prepared device rolls back
//!    ([`Device::abort_reconfig`]) to its exact pre-reconfig program,
//!    entries, state, and placement.
//!
//! Commands travel over a [`LossyFabric`] under a [`RetryPolicy`], so the
//! coordinator tolerates controller-fabric message loss; the returned
//! [`TxnReport`] records the outcome, message cost, and — on abort — the
//! rollback latency.
//!
//! [`transactional_reconfig_over`] is that protocol as is;
//! [`logged_transactional_reconfig`] is its journaled form (`DESIGN.md`
//! §8): every command tagged, every phase transition written ahead in the
//! replicated intent log, shadows held in doubt until an explicit
//! `commit_txn`. The two drivers differ in phase 2 and share everything
//! else — phase 1, the per-device abort and the abort sweep, selected by
//! `Option<TxnTag>` — and the recovery coordinator uses the same tagged
//! abort and commit. Every command goes through the one control channel
//! (`DESIGN.md` §21).
//!
//! [`Device::begin_runtime_reconfig`]: flexnet_dataplane::Device::begin_runtime_reconfig
//! [`Device::hold_pending_until`]: flexnet_dataplane::Device::hold_pending_until
//! [`Device::abort_reconfig`]: flexnet_dataplane::Device::abort_reconfig

use crate::core::FailureDetector;
use crate::resync::IntendedStore;
use crate::retry::{Channel, LossyFabric, RetryPolicy};
use crate::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_dataplane::{ReconfigOutcome, ReconfigReport, SealedTargets, TxnTag};
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::{CrashPhase, Simulation};
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};

/// How a network-wide reconfiguration transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Every device prepared; all flips are aligned at [`TxnReport::commit_at`].
    Committed,
    /// At least one prepare failed; every prepared device was rolled back.
    Aborted,
}

/// The coordinator's account of one transaction.
#[derive(Debug, Clone)]
pub struct TxnReport {
    /// How the transaction ended.
    pub outcome: TxnOutcome,
    /// Devices named in the transaction.
    pub devices: usize,
    /// Devices that successfully prepared a shadow.
    pub prepared: usize,
    /// The aligned flip instant (committed transactions only).
    pub commit_at: Option<SimTime>,
    /// Time from the first abort decision until the last prepared device
    /// finished rolling back (aborted transactions only).
    pub rollback_latency: Option<SimDuration>,
    /// Why the transaction aborted, when it did.
    pub reason: Option<String>,
    /// Control messages sent (attempts, including lost ones).
    pub messages: u32,
    /// When the coordinator finished the protocol.
    pub finished_at: SimTime,
}

/// What phase 1 left behind.
struct Phase1 {
    /// Devices whose prepare acked, in order.
    prepared: Vec<NodeId>,
    /// Of those, the ones holding a pending (abortable) transition.
    in_flight: Vec<NodeId>,
    /// The slowest participant's ready instant, never before the start.
    latest_ready: SimTime,
    /// The first failed prepare: its index in the targets, and why.
    failure: Option<(usize, String)>,
}

/// Phase 1 for both drivers: prepares a shadow on every target in order
/// (tagged and held in doubt when `tag` is set), stopping at the first
/// failure or after `stop_after` acks. Each target is sealed and planned
/// in `sealed`, lazily — from inside the device's prepare — so each
/// distinct bundle of a transaction is checked once, each distinct change
/// is diffed once, and a bundle that does not seal still fails as that
/// device's prepare.
fn prepare_all<'a>(
    ch: &mut Channel<'_>,
    targets: &'a [(NodeId, ProgramBundle)],
    tag: Option<TxnTag>,
    sealed: &mut SealedTargets<'a>,
    stop_after: usize,
) -> Phase1 {
    let mut p = Phase1 {
        prepared: Vec::new(),
        in_flight: Vec::new(),
        latest_ready: ch.now,
        failure: None,
    };
    for (i, (node, bundle)) in targets.iter().enumerate().take(stop_after) {
        let acked = ch.send(*node, "prepare", |dev, at| {
            let target = sealed.target(bundle);
            match tag {
                Some(tag) => dev.prepare_txn_reconfig(target, at, tag),
                None => dev.begin_runtime_reconfig(target, at),
            }
        });
        match acked {
            Ok(rep) => {
                p.prepared.push(*node);
                p.latest_ready = p.latest_ready.max(rep.ready_at);
                if rep.outcome == ReconfigOutcome::InFlight {
                    p.in_flight.push(*node);
                }
                ch.sim.reconfig_reports.push((ch.now, *node, rep));
            }
            Err(e) => {
                p.failure = Some((i, format!("prepare on {node} failed: {e}")));
                break;
            }
        }
    }
    p
}

/// What a delivered abort did on its device.
pub(crate) struct Aborted {
    /// The attempt instant the device executed it at.
    pub at: SimTime,
    /// The rollback, when a shadow of ours was pending.
    pub report: Option<ReconfigReport>,
    /// Nothing at all was pending — as opposed to someone else's shadow.
    pub wiped: bool,
}

/// Sends one idempotent abort to `node`: `abort_txn` when `tag` is set,
/// `abort_reconfig` otherwise. Returns how the exchange ended and, when an
/// attempt reached the device, what it did there — known even when every
/// ack was then lost.
pub(crate) fn abort_on(
    ch: &mut Channel<'_>,
    node: NodeId,
    tag: Option<TxnTag>,
) -> (Result<()>, Option<Aborted>) {
    let mut delivered = None;
    let result = ch.send(node, "abort", |dev, at| {
        let (report, wiped) = match tag {
            None => match dev.abort_reconfig(at) {
                Ok(rep) => (Some(rep), false),
                // Nothing pending (never prepared, or a crash already
                // discarded the volatile shadow): abort is a no-op.
                Err(FlexError::Reconfig(_)) => (None, true),
                Err(e) => return Err(e),
            },
            Some(tag) => match dev.abort_txn(tag, at) {
                Ok(rep) => {
                    let wiped = rep.is_none();
                    (rep, wiped)
                }
                // A pending shadow we don't own (the prepare conflict
                // that failed the transaction) is not ours to abort.
                Err(FlexError::Conflict(_)) => (None, false),
                Err(e) => return Err(e),
            },
        };
        delivered = Some(Aborted { at, report, wiped });
        Ok(())
    });
    (result, delivered)
}

/// The abort sweep of both drivers: rolls back, in reverse, every device
/// the coordinator talked to — including the failed one, whose prepare may
/// have taken effect even though the ack was lost (orphaned shadow).
fn abort_sweep(ch: &mut Channel<'_>, talked_to: &[(NodeId, ProgramBundle)], tag: Option<TxnTag>) {
    for (node, _) in talked_to.iter().rev() {
        match abort_on(ch, *node, tag) {
            (Ok(()), Some(Aborted { report: Some(rep), .. })) => {
                ch.sim.reconfig_reports.push((ch.now, *node, rep));
            }
            (Ok(()), _) => {}
            (Err(e), _) => ch.sim.errors.push((ch.now, format!("txn abort on {node}: {e}"))),
        }
    }
}

/// Sends one idempotent tagged commit releasing `node`'s shadow to flip at
/// `flip_at`. When nothing was pending and the device's active program is
/// not `target`, the shadow died with a crash and the commit decision
/// obliges a re-prepare (sealed once per pass, in `sealed`); returns
/// whether that happened. Failures go to `sim.errors` under `who`.
pub(crate) fn commit_on<'a>(
    ch: &mut Channel<'_>,
    node: NodeId,
    tag: TxnTag,
    flip_at: SimTime,
    target: Option<&'a ProgramBundle>,
    sealed: &mut SealedTargets<'a>,
    who: &str,
) -> bool {
    match ch.send(node, "commit", |dev, _| dev.commit_txn(tag, flip_at)) {
        Ok(true) => {}
        Ok(false) => {
            // Nothing pending: the device either flipped already (its
            // image matches the target) or lost the shadow in a crash.
            let needs = match (ch.sim.topo.node(node).map(|n| &n.device), target) {
                (Some(dev), Some(want)) if dev.program().is_none_or(|p| p.bundle() != want) => {
                    Some(want)
                }
                _ => None,
            };
            if let Some(want) = needs {
                let redone = ch.send(node, "re-prepare", |dev, at| {
                    let rep = dev.prepare_txn_reconfig(sealed.target(want), at, tag)?;
                    dev.commit_txn(tag, rep.ready_at)?;
                    Ok(())
                });
                match redone {
                    Ok(()) => return true,
                    Err(e) => {
                        let failed = format!("{who} re-prepare on {node}: {e}");
                        ch.sim.errors.push((ch.now, failed));
                    }
                }
            }
        }
        Err(e) => ch.sim.errors.push((ch.now, format!("{who} commit on {node}: {e}"))),
    }
    false
}

/// Runs a two-phase-commit reconfiguration over a reliable fabric.
///
/// Equivalent to [`transactional_reconfig_over`] with a lossless channel
/// and the default retry policy.
pub fn transactional_reconfig(
    sim: &mut Simulation,
    targets: &[(NodeId, ProgramBundle)],
    now: SimTime,
) -> TxnReport {
    let mut fabric = LossyFabric::reliable();
    transactional_reconfig_over(sim, targets, now, &mut fabric, &RetryPolicy::default())
}

/// Runs a two-phase-commit reconfiguration, sending every command through
/// `fabric` under `policy`.
///
/// Per-device prepare/abort reports are appended to
/// `sim.reconfig_reports` so experiments observe the transaction with the
/// same instrumentation as single-device reconfigurations. A target
/// device with no active program installs immediately (there is no old
/// program to keep serving), so such a device cannot be rolled back if a
/// *later* participant fails its prepare; coordinators that need full
/// atomicity should bootstrap devices before including them in a
/// transaction.
pub fn transactional_reconfig_over(
    sim: &mut Simulation,
    targets: &[(NodeId, ProgramBundle)],
    now: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
) -> TxnReport {
    let mut ch = Channel {
        sim,
        fabric,
        policy,
        now,
        messages: 0,
    };
    let p = prepare_all(&mut ch, targets, None, &mut SealedTargets::default(), usize::MAX);

    if let Some((failed_idx, reason)) = p.failure {
        let abort_started = ch.now;
        abort_sweep(&mut ch, &targets[..=failed_idx], None);
        return TxnReport {
            outcome: TxnOutcome::Aborted,
            devices: targets.len(),
            prepared: p.prepared.len(),
            commit_at: None,
            rollback_latency: Some(ch.now.saturating_since(abort_started)),
            reason: Some(reason),
            messages: ch.messages,
            finished_at: ch.now,
        };
    }

    // Phase 2 (commit): align every flip on the slowest participant.
    // hold_pending_until never moves a flip earlier, so holding after the
    // protocol's own message delays keeps every device consistent.
    let commit_at = p.latest_ready.max(ch.now);
    for node in &p.in_flight {
        if let Err(e) = ch.send(*node, "hold", |dev, _| dev.hold_pending_until(commit_at)) {
            // The device still flips — at its own (earlier) ready_at — so
            // the network converges, just not at one aligned instant.
            ch.sim.errors.push((ch.now, format!("txn hold on {node}: {e}")));
        }
    }
    TxnReport {
        outcome: TxnOutcome::Committed,
        devices: targets.len(),
        prepared: p.prepared.len(),
        commit_at: Some(commit_at),
        rollback_latency: None,
        reason: None,
        messages: ch.messages,
        finished_at: ch.now,
    }
}

/// How a journaled transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedTxnOutcome {
    /// Every device prepared, the flip was scheduled, and every commit
    /// command was delivered.
    Committed,
    /// A prepare failed; every prepared device was rolled back.
    Aborted,
    /// The coordinator died at the given phase, leaving the transaction
    /// in-doubt for [`crate::recovery::recover`] to resolve.
    Crashed(CrashPhase),
}

/// The coordinator's account of one journaled transaction.
#[derive(Debug, Clone)]
pub struct LoggedTxnReport {
    /// Transaction id allocated from the intent log.
    pub txn: u64,
    /// Controller epoch (Raft leader term) the transaction ran under.
    pub epoch: u64,
    /// How it ended (from this coordinator's point of view).
    pub outcome: LoggedTxnOutcome,
    /// Devices that acked a prepare before the end.
    pub prepared: Vec<NodeId>,
    /// The aligned flip instant, once scheduled.
    pub commit_at: Option<SimTime>,
    /// Control messages sent (attempts, including lost ones).
    pub messages: u32,
    /// When the coordinator stopped working on the transaction.
    pub finished_at: SimTime,
}

/// Runs a journaled two-phase-commit reconfiguration: every phase
/// transition is made durable in the replicated intent `log` *before* the
/// corresponding data-plane commands are sent (write-ahead), and every
/// command carries a [`TxnTag`] so devices fence stale epochs and hold
/// prepared shadows in-doubt until an explicit decision.
///
/// `crash`, when set, kills the coordinator at that protocol point: the
/// function returns immediately with [`LoggedTxnOutcome::Crashed`],
/// leaving devices exactly as a real mid-protocol coordinator death would
/// — shadows prepared but undecided, commits possibly half-delivered.
/// [`crate::recovery::recover`] then resolves the wreckage from the log.
///
/// `intent`, when set, records every committed target in the
/// intended-state store (journaling a durable
/// [`IntentRecord::IntendedState`] per device), keeping the
/// reconciliation baseline for device restart recovery up to date.
///
/// `gate`, when set, health-gates admission: every participant must be
/// graded Healthy by the failure detector or the transaction is refused
/// up front with the typed, retryable [`FlexError::DegradedDevice`] —
/// *before* anything is journaled or any shadow prepared, instead of
/// discovering a suspect/dead/gray participant mid-2PC. Pass `None` for
/// remedial transactions (rollback, resync) whose whole point is to fix
/// an unhealthy device.
#[allow(clippy::too_many_arguments)]
pub fn logged_transactional_reconfig(
    sim: &mut Simulation,
    targets: &[(NodeId, ProgramBundle)],
    now: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
    log: &mut ReplicatedIntentLog,
    crash: Option<CrashPhase>,
    intent: Option<&mut IntendedStore>,
    gate: Option<&FailureDetector>,
) -> Result<LoggedTxnReport> {
    if let Some(detector) = gate {
        for (node, _) in targets {
            detector.admit(*node)?;
        }
    }
    let txn = log.next_txn_id();
    let epoch = log.epoch()?;
    let tag = TxnTag { txn_id: txn, epoch };
    let devices: Vec<u64> = targets.iter().map(|(n, _)| n.0 as u64).collect();
    let mut ch = Channel {
        sim,
        fabric,
        policy,
        now,
        messages: 0,
    };
    let report = |ch: &Channel<'_>, outcome, prepared, commit_at| LoggedTxnReport {
        txn,
        epoch,
        outcome,
        prepared,
        commit_at,
        messages: ch.messages,
        finished_at: ch.now,
    };

    // Write-ahead: the intent is durable before any device hears from us.
    log.append(&IntentRecord::Intent {
        txn,
        devices: devices.clone(),
    })?;
    if crash == Some(CrashPhase::AfterIntent) {
        let phase = LoggedTxnOutcome::Crashed(CrashPhase::AfterIntent);
        return Ok(report(&ch, phase, Vec::new(), None));
    }

    // Phase 1: prepare a tagged, in-doubt shadow on every device. A
    // MidPrepare crash dies after roughly half the participants acked.
    let stop_after = match crash {
        Some(CrashPhase::MidPrepare) => targets.len().div_ceil(2),
        _ => usize::MAX,
    };
    let mut sealed = SealedTargets::default();
    let p = prepare_all(&mut ch, targets, Some(tag), &mut sealed, stop_after);

    if let Some((failed_idx, reason)) = p.failure {
        // Log the abort decision first (presumed abort: recovery rolls a
        // prepared-only transaction back anyway, so a lost record is
        // safe), then roll back every device we talked to.
        if let Err(e) = log.append(&IntentRecord::Aborted { txn }) {
            let lost = format!("txn {txn}: abort record not durable: {e}");
            ch.sim.errors.push((ch.now, lost));
        }
        abort_sweep(&mut ch, &targets[..=failed_idx], Some(tag));
        ch.sim.errors.push((ch.now, format!("txn {txn} aborted: {reason}")));
        return Ok(report(&ch, LoggedTxnOutcome::Aborted, p.prepared, None));
    }
    if p.prepared.len() < targets.len() {
        // No failure, yet not everyone prepared: the MidPrepare stop.
        let phase = LoggedTxnOutcome::Crashed(CrashPhase::MidPrepare);
        return Ok(report(&ch, phase, p.prepared, None));
    }

    // All participants hold in-doubt shadows: make that durable.
    log.append(&IntentRecord::Prepared {
        txn,
        devices: devices.clone(),
    })?;
    if crash == Some(CrashPhase::AfterPrepared) {
        let phase = LoggedTxnOutcome::Crashed(CrashPhase::AfterPrepared);
        return Ok(report(&ch, phase, p.prepared, None));
    }

    // The decision: align every flip on the slowest participant, and make
    // the decision durable *before* any commit command is sent — past
    // this record the transaction can only roll forward.
    let commit_at = p.latest_ready.max(ch.now);
    log.append(&IntentRecord::FlipScheduled { txn, commit_at })?;
    if crash == Some(CrashPhase::AfterFlipScheduled) {
        let phase = LoggedTxnOutcome::Crashed(CrashPhase::AfterFlipScheduled);
        return Ok(report(&ch, phase, p.prepared, Some(commit_at)));
    }

    // Phase 2: release every shadow to flip at commit_at. A device whose
    // commit fails keeps its in-doubt shadow; the recovery sweep (same
    // roll-forward rule) will release it.
    for (node, _) in targets {
        commit_on(&mut ch, *node, tag, commit_at, None, &mut sealed, "txn");
    }
    if let Err(e) = log.append(&IntentRecord::Committed { txn }) {
        // Recovery re-runs the (idempotent) roll-forward from FlipScheduled.
        let lost = format!("txn {txn}: committed record not durable: {e}");
        ch.sim.errors.push((ch.now, lost));
    }
    // The transaction is past its point of no return: the targets are now
    // the per-device intended state (a crash before this point rolls the
    // txn back or forward from the phase records alone, so the store only
    // ever describes configurations the network is converging to).
    if let Some(store) = intent {
        for (node, bundle) in targets {
            let recorded = sealed
                .image_for(bundle)
                .and_then(|image| store.commit_target(log, txn, *node, image));
            if let Err(e) = recorded {
                let lost = format!("txn {txn}: intended state for {node}: {e}");
                ch.sim.errors.push((ch.now, lost));
            }
        }
    }
    let outcome = LoggedTxnOutcome::Committed;
    Ok(report(&ch, outcome, p.prepared, Some(commit_at)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::parser::parse_source;
    use flexnet_sim::Topology;
    use flexnet_types::SimDuration;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

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

    /// A line topology with v1 installed on its three programmable devices.
    fn prepared_sim() -> (Simulation, [NodeId; 3]) {
        let (topo, nodes) = Topology::host_nic_switch_line();
        let devices = [nodes[1], nodes[2], nodes[3]];
        let mut sim = Simulation::new(topo);
        for d in devices {
            sim.topo.node_mut(d).unwrap().device.install(v1()).unwrap();
        }
        (sim, devices)
    }

    #[test]
    fn commit_aligns_every_flip_on_the_slowest_device() {
        let (mut sim, devices) = prepared_sim();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let t0 = SimTime::from_secs(1);
        let report = transactional_reconfig(&mut sim, &targets, t0);
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(report.prepared, 3);
        let commit_at = report.commit_at.unwrap();
        assert!(commit_at > t0);

        // Just before the aligned instant every device still runs v1...
        let before = SimTime::from_nanos(commit_at.as_nanos() - 1);
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.tick(before);
            assert!(dev.reconfig_in_progress(), "{d} must not flip early");
        }
        // ...and at it, all flip together.
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.tick(commit_at);
            assert!(!dev.reconfig_in_progress(), "{d} flips at commit_at");
            assert_eq!(dev.program().unwrap().bundle(), &v2(), "{d} runs v2");
        }
    }

    #[test]
    fn prepare_failure_rolls_back_every_prepared_device() {
        let (mut sim, devices) = prepared_sim();
        // The last participant is down: its prepare must fail.
        sim.topo
            .node_mut(devices[2])
            .unwrap()
            .device
            .crash(SimTime::from_millis(500));
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let report = transactional_reconfig(&mut sim, &targets, SimTime::from_secs(1));
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        assert_eq!(report.prepared, 2);
        assert!(report.reason.as_deref().unwrap().contains("unavailable"));
        assert!(report.rollback_latency.is_some());
        for d in &devices[..2] {
            let dev = &sim.topo.node(*d).unwrap().device;
            assert!(!dev.reconfig_in_progress(), "{d} rolled back");
            assert_eq!(
                dev.program().unwrap().bundle(),
                &v1(),
                "{d} still runs the pre-transaction program"
            );
        }
    }

    #[test]
    fn empty_transaction_commits_trivially() {
        let (mut sim, _) = prepared_sim();
        let report = transactional_reconfig(&mut sim, &[], SimTime::ZERO);
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(report.devices, 0);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn commit_survives_30_percent_controller_fabric_loss() {
        let (mut sim, devices) = prepared_sim();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let mut fabric = LossyFabric::new(0.3, 42);
        let policy = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        };
        let report = transactional_reconfig_over(
            &mut sim,
            &targets,
            SimTime::from_secs(1),
            &mut fabric,
            &policy,
        );
        assert_eq!(report.outcome, TxnOutcome::Committed, "{:?}", report.reason);
        assert!(
            report.messages > report.devices as u32 * 2,
            "retries happened: {} messages",
            report.messages
        );
        assert!(fabric.dropped > 0, "the fabric really was lossy");
        let commit_at = report.commit_at.unwrap();
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.tick(commit_at + SimDuration::from_nanos(1));
            assert_eq!(dev.program().unwrap().bundle(), &v2());
        }
    }

    #[test]
    fn failed_prepare_with_orphan_shadow_is_rolled_back_too() {
        let (mut sim, devices) = prepared_sim();
        // An earlier, unacknowledged prepare left a shadow on the first
        // device (the coordinator's ack was lost). Its re-prepare fails
        // ("already in progress"), so the transaction aborts — and the
        // abort phase must discard that orphan, not just acked prepares.
        sim.topo
            .node_mut(devices[0])
            .unwrap()
            .device
            .begin_runtime_reconfig(v2(), SimTime::from_millis(900))
            .unwrap();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let report = transactional_reconfig(&mut sim, &targets, SimTime::from_secs(1));
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        assert_eq!(report.prepared, 0);
        for d in devices {
            let dev = &sim.topo.node(d).unwrap().device;
            assert!(!dev.reconfig_in_progress(), "{d} has no orphan shadow");
            assert_eq!(dev.program().unwrap().bundle(), &v1());
        }
    }

    fn logged(
        sim: &mut Simulation,
        targets: &[(NodeId, ProgramBundle)],
        log: &mut ReplicatedIntentLog,
        crash: Option<CrashPhase>,
    ) -> LoggedTxnReport {
        let mut fabric = LossyFabric::reliable();
        logged_transactional_reconfig(
            sim,
            targets,
            SimTime::from_secs(1),
            &mut fabric,
            &RetryPolicy::default(),
            log,
            crash,
            None,
            None,
        )
        .unwrap()
    }

    #[test]
    fn unhealthy_participant_is_refused_before_the_protocol_starts() {
        use crate::core::FailureDetector;
        let (mut sim, devices) = prepared_sim();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let mut log = ReplicatedIntentLog::new(3, 17).unwrap();
        // The detector has seen the middle device go silent: Suspect.
        let mut detector = FailureDetector::default();
        for d in devices {
            detector.observe(d, SimTime::ZERO);
        }
        detector.observe(devices[0], SimTime::from_millis(800));
        detector.observe(devices[2], SimTime::from_millis(800));
        detector.poll(SimTime::from_millis(850));
        let mut fabric = LossyFabric::reliable();
        let err = logged_transactional_reconfig(
            &mut sim,
            &targets,
            SimTime::from_secs(1),
            &mut fabric,
            &RetryPolicy::default(),
            &mut log,
            None,
            None,
            Some(&detector),
        )
        .unwrap_err();
        assert!(
            matches!(err, FlexError::DegradedDevice { .. }),
            "typed refusal, got {err:?}"
        );
        assert!(err.is_retryable(), "the grade clears; callers may retry");
        // Refused up front: nothing journaled, no shadows anywhere.
        assert!(log.records().unwrap().is_empty(), "no Intent was logged");
        for d in devices {
            assert!(
                !sim.topo.node(d).unwrap().device.reconfig_in_progress(),
                "{d} must hold no shadow after an up-front refusal"
            );
        }
        // With every device healthy again, the same transaction commits.
        detector.observe(devices[1], SimTime::from_millis(900));
        detector.poll(SimTime::from_millis(910));
        let report = logged_transactional_reconfig(
            &mut sim,
            &targets,
            SimTime::from_secs(1),
            &mut fabric,
            &RetryPolicy::default(),
            &mut log,
            None,
            None,
            Some(&detector),
        )
        .unwrap();
        assert_eq!(report.outcome, LoggedTxnOutcome::Committed);
    }

    #[test]
    fn multi_wave_aborts_report_rollback_latency_per_wave() {
        // Two consecutive wave transactions abort (their last participant
        // is down). Each wave's report must carry its own rollback
        // latency, and the second wave's rollback must not disturb the
        // first wave's already-rolled-back devices.
        let (mut sim, devices) = prepared_sim();
        sim.topo
            .node_mut(devices[2])
            .unwrap()
            .device
            .crash(SimTime::from_millis(500));
        let wave1: Vec<_> = vec![(devices[0], v2()), (devices[2], v2())];
        let wave2: Vec<_> = vec![(devices[1], v2()), (devices[2], v2())];
        let r1 = transactional_reconfig(&mut sim, &wave1, SimTime::from_secs(1));
        assert_eq!(r1.outcome, TxnOutcome::Aborted);
        let lat1 = r1.rollback_latency.expect("wave 1 rolled back");
        assert!(lat1 > SimDuration::ZERO, "rollback costs control RTTs");
        let r2 = transactional_reconfig(&mut sim, &wave2, r1.finished_at);
        assert_eq!(r2.outcome, TxnOutcome::Aborted);
        let lat2 = r2.rollback_latency.expect("wave 2 rolled back");
        assert!(lat2 > SimDuration::ZERO);
        assert!(
            r2.finished_at > r1.finished_at,
            "waves abort in sequence, not on top of each other"
        );
        // Both live devices still run v1 — neither wave leaked its shadow.
        for d in &devices[..2] {
            let dev = &sim.topo.node(*d).unwrap().device;
            assert!(!dev.reconfig_in_progress(), "{d} rolled back");
            assert_eq!(dev.program().unwrap().bundle(), &v1());
        }
    }

    #[test]
    fn logged_commit_journals_every_phase_and_flips_together() {
        let (mut sim, devices) = prepared_sim();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let mut log = ReplicatedIntentLog::new(3, 42).unwrap();
        let report = logged(&mut sim, &targets, &mut log, None);
        assert_eq!(report.outcome, LoggedTxnOutcome::Committed);
        assert_eq!(report.prepared, devices.to_vec());

        let devs: Vec<u64> = devices.iter().map(|d| d.0 as u64).collect();
        let commit_at = report.commit_at.unwrap();
        assert_eq!(
            log.records().unwrap(),
            vec![
                IntentRecord::Intent {
                    txn: report.txn,
                    devices: devs.clone(),
                },
                IntentRecord::Prepared {
                    txn: report.txn,
                    devices: devs,
                },
                IntentRecord::FlipScheduled {
                    txn: report.txn,
                    commit_at,
                },
                IntentRecord::Committed { txn: report.txn },
            ],
            "write-ahead order: one record per phase transition"
        );
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.tick(commit_at);
            assert_eq!(dev.program().unwrap().bundle(), &v2(), "{d} flipped");
            assert_eq!(dev.fence(), report.epoch, "{d} observed the epoch");
        }
    }

    #[test]
    fn coordinator_death_after_prepared_leaves_devices_in_doubt() {
        let (mut sim, devices) = prepared_sim();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let mut log = ReplicatedIntentLog::new(3, 7).unwrap();
        let report = logged(
            &mut sim,
            &targets,
            &mut log,
            Some(CrashPhase::AfterPrepared),
        );
        assert_eq!(
            report.outcome,
            LoggedTxnOutcome::Crashed(CrashPhase::AfterPrepared)
        );
        // The log's last word is Prepared — recovery must roll back.
        assert!(matches!(
            log.records().unwrap().last(),
            Some(IntentRecord::Prepared { .. })
        ));
        // Devices hold their shadows forever: in-doubt means no unilateral
        // flip, even long past the transition's ready time.
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.tick(SimTime::from_secs(3600));
            assert!(dev.reconfig_in_progress(), "{d} must stay in-doubt");
            assert_eq!(dev.program().unwrap().bundle(), &v1(), "{d} still runs v1");
        }
    }

    #[test]
    fn logged_prepare_failure_aborts_and_journals_it() {
        let (mut sim, devices) = prepared_sim();
        sim.topo
            .node_mut(devices[2])
            .unwrap()
            .device
            .crash(SimTime::from_millis(500));
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let mut log = ReplicatedIntentLog::new(3, 11).unwrap();
        let report = logged(&mut sim, &targets, &mut log, None);
        assert_eq!(report.outcome, LoggedTxnOutcome::Aborted);
        assert_eq!(report.prepared, devices[..2].to_vec());
        assert!(matches!(
            log.records().unwrap().last(),
            Some(IntentRecord::Aborted { .. })
        ));
        for d in &devices[..2] {
            let dev = &sim.topo.node(*d).unwrap().device;
            assert!(!dev.reconfig_in_progress(), "{d} rolled back");
            assert_eq!(dev.program().unwrap().bundle(), &v1());
        }
    }

    #[test]
    fn mid_prepare_death_stops_after_half_the_participants() {
        let (mut sim, devices) = prepared_sim();
        let targets: Vec<_> = devices.iter().map(|d| (*d, v2())).collect();
        let mut log = ReplicatedIntentLog::new(3, 13).unwrap();
        let report = logged(&mut sim, &targets, &mut log, Some(CrashPhase::MidPrepare));
        assert_eq!(
            report.outcome,
            LoggedTxnOutcome::Crashed(CrashPhase::MidPrepare)
        );
        assert_eq!(report.prepared, devices[..2].to_vec(), "ceil(3/2) prepared");
        // The log never saw Prepared: its last word is the Intent.
        assert!(matches!(
            log.records().unwrap().last(),
            Some(IntentRecord::Intent { .. })
        ));
        assert!(sim
            .topo
            .node(devices[0])
            .unwrap()
            .device
            .reconfig_in_progress());
        assert!(!sim
            .topo
            .node(devices[2])
            .unwrap()
            .device
            .reconfig_in_progress());
    }
}

