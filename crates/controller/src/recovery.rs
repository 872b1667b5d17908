//! The recovery coordinator: after a controller failover (or restart),
//! replay the replicated intent log and put every transaction — and every
//! device — back into a consistent state.
//!
//! Recovery runs in three passes:
//!
//! 1. **Fence** — every reachable device observes the new controller
//!    epoch ([`flexnet_dataplane::Device::observe_epoch`]). From this
//!    point the deposed coordinator's prepare/commit/abort commands are
//!    rejected with [`FlexError::Fenced`], so recovery cannot race a
//!    zombie.
//! 2. **Resolve** — for each transaction whose last durable record is not
//!    terminal, apply the in-doubt resolution rule (`DESIGN.md` §8):
//!    `Intent` or `Prepared` → roll **back** (presumed abort: no flip was
//!    ever scheduled, so aborting is always safe); `FlipScheduled` → roll
//!    **forward** (a participant may already have flipped, so only commit
//!    preserves the all-or-nothing guarantee). Devices whose shadow died
//!    with a crash are re-prepared from the caller's target directory.
//!    Each resolution is journaled (`Aborted`/`Committed`) before its
//!    commands are sent, keeping the write-ahead rule.
//! 3. **Sweep** — any remaining tagged shadow is an orphan (its
//!    transaction already terminal, its decision command lost): committed
//!    transactions release it, everything else discards it.
//!
//! The whole procedure is idempotent: a second run finds every
//! transaction terminal and no orphans, and changes nothing.

use crate::retry::{command_rtt, with_retry, LossyFabric, RetryPolicy};
use crate::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_dataplane::{SealedTargets, TxnTag};
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::Simulation;
use flexnet_types::{FlexError, NodeId, Result, SimTime};
use std::collections::BTreeMap;

/// How one in-doubt transaction was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnResolution {
    /// The flip was already scheduled: every participant was committed.
    RolledForward,
    /// No flip was scheduled: every participant was rolled back.
    RolledBack,
}

/// The recovery coordinator's account of one recovery pass.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The new controller epoch recovery fenced the data plane with.
    pub epoch: u64,
    /// Devices that accepted the fence.
    pub fenced: usize,
    /// Devices that could not be reached (down throughout recovery).
    pub unreachable: Vec<NodeId>,
    /// Per-transaction resolutions, in txn-id order (in-doubt ones only).
    pub resolutions: Vec<(u64, TxnResolution)>,
    /// Devices whose lost shadow was re-prepared during roll-forward.
    pub reprepared: usize,
    /// Shadows the log said existed but that were gone on-device — the
    /// participant restarted (state wiped) or never received its prepare.
    /// These are tolerated, not errors: rollback becomes a no-op and
    /// roll-forward re-prepares from the target directory.
    pub wiped_shadows: usize,
    /// Orphaned shadows discarded (or released) by the final sweep.
    pub orphans_swept: usize,
    /// Control messages sent (attempts, including lost ones).
    pub messages: u32,
    /// When recovery finished.
    pub finished_at: SimTime,
}

impl RecoveryReport {
    /// Whether this pass found nothing to do (the idempotency signature).
    pub fn is_noop(&self) -> bool {
        self.resolutions.is_empty()
            && self.orphans_swept == 0
            && self.reprepared == 0
            && self.wiped_shadows == 0
    }
}

/// The per-transaction target programs, for re-preparing devices whose
/// shadow died with a crash: `txn id → [(device, bundle)]`. Coordinators
/// persist this next to the log (here: the chaos harness keeps it).
pub type TargetDirectory = BTreeMap<u64, Vec<(NodeId, ProgramBundle)>>;

/// Replays the intent log and resolves every in-doubt transaction.
///
/// `devices` names every data-plane participant to fence and sweep;
/// `targets` supplies the per-transaction programs for roll-forward
/// re-preparation. The log must have a leader (run
/// [`ReplicatedIntentLog::elect`] after a coordinator crash first).
#[allow(clippy::too_many_arguments)]
pub fn recover(
    sim: &mut Simulation,
    log: &mut ReplicatedIntentLog,
    targets: &TargetDirectory,
    devices: &[NodeId],
    now: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
) -> Result<RecoveryReport> {
    let epoch = log.epoch()?;
    let mut t = now;
    let mut messages = 0u32;
    let mut unreachable: Vec<NodeId> = Vec::new();

    // Pass 1: fence. After this, the old coordinator's epoch is dead on
    // every reachable device.
    let mut fenced = 0usize;
    for node in devices {
        let mut acked = false;
        let out = with_retry(policy, fabric, t, command_rtt(), |_| {
            if acked {
                return Ok(());
            }
            let dev = &mut sim
                .topo
                .node_mut(*node)
                .ok_or_else(|| FlexError::Sim(format!("fence: unknown node {node}")))?
                .device;
            dev.observe_epoch(epoch)?;
            acked = true;
            Ok(())
        });
        messages += out.attempts;
        t = out.finished_at;
        match out.result {
            Ok(()) => fenced += 1,
            Err(_) => unreachable.push(*node),
        }
    }

    // Replay: the last record of each open transaction decides its fate,
    // its latest device list names its participants. `None` = no flip was
    // ever scheduled. Rollouts left open are the rollout module's resume
    // path, not 2PC recovery: each wave's own transaction records carry
    // everything this pass needs.
    let in_doubt: Vec<(u64, Option<SimTime>, Vec<NodeId>)> = {
        let replay = log.replay()?;
        replay
            .open()
            .filter_map(|txn| {
                let commit_at = match replay.last(txn)? {
                    IntentRecord::Intent { .. } | IntentRecord::Prepared { .. } => None,
                    IntentRecord::FlipScheduled { commit_at, .. } => Some(*commit_at),
                    _ => return None,
                };
                let nodes = replay.participants(txn).iter().map(|d| NodeId(*d as u32));
                Some((txn, commit_at, nodes.collect()))
            })
            .collect()
    };

    // Pass 2: resolve every non-terminal transaction, in id order.
    let mut resolutions: Vec<(u64, TxnResolution)> = Vec::new();
    let mut sealed = SealedTargets::default();
    let mut reprepared = 0usize;
    let mut wiped_shadows = 0usize;
    for (txn, commit_at, nodes) in in_doubt {
        let tag = TxnTag { txn_id: txn, epoch };
        match commit_at {
            None => {
                // No flip was ever scheduled: no participant can have
                // flipped, so rolling back restores the old program
                // everywhere. Journal the decision first.
                log.append(&IntentRecord::Aborted { txn })?;
                for node in &nodes {
                    let (m, at, wiped) = abort_on(sim, *node, tag, t, fabric, policy);
                    messages += m;
                    t = at;
                    wiped_shadows += usize::from(wiped);
                }
                resolutions.push((txn, TxnResolution::RolledBack));
            }
            Some(commit_at) => {
                // The decision to commit was durable: some participant may
                // already hold a released shadow, so only roll-forward
                // keeps the network single-program. Journal first.
                log.append(&IntentRecord::Committed { txn })?;
                let flip_at = if commit_at > t { commit_at } else { t };
                for node in &nodes {
                    let target = targets
                        .get(&txn)
                        .and_then(|ts| ts.iter().find(|(n, _)| n == node))
                        .map(|(_, b)| b);
                    let (m, at, re) = commit_on(
                        sim, *node, tag, flip_at, target, &mut sealed, t, fabric, policy,
                    );
                    messages += m;
                    t = at;
                    reprepared += usize::from(re);
                    // A roll-forward that had to re-prepare found the
                    // prepared shadow gone — wiped by a restart.
                    wiped_shadows += usize::from(re);
                }
                resolutions.push((txn, TxnResolution::RolledForward));
            }
        }
    }

    // Pass 3: sweep orphans — shadows still *awaiting a decision* whose
    // transaction the log already closed (their decision command was lost
    // in flight, in pass 2 included: the log is read as pass 2 left it).
    // Shadows released in pass 2 merely await their flip instant and are
    // not orphans.
    let replay = log.replay()?;
    let mut orphans_swept = 0usize;
    for node in devices {
        let pending = sim
            .topo
            .node(*node)
            .and_then(|n| n.device.txn_in_doubt());
        let Some(orphan) = pending else { continue };
        let tag = TxnTag {
            txn_id: orphan.txn_id,
            epoch,
        };
        match replay.last(orphan.txn_id) {
            Some(IntentRecord::Committed { .. }) => {
                let (m, at, _) =
                    commit_on(sim, *node, tag, t, None, &mut sealed, t, fabric, policy);
                messages += m;
                t = at;
            }
            // Aborted, never-logged, or (unreachably) still open: discard.
            _ => {
                let (m, at, _) = abort_on(sim, *node, tag, t, fabric, policy);
                messages += m;
                t = at;
            }
        }
        orphans_swept += 1;
    }

    Ok(RecoveryReport {
        epoch,
        fenced,
        unreachable,
        resolutions,
        reprepared,
        wiped_shadows,
        orphans_swept,
        messages,
        finished_at: t,
    })
}

/// Sends one idempotent abort; returns (messages, finished_at, wiped?).
/// `wiped` is true when the delivered abort found nothing pending: the
/// shadow the log promised was gone on-device (restart-wiped, or the
/// prepare itself never arrived). Pre-PR-3 this path silently assumed
/// the shadow still existed; now it is tolerated and reported.
fn abort_on(
    sim: &mut Simulation,
    node: NodeId,
    tag: TxnTag,
    t: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
) -> (u32, SimTime, bool) {
    let mut done = false;
    let mut wiped = false;
    let out = with_retry(policy, fabric, t, command_rtt(), |at| {
        if done {
            return Ok(());
        }
        let dev = &mut sim
            .topo
            .node_mut(node)
            .ok_or_else(|| FlexError::Sim(format!("abort: unknown node {node}")))?
            .device;
        match dev.abort_txn(tag, at) {
            Ok(rep) => {
                match rep {
                    Some(rep) => sim.reconfig_reports.push((at, node, rep)),
                    None => wiped = true,
                }
                done = true;
                Ok(())
            }
            // A shadow owned by someone else is not ours to discard.
            Err(FlexError::Conflict(_)) => {
                done = true;
                Ok(())
            }
            Err(e) => Err(e),
        }
    });
    if let Err(e) = out.result {
        sim.errors
            .push((out.finished_at, format!("recovery abort on {node}: {e}")));
    }
    (out.attempts, out.finished_at, wiped)
}

/// Sends one idempotent commit, re-preparing a crash-lost shadow from
/// `target` (sealed once per recovery pass, in `sealed`) when the
/// device's active program does not already match.
/// Returns (messages, finished_at, re-prepared?).
#[allow(clippy::too_many_arguments)]
fn commit_on(
    sim: &mut Simulation,
    node: NodeId,
    tag: TxnTag,
    flip_at: SimTime,
    target: Option<&ProgramBundle>,
    sealed: &mut SealedTargets,
    t: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
) -> (u32, SimTime, bool) {
    let mut released: Option<bool> = None;
    let out = with_retry(policy, fabric, t, command_rtt(), |_| {
        if let Some(r) = released {
            return Ok(r);
        }
        let dev = &mut sim
            .topo
            .node_mut(node)
            .ok_or_else(|| FlexError::Sim(format!("commit: unknown node {node}")))?
            .device;
        let r = dev.commit_txn(tag, flip_at)?;
        released = Some(r);
        Ok(r)
    });
    let mut messages = out.attempts;
    let mut t = out.finished_at;
    let mut reprepared = false;
    match out.result {
        Ok(true) => {}
        Ok(false) => {
            // Nothing pending: the device either flipped already (its
            // image matches the target) or lost the shadow in a crash —
            // then the commit decision obliges us to re-prepare it.
            let needs = match (sim.topo.node(node).map(|n| &n.device), target) {
                (Some(dev), Some(want)) if dev.program().is_none_or(|p| p.bundle() != want) => {
                    Some(want)
                }
                _ => None,
            };
            if let Some(want) = needs {
                let mut done = false;
                let out = with_retry(policy, fabric, t, command_rtt(), |at| {
                    if done {
                        return Ok(());
                    }
                    let dev = &mut sim
                        .topo
                        .node_mut(node)
                        .ok_or_else(|| FlexError::Sim(format!("re-prepare: unknown node {node}")))?
                        .device;
                    let rep = dev.prepare_txn_reconfig(|| sealed.image_for(want), at, tag)?;
                    dev.commit_txn(tag, rep.ready_at)?;
                    done = true;
                    Ok(())
                });
                messages += out.attempts;
                t = out.finished_at;
                match out.result {
                    Ok(()) => reprepared = true,
                    Err(e) => sim
                        .errors
                        .push((t, format!("recovery re-prepare on {node}: {e}"))),
                }
            }
        }
        Err(e) => {
            sim.errors
                .push((t, format!("recovery commit on {node}: {e}")));
        }
    }
    (messages, t, reprepared)
}
