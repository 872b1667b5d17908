//! The recovery coordinator: after a controller failover (or restart),
//! replay the replicated intent log and put every transaction — and every
//! device — back into a consistent state.
//!
//! Recovery runs in three passes:
//!
//! 1. **Fence** — every reachable device observes the new controller
//!    epoch ([`flexnet_dataplane::Device::observe_epoch`]). From this
//!    point the deposed coordinator's prepare/commit/abort commands are
//!    rejected with [`flexnet_types::FlexError::Fenced`], so recovery
//!    cannot race a zombie.
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

use crate::retry::{Channel, LossyFabric, RetryPolicy};
use crate::txn::{abort_on, commit_on};
use crate::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_dataplane::{SealedTargets, TxnTag};
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::Simulation;
use flexnet_types::{NodeId, Result, SimTime};
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
    let mut ch = Channel {
        sim,
        fabric,
        policy,
        now,
        messages: 0,
    };
    let mut unreachable: Vec<NodeId> = Vec::new();

    // Pass 1: fence. After this, the old coordinator's epoch is dead on
    // every reachable device.
    let mut fenced = 0usize;
    for node in devices {
        match ch.send(*node, "fence", |dev, _| dev.observe_epoch(epoch)) {
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
                    wiped_shadows += usize::from(discard_shadow(&mut ch, *node, tag));
                }
                resolutions.push((txn, TxnResolution::RolledBack));
            }
            Some(commit_at) => {
                // The decision to commit was durable: some participant may
                // already hold a released shadow, so only roll-forward
                // keeps the network single-program. Journal first.
                log.append(&IntentRecord::Committed { txn })?;
                let flip_at = commit_at.max(ch.now);
                for node in &nodes {
                    let target = targets
                        .get(&txn)
                        .and_then(|ts| ts.iter().find(|(n, _)| n == node))
                        .map(|(_, b)| b);
                    // A roll-forward that had to re-prepare found the
                    // prepared shadow gone — wiped by a restart.
                    let re = commit_on(&mut ch, *node, tag, flip_at, target, &mut sealed, WHO);
                    reprepared += usize::from(re);
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
        let pending = ch
            .sim
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
                let flip_at = ch.now;
                commit_on(&mut ch, *node, tag, flip_at, None, &mut sealed, WHO);
            }
            // Aborted, never-logged, or (unreachably) still open: discard.
            _ => {
                discard_shadow(&mut ch, *node, tag);
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
        messages: ch.messages,
        finished_at: ch.now,
    })
}

/// How this coordinator's command failures are labelled in `sim.errors`.
const WHO: &str = "recovery";

/// Sends one idempotent abort of `tag`'s shadow on `node`. Returns whether
/// the delivered abort found nothing pending: the shadow the log promised
/// was gone on-device (restart-wiped, or the prepare itself never
/// arrived) — tolerated and reported, not an error. The device's rollback
/// is recorded at the instant it happened, whether or not its ack arrived.
fn discard_shadow(ch: &mut Channel<'_>, node: NodeId, tag: TxnTag) -> bool {
    let (result, delivered) = abort_on(ch, node, Some(tag));
    if let Err(e) = result {
        ch.sim
            .errors
            .push((ch.now, format!("{WHO} abort on {node}: {e}")));
    }
    let Some(done) = delivered else { return false };
    if let Some(rep) = done.report {
        ch.sim.reconfig_reports.push((done.at, node, rep));
    }
    done.wiped
}
