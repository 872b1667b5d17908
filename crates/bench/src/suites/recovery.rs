//! E13 — controller crash-recovery: one seed → one complete
//! coordinator-crash scenario with global invariant checks.
//!
//! The seed expands into a [`ChaosSchedule`] (crash phase, optional victim
//! device, fabric loss). A journaled transaction runs to the chosen crash
//! point on the line, the Raft leader dies (and the victim device, which
//! loses its volatile shadow), a successor is elected and recovers, the
//! deposed coordinator replays its stale commands, and live traffic is
//! pushed through the network. Invariants checked:
//!
//! - **Resolution** — after recovery every transaction in the log is
//!   terminal and resolved the right way for its crash phase (flip
//!   scheduled → forward, otherwise → back).
//! - **Zero orphans** — no device holds an in-doubt shadow once recovery
//!   returns.
//! - **Exactly-once** — a second recovery pass is a strict no-op.
//! - **Monotone epochs** — the successor's epoch exceeds the victim's and
//!   every reachable device is fenced at it.
//! - **Zombie rejection** — every command the deposed coordinator retries
//!   with its stale epoch fails with [`FlexError::Fenced`].
//! - **Old-XOR-new** — post-recovery traffic sees exactly one program
//!   version per device and one program across the network.

use crate::fixture::{app, intent_log, resolved_txns, Draws, LineFleet};
use crate::sweep::{col, mean, total, Arm, Report, Suite};
use flexnet_controller::recovery::{recover, RecoveryReport, TargetDirectory, TxnResolution};
use flexnet_controller::txn::{logged_transactional_reconfig, LoggedTxnOutcome, LoggedTxnReport};
use flexnet_dataplane::TxnTag;
use flexnet_sim::CrashPhase;
use flexnet_types::hash::mix;
use flexnet_types::{FlexError, Result, SimDuration, SimTime};

/// Everything a crash-recovery run does, derived deterministically from
/// one seed: *which* two-phase-commit phase the coordinator dies in,
/// *which* participant (if any) crashes with it, and how lossy the
/// control fabric is.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Where the coordinator dies.
    pub crash_phase: CrashPhase,
    /// Participant index (into the transaction's device list) that crashes
    /// together with the coordinator, losing its volatile shadow — or
    /// `None` for a clean coordinator-only crash.
    pub victim: Option<usize>,
    /// Drop probability of the controller↔device fabric.
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl ChaosSchedule {
    /// Expands `seed` into a schedule over `participants` devices.
    ///
    /// The crash phase cycles with the seed (so any contiguous run of ≥4
    /// seeds covers every phase), a device crashes alongside the
    /// coordinator in half the runs, and fabric loss comes from the
    /// standard tiers.
    pub fn from_seed(seed: u64, participants: usize) -> ChaosSchedule {
        let d = Draws::new(seed, 0);
        ChaosSchedule {
            seed,
            crash_phase: CrashPhase::ALL[(seed % 4) as usize],
            victim: (participants > 0 && d.bit(0)).then(|| d.index(1, participants)),
            fabric_loss: d.fabric_loss(),
            raft_seed: mix(seed ^ 0xC0FF_EE00),
        }
    }
}

/// Everything one crash-recovery run observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The schedule the seed expanded to.
    pub schedule: ChaosSchedule,
    /// The journaled transaction's account (up to the crash).
    pub txn: LoggedTxnReport,
    /// The recovery pass's account.
    pub recovery: RecoveryReport,
    /// Epoch the transaction ran under (before the crash).
    pub old_epoch: u64,
    /// Epoch after failover.
    pub new_epoch: u64,
    /// Stale-epoch commands the zombie coordinator attempted.
    pub zombie_attempts: u32,
    /// How many of them the data plane rejected with `Fenced`.
    pub zombie_rejected: u32,
    /// Packets delivered by the post-recovery traffic check.
    pub delivered: u64,
    /// Simulated time from the coordinator crash to the end of recovery.
    pub resolve_latency: SimDuration,
    /// Every invariant violation observed (empty = the run passed).
    pub violations: Vec<String>,
}

impl Report for ChaosReport {
    fn failures(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// Runs the full crash/failover/recovery scenario for one seed (the suite
/// has no ablated arm).
pub fn run(seed: u64, _arm: Arm) -> Result<ChaosReport> {
    // -- setup: the line, v1 everywhere, a replicated intent log ---------
    let schedule = ChaosSchedule::from_seed(seed, 3);
    let mut fleet = LineFleet::new(seed, schedule.fabric_loss, intent_log(schedule.raft_seed)?);
    fleet.install_everywhere(seed, &app(1))?;
    let devices = fleet.devices;
    let old_epoch = fleet.log.epoch()?;
    let mut violations: Vec<String> = Vec::new();

    // -- act 1: the transaction runs until the coordinator dies ----------
    let targets = fleet.targets(&app(2));
    let txn = logged_transactional_reconfig(
        &mut fleet.sim,
        &targets,
        SimTime::from_secs(1),
        &mut fleet.fabric,
        &fleet.policy,
        &mut fleet.log,
        Some(schedule.crash_phase),
        None,
        None,
    )?;
    let crash_at = txn.finished_at;
    let old_tag = TxnTag {
        txn_id: txn.txn,
        epoch: old_epoch,
    };
    // The victim device dies with the coordinator and reboots shortly
    // after, before recovery reaches it.
    if let Some(v) = schedule.victim {
        fleet.restart_victim(seed, v, crash_at)?;
    }

    // -- act 2: failover — kill the leader, elect a successor ------------
    fleet.log.kill_leader()?;
    fleet.log.elect()?;
    let new_epoch = fleet.log.epoch()?;
    if new_epoch <= old_epoch {
        violations.push(format!(
            "epoch did not rise across failover: {old_epoch} -> {new_epoch}"
        ));
    }

    // -- act 3: recovery --------------------------------------------------
    let mut directory = TargetDirectory::new();
    directory.insert(txn.txn, targets);
    let recover_at = |fleet: &mut LineFleet, from| {
        let LineFleet {
            sim,
            log,
            fabric,
            policy,
            ..
        } = fleet;
        recover(sim, log, &directory, &devices, from, fabric, policy)
    };
    let recovery = recover_at(&mut fleet, crash_at + SimDuration::from_secs(1))?;
    let resolve_latency = recovery.finished_at.saturating_since(crash_at);

    // Invariant: every transaction in the log is terminal, and the one we
    // crashed resolved the way its phase demands: a durable flip decision
    // rolls forward, prepared-or-earlier (or a live abort) rolls back.
    let expect_committed = matches!(
        txn.outcome,
        LoggedTxnOutcome::Crashed(CrashPhase::AfterFlipScheduled) | LoggedTxnOutcome::Committed
    );
    let resolved = resolved_txns(fleet.log.replay()?.records(), &mut violations);
    let committed = resolved.contains(&txn.txn);
    if committed != expect_committed {
        let way = |forward| if forward { "forward" } else { "back" };
        violations.push(format!(
            "txn {} resolved {} but phase {:?} demands {}",
            txn.txn,
            way(committed),
            txn.outcome,
            way(expect_committed),
        ));
    }
    fleet.no_orphans(&mut violations);

    // Invariant: exactly-once — a second recovery pass is a strict no-op.
    let second = recover_at(&mut fleet, recovery.finished_at)?;
    if !second.is_noop() {
        violations.push(format!(
            "recovery is not idempotent: second pass resolved {:?}, swept {}, re-prepared {}",
            second.resolutions, second.orphans_swept, second.reprepared
        ));
    }

    // Invariant: fences are at the new epoch on every device.
    for d in devices {
        let fence = fleet.device(d).fence();
        if fence != new_epoch {
            violations.push(format!("{d} fenced at {fence}, expected epoch {new_epoch}"));
        }
    }

    // -- act 4: the zombie returns ---------------------------------------
    // The deposed coordinator never learned it was deposed: it retries its
    // prepare, commit, and abort with the stale epoch. Every single
    // command must bounce off the fence.
    let (mut zombie_attempts, mut zombie_rejected) = (0u32, 0u32);
    let zombie_at = recovery.finished_at + SimDuration::from_millis(1);
    for d in devices {
        let dev = fleet.device(d);
        let outcomes: [Result<()>; 3] = [
            dev.prepare_txn_reconfig(app(2), zombie_at, old_tag)
                .map(|_| ()),
            dev.commit_txn(old_tag, zombie_at).map(|_| ()),
            dev.abort_txn(old_tag, zombie_at).map(|_| ()),
        ];
        for out in outcomes {
            zombie_attempts += 1;
            match out {
                Err(FlexError::Fenced { .. }) => zombie_rejected += 1,
                other => violations.push(format!("zombie command on {d} not fenced: {other:?}")),
            }
        }
    }

    // -- act 5: live traffic sees one coherent network --------------------
    // Flips materialize as the devices tick; the probe flow starts well
    // after every scheduled flip instant.
    let settle = recovery.finished_at + SimDuration::from_secs(2);
    fleet.settle(settle, &mut violations);
    let (want, name) = if expect_committed {
        (app(2), "v2")
    } else {
        (app(1), "v1")
    };
    for d in devices {
        match fleet.device(d).program() {
            Some(p) if *p.bundle() == want => {}
            Some(_) => violations.push(format!(
                "{d} runs the wrong program (mixed network: expected {name})"
            )),
            None => violations.push(format!("{d} lost its program entirely")),
        }
    }
    let delivered = fleet.old_xor_new_probe(settle, seed, "", &mut violations);
    if delivered == 0 {
        violations.push("no post-recovery traffic delivered".into());
    }

    Ok(ChaosReport {
        schedule,
        txn,
        recovery,
        old_epoch,
        new_epoch,
        zombie_attempts,
        zombie_rejected,
        delivered,
        resolve_latency,
        violations,
    })
}

/// How many of a cohort's transactions recovery resolved as `way`.
fn resolved(cohort: &[&ChaosReport], way: TxnResolution) -> String {
    let all = cohort.iter().flat_map(|r| &r.recovery.resolutions);
    all.filter(|(_, res)| *res == way).count().to_string()
}

/// The E13 experiment.
pub fn suite() -> Suite<ChaosReport> {
    Suite {
        name: "recovery",
        id: "E13",
        title: "crash-recovery: replicated intent log + epoch-fenced failover",
        claim: "a runtime-programmable network must tolerate controller death \
                mid-reconfiguration without stranding half-committed programs",
        sweep_note: "(phase = seed mod 4)",
        run,
        cohort_title: "crash phase",
        cohorts: CrashPhase::ALL.iter().map(CrashPhase::label).collect(),
        cohort_of: |r| {
            let phase = r.schedule.crash_phase;
            CrashPhase::ALL
                .iter()
                .position(|p| *p == phase)
                .expect("a listed phase")
        },
        columns: vec![
            col("rolled fwd", |c| resolved(c, TxnResolution::RolledForward)),
            col("rolled back", |c| resolved(c, TxnResolution::RolledBack)),
            col("orphans swept", |c| {
                total(c, |r| r.recovery.orphans_swept as u64).to_string()
            }),
            col("re-prepared", |c| {
                total(c, |r| r.recovery.reprepared as u64).to_string()
            }),
            col("zombie rej", |c| {
                let rejected = total(c, |r| u64::from(r.zombie_rejected));
                format!("{rejected}/{}", total(c, |r| u64::from(r.zombie_attempts)))
            }),
            col("mean resolve", |c| {
                let ns = mean(c, |r| Some(r.resolve_latency.as_nanos()));
                SimDuration::from_nanos(ns.unwrap_or(0)).to_string()
            }),
        ],
        totals: None,
        oracle: None,
        summary: None,
        verdict: "runs upheld every invariant (resolution, zero orphans, \
                  exactly-once, monotone epochs, zombie rejection, old-XOR-new)",
        failed_note: "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_seed_passes_every_invariant() {
        let report = run(3, Arm::Protected).unwrap();
        assert!(
            report.passed(),
            "seed 3 violations: {:?}",
            report.violations
        );
        assert_eq!(report.schedule.crash_phase, CrashPhase::AfterFlipScheduled);
        assert_eq!(report.zombie_attempts, 9);
        assert_eq!(report.zombie_rejected, 9);
        assert!(report.delivered > 0);
    }

    #[test]
    fn every_crash_phase_resolves_correctly() {
        // Seeds 0..4 cycle the four phases.
        for seed in 0..4u64 {
            let report = run(seed, Arm::Protected).unwrap();
            assert!(
                report.passed(),
                "seed {seed} ({}) violations: {:?}",
                report.schedule.crash_phase.label(),
                report.violations
            );
            let resolved_as = |way| report.recovery.resolutions.iter().any(|(_, r)| *r == way);
            match report.schedule.crash_phase {
                CrashPhase::AfterFlipScheduled => {
                    assert!(
                        resolved_as(TxnResolution::RolledForward),
                        "flip-scheduled must roll forward"
                    );
                }
                _ => {
                    if matches!(report.txn.outcome, LoggedTxnOutcome::Crashed(_)) {
                        assert!(
                            resolved_as(TxnResolution::RolledBack),
                            "pre-decision crashes must roll back"
                        );
                    }
                }
            }
        }
    }
}
