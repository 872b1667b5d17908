//! The deterministic chaos harness: one seed → one complete
//! coordinator-crash scenario with global invariant checks (experiment
//! E13).
//!
//! [`run_chaos_seed`] expands the seed into a [`ChaosSchedule`]
//! (crash phase, optional victim device, fabric loss), runs a journaled
//! transaction to the chosen crash point on the line topology, kills the
//! Raft leader (and the victim device, which loses its volatile shadow),
//! fails over, recovers, lets the deposed coordinator replay its stale
//! commands, and finally pushes live traffic through the network. Every
//! global invariant the recovery protocol promises is checked; the
//! returned [`ChaosReport`] lists each violation as a human-readable
//! string, so `report.violations.is_empty()` is the pass criterion for
//! benches, CI smoke tests, and property tests alike.
//!
//! Invariants checked:
//! - **Resolution** — after recovery, every transaction in the log is
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

use crate::recovery::{recover, RecoveryReport, TargetDirectory};
use crate::retry::{LossyFabric, RetryPolicy};
use crate::txn::{logged_transactional_reconfig, LoggedTxnOutcome, LoggedTxnReport};
use crate::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_dataplane::TxnTag;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_sim::{generate, ChaosSchedule, FlowSpec, Simulation, Topology};
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};

/// Controller nodes in the chaos scenario's Raft cluster.
const CONTROLLERS: usize = 3;

/// Everything one chaos run observed.
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

impl ChaosReport {
    /// Whether the run upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).expect("chaos program parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// The pre-transaction program: plain forwarding along the line.
fn v1() -> ProgramBundle {
    bundle("program app kind any { handler ingress(pkt) { forward(1); } }")
}

/// The target program: same forwarding plus a counter, so the diff is
/// non-trivial but traffic still flows whichever version survives.
fn v2() -> ProgramBundle {
    bundle(
        "program app kind any {
           counter c;
           handler ingress(pkt) { count(c); forward(1); }
         }",
    )
}

/// Runs the full crash/failover/recovery scenario for one seed.
///
/// Errors only on harness plumbing failures (a Raft cluster that cannot
/// elect at all); protocol misbehaviour is reported as violations, not
/// errors, so sweeps keep going and count.
pub fn run_chaos_seed(seed: u64) -> Result<ChaosReport> {
    // -- setup: line topology, v1 everywhere, a replicated intent log ----
    let (topo, nodes) = Topology::host_nic_switch_line();
    let devices = [nodes[1], nodes[2], nodes[3]];
    let (src_host, dst_host) = (nodes[0], nodes[4]);
    let mut sim = Simulation::new(topo);
    for d in devices {
        sim.topo
            .node_mut(d)
            .expect("line node exists")
            .device
            .install(v1())
            .map_err(|e| FlexError::Sim(format!("seed {seed}: install v1 on {d}: {e}")))?;
    }
    let schedule = ChaosSchedule::from_seed(seed, devices.len());
    let mut log = ReplicatedIntentLog::new(CONTROLLERS, schedule.raft_seed)?;
    let old_epoch = log.epoch()?;
    let mut fabric = LossyFabric::new(schedule.fabric_loss, seed);
    let policy = RetryPolicy {
        max_attempts: 16,
        deadline: SimDuration::from_secs(60),
        ..RetryPolicy::default()
    };
    let mut violations: Vec<String> = Vec::new();

    // -- act 1: the transaction runs until the coordinator dies ----------
    let targets: Vec<(NodeId, ProgramBundle)> = devices.iter().map(|d| (*d, v2())).collect();
    let txn_report = logged_transactional_reconfig(
        &mut sim,
        &targets,
        SimTime::from_secs(1),
        &mut fabric,
        &policy,
        &mut log,
        Some(schedule.crash_phase),
        None,
        None,
    )?;
    let crash_at = txn_report.finished_at;
    let old_tag = TxnTag {
        txn_id: txn_report.txn,
        epoch: old_epoch,
    };

    // The victim device dies with the coordinator (losing its volatile
    // shadow) and reboots shortly after, before recovery reaches it.
    if let Some(v) = schedule.victim {
        let dev = &mut sim.topo.node_mut(devices[v]).expect("victim exists").device;
        dev.crash(crash_at);
        dev.restart(crash_at + flexnet_sim::faults::VICTIM_RESTART_DELAY)
            .map_err(|e| FlexError::Sim(format!("seed {seed}: victim restart: {e}")))?;
    }

    // -- act 2: failover — kill the leader, elect a successor ------------
    log.kill_leader()?;
    log.elect()?;
    let new_epoch = log.epoch()?;
    if new_epoch <= old_epoch {
        violations.push(format!(
            "epoch did not rise across failover: {old_epoch} -> {new_epoch}"
        ));
    }

    // -- act 3: recovery --------------------------------------------------
    let mut directory = TargetDirectory::new();
    directory.insert(txn_report.txn, targets.clone());
    let recover_from = crash_at + SimDuration::from_secs(1);
    let recovery = recover(
        &mut sim,
        &mut log,
        &directory,
        &devices,
        recover_from,
        &mut fabric,
        &policy,
    )?;
    let resolve_latency = recovery.finished_at.saturating_since(crash_at);

    // Invariant: every transaction in the log is terminal, and the one we
    // crashed resolved the way its phase demands.
    let expect_committed = match txn_report.outcome {
        // The flip decision was durable: recovery must roll forward.
        LoggedTxnOutcome::Crashed(flexnet_sim::CrashPhase::AfterFlipScheduled) => true,
        LoggedTxnOutcome::Committed => true,
        // Prepared-or-earlier (or a live abort): roll back.
        _ => false,
    };
    let committed = {
        let replay = log.replay()?;
        let mut last_per_txn: std::collections::BTreeMap<u64, &IntentRecord> =
            std::collections::BTreeMap::new();
        for rec in replay.records() {
            // Intended-state records are reconciliation targets, not phases.
            if matches!(rec, IntentRecord::IntendedState { .. }) {
                continue;
            }
            last_per_txn.insert(rec.txn(), rec);
        }
        for (txn, rec) in &last_per_txn {
            if !matches!(
                rec,
                IntentRecord::Committed { .. } | IntentRecord::Aborted { .. }
            ) {
                violations.push(format!("txn {txn} left unresolved: {rec:?}"));
            }
        }
        matches!(
            last_per_txn.get(&txn_report.txn),
            Some(IntentRecord::Committed { .. })
        )
    };
    if committed != expect_committed {
        violations.push(format!(
            "txn {} resolved {} but phase {:?} demands {}",
            txn_report.txn,
            if committed { "forward" } else { "back" },
            txn_report.outcome,
            if expect_committed { "forward" } else { "back" },
        ));
    }

    // Invariant: zero orphan shadows once recovery returns.
    for d in devices {
        if let Some(tag) = sim.topo.node(d).expect("device exists").device.txn_in_doubt() {
            violations.push(format!("orphan in-doubt shadow on {d}: {tag:?}"));
        }
    }

    // Invariant: exactly-once — a second recovery pass is a strict no-op.
    let second = recover(
        &mut sim,
        &mut log,
        &directory,
        &devices,
        recovery.finished_at,
        &mut fabric,
        &policy,
    )?;
    if !second.is_noop() {
        violations.push(format!(
            "recovery is not idempotent: second pass resolved {:?}, swept {}, re-prepared {}",
            second.resolutions, second.orphans_swept, second.reprepared
        ));
    }

    // Invariant: fences are at the new epoch on every device.
    for d in devices {
        let fence = sim.topo.node(d).expect("device exists").device.fence();
        if fence != new_epoch {
            violations.push(format!("{d} fenced at {fence}, expected epoch {new_epoch}"));
        }
    }

    // -- act 4: the zombie returns ---------------------------------------
    // The deposed coordinator never learned it was deposed: it retries its
    // prepare, commit, and abort with the stale epoch. Every single
    // command must bounce off the fence.
    let mut zombie_attempts = 0u32;
    let mut zombie_rejected = 0u32;
    let zombie_at = recovery.finished_at + SimDuration::from_millis(1);
    for d in devices {
        let dev = &mut sim.topo.node_mut(d).expect("device exists").device;
        let outcomes: [Result<()>; 3] = [
            dev.prepare_txn_reconfig(v2(), zombie_at, old_tag).map(|_| ()),
            dev.commit_txn(old_tag, zombie_at).map(|_| ()),
            dev.abort_txn(old_tag, zombie_at).map(|_| ()),
        ];
        for out in outcomes {
            zombie_attempts += 1;
            match out {
                Err(FlexError::Fenced { .. }) => zombie_rejected += 1,
                other => violations.push(format!(
                    "zombie command on {d} not fenced: {other:?}"
                )),
            }
        }
    }

    // -- act 5: live traffic sees one coherent network --------------------
    // Flips materialize as packets tick the devices; the flow starts well
    // after every scheduled flip instant.
    let settle = recovery.finished_at + SimDuration::from_secs(2);
    for d in devices {
        sim.topo.node_mut(d).expect("device exists").device.tick(settle);
    }
    let want = if expect_committed { v2() } else { v1() };
    for d in devices {
        let dev = &sim.topo.node(d).expect("device exists").device;
        if dev.reconfig_in_progress() {
            violations.push(format!("{d} still mid-reconfiguration after settling"));
        }
        match dev.program() {
            Some(p) if *p.bundle() == want => {}
            Some(_) => violations.push(format!(
                "{d} runs the wrong program (mixed network: expected {})",
                if expect_committed { "v2" } else { "v1" },
            )),
            None => violations.push(format!("{d} lost its program entirely")),
        }
    }
    sim.load(generate(
        &[FlowSpec::udp_cbr(
            src_host,
            dst_host,
            1000,
            settle + SimDuration::from_millis(1),
            SimDuration::from_millis(200),
        )],
        seed,
    ));
    sim.run_to_completion();
    let delivered = sim.metrics.delivered;
    if delivered == 0 {
        violations.push("no post-recovery traffic delivered".into());
    }
    for d in devices {
        let versions = sim.metrics.versions_seen(d);
        if versions.len() > 1 {
            violations.push(format!(
                "{d} processed packets under {} different versions: old-XOR-new violated",
                versions.len()
            ));
        }
    }

    Ok(ChaosReport {
        schedule,
        txn: txn_report,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::TxnResolution;
    use flexnet_sim::CrashPhase;

    #[test]
    fn a_known_seed_passes_every_invariant() {
        let report = run_chaos_seed(3).unwrap();
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
            let report = run_chaos_seed(seed).unwrap();
            assert!(
                report.passed(),
                "seed {seed} ({}) violations: {:?}",
                report.schedule.crash_phase.label(),
                report.violations
            );
            match report.schedule.crash_phase {
                CrashPhase::AfterFlipScheduled => {
                    assert!(
                        report
                            .recovery
                            .resolutions
                            .iter()
                            .any(|(_, r)| *r == TxnResolution::RolledForward),
                        "flip-scheduled must roll forward"
                    );
                }
                _ => {
                    if matches!(report.txn.outcome, LoggedTxnOutcome::Crashed(_)) {
                        assert!(
                            report
                                .recovery
                                .resolutions
                                .iter()
                                .any(|(_, r)| *r == TxnResolution::RolledBack),
                            "pre-decision crashes must roll back"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let a = run_chaos_seed(11).unwrap();
        let b = run_chaos_seed(11).unwrap();
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.new_epoch, b.new_epoch);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.resolve_latency, b.resolve_latency);
    }
}
