//! E14 — device restart recovery under a seeded restart sweep.
//!
//! One seed expands to a [`RestartSchedule`]: 1, half, or all of the
//! line's devices restart — for some seeds while a two-phase-commit
//! upgrade is in flight — over a fabric of seeded loss. The run drives
//! intended-state reconciliation end to end: boot-id flap detection from
//! heartbeats, digest-based anti-entropy (a restarted device still runs
//! its intended image, so its resync sets only the tables whose digests
//! differ and flips nothing), critical programs before telemetry,
//! admissions rate-limited so a mass restart cannot stampede. Every
//! convergence invariant is checked (digest equality, zero orphan shadows,
//! loss confined to the downtime window, old-XOR-new on post-convergence
//! traffic); violations come back as strings in the report.

use crate::fixture::{baseline_detector, intent_log, Draws, LineFleet, HEARTBEAT_PERIOD};
use crate::sweep::{col, count, mean, total, Arm, Report, Suite};
use flexnet_controller::recovery::{recover, RecoveryReport, TargetDirectory};
use flexnet_controller::txn::logged_transactional_reconfig;
use flexnet_controller::{
    FailureDetector, HealthEvent, ProgramClass, ResyncOutcome, ResyncReport, Resyncer,
};
use flexnet_sim::faults::{FaultPlan, VICTIM_RESTART_DELAY};
use flexnet_sim::CrashPhase;
use flexnet_types::hash::mix;
use flexnet_types::{NodeId, Result, SimDuration, SimTime};

/// Everything a device-restart run does, derived from one seed: a seeded
/// subset of the participants crashes and restarts (runtime state wiped),
/// optionally in the middle of an in-flight two-phase-commit transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// How many devices restart: 1, about half, or all of them
    /// (the E14 sweep axis — single blip, correlated failure, power event).
    pub restarts: usize,
    /// Participant indices (into the device list) that crash + restart,
    /// distinct, `restarts` of them.
    pub victims: Vec<usize>,
    /// Whether the restarts land in the middle of an in-flight
    /// transaction (between prepare and flip) rather than during steady
    /// traffic.
    pub mid_txn: bool,
    /// Drop probability of the controller↔device fabric.
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl RestartSchedule {
    /// Expands `seed` into a restart schedule over `participants` devices.
    ///
    /// The restart count cycles 1 → ⌈n/2⌉ → n with the seed (so any three
    /// consecutive seeds cover the whole E14 axis), victims are drawn
    /// distinct, every other run restarts mid-transaction, and fabric loss
    /// comes from the standard tiers.
    pub fn from_seed(seed: u64, participants: usize) -> RestartSchedule {
        let d = Draws::new(seed, 0x5EED_CAFE);
        let restarts = match (participants, seed % 3) {
            (0, _) => 0,
            (_, 0) => 1,
            (_, 1) => participants.div_ceil(2),
            _ => participants,
        };
        RestartSchedule {
            seed,
            restarts,
            victims: d.distinct(restarts, participants),
            mid_txn: d.bit(4),
            fabric_loss: d.fabric_loss(),
            raft_seed: mix(seed ^ 0xDEC0_DED0),
        }
    }

    /// The data-plane half of the schedule: every victim crashes at
    /// `crash_at` and restarts after the standard victim delay, modelling
    /// a correlated power event.
    fn fault_plan(&self, devices: &[NodeId], crash_at: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        for &v in &self.victims {
            plan = plan
                .crash(crash_at, devices[v])
                .restart(crash_at + VICTIM_RESTART_DELAY, devices[v]);
        }
        plan
    }
}

/// Table size of the resync fleet's gate / tap programs.
const TABLE_SIZE: u32 = 16;

/// Everything one restart run observed.
#[derive(Debug, Clone)]
pub struct ResyncChaosReport {
    /// The schedule the seed expanded to.
    pub schedule: RestartSchedule,
    /// Devices the failure detector reported as flapped.
    pub flapped: Vec<NodeId>,
    /// Per-device resync reports, in execution order.
    pub resyncs: Vec<ResyncReport>,
    /// The 2PC recovery pass (mid-transaction schedules only).
    pub recovery: Option<RecoveryReport>,
    /// Packets delivered across the whole run.
    pub delivered: u64,
    /// Packets lost across the whole run (all causes).
    pub lost: u64,
    /// Simulated time from the restart fault to the last resync
    /// completing.
    pub converge_latency: SimDuration,
    /// Every invariant violation observed (empty = the run passed).
    pub violations: Vec<String>,
}

impl Report for ResyncChaosReport {
    fn failures(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// Runs the full device-restart/resync scenario for one seed (the suite
/// has no ablated arm).
pub fn run(seed: u64, _arm: Arm) -> Result<ResyncChaosReport> {
    // -- setup: the line, intended state committed + journaled -----------
    let schedule = RestartSchedule::from_seed(seed, 3);
    let mut fleet = LineFleet::new(seed, schedule.fabric_loss, intent_log(schedule.raft_seed)?);
    let devices = fleet.devices;
    let mut violations: Vec<String> = Vec::new();
    let mut store = fleet.provision_gate_and_taps(seed, TABLE_SIZE, &mut violations)?;
    let mut detector = FailureDetector::default();
    baseline_detector(&fleet.sim, &mut detector, SimTime::from_millis(500));

    // -- act 1 (mid-txn schedules): restarts land between prepare and
    // flip of an in-flight 2PC upgrade; the coordinator dies with them
    // and its successor recovers before anti-entropy runs ---------------
    let mut recovery: Option<RecoveryReport> = None;
    let mut t_base = SimTime::from_secs(1);
    let mut fault_at = t_base;
    if schedule.mid_txn {
        let targets = fleet.upgrade_targets(TABLE_SIZE);
        // AfterPrepared: the flip decision is NOT durable, so recovery
        // rolls the upgrade back and the intended store (updated only
        // past the point of no return) still names v1 — the resync
        // baseline and the 2PC resolution agree by construction.
        let txn = logged_transactional_reconfig(
            &mut fleet.sim,
            &targets,
            t_base,
            &mut fleet.fabric,
            &fleet.policy,
            &mut fleet.log,
            Some(CrashPhase::AfterPrepared),
            Some(&mut store),
            None,
        )?;
        fault_at = txn.finished_at;
        for &v in &schedule.victims {
            fleet.restart_victim(seed, v, fault_at)?;
        }
        let mut directory = TargetDirectory::new();
        directory.insert(txn.txn, targets);
        let rec = recover(
            &mut fleet.sim,
            &mut fleet.log,
            &directory,
            &devices,
            fault_at + SimDuration::from_secs(1),
            &mut fleet.fabric,
            &fleet.policy,
        )?;
        // Victims lost their prepared shadows with their volatile
        // memory: the rollback must have tolerated (and counted) them.
        if rec.wiped_shadows < schedule.restarts {
            violations.push(format!(
                "recovery counted {} wiped shadows, {} devices restarted mid-txn",
                rec.wiped_shadows, schedule.restarts
            ));
        }
        t_base = rec.finished_at + HEARTBEAT_PERIOD;
        recovery = Some(rec);
    }

    // -- act 2: live traffic + heartbeats + flap-triggered resync --------
    // Steady-state schedules crash the victims mid-traffic (the faults
    // ride the event queue); mid-txn schedules already restarted them.
    let traffic_dur = SimDuration::from_secs(3);
    fleet.load_cbr(t_base + SimDuration::from_millis(1), traffic_dur, seed);
    if !schedule.mid_txn {
        fault_at = t_base + SimDuration::from_secs(1);
        schedule
            .fault_plan(&devices, fault_at)
            .apply(&mut fleet.sim);
    }

    let mut resyncer = Resyncer::default();
    let mut flapped: Vec<NodeId> = Vec::new();
    let mut resyncs: Vec<ResyncReport> = Vec::new();
    let mut converged_at = fault_at;
    let mut t = t_base;
    let t_end = t_base + traffic_dur + SimDuration::from_secs(1);
    while t < t_end {
        t += HEARTBEAT_PERIOD;
        fleet.sim.run(t);
        let batch: Vec<NodeId> = detector
            .sweep(&fleet.sim, &mut fleet.fabric, t)
            .into_iter()
            .filter(|(_, event)| matches!(event, HealthEvent::Flapped { .. }))
            .map(|(node, _)| node)
            .collect();
        if !batch.is_empty() {
            flapped.extend(&batch);
            let LineFleet {
                sim,
                fabric,
                policy,
                ..
            } = &mut fleet;
            let reports = resyncer.resync_all(sim, &store, &batch, t, fabric, policy, None)?;
            for r in &reports {
                converged_at = converged_at.max(r.finished_at);
            }
            resyncs.extend(reports);
        }
    }

    // -- invariants ------------------------------------------------------
    // Every victim flapped exactly once; nobody else did.
    let mut expect: Vec<NodeId> = schedule.victims.iter().map(|&v| devices[v]).collect();
    expect.sort_unstable();
    let mut saw = flapped.clone();
    saw.sort_unstable();
    if saw != expect {
        violations.push(format!(
            "flapped {saw:?} but the schedule restarted {expect:?}"
        ));
    }
    fleet.digests_match_intended(&store, "resync", &mut violations);
    fleet.log_replay_matches_store(&store, &mut violations)?;
    let settle = t_end + SimDuration::from_secs(1);
    fleet.no_orphans_after_settle(settle, &mut violations);

    // Critical before telemetry: no telemetry resync may start before a
    // critical one that was admitted in the same recovery.
    let starts = resyncer.starts();
    for (i, (at, node)) in starts.iter().enumerate() {
        if store.class(*node) == ProgramClass::Critical {
            for (prev_at, prev_node) in &starts[..i] {
                if store.class(*prev_node) == ProgramClass::Telemetry && prev_at > at {
                    violations.push(format!(
                        "telemetry {prev_node} resynced before critical {node}"
                    ));
                }
            }
        }
    }
    // Rate limit: consecutive admissions at least min_gap apart.
    for pair in starts.windows(2) {
        let gap = pair[1].0.saturating_since(pair[0].0);
        if gap < resyncer.min_gap() {
            violations.push(format!(
                "resync admissions {} apart, minimum is {}",
                gap,
                resyncer.min_gap()
            ));
        }
    }

    // Loss is confined to the downtime + resync window. Steady-state
    // schedules lose the packets that hit a down device (~restart delay
    // at 1000 pps, plus detection slack); mid-txn schedules restarted
    // the victims before traffic began, so loss must be (near) zero.
    let downtime_ms = if schedule.mid_txn {
        0
    } else {
        VICTIM_RESTART_DELAY.as_nanos() / 1_000_000
    };
    let loss_budget = downtime_ms + 100; // pps/1000 = 1 pkt per ms, +slack
    let lost = fleet.sim.metrics.total_lost();
    if lost > loss_budget {
        violations.push(format!(
            "lost {lost} packets, budget {loss_budget} (downtime {downtime_ms} ms)"
        ));
    }
    if fleet.sim.metrics.delivered == 0 {
        violations.push("no traffic delivered at all".into());
    }

    // Old-XOR-new on post-convergence traffic (the main window
    // legitimately spans restart + resync versions).
    let delivered = fleet.old_xor_new_probe(settle, seed ^ 1, "post-resync ", &mut violations);
    if fleet.sim.metrics.total_lost() > loss_budget {
        violations.push(format!(
            "post-convergence probe lost packets: {} total vs budget {loss_budget}",
            fleet.sim.metrics.total_lost()
        ));
    }

    Ok(ResyncChaosReport {
        schedule,
        flapped,
        resyncs,
        recovery,
        delivered,
        lost,
        converge_latency: converged_at.saturating_since(fault_at),
        violations,
    })
}

/// The E14 experiment.
pub fn suite() -> Suite<ResyncChaosReport> {
    Suite {
        name: "resync",
        id: "E14",
        title: "restart recovery: intended-state resync with digest anti-entropy",
        claim: "a runtime-programmable network must re-provision restarted \
                devices hitlessly — restarts wipe runtime state but not intent",
        sweep_note: "(restart cohort = seed mod 3)",
        run,
        cohort_title: "restart cohort",
        cohorts: vec!["one device", "half (k=2)", "all devices"],
        cohort_of: |r| r.schedule.restarts - 1,
        columns: vec![
            col("mid-txn", |c| count(c, |r| r.schedule.mid_txn).to_string()),
            col("flaps", |c| {
                total(c, |r| r.flapped.len() as u64).to_string()
            }),
            col("reprovisioned", |c| {
                let resyncs = c.iter().flat_map(|r| &r.resyncs);
                let reprovisioned =
                    |r: &&ResyncReport| matches!(r.outcome, ResyncOutcome::Reprovisioned { .. });
                resyncs.filter(reprovisioned).count().to_string()
            }),
            col("flips avoided", |c| {
                let resyncs = c.iter().flat_map(|r| &r.resyncs);
                let repaired =
                    |r: &&ResyncReport| matches!(r.outcome, ResyncOutcome::Repaired { .. });
                resyncs.filter(repaired).count().to_string()
            }),
            col("wiped shadows", |c| {
                let wiped =
                    |r: &ResyncChaosReport| r.recovery.as_ref().map_or(0, |rec| rec.wiped_shadows);
                total(c, |r| wiped(r) as u64).to_string()
            }),
            col("mean loss", |c| {
                format!("{} pkt", mean(c, |r| Some(r.lost)).unwrap_or(0))
            }),
            col("mean converge", |c| {
                let ns = mean(c, |r| Some(r.converge_latency.as_nanos()));
                SimDuration::from_nanos(ns.unwrap_or(0)).to_string()
            }),
        ],
        totals: None,
        oracle: None,
        summary: None,
        verdict: "runs upheld every invariant (digest convergence, zero \
                  orphan shadows, critical-before-telemetry, rate-limited \
                  admissions, loss confined to downtime, old-XOR-new)",
        failed_note: "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_seed_converges_with_every_invariant() {
        // Seed 2: all three devices restart (2 % 3 == 2 -> all).
        let report = run(2, Arm::Protected).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.schedule.restarts, 3);
        assert_eq!(report.flapped.len(), 3);
        assert!(report.delivered > 0);
        assert!(report.converge_latency > SimDuration::ZERO);
    }

    #[test]
    fn mid_transaction_restart_seed_recovers_then_converges() {
        // Find a nearby mid-txn seed so the test is robust to the mix
        // function, then assert the full pipeline: 2PC rollback with
        // wiped shadows tolerated, then anti-entropy convergence.
        let seed = (0..64)
            .find(|s| RestartSchedule::from_seed(*s, 3).mid_txn)
            .expect("some seed restarts mid-transaction");
        let report = run(seed, Arm::Protected).unwrap();
        assert!(
            report.passed(),
            "seed {seed} violations: {:?}",
            report.violations
        );
        let rec = report.recovery.expect("mid-txn runs a recovery pass");
        assert!(
            rec.wiped_shadows >= report.schedule.restarts,
            "restarted participants lost their shadows: {rec:?}"
        );
    }
}
