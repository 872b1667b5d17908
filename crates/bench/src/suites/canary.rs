//! E15 — canary rollouts with SLO guards and automatic rollback.
//!
//! Deploys a candidate program over the 8-lane fleet in doubling waves
//! (1 → 2 → 4 → 8 devices), each wave a journaled two-phase-commit
//! transaction followed by a soak window judged against the pre-rollout
//! baseline. One seed expands to a [`RolloutSchedule`]: which way the
//! candidate is bad (clean, uniform drop, device-scoped gray drop, pure
//! latency inflation, a 1-in-8 slow burn), which device gets the gray
//! build, how lossy the control fabric is. Each run checks that breaches
//! are caught before full-fleet exposure, that loss is confined to flipped
//! devices (blast radius), that rollback converges every device to its
//! pre-rollout digest with a clean post-rollback window, and that the
//! intent log's rollout records tell the same story as the report.

use crate::fixture::{bundle, Draws, LaneFleet, LANES};
use crate::sweep::{col, count, mean, total, Arm, Report, Suite};
use flexnet_controller::{IntentRecord, RolloutOutcome, RolloutReport};
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::hash::mix;
use flexnet_types::{NodeId, Result, SimDuration, SimTime};
use std::collections::BTreeSet;

/// How a canary rollout's *candidate program* misbehaves. The
/// infrastructure works perfectly; the payload itself regresses the SLOs,
/// and each variant is designed to trip a different guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RolloutFault {
    /// The candidate is correct: the rollout must complete every wave
    /// with zero loss and no guard false-positive.
    Clean,
    /// The candidate drops every packet it sees — the loudest possible
    /// regression; the fleet loss-delta guard must fire in wave 1.
    UniformDrop,
    /// One specific device (and only it) receives a pathological build
    /// of the candidate — a device-scoped miscompile. The device keeps
    /// heartbeating on time; only its data-path drop slope betrays it
    /// (the paper's gray failure).
    GrayDrop,
    /// The candidate burns ~2 µs of extra per-packet work: no loss at
    /// all, but the p99 latency-delta guard must catch it.
    LatencyInflation,
    /// The candidate drops 1 packet in 8, per device: fleet-level loss
    /// stays under the guard while only one wave's devices run it, and
    /// crosses the threshold as later waves widen exposure — the
    /// slow-burn regression that only late waves reveal.
    SlowBurn,
}

impl RolloutFault {
    /// All faults, cycled by the sweep.
    pub const ALL: [RolloutFault; 5] = [
        RolloutFault::Clean,
        RolloutFault::UniformDrop,
        RolloutFault::GrayDrop,
        RolloutFault::LatencyInflation,
        RolloutFault::SlowBurn,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutFault::Clean => "clean",
            RolloutFault::UniformDrop => "uniform-drop",
            RolloutFault::GrayDrop => "gray-drop",
            RolloutFault::LatencyInflation => "latency-inflation",
            RolloutFault::SlowBurn => "slow-burn",
        }
    }
}

/// Everything a canary-rollout run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which way the candidate program is bad (or [`RolloutFault::Clean`]).
    pub fault: RolloutFault,
    /// For [`RolloutFault::GrayDrop`]: the fleet index of the device that
    /// receives the pathological build. Drawn from the first
    /// `min(4, participants)` indices so — under the canonical cumulative
    /// wave plan 1 → 2 → 4 → all — the victim always flips *before* the
    /// final wave, and a guard that works must catch it short of
    /// full-fleet exposure. `None` for every other fault.
    pub gray_victim: Option<usize>,
    /// Drop probability of the controller↔device fabric (the control
    /// plane retries through it; the rollout must still resolve).
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl RolloutSchedule {
    /// Expands `seed` into a rollout schedule over `participants` devices.
    ///
    /// The fault cycles with the seed (any contiguous run of ≥5 seeds
    /// covers every fault class), the gray victim is drawn from the
    /// early-wave indices, and fabric loss comes from the standard tiers.
    pub fn from_seed(seed: u64, participants: usize) -> RolloutSchedule {
        let d = Draws::new(seed, 0x0BAD_CA5E);
        let fault = RolloutFault::ALL[(seed % 5) as usize];
        let gray = fault == RolloutFault::GrayDrop && participants > 0;
        RolloutSchedule {
            seed,
            fault,
            gray_victim: gray.then(|| d.index(3, participants.min(4))),
            fabric_loss: d.fabric_loss(),
            raft_seed: mix(seed ^ 0xCAFE_F11B),
        }
    }
}

/// Everything one canary run observed.
#[derive(Debug, Clone)]
pub struct CanaryReport {
    /// The schedule the seed expanded to.
    pub schedule: RolloutSchedule,
    /// The orchestrator's account.
    pub rollout: RolloutReport,
    /// Packets delivered over the whole scenario.
    pub delivered: u64,
    /// Packets lost over the whole scenario.
    pub lost: u64,
    /// Every invariant violation observed (empty = the run passed).
    pub violations: Vec<String>,
}

impl Report for CanaryReport {
    fn failures(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// The correct candidate: forwarding plus a counter — a real diff with
/// negligible cost.
fn lane_good() -> ProgramBundle {
    bundle(
        "program lane kind any {
           counter upgraded;
           handler ingress(pkt) { count(upgraded); forward(1); }
         }",
    )
}

/// Uniform drop: the loudest regression — every packet dies.
fn lane_drop_all() -> ProgramBundle {
    bundle("program lane kind any { handler ingress(pkt) { drop(); } }")
}

/// Latency inflation: ~2 µs of busy work per packet, zero loss.
fn lane_latency() -> ProgramBundle {
    bundle(
        "program lane kind any {
           register burn : u64[1];
           handler ingress(pkt) {
             repeat (64) {
               repeat (8) { reg_write(burn, 0, reg_read(burn, 0) + 1); }
             }
             forward(1);
           }
         }",
    )
}

/// Slow burn: a stateful 1-in-8 drop — per-device slope 12.5%, under
/// the 20% gray threshold, so only widening fleet exposure reveals it.
fn lane_slow_burn() -> ProgramBundle {
    bundle(
        "program lane kind any {
           counter seen;
           handler ingress(pkt) {
             count(seen);
             if (counter_read(seen) % 8 == 0) { drop(); }
             forward(1);
           }
         }",
    )
}

/// The candidate fleet index `i` receives under `schedule`.
fn candidate(schedule: &RolloutSchedule, i: usize) -> ProgramBundle {
    match schedule.fault {
        RolloutFault::Clean => lane_good(),
        RolloutFault::UniformDrop => lane_drop_all(),
        RolloutFault::GrayDrop if Some(i) == schedule.gray_victim => lane_drop_all(),
        RolloutFault::GrayDrop => lane_good(),
        RolloutFault::LatencyInflation => lane_latency(),
        RolloutFault::SlowBurn => lane_slow_burn(),
    }
}

/// The wave (1-based) in which fleet index `i` flips under the canonical
/// 8-device plan (waves of 1, 1, 2, 4).
fn wave_of_index(i: usize) -> u32 {
    match i {
        0 => 1,
        1 => 2,
        2 | 3 => 3,
        _ => 4,
    }
}

/// Runs the full canary scenario for one seed (the suite has no ablated
/// arm).
pub fn run(seed: u64, _arm: Arm) -> Result<CanaryReport> {
    let schedule = RolloutSchedule::from_seed(seed, LANES);
    let mut fleet = LaneFleet::new(seed, schedule.fabric_loss)?;
    let rollout = fleet.rollout(schedule.raft_seed, |i| candidate(&schedule, i))?;
    let (plan, report) = (&rollout.plan, &rollout.report);
    let switches = &fleet.switches;
    let mut violations: Vec<String> = Vec::new();

    // -- invariants ------------------------------------------------------
    let total_waves = plan.waves.len() as u32;
    let committed = plan.waves.iter().take(report.waves_committed as usize);
    let flipped: BTreeSet<NodeId> = committed.flatten().copied().collect();
    let lost = fleet.sim.metrics.total_lost();

    match schedule.fault {
        RolloutFault::Clean => {
            if report.outcome != RolloutOutcome::Completed {
                violations.push(format!(
                    "clean candidate did not complete: {:?} (false positive)",
                    report.outcome
                ));
            }
            if lost != 0 {
                violations.push(format!("clean rollout lost {lost} packets (must be zero)"));
            }
        }
        fault => {
            let (guard, wave) = match (&report.outcome, &report.breach) {
                (RolloutOutcome::RolledBack { .. }, Some(b)) => (b.guard.clone(), b.wave),
                other => {
                    violations.push(format!(
                        "{} candidate was not rolled back: {other:?}",
                        fault.label()
                    ));
                    (String::new(), 0)
                }
            };
            if report.waves_committed >= total_waves {
                violations.push(format!(
                    "{} breached only after full-fleet exposure ({} waves)",
                    fault.label(),
                    report.waves_committed
                ));
            }
            // Each fault class must trip its designed guard in its
            // designed wave — detection before the blast radius grows.
            let expect: Option<(&str, u32)> = match fault {
                RolloutFault::UniformDrop => Some(("drop-slope", 1)),
                RolloutFault::LatencyInflation => Some(("p99-delta", 1)),
                RolloutFault::SlowBurn => Some(("loss-delta", 2)),
                RolloutFault::GrayDrop => {
                    let v = schedule.gray_victim.expect("gray runs pick a victim");
                    if !report.degraded_seen.contains(&switches[v]) {
                        violations.push(format!(
                            "gray victim {} was never graded Degraded",
                            switches[v]
                        ));
                    }
                    Some(("drop-slope", wave_of_index(v)))
                }
                RolloutFault::Clean => None,
            };
            if let Some((want_guard, want_wave)) = expect {
                if !guard.is_empty() && (guard != want_guard || wave != want_wave) {
                    violations.push(format!(
                        "{} tripped {guard} in wave {wave}, designed for {want_guard} in wave {want_wave}",
                        fault.label()
                    ));
                }
            }
            // Blast radius: every lost packet was dropped by a flipped
            // device; untouched waves never pay.
            let mut flipped_drops = 0u64;
            for &d in switches {
                if flipped.contains(&d) {
                    flipped_drops += fleet.device(d).stats().dropped;
                } else {
                    fleet.untouched(d, "unflipped device", &mut violations);
                }
            }
            if lost != flipped_drops {
                violations.push(format!(
                    "{lost} packets lost but flipped devices only account for {flipped_drops}"
                ));
            }
            if !report.quarantined.is_empty() {
                violations.push(format!(
                    "no device crashed, yet rollback quarantined {:?}",
                    report.quarantined
                ));
            }
            for &d in switches {
                fleet.back_on_baseline(d, &rollout, &mut violations);
            }
            // The post-rollback window pays no loss and its p99 is back
            // at the baseline.
            let post_from = report.finished_at + SimDuration::from_millis(300);
            fleet.clean_after("rollback", post_from, &mut violations);
            let post_delta = fleet.sim.metrics.window_delta(
                (SimTime::from_secs(1), SimTime::from_secs(2)),
                (post_from, fleet.flow_end),
            );
            if post_delta.p99_delta_ns.unsigned_abs() > plan.guards.p99_delta_ns {
                violations.push(format!(
                    "post-rollback p99 off baseline by {} ns",
                    post_delta.p99_delta_ns
                ));
            }
        }
    }

    // Journal coherence: the rollout's records tell the same story.
    let mut started = 0usize;
    let mut waves_on_record = 0u32;
    let mut terminal: Vec<&'static str> = Vec::new();
    for rec in rollout.log.replay()?.records() {
        match rec {
            IntentRecord::RolloutStarted { rollout, .. } if *rollout == report.rollout => {
                started += 1;
            }
            IntentRecord::WaveCommitted { rollout, .. } if *rollout == report.rollout => {
                waves_on_record += 1;
            }
            IntentRecord::RolloutCompleted { rollout } if *rollout == report.rollout => {
                terminal.push("completed");
            }
            IntentRecord::RolledBack { rollout } if *rollout == report.rollout => {
                terminal.push("rolled-back");
            }
            _ => {}
        }
    }
    if started != 1 {
        violations.push(format!("{started} RolloutStarted records (want 1)"));
    }
    if waves_on_record != report.waves_committed {
        violations.push(format!(
            "journal has {waves_on_record} committed waves, report says {}",
            report.waves_committed
        ));
    }
    let want_terminal = match report.outcome {
        RolloutOutcome::Completed => "completed",
        RolloutOutcome::RolledBack { .. } => "rolled-back",
        RolloutOutcome::Crashed(_) => "",
    };
    if terminal != vec![want_terminal] {
        violations.push(format!(
            "terminal records {terminal:?}, want [{want_terminal}]"
        ));
    }

    Ok(CanaryReport {
        schedule,
        delivered: fleet.sim.metrics.delivered,
        lost,
        rollout: rollout.report,
        violations,
    })
}

/// The E15 experiment.
pub fn suite() -> Suite<CanaryReport> {
    Suite {
        name: "canary",
        id: "E15",
        title: "canary rollouts: SLO guards, gray-failure detection, auto-rollback",
        claim: "runtime reprogramming is only safe if a bad program is caught on \
                a canary wave and rolled back before it reaches the fleet",
        sweep_note: "(fault class = seed mod 5)",
        run,
        cohort_title: "candidate class",
        cohorts: RolloutFault::ALL.iter().map(RolloutFault::label).collect(),
        cohort_of: |r| {
            let fault = r.schedule.fault;
            RolloutFault::ALL
                .iter()
                .position(|f| *f == fault)
                .expect("a listed class")
        },
        columns: vec![
            col("completed", |c| {
                count(c, |r| r.rollout.outcome == RolloutOutcome::Completed).to_string()
            }),
            col("rolled back", |c| {
                let rolled_back = |r: &CanaryReport| {
                    matches!(r.rollout.outcome, RolloutOutcome::RolledBack { .. })
                };
                count(c, rolled_back).to_string()
            }),
            col("mean waves", |c| {
                let waves = total(c, |r| u64::from(r.rollout.waves_committed));
                format!("{:.1}", waves as f64 / c.len().max(1) as f64)
            }),
            // The guard the class is designed to trip (uniform across a cohort).
            col("guard", |c| {
                let breach = c.iter().find_map(|r| r.rollout.breach.as_ref());
                breach.map_or("-".into(), |b| b.guard.clone())
            }),
            col("degraded", |c| {
                total(c, |r| r.rollout.degraded_seen.len() as u64).to_string()
            }),
            col("mean lost", |c| {
                format!("{} pkt", mean(c, |r| Some(r.lost)).unwrap_or(0))
            }),
            col("mean rollback", |c| {
                let ns = mean(c, |r| r.rollout.rollback_latency.map(|d| d.as_nanos()));
                ns.map_or("-".into(), |ns| SimDuration::from_nanos(ns).to_string())
            }),
        ],
        totals: None,
        oracle: None,
        summary: None,
        verdict: "runs upheld every invariant (breach before full-fleet \
                  exposure, blast radius confined to flipped devices, rollback \
                  converges to the baseline digest, clean post-rollback window, \
                  journal coherence, zero quarantines)",
        failed_note: "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_canary_seed(seed: u64) -> Result<CanaryReport> {
        run(seed, Arm::Protected)
    }

    #[test]
    fn clean_candidate_completes_every_wave_with_zero_loss() {
        let report = run_canary_seed(0).unwrap();
        assert_eq!(report.schedule.fault, RolloutFault::Clean);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.rollout.outcome, RolloutOutcome::Completed);
        assert_eq!(report.rollout.waves_committed, 4);
        assert_eq!(report.lost, 0);
        assert!(report.rollout.breach.is_none());
    }

    #[test]
    fn uniform_drop_is_caught_in_wave_one() {
        let report = run_canary_seed(1).unwrap();
        assert_eq!(report.schedule.fault, RolloutFault::UniformDrop);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(
            report.rollout.waves_committed, 1,
            "one canary, not the fleet"
        );
        let breach = report.rollout.breach.as_ref().unwrap();
        assert_eq!(breach.guard, "drop-slope");
        assert!(
            breach.observed >= 200_000,
            "a full drop: {}",
            breach.observed
        );
        assert!(report.rollout.rollback_latency.unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn gray_victim_is_graded_degraded_and_never_reaches_the_fleet() {
        let report = run_canary_seed(2).unwrap();
        assert_eq!(report.schedule.fault, RolloutFault::GrayDrop);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.rollout.waves_committed < 4);
        assert!(!report.rollout.degraded_seen.is_empty());
    }

    #[test]
    fn latency_inflation_trips_the_p99_guard_without_losing_a_packet() {
        let report = run_canary_seed(3).unwrap();
        assert_eq!(report.schedule.fault, RolloutFault::LatencyInflation);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let breach = report.rollout.breach.as_ref().unwrap();
        assert_eq!(breach.guard, "p99-delta");
        assert_eq!(
            report.lost, 0,
            "inflation loses nothing; the guard still fires"
        );
    }

    #[test]
    fn slow_burn_breaches_only_as_waves_widen_exposure() {
        let report = run_canary_seed(4).unwrap();
        assert_eq!(report.schedule.fault, RolloutFault::SlowBurn);
        assert!(report.passed(), "violations: {:?}", report.violations);
        // Wave 1's exposure (1/8 of the fleet at a 12.5% device rate) is
        // under the 2% budget; wave 2's is over: a multi-wave abort.
        assert_eq!(report.rollout.waves_committed, 2);
        assert_eq!(report.rollout.rolled_back.len(), 2);
        let lat = report.rollout.rollback_latency.unwrap();
        assert!(lat > SimDuration::ZERO, "two waves of rollback cost RTTs");
    }

    #[test]
    fn every_fault_class_is_caught_before_full_fleet_exposure() {
        // One contiguous block of 5 seeds covers every fault class.
        for seed in 10..15 {
            let report = run_canary_seed(seed).unwrap();
            assert!(
                report.passed(),
                "seed {seed} ({}) violations: {:?}",
                report.schedule.fault.label(),
                report.violations
            );
        }
    }
}
