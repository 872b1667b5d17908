//! The chaos smoke suite: fixed seed slices of the E13, E14, and E15
//! sweeps, small enough for CI, wide enough to cover every crash phase,
//! victim placement, restart cohort, candidate fault class, and
//! fabric-loss tier.
//!
//! Each seed expands deterministically into a full scenario (E13:
//! journaled transaction → coordinator + optional device crash →
//! failover → recovery → zombie replay → live traffic; E14: device
//! restarts — sometimes mid-transaction — → flap detection →
//! rate-limited digest resync → convergence; E15: canary rollout of a
//! seeded-bad candidate → SLO guard breach → automatic rollback), so a
//! failure here reproduces bit-identically with `chaos recovery`,
//! `chaos resync`, or `chaos canary` (or `suites::<suite>::run(<seed>, ..)`).

use flexnet_bench::suites::canary::{self, RolloutFault, RolloutSchedule};
use flexnet_bench::suites::recovery::{self, ChaosSchedule};
use flexnet_bench::suites::resync::{self, RestartSchedule};
use flexnet_bench::{Arm, Report};
use flexnet_controller::{ResyncOutcome, ResyncReport, RolloutOutcome};
use flexnet_sim::CrashPhase;

/// The pinned CI seed set. Contiguous so phase coverage is guaranteed
/// (seeds cycle phases mod 4); pinned so CI failures are reproducible
/// and not a lottery.
const SMOKE_SEEDS: [u64; 25] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
];

#[test]
fn the_smoke_seed_set_covers_the_scenario_space() {
    let schedules: Vec<ChaosSchedule> = SMOKE_SEEDS
        .iter()
        .map(|&s| ChaosSchedule::from_seed(s, 3))
        .collect();
    for phase in CrashPhase::ALL {
        assert!(
            schedules.iter().any(|s| s.crash_phase == phase),
            "no smoke seed crashes {}",
            phase.label()
        );
    }
    assert!(
        schedules.iter().any(|s| s.victim.is_some()),
        "no smoke seed crashes a device"
    );
    assert!(
        schedules.iter().any(|s| s.victim.is_none()),
        "no smoke seed is coordinator-only"
    );
    assert!(
        schedules.iter().any(|s| s.fabric_loss > 0.0),
        "no smoke seed has a lossy fabric"
    );
}

#[test]
fn every_smoke_seed_upholds_every_invariant() {
    let mut failures = Vec::new();
    for &seed in &SMOKE_SEEDS {
        match recovery::run(seed, Arm::Protected) {
            Ok(report) if report.passed() => {
                assert_eq!(
                    report.zombie_attempts, report.zombie_rejected,
                    "seed {seed}: zombie partially accepted"
                );
                assert!(
                    report.new_epoch > report.old_epoch,
                    "seed {seed}: epoch not monotone"
                );
            }
            Ok(report) => failures.push(format!(
                "seed {seed} ({}): {:?}",
                report.schedule.crash_phase.label(),
                report.violations
            )),
            Err(e) => failures.push(format!("seed {seed}: harness error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} smoke seeds failed:\n{}",
        failures.len(),
        SMOKE_SEEDS.len(),
        failures.join("\n")
    );
}

/// The pinned E14 restart-smoke seed set. Contiguous so restart-cohort
/// coverage is guaranteed (cohorts cycle mod 3); 12 seeds keeps the
/// suite CI-sized while hitting every cohort, both fault timings
/// (steady-state and mid-transaction), and lossy fabrics.
const RESTART_SMOKE_SEEDS: [u64; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

#[test]
fn the_restart_smoke_seed_set_covers_the_scenario_space() {
    let schedules: Vec<RestartSchedule> = RESTART_SMOKE_SEEDS
        .iter()
        .map(|&s| RestartSchedule::from_seed(s, 3))
        .collect();
    for cohort in [1, 2, 3] {
        assert!(
            schedules.iter().any(|s| s.restarts == cohort),
            "no restart smoke seed restarts {cohort} device(s)"
        );
    }
    assert!(
        schedules.iter().any(|s| s.mid_txn),
        "no restart smoke seed restarts mid-transaction"
    );
    assert!(
        schedules.iter().any(|s| !s.mid_txn),
        "no restart smoke seed restarts in steady state"
    );
    assert!(
        schedules.iter().any(|s| s.fabric_loss > 0.0),
        "no restart smoke seed has a lossy fabric"
    );
}

#[test]
fn every_restart_smoke_seed_converges_with_every_invariant() {
    let mut failures = Vec::new();
    for &seed in &RESTART_SMOKE_SEEDS {
        match resync::run(seed, Arm::Protected) {
            Ok(report) if report.passed() => {
                assert_eq!(
                    report.flapped.len(),
                    report.schedule.restarts,
                    "seed {seed}: every restarted device flaps exactly once"
                );
                let count = |repaired: bool| {
                    let outcome = |r: &&ResyncReport| match r.outcome {
                        ResyncOutcome::Repaired { .. } => repaired,
                        ResyncOutcome::Reprovisioned { .. } => !repaired,
                        _ => false,
                    };
                    report.resyncs.iter().filter(outcome).count()
                };
                assert!(
                    count(true) >= report.schedule.restarts,
                    "seed {seed}: a restart wipes entries but keeps the image, so resync must \
                     repair tables in place (got {} of {})",
                    count(true),
                    report.schedule.restarts
                );
                assert_eq!(count(false), 0, "seed {seed}: no restart needs a flip");
                if report.schedule.mid_txn {
                    let rec = report.recovery.as_ref().expect("mid-txn runs recovery");
                    assert!(
                        rec.wiped_shadows >= report.schedule.restarts,
                        "seed {seed}: restarted participants lost their \
                         prepared shadows: {rec:?}"
                    );
                }
            }
            Ok(report) => failures.push(format!(
                "seed {seed} (restarts {}, mid_txn {}): {:?}",
                report.schedule.restarts, report.schedule.mid_txn, report.violations
            )),
            Err(e) => failures.push(format!("seed {seed}: harness error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} restart smoke seeds failed:\n{}",
        failures.len(),
        RESTART_SMOKE_SEEDS.len(),
        failures.join("\n")
    );
}

/// The pinned E15 canary-smoke seed set. Contiguous so fault-class
/// coverage is guaranteed (classes cycle mod 5); 12 seeds keeps the
/// suite CI-sized while hitting every candidate class at least twice,
/// gray victims in more than one wave, and lossy control fabrics.
const CANARY_SMOKE_SEEDS: [u64; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

#[test]
fn the_canary_smoke_seed_set_covers_the_scenario_space() {
    let schedules: Vec<RolloutSchedule> = CANARY_SMOKE_SEEDS
        .iter()
        .map(|&s| RolloutSchedule::from_seed(s, 8))
        .collect();
    for fault in RolloutFault::ALL {
        assert!(
            schedules.iter().any(|s| s.fault == fault),
            "no canary smoke seed deploys a {} candidate",
            fault.label()
        );
    }
    assert!(
        schedules.iter().any(|s| s.gray_victim.is_some()),
        "no canary smoke seed places a gray build"
    );
    assert!(
        schedules.iter().any(|s| s.fabric_loss > 0.0),
        "no canary smoke seed has a lossy control fabric"
    );
}

#[test]
fn every_canary_smoke_seed_upholds_every_invariant() {
    let mut failures = Vec::new();
    for &seed in &CANARY_SMOKE_SEEDS {
        match canary::run(seed, Arm::Protected) {
            Ok(report) if report.passed() => match report.schedule.fault {
                RolloutFault::Clean => {
                    assert_eq!(
                        report.rollout.outcome,
                        RolloutOutcome::Completed,
                        "seed {seed}: clean candidate must complete"
                    );
                    assert_eq!(report.lost, 0, "seed {seed}: clean rollout pays loss");
                }
                _ => {
                    assert!(
                        matches!(report.rollout.outcome, RolloutOutcome::RolledBack { .. }),
                        "seed {seed}: bad candidate must roll back"
                    );
                    assert!(
                        report.rollout.rollback_latency.is_some(),
                        "seed {seed}: rollback must report its latency"
                    );
                }
            },
            Ok(report) => failures.push(format!(
                "seed {seed} ({}): {:?}",
                report.schedule.fault.label(),
                report.violations
            )),
            Err(e) => failures.push(format!("seed {seed}: harness error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} canary smoke seeds failed:\n{}",
        failures.len(),
        CANARY_SMOKE_SEEDS.len(),
        failures.join("\n")
    );
}
