//! Property tests for controller crash-recovery (ISSUE 2, experiment
//! E13):
//!
//! - for *any* seed, the full chaos scenario — journaled transaction,
//!   coordinator killed at a seed-chosen two-phase-commit phase, optional
//!   participant crash, failover, recovery, zombie replay, live traffic —
//!   upholds every global invariant;
//! - intent-log records survive arbitrary encode/decode round trips;
//! - the seed→schedule expansion is total, in-range, and phase-covering;
//! - the orphan sweep reads the log as the resolve pass left it: a shadow
//!   whose roll-forward commit was lost is released, not discarded.

use flexnet_bench::suites::recovery::{self, ChaosSchedule};
use flexnet_bench::{Arm, Report};
use flexnet_controller::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_controller::{
    logged_transactional_reconfig, recover, LossyFabric, RetryPolicy, TxnResolution,
};
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_sim::{CrashPhase, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::collections::BTreeMap;

proptest! {
    // 32 cases: each one is a full crash/failover/recovery scenario.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recovery resolves every transaction, sweeps every orphan, fences
    /// every zombie, and leaves a single-program network — for any seed.
    #[test]
    fn any_seed_survives_coordinator_death(seed in 0u64..1_000_000) {
        let report = recovery::run(seed, Arm::Protected).expect("harness runs");
        prop_assert!(
            report.passed(),
            "seed {} ({}): {:?}",
            seed,
            report.schedule.crash_phase.label(),
            report.violations
        );
        prop_assert_eq!(report.zombie_attempts, report.zombie_rejected);
        prop_assert!(report.new_epoch > report.old_epoch);
        prop_assert!(report.delivered > 0);
    }
}

fn arb_record() -> impl Strategy<Value = IntentRecord> {
    let devices = proptest::collection::vec(any::<u64>(), 0..8);
    prop_oneof![
        (any::<u64>(), devices.clone()).prop_map(|(txn, d)| IntentRecord::Intent {
            txn,
            devices: d.into()
        }),
        (any::<u64>(), devices).prop_map(|(txn, d)| IntentRecord::Prepared {
            txn,
            devices: d.into()
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(txn, ns)| IntentRecord::FlipScheduled {
            txn,
            commit_at: SimTime::from_nanos(ns),
        }),
        any::<u64>().prop_map(|txn| IntentRecord::Committed { txn }),
        any::<u64>().prop_map(|txn| IntentRecord::Aborted { txn }),
    ]
}

proptest! {
    /// The write-ahead log's wire encoding loses nothing: any record (any
    /// txn id, any device list, any flip instant) round-trips exactly.
    #[test]
    fn intent_records_round_trip(rec in arb_record()) {
        let wire = rec.encode();
        prop_assert_eq!(IntentRecord::decode(&wire).expect("decodes"), rec);
    }

    /// Seed expansion is total and well-formed for any seed and any
    /// participant count, and four consecutive seeds always cover all
    /// four crash phases.
    #[test]
    fn schedules_are_total_and_phase_covering(
        seed in any::<u64>(),
        participants in 0usize..16,
    ) {
        let s = ChaosSchedule::from_seed(seed, participants);
        prop_assert!((0.0..=0.25).contains(&s.fabric_loss));
        if let Some(v) = s.victim {
            prop_assert!(v < participants);
        } else if participants == 0 {
            prop_assert_eq!(s.victim, None);
        }
        if seed <= u64::MAX - 4 {
            let mut phases: Vec<CrashPhase> = (seed..seed + 4)
                .map(|x| ChaosSchedule::from_seed(x, participants).crash_phase)
                .collect();
            phases.sort();
            phases.dedup();
            prop_assert_eq!(phases.len(), 4);
        }
    }
}

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).expect("program parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// Recovery's fabric, searched once and pinned: with these draws every
/// fence and every other commit arrives, and exactly one message is lost —
/// the request of the resolve pass's commit to the middle device.
const LOST_COMMIT_FABRIC: (f64, u64) = (0.15, 67);

/// The resolve pass journals `Committed` and then fails to reach one
/// participant (one attempt, request lost). The sweep that follows must
/// look that shadow up in the log *as it is now* — `Committed`, so release
/// it — and not in a map built before the resolve pass, where the
/// transaction still read `FlipScheduled` and the shadow was discarded:
/// one device left on the old program under a transaction the log calls
/// committed.
#[test]
fn sweep_releases_a_shadow_whose_roll_forward_commit_was_lost() {
    let (topo, nodes) = Topology::host_nic_switch_line();
    let devices = [nodes[1], nodes[2], nodes[3]];
    let old = bundle("program app kind any { handler ingress(pkt) { forward(1); } }");
    let new = bundle(
        "program app kind any {
           counter c;
           handler ingress(pkt) { count(c); forward(1); }
         }",
    );
    let mut sim = Simulation::new(topo);
    for d in devices {
        let dev = &mut sim.topo.node_mut(d).expect("line node").device;
        dev.install(old.clone()).expect("old program installs");
    }
    let mut log = ReplicatedIntentLog::new(3, 5).expect("cluster elects");
    let targets: Vec<(NodeId, ProgramBundle)> = devices.iter().map(|d| (*d, new.clone())).collect();
    let txn = logged_transactional_reconfig(
        &mut sim,
        &targets,
        SimTime::from_secs(1),
        &mut LossyFabric::reliable(),
        &RetryPolicy::default(),
        &mut log,
        Some(CrashPhase::AfterFlipScheduled),
        None,
        None,
    )
    .expect("the transaction runs to its crash point");
    log.kill_leader().expect("leader dies");
    log.elect().expect("successor elected");

    let one_attempt = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let mut fabric = LossyFabric::new(LOST_COMMIT_FABRIC.0, LOST_COMMIT_FABRIC.1);
    let directory = BTreeMap::from([(txn.txn, targets.clone())]);
    let report = recover(
        &mut sim,
        &mut log,
        &directory,
        &devices,
        txn.finished_at + SimDuration::from_secs(1),
        &mut fabric,
        &one_attempt,
    )
    .expect("recovery runs");

    // The pinned draws still describe the corner.
    assert_eq!(fabric.dropped, 1, "exactly one message lost");
    assert_eq!(report.fenced, 3);
    assert_eq!(
        report.resolutions,
        vec![(txn.txn, TxnResolution::RolledForward)]
    );
    let errors: Vec<&str> = sim.errors.iter().map(|(_, e)| e.as_str()).collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].starts_with(&format!("recovery commit on {}", devices[1])),
        "{errors:?}"
    );
    assert_eq!(report.orphans_swept, 1, "the unreached shadow is swept");

    // All-or-nothing: the log says committed, so every device flips.
    assert_eq!(
        log.records().expect("log decodes").last(),
        Some(&IntentRecord::Committed { txn: txn.txn })
    );
    let settled = report
        .finished_at
        .max(txn.commit_at.expect("flip scheduled"))
        + SimDuration::from_secs(1);
    for d in devices {
        let dev = &mut sim.topo.node_mut(d).expect("line node").device;
        dev.tick(settled);
        assert!(dev.txn_in_doubt().is_none(), "{d} still in doubt");
        assert_eq!(
            dev.program().map(|p| p.bundle()),
            Some(&new),
            "{d} must run the committed program"
        );
    }
}
