//! The control channel's pinned behaviour under loss (`DESIGN.md` §21).
//!
//! Every controller→device command in `txn`, `recovery` and `resync` goes
//! through one retry / ack-cache / accounting step. These tests pin an FNV
//! of `{:?}` over everything those paths report — the coordinator's report,
//! `sim.errors`, `sim.reconfig_reports`, the fabric's draw counts and the
//! intent log — on the paths no `results/` recording reaches under loss.
//! The constants were captured at the commit before the channel existed: a
//! moved draw, a re-stamped report or a reworded error changes them.

use flexnet_controller::wal::ReplicatedIntentLog;
use flexnet_controller::{
    logged_transactional_reconfig, recover, transactional_reconfig_over, IntendedStore,
    LossyFabric, ProgramClass, Resyncer, RetryPolicy,
};
use flexnet_dataplane::{Device, TableEntry};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_sim::{CrashPhase, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Fabric seeds folded into each pinned constant.
const SEEDS: std::ops::Range<u64> = 0..16;

/// FNV-1a over the `{:?}` rendering of `what`, chained from `hash`.
fn fnv(hash: u64, what: &dyn Debug) -> u64 {
    format!("{what:?}").bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).expect("test program parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// An ACL in front of line forwarding; `counter` is the upgrade.
fn gate(counter: bool) -> ProgramBundle {
    let (decl, stmt) = if counter { ("counter gated;", "count(gated);") } else { ("", "") };
    bundle(&format!(
        "program gate kind any {{
           {decl}
           table acl {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             action allow() {{ forward(1); }}
             default allow();
             size 16;
           }}
           handler ingress(pkt) {{ {stmt} apply acl; }}
         }}"
    ))
}

fn deny(src: u64) -> TableEntry {
    TableEntry::exact(
        &[src],
        ActionCall {
            action: "deny".into(),
            args: vec![],
        },
    )
}

/// The line's three programmable devices, each running `gate(false)`.
fn line() -> (Simulation, [NodeId; 3]) {
    let (topo, nodes) = Topology::host_nic_switch_line();
    let devices = [nodes[1], nodes[2], nodes[3]];
    let mut sim = Simulation::new(topo);
    for d in devices {
        device(&mut sim, d).install(gate(false)).expect("old program installs");
    }
    (sim, devices)
}

fn device(sim: &mut Simulation, node: NodeId) -> &mut Device {
    &mut sim.topo.node_mut(node).expect("line node").device
}

fn upgrade(devices: &[NodeId]) -> Vec<(NodeId, ProgramBundle)> {
    devices.iter().map(|d| (*d, gate(true))).collect()
}

fn policy(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        deadline: SimDuration::from_secs(60),
        ..RetryPolicy::default()
    }
}

/// What every scenario leaves behind besides its own report.
fn world(hash: u64, sim: &Simulation, fabric: &LossyFabric) -> u64 {
    let hash = fnv(hash, &&sim.errors[..]);
    let hash = fnv(hash, &sim.reconfig_reports);
    fnv(hash, &(fabric.delivered, fabric.dropped))
}

/// `transactional_reconfig_over` on three devices; `fail` downs the last
/// participant (its prepare fails, the sweep meets a down device) and
/// leaves an unacknowledged shadow on the first (the sweep discards it).
fn untagged(loss: f64, fail: bool) -> u64 {
    SEEDS.fold(FNV_OFFSET, |hash, seed| {
        let (mut sim, devices) = line();
        if fail {
            device(&mut sim, devices[2]).crash(SimTime::from_millis(500));
            if seed % 2 == 1 {
                device(&mut sim, devices[0])
                    .begin_runtime_reconfig(gate(true), SimTime::from_millis(900))
                    .expect("orphan shadow prepares");
            }
        }
        let mut fabric = LossyFabric::new(loss, seed);
        let report = transactional_reconfig_over(
            &mut sim,
            &upgrade(&devices),
            SimTime::from_secs(1),
            &mut fabric,
            &policy(12),
        );
        world(fnv(hash, &report), &sim, &fabric)
    })
}

/// `logged_transactional_reconfig` dying at `crash`, a failover, then
/// `recover` twice — all over one 15 %-lossy fabric under one policy. On
/// every third seed the middle participant restarts before recovery, so
/// roll-forward meets a wiped shadow.
fn logged_then_recovered(crash: Option<CrashPhase>, max_attempts: u32) -> u64 {
    SEEDS.fold(FNV_OFFSET, |hash, seed| {
        let (mut sim, devices) = line();
        let targets = upgrade(&devices);
        let mut log = ReplicatedIntentLog::new(3, seed).expect("cluster elects");
        let mut fabric = LossyFabric::new(0.15, seed);
        let policy = policy(max_attempts);
        let txn = logged_transactional_reconfig(
            &mut sim,
            &targets,
            SimTime::from_secs(1),
            &mut fabric,
            &policy,
            &mut log,
            crash,
            None,
            None,
        )
        .expect("the transaction runs to its end or its crash point");
        let mut hash = fnv(hash, &txn);
        if seed % 3 == 2 {
            let dev = device(&mut sim, devices[1]);
            dev.crash(txn.finished_at);
            dev.restart(txn.finished_at).expect("restarts");
        }
        log.kill_leader().expect("leader dies");
        log.elect().expect("successor elected");
        let directory = BTreeMap::from([(txn.txn, targets)]);
        let mut now = txn.finished_at + SimDuration::from_secs(1);
        for _ in 0..2 {
            let pass = recover(
                &mut sim, &mut log, &directory, &devices, now, &mut fabric, &policy,
            )
            .expect("recovery runs");
            now = pass.finished_at + SimDuration::from_secs(1);
            hash = fnv(hash, &pass);
        }
        hash = fnv(hash, &log.records().expect("log decodes"));
        world(hash, &sim, &fabric)
    })
}

/// `resync_all` over the line after the switch and one NIC restarted with
/// intended entries on record, at 30 % loss; `down` leaves the other NIC
/// crashed, so its probe answers `Unavailable`.
fn resynced(down: bool) -> u64 {
    SEEDS.fold(FNV_OFFSET, |hash, seed| {
        let (mut sim, devices) = line();
        let mut log = ReplicatedIntentLog::new(3, seed).expect("cluster elects");
        let mut store = IntendedStore::new();
        store.set_class(devices[0], ProgramClass::Telemetry);
        for (i, d) in devices.into_iter().enumerate() {
            store.commit_target(&mut log, 0, d, gate(false)).expect("intent recorded");
            for src in 0..=i as u64 {
                device(&mut sim, d).add_entry("acl", deny(src)).expect("entry installs");
                store.record_entry(&mut log, d, "acl", deny(src)).expect("entry recorded");
            }
        }
        for d in [devices[0], devices[1]] {
            let dev = device(&mut sim, d);
            dev.crash(SimTime::from_millis(400));
            dev.restart(SimTime::from_millis(500)).expect("restarts");
        }
        if down {
            device(&mut sim, devices[2]).crash(SimTime::from_millis(600));
        }
        let mut fabric = LossyFabric::new(0.3, seed);
        let mut resyncer = Resyncer::default();
        let reports = resyncer.resync_all(
            &mut sim,
            &store,
            &devices,
            SimTime::from_secs(1),
            &mut fabric,
            &policy(16),
            None,
        );
        let hash = fnv(fnv(hash, &reports), &resyncer.starts());
        world(hash, &sim, &fabric)
    })
}

#[test]
fn untagged_two_phase_commit_is_pinned_under_loss() {
    // Commit then prepare-failure abort, each at loss 0 and 0.3.
    let got = [
        untagged(0.0, false),
        untagged(0.3, false),
        untagged(0.0, true),
        untagged(0.3, true),
    ];
    assert_eq!(got, UNTAGGED);
}

#[test]
fn journaled_two_phase_commit_and_recovery_are_pinned_under_loss() {
    // (one attempt, sixteen attempts) for no crash, then the four phases.
    let crashes = std::iter::once(None).chain(CrashPhase::ALL.map(Some));
    let got: Vec<(u64, u64)> = crashes
        .map(|crash| (logged_then_recovered(crash, 1), logged_then_recovered(crash, 16)))
        .collect();
    assert_eq!(got, LOGGED);
}

#[test]
fn resync_is_pinned_under_loss() {
    // Two restarted devices; then the same with the third device down.
    assert_eq!([resynced(false), resynced(true)], RESYNCED);
}

const UNTAGGED: [u64; 4] = [
    7808592931310324917,
    16905517664687335533,
    11241397711626590669,
    13993183710853441204,
];
const LOGGED: [(u64, u64); 5] = [
    (13660369519382726063, 1729855346172866449),
    (4198803093053787781, 17136631796983827286),
    (9098153347642802475, 4800103508981803354),
    (16909145026714109080, 5857481149837669453),
    (12793570340438637732, 470130505142427138),
];
const RESYNCED: [u64; 2] = [5242653121244356296, 13520299137422195426];
