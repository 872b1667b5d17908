//! Allocation budget for a controller failover (`DESIGN.md` §8, §15).
//!
//! A successor whose committed prefix holds the very commands the log's
//! replay cursor folded adopts that fold instead of re-deriving it from
//! empty — on either side of a compaction, since the cursor keeps the fold
//! of the summary and of the prefix it replaced — and a revived node's
//! recovery scrub reports where its verified records lie instead of
//! copying them, and decodes every command it keeps into one shared
//! buffer, so a revive allocates a constant number of times whatever the
//! log's length. One `kill_leader → elect → revive`, counted exactly and
//! seed-free (fixed seeds, fault-free disks) on a log aged by 64
//! `ctl_recover`-shaped scenarios — the most a `flexbench` `ctl_recover`
//! world holds between two compactions — then a compaction that skips the
//! lagging followers, a failover onto one of them (it holds the full
//! prefix) and one back onto the compacted node (summary plus tail), and
//! last the revive of the same world aged by 128 scenarios:
//!
//! | measured here                              | budget |   now |  text | `String`s | before |
//! |--------------------------------------------|-------:|------:|------:|----------:|-------:|
//! | `kill_leader` + `elect`                    |     64 |    27 |    32 |        38 |    217 |
//! | `revive` of the dead leader                |     12 |     6 |     7 |       335 |    680 |
//! | the whole failover                         |     64 |    33 |    39 |       373 |    897 |
//! | `kill_leader` + `elect` onto the skipped   |     64 |    26 |    30 |        39 |    235 |
//! | `kill_leader` + `elect` back               |     64 |    23 |    26 |        35 |    129 |
//! | `revive` after 128 scenarios (472 records) |  = 6   |     6 |     7 |       625 |      — |
//!
//! "text" counts the commit before Raft and its disks carried commands as
//! bytes (`7442228`): every hard-state persist formatted its term and vote
//! as a line before framing it, and a revive copied its log span once to
//! validate it as UTF-8 and again into the shared buffer.
//! "`String`s" counts the commit before commands became shared slices
//! (`1034990`): the revive allocated one `String` per command it kept, so
//! its count grew with the log (335 at 248 records, 625 at 472), and every
//! replicated entry, snapshot and summary copied its commands. "before"
//! counts, in the first three rows, the commit before the fold was adopted
//! and the scrub stopped copying (`7618c1a`): the successor decoded and
//! folded all 248 records again, and the scrub copied every verified
//! record once more before the revive decoded it. In the two rows across
//! the compaction it counts the commit before the cursor kept a fold per
//! representation (`2209c4f`): each successor re-folded its whole prefix,
//! the 248 records or the 73-record summary and its tail. What a revive
//! allocates now: the two scrubs' range lists, the shared buffer (one copy
//! of the kept bytes), the log, and the node's two peer-index vectors.
//!
//! A scenario is `flexbench`'s: a journaled 2PC over 3 of 8 leaves that
//! dies at one crash phase (a third of them taking a leaf down with it),
//! failover and revive, `recover`, the rolled-forward intent recorded, and
//! a resync of the fleet.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;
use flexnet::apps;
use flexnet::prelude::*;
use flexnet_controller::recovery::TargetDirectory;
use flexnet_controller::txn::LoggedTxnOutcome;
use flexnet_controller::{
    logged_transactional_reconfig, recover, IntendedStore, NodeStorage, ReplicatedIntentLog,
    Resyncer,
};
use flexnet_lang::ast::ActionCall;
use flexnet_sim::faults::VICTIM_RESTART_DELAY;
use flexnet_sim::CrashPhase;

const SCENARIOS: usize = 64;
const TARGETS: usize = 3;

/// Program variant `k`: the same ACL table, `k + 1` counters.
fn variant(k: usize) -> ProgramBundle {
    let decls: String = (0..=k).map(|i| format!("counter c{i};\n")).collect();
    let counts: String = (0..=k).map(|i| format!("count(c{i});\n")).collect();
    apps::build(&format!(
        "program app kind any {{
           {decls}
           table acl {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             action allow() {{ forward(0); }}
             default allow();
             size 16;
           }}
           handler ingress(pkt) {{ {counts} apply acl; forward(0); }}
         }}"
    ))
    .unwrap()
}

struct World {
    sim: Simulation,
    leaves: Vec<NodeId>,
    log: ReplicatedIntentLog,
    store: IntendedStore,
    fabric: LossyFabric,
    resyncer: Resyncer,
    policy: RetryPolicy,
    clock: SimTime,
}

impl World {
    /// Eight leaves on variant 0, each with two out-of-band entries, and
    /// their intent journaled.
    fn new(seed: u64) -> World {
        let (topo, _spines, leaves, _hosts) = Topology::leaf_spine(2, 8, 1);
        let mut sim = Simulation::new(topo);
        let storages = (0..3)
            .map(|i| NodeStorage::fault_free(seed ^ (i + 1)))
            .collect();
        let mut log = ReplicatedIntentLog::new_with(3, seed, storages).unwrap();
        let mut store = IntendedStore::new();
        for (i, leaf) in leaves.iter().enumerate() {
            let dev = &mut sim.topo.node_mut(*leaf).unwrap().device;
            dev.install(variant(0)).unwrap();
            store.commit_target(&mut log, 0, *leaf, variant(0)).unwrap();
            for k in 0..2u64 {
                let deny = ActionCall {
                    action: "deny".into(),
                    args: vec![],
                };
                let entry = TableEntry::exact(&[0xC0A8_0000 + 16 * i as u64 + k], deny);
                dev.add_entry("acl", entry.clone()).unwrap();
                store.record_entry(&mut log, *leaf, "acl", entry).unwrap();
            }
        }
        World {
            sim,
            leaves,
            log,
            store,
            fabric: LossyFabric::new(0.02, seed),
            resyncer: Resyncer::default(),
            policy: RetryPolicy {
                max_attempts: 16,
                deadline: SimDuration::from_secs(60),
                ..RetryPolicy::default()
            },
            clock: SimTime::from_secs(1),
        }
    }

    /// Crash → failover → recovery → resync, converged.
    fn scenario(&mut self, op: usize) {
        let World {
            sim,
            leaves,
            log,
            store,
            fabric,
            resyncer,
            policy,
            clock,
        } = self;
        let targets: Vec<(NodeId, ProgramBundle)> = (0..TARGETS)
            .map(|j| (leaves[(op + j) % leaves.len()], variant(op % 4)))
            .collect();
        let phase = CrashPhase::ALL[op % 4];
        let txn = logged_transactional_reconfig(
            sim,
            &targets,
            *clock,
            fabric,
            policy,
            log,
            Some(phase),
            Some(store),
            None,
        )
        .unwrap();
        if op.is_multiple_of(3) {
            let dev = &mut sim
                .topo
                .node_mut(targets[op / 3 % TARGETS].0)
                .unwrap()
                .device;
            dev.crash(txn.finished_at);
            dev.restart(txn.finished_at + VICTIM_RESTART_DELAY).unwrap();
        }
        let before = log.now();
        let dead = log.kill_leader().unwrap();
        log.elect().unwrap();
        log.cluster_mut().revive(dead).unwrap();
        let mut directory = TargetDirectory::new();
        directory.insert(txn.txn, targets.clone());
        let from = txn.finished_at + log.now().saturating_since(before);
        let recovery = recover(sim, log, &directory, leaves, from, fabric, policy).unwrap();
        let settled = recovery
            .finished_at
            .max(txn.commit_at.unwrap_or(SimTime::ZERO))
            + SimDuration::from_secs(1);
        for leaf in leaves.iter() {
            sim.topo.node_mut(*leaf).unwrap().device.tick(settled);
        }
        if txn.outcome == LoggedTxnOutcome::Crashed(CrashPhase::AfterFlipScheduled) {
            for (node, bundle) in &targets {
                store
                    .commit_target(log, txn.txn, *node, bundle.clone())
                    .unwrap();
            }
        }
        let reports = resyncer
            .resync_all(sim, store, leaves, settled, fabric, policy, None)
            .unwrap();
        sim.reconfig_reports.clear();
        let converged = reports
            .iter()
            .map(|r| r.finished_at)
            .max()
            .unwrap_or(settled);
        *clock = converged + SimDuration::from_millis(10);
        for leaf in leaves.iter() {
            let dev = &sim.topo.node(*leaf).unwrap().device;
            assert_eq!(
                Some(dev.config_digest()),
                store.digest(*leaf),
                "scenario {op} converges"
            );
        }
    }

    /// One counted `kill_leader → elect → revive`: the two counts and the
    /// node killed.
    fn failover(&mut self) -> (u64, u64, usize) {
        let records = self.log.records().unwrap().len();
        let (elect, dead) = count(|| {
            let dead = self.log.kill_leader().unwrap();
            self.log.elect().unwrap();
            dead
        });
        let (revive, ()) = count(|| self.log.cluster_mut().revive(dead).unwrap());
        let total = elect + revive;
        println!("{records} records: kill_leader + elect {elect}, revive {revive}, total {total}");
        let after = self.log.records().unwrap().len();
        assert_eq!(after, records, "a failover commits only its barrier");
        (elect, revive, dead)
    }
}

#[test]
fn a_failover_allocates_for_what_changed() {
    let mut w = World::new(3);
    for op in 0..SCENARIOS {
        w.scenario(op);
    }
    let (elect, revive, dead) = w.failover();
    assert!(elect <= 64, "kill_leader + elect: {elect} allocations");
    assert!(revive <= 12, "revive: {revive} allocations");
    assert!(
        elect + revive <= 64,
        "failover: {} allocations",
        elect + revive
    );

    // Compact while the revived node lags; the leader reads its log, as
    // the next scenario's coordinator would.
    let digest = w.log.replay().unwrap().digest();
    let report = w.log.compact().unwrap();
    w.log.replay().unwrap();
    let compacted = w.log.cluster_mut().leader().unwrap();
    assert_eq!(
        report.compacted,
        [compacted],
        "both followers lag the commit index"
    );
    assert!(report.skipped.contains(&dead));
    // The successor is the follower that holds the barrier: the full
    // prefix, the representation the compaction left.
    let (onto_skipped, skipped) = count(|| {
        w.log.kill_leader().unwrap();
        w.log.elect().unwrap()
    });
    assert!(report.skipped.contains(&skipped));
    // And back: the compacted node, revived and caught up, is the only
    // one holding the next barrier.
    let c = w.log.cluster_mut();
    c.revive(compacted).unwrap();
    c.run_for(SimDuration::from_millis(500), SimDuration::from_millis(10));
    let lagging = 3 - compacted - skipped;
    c.kill(lagging).unwrap();
    w.log.elect().unwrap();
    w.log.cluster_mut().revive(lagging).unwrap();
    let (back, successor) = count(|| {
        w.log.kill_leader().unwrap();
        w.log.elect().unwrap()
    });
    assert_eq!(successor, compacted);
    println!("across the compaction: onto the skipped node {onto_skipped}, back {back}");
    assert_eq!(
        w.log.replay().unwrap().digest(),
        digest,
        "failovers commit only barriers"
    );
    assert!(
        onto_skipped <= 64,
        "kill_leader + elect onto the skipped node: {onto_skipped} allocations"
    );
    assert!(
        back <= 64,
        "kill_leader + elect back onto the compacted node: {back} allocations"
    );

    // A revive decodes its log into one buffer: on the same world aged by
    // as many scenarios again, it allocates exactly as often.
    let mut w = World::new(3);
    for op in 0..2 * SCENARIOS {
        w.scenario(op);
    }
    let (_, aged, _) = w.failover();
    assert_eq!(
        aged, revive,
        "revive {SCENARIOS} scenarios later: {aged} allocations"
    );
}
