//! E21 — crash-consistent durable control state: simulated disks under
//! the Raft log and the replicated intent WAL.
//!
//! Six scenarios rotate by seed: a WAL disk tripping mid-append, a torn
//! tail composed with the E13 failover drill, a bit rotting in cold
//! (already-committed) log records, rot in the newest snapshot generation,
//! a snapshot disk refusing compaction with `NoSpace`, and fsyncs that lag
//! on every disk.
//!
//! The claim under test: with checksums armed the fleet **replays to one
//! state on every seed** — torn tails truncate at the last fsync barrier,
//! mid-log rot demotes the replica to catch-up-only instead of letting it
//! vote with a hole, a rotted snapshot falls back one generation,
//! compaction is refused cleanly when the disk is full, and cross-node
//! replay digests agree bit-for-bit. On the ablated arm (CRC checks off)
//! the pinned rot seeds must *diverge* — if a rotted replica replays clean
//! without its checksums the experiment no longer tests anything.

use crate::fixture::{app, resolved_txns, Draws, LineFleet, CONTROLLERS};
use crate::sweep::{col, count, total, Arm, Oracle, Report, Suite, Summary};
use flexnet_controller::recovery::{recover, TargetDirectory};
use flexnet_controller::txn::logged_transactional_reconfig;
use flexnet_controller::{
    state_digest, IntendedStore, NodeStorage, ReplicatedIntentLog, StorageCounters,
};
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::disk::DiskFaultPlan;
use flexnet_sim::CrashPhase;
use flexnet_types::hash::mix;
use flexnet_types::{FlexError, Result, SimDuration, SimTime};

/// Which layer of the durable-state stack one run attacks: the medium the
/// control plane persists into, not a process or the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageScenario {
    /// A controller node's disk fails in the middle of a log append: the
    /// record's bytes are in the volatile buffer, no barrier ever comes,
    /// and recovery must scrub the torn tail away and rejoin cleanly.
    CrashMidAppend,
    /// The mid-append crash composes with a leader kill at a seeded 2PC
    /// phase: failover and torn-tail recovery race, and the new leader's
    /// log must win over the scrubbed node's truncated suffix.
    TornTailOnFailover,
    /// A bit rots in the *cold* region of a follower's log — bytes synced
    /// long ago, mid-log, with valid records after them. The CRC scrub
    /// must truncate at the rot, demote the node to catch-up-only (it
    /// never votes with a hole), and anti-entropy must re-replicate the
    /// suffix from the leader.
    BitRotInColdLog,
    /// The newest snapshot generation rots: recovery must detect the bad
    /// checksum, fall back to the previous generation, and replay the
    /// longer tail instead of trusting garbage.
    RotInSnapshot,
    /// The snapshot disk is too small for the next generation: compaction
    /// must fail with typed `NoSpace`, leave the log intact, and the
    /// cluster must keep operating (slower, never wrong).
    NoSpaceDuringCompaction,
    /// Every fsync barrier drags (a lagging disk) while the E13 crash
    /// schedule runs: acks wait for durability, elections slow down, and
    /// the run must still converge with the lag fully accounted.
    LaggingFsync,
}

impl StorageScenario {
    /// All scenarios, cycled by the sweep.
    pub const ALL: [StorageScenario; 6] = [
        StorageScenario::CrashMidAppend,
        StorageScenario::TornTailOnFailover,
        StorageScenario::BitRotInColdLog,
        StorageScenario::RotInSnapshot,
        StorageScenario::NoSpaceDuringCompaction,
        StorageScenario::LaggingFsync,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            StorageScenario::CrashMidAppend => "crash-mid-append",
            StorageScenario::TornTailOnFailover => "torn-tail-on-failover",
            StorageScenario::BitRotInColdLog => "bit-rot-in-cold-log",
            StorageScenario::RotInSnapshot => "rot-in-snapshot",
            StorageScenario::NoSpaceDuringCompaction => "nospace-during-compaction",
            StorageScenario::LaggingFsync => "lagging-fsync",
        }
    }
}

/// Everything a storage-chaos run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which layer of the durable-state stack this run attacks.
    pub scenario: StorageScenario,
    /// Controller-node index (0..3) whose disk takes the fault.
    pub victim: usize,
    /// Where in the two-phase-commit protocol the composed crash lands
    /// (used by the failover and lagging-fsync scenarios, which run the
    /// E13 kill schedule on top of the disk fault).
    pub crash_phase: CrashPhase,
    /// The 1-based write index at which the victim's WAL disk trips
    /// (mid-append scenarios).
    pub crash_at_write: u64,
    /// Fsync latency in microseconds ([`StorageScenario::LaggingFsync`]).
    pub fsync_lag_us: u64,
    /// Snapshot-disk capacity in bytes
    /// ([`StorageScenario::NoSpaceDuringCompaction`] pins it small).
    pub snap_capacity: Option<u64>,
    /// Drop probability of the controller↔device fabric.
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
    /// Seed stream for the per-node disk fault plans.
    pub disk_seed: u64,
}

impl StorageSchedule {
    /// Expands `seed` into a storage schedule over `controllers` nodes.
    ///
    /// The scenario cycles with the seed (any contiguous run of ≥6 seeds
    /// covers every storage layer; seeds ≡ 2 mod 6 are the cold-log rot
    /// runs and seeds ≡ 3 mod 6 the snapshot rot runs — the CRC-oracle
    /// scenarios), the crash phase cycles independently, and fabric loss
    /// comes from the standard tiers.
    pub fn from_seed(seed: u64, controllers: usize) -> StorageSchedule {
        let d = Draws::new(seed, 0xD15C_FA17);
        let scenario = StorageScenario::ALL[(seed % 6) as usize];
        let nospace = scenario == StorageScenario::NoSpaceDuringCompaction;
        StorageSchedule {
            seed,
            scenario,
            victim: d.index(3, controllers),
            crash_phase: CrashPhase::ALL[d.bits(6, 4) as usize],
            crash_at_write: 2 + d.bits(10, 6),
            fsync_lag_us: 200 + d.bits(13, 4) * 200,
            snap_capacity: nospace.then(|| 24 + d.bits(17, 40)),
            fabric_loss: d.fabric_loss(),
            raft_seed: mix(seed ^ 0xD15C_C0DE),
            disk_seed: mix(seed ^ 0xD15C_5EED),
        }
    }
}

/// Everything one E21 run observed.
#[derive(Debug, Clone)]
pub struct StorageReport {
    /// The schedule the seed expanded to.
    pub schedule: StorageSchedule,
    /// The arm the run executed on (ablated: CRC checks off).
    pub arm: Arm,
    /// Whether replica state diverged (undecodable committed records, or
    /// replay digests that disagree across live nodes).
    pub diverged: bool,
    /// Fleet-wide storage counters, rolled up across all nodes.
    pub counters: StorageCounters,
    /// Packets delivered by the post-scenario traffic check.
    pub delivered: u64,
    /// Committed intent records in the leader's final log view.
    pub replay_records: usize,
    /// Every invariant violation observed (empty = the run passed).
    pub violations: Vec<String>,
}

impl Report for StorageReport {
    /// The violations, plus divergence itself.
    fn failures(&self) -> Vec<String> {
        let diverged = self.diverged.then(|| "replica state diverged".to_string());
        self.violations.iter().cloned().chain(diverged).collect()
    }
}

/// Builds the per-node storage stacks the schedule demands. Disk seeds
/// derive arithmetically from `schedule.disk_seed` — storage never draws
/// from the cluster's RNG, so arming faults cannot perturb the election
/// byte-stream legacy experiments pin.
fn storages_for(schedule: &StorageSchedule, crc_checks: bool) -> Vec<NodeStorage> {
    (0..CONTROLLERS)
        .map(|i| {
            let node_seed =
                schedule.disk_seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut wal_plan = DiskFaultPlan::seeded(node_seed).tearing();
            let mut snap_capacity = None;
            if i == schedule.victim {
                match schedule.scenario {
                    StorageScenario::CrashMidAppend | StorageScenario::TornTailOnFailover => {
                        wal_plan = wal_plan.crash_at_write(schedule.crash_at_write);
                    }
                    StorageScenario::NoSpaceDuringCompaction => {
                        snap_capacity = schedule.snap_capacity;
                    }
                    _ => {}
                }
            }
            if schedule.scenario == StorageScenario::LaggingFsync {
                wal_plan = wal_plan.with_fsync_lag(SimDuration::from_micros(schedule.fsync_lag_us));
            }
            NodeStorage::with_plans(
                wal_plan,
                DiskFaultPlan::seeded(node_seed ^ 0x4A2D_0001),
                snap_capacity,
                node_seed,
                crc_checks,
            )
        })
        .collect()
}

/// Runs one seeded storage-chaos scenario on `arm`. Ablated disables only
/// the CRC checks on durable records (structural torn-record detection
/// stays, because a torn length prefix is not a protection — it is
/// unparseable): the rot scenarios must then diverge, proving the
/// checksums are load-bearing rather than decorative.
///
/// Errors only on harness plumbing failures (a cluster that cannot
/// elect at all); protocol misbehaviour is reported as violations or
/// divergence, not errors, so sweeps keep going and count.
pub fn run(seed: u64, arm: Arm) -> Result<StorageReport> {
    // -- setup: the line, v1 everywhere, durable-storage Raft ------------
    let crc_checks = arm == Arm::Protected;
    let schedule = StorageSchedule::from_seed(seed, CONTROLLERS);
    let storages = storages_for(&schedule, crc_checks);
    let log = ReplicatedIntentLog::new_with(CONTROLLERS, schedule.raft_seed, storages)?;
    let mut fleet = LineFleet::new(seed, schedule.fabric_loss, log);
    fleet.install_everywhere(seed, &app(1))?;
    fleet.log.epoch()?;
    let devices = fleet.devices;
    let mut store = IntendedStore::new();
    let mut violations: Vec<String> = Vec::new();

    // Recovery needs roll-forward targets for any transaction left in
    // doubt. A transaction that dies in `append` never reports its id,
    // so the directory is pre-populated for every id this harness can
    // allocate; recovery only consults ids that actually exist.
    let (targets_v2, targets_v3) = (fleet.targets(&app(2)), fleet.targets(&app(3)));
    let mut directory = TargetDirectory::new();
    for id in 1..=8u64 {
        directory.insert(id, targets_v2.clone());
    }

    // Which program each transaction id targeted, in execution order;
    // the expected fleet program is folded from the committed subset.
    let mut txn_programs: Vec<(u64, ProgramBundle)> = Vec::new();
    let mut recovery_finished: Option<SimTime> = None;

    // One journaled reconfiguration act; an `Err` means the coordinator's
    // own storage died mid-append, which the caller handles as a crash.
    macro_rules! txn_act {
        ($targets:expr, $bundle:expr, $at:expr, $crash:expr) => {
            match logged_transactional_reconfig(
                &mut fleet.sim,
                $targets,
                $at,
                &mut fleet.fabric,
                &fleet.policy,
                &mut fleet.log,
                $crash,
                Some(&mut store),
                None,
            ) {
                Ok(report) => {
                    txn_programs.push((report.txn, $bundle));
                    Ok(report)
                }
                Err(e) => Err(e),
            }
        };
    }

    // Fail over off a dead (or suspect) coordinator and resolve every
    // in-doubt transaction at the devices. An armed victim disk can trip
    // *during* recovery's own appends and collapse a bare-majority
    // quorum — the retry arm restarts every dead replica (whose recovery
    // scrubs its torn tail) and re-runs the idempotent recovery pass.
    macro_rules! failover_and_recover {
        ($from:expr) => {{
            let mut attempts = 0;
            loop {
                let result = fleet.log.elect().and_then(|_| {
                    recover(
                        &mut fleet.sim,
                        &mut fleet.log,
                        &directory,
                        &devices,
                        $from,
                        &mut fleet.fabric,
                        &fleet.policy,
                    )
                });
                match result {
                    Ok(recovery) => {
                        recovery_finished = Some(recovery.finished_at);
                        break;
                    }
                    // An undecodable committed log (bit rot replicated
                    // with checksums disabled) makes resolution
                    // impossible by construction — grading surfaces it
                    // as divergence; don't mask it as a harness error.
                    // Only the decode failure qualifies: a transient
                    // `NoLeader` between attempts must keep retrying.
                    Err(_) if matches!(fleet.log.replay(), Err(FlexError::Consensus(_))) => break,
                    Err(_) if attempts < 3 => {
                        attempts += 1;
                        let cluster = fleet.log.cluster_mut();
                        for i in 0..CONTROLLERS {
                            if !cluster.is_alive(i) {
                                cluster.revive(i)?;
                            }
                        }
                        cluster.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
                    }
                    Err(e) => return Err(e),
                }
            }
        }};
    }

    // -- the scenario act ------------------------------------------------
    match schedule.scenario {
        // The victim's WAL disk trips mid-append. A victim coordinator
        // surfaces it as a failed propose (crash + failover + recovery);
        // a victim follower self-crashes without acking. Either way the
        // node then recovers from its torn disk and must catch up.
        StorageScenario::CrashMidAppend => {
            let outcome = txn_act!(&targets_v2, app(2), SimTime::from_secs(1), None);
            if outcome.is_err() {
                failover_and_recover!(SimTime::from_secs(2));
            }
            let cluster = fleet.log.cluster_mut();
            if cluster.is_alive(schedule.victim) {
                cluster.kill(schedule.victim)?;
            }
            cluster.revive(schedule.victim)?;
            cluster.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
        }

        // The E13 kill schedule composed with a tearing disk: the
        // transaction crashes at its scheduled phase, the leader dies,
        // and the victim's torn WAL tail must truncate cleanly on revive.
        StorageScenario::TornTailOnFailover => {
            let outcome = txn_act!(
                &targets_v2,
                app(2),
                SimTime::from_secs(1),
                Some(schedule.crash_phase)
            );
            // A victim *follower* whose disk tripped mid-append
            // self-crashed without acking. Bring it back through the
            // torn-tail scrub now, while a leader can still refill it —
            // the coming failover needs it as a voting majority member.
            {
                let cluster = fleet.log.cluster_mut();
                if !cluster.is_alive(schedule.victim) {
                    cluster.revive(schedule.victim)?;
                    cluster.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
                }
            }
            let from = match outcome {
                Ok(report) => {
                    fleet.log.kill_leader()?;
                    report.finished_at + SimDuration::from_secs(1)
                }
                // The coordinator's own disk died before the scheduled
                // phase; it is already down.
                Err(_) => SimTime::from_secs(2),
            };
            failover_and_recover!(from);
            let cluster = fleet.log.cluster_mut();
            if cluster.is_alive(schedule.victim) {
                cluster.kill(schedule.victim)?;
            }
            cluster.revive(schedule.victim)?;
            cluster.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
        }

        // Two clean transactions land, then a bit rots in the victim's
        // *cold* log (a record everyone already committed). With CRC on,
        // recovery truncates there and demotes the node to catch-up-only;
        // with CRC off the rot replays as garbage and the replica
        // diverges — the oracle arm requires exactly that.
        StorageScenario::BitRotInColdLog => {
            txn_act!(&targets_v2, app(2), SimTime::from_secs(1), None)?;
            txn_act!(&targets_v3, app(3), SimTime::from_secs(3), None)?;
            let cluster = fleet.log.cluster_mut();
            cluster.kill(schedule.victim)?;
            if cluster
                .storage_mut(schedule.victim)?
                .wal_mut()
                .rot_payload(1)
                .is_none()
            {
                violations.push("rot target record 1 missing from victim WAL".into());
            }
            cluster.revive(schedule.victim)?;
            cluster.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
            // Failover pressure: the catch-up-only node must not block a
            // re-election once the leader has refilled it.
            fleet.log.kill_leader()?;
            fleet.log.elect()?;
        }

        // Two transactions, each followed by compaction, build two
        // snapshot generations on every node; then the victim's newest
        // snapshot rots. With CRC on, recovery falls back to the prior
        // generation plus a longer WAL tail; with CRC off the rotted
        // snapshot replays as garbage state.
        StorageScenario::RotInSnapshot => {
            txn_act!(&targets_v2, app(2), SimTime::from_secs(1), None)?;
            fleet
                .log
                .cluster_mut()
                .run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
            fleet.log.compact()?;
            txn_act!(&targets_v3, app(3), SimTime::from_secs(3), None)?;
            fleet
                .log
                .cluster_mut()
                .run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
            let second = fleet.log.compact()?;
            if !second.compacted.contains(&schedule.victim) {
                violations.push(format!(
                    "victim {} missing generation 2 (compacted {:?}, skipped {:?})",
                    schedule.victim, second.compacted, second.skipped
                ));
            }
            let cluster = fleet.log.cluster_mut();
            cluster.kill(schedule.victim)?;
            if !cluster
                .storage_mut(schedule.victim)?
                .snaps_mut()
                .rot_latest()
            {
                violations.push("victim has no snapshot generation to rot".into());
            }
            cluster.revive(schedule.victim)?;
            cluster.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
        }

        // The victim's snapshot disk is too small for any summary: its
        // compaction must be refused with a typed `NoSpace`, skipped
        // without touching the node, while the rest of the fleet
        // compacts and the cluster keeps committing.
        StorageScenario::NoSpaceDuringCompaction => {
            txn_act!(&targets_v2, app(2), SimTime::from_secs(1), None)?;
            fleet
                .log
                .cluster_mut()
                .run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
            let report = fleet.log.compact()?;
            if report.nospace == 0 {
                violations.push(format!(
                    "victim compaction was not refused with NoSpace (compacted {:?})",
                    report.compacted
                ));
            }
            if report.compacted.len() != CONTROLLERS - 1 {
                violations.push(format!(
                    "expected {} nodes compacted, got {:?} (skipped {:?})",
                    CONTROLLERS - 1,
                    report.compacted,
                    report.skipped
                ));
            }
            txn_act!(&targets_v3, app(3), SimTime::from_secs(3), None)?;
        }

        // Every disk fsyncs slowly. The full E13 crash/failover/recovery
        // drill runs on top, and the harness checks the latency was
        // actually charged to the durability path.
        StorageScenario::LaggingFsync => {
            let outcome = txn_act!(
                &targets_v2,
                app(2),
                SimTime::from_secs(1),
                Some(schedule.crash_phase)
            );
            let from = match outcome {
                Ok(report) => {
                    fleet.log.kill_leader()?;
                    report.finished_at + SimDuration::from_secs(1)
                }
                Err(_) => SimTime::from_secs(2),
            };
            failover_and_recover!(from);
        }
    }

    // -- heal the fleet and let replication settle -----------------------
    for i in 0..CONTROLLERS {
        if !fleet.log.cluster_mut().is_alive(i) {
            fleet.log.cluster_mut().revive(i)?;
        }
    }
    fleet
        .log
        .cluster_mut()
        .run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
    // Two jobs before grading. (1) A leader elected organically
    // mid-scenario may sit on a fully replicated but uncommitted
    // prior-term tail (Raft only commits old-term entries under an
    // own-term entry) — the barrier `elect` plays the no-op-on-election
    // rule and covers the tail. (2) A coordinator whose disk tripped
    // *while appending the terminal record* leaves a durable
    // `FlipScheduled` with flipped devices — by design the terminal
    // append is best-effort past the point of no return, and the
    // recovery sweep is the documented roll-forward. Both are idempotent,
    // so the sweep runs unconditionally.
    let sweep_from =
        recovery_finished.map_or(SimTime::from_secs(8), |t| t.max(SimTime::from_secs(8)));
    failover_and_recover!(sweep_from);
    fleet
        .log
        .cluster_mut()
        .run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));

    // -- grading: terminal transactions and the expected program ---------
    let mut diverged = false;
    let records = match fleet.log.records() {
        Ok(records) => records,
        Err(e) => {
            diverged = true;
            violations.push(format!("committed records undecodable: {e}"));
            Vec::new()
        }
    };
    let replay_records = records.len();
    let committed = resolved_txns(&records, &mut violations);
    let mut want = app(1);
    for (txn, bundle) in &txn_programs {
        if committed.contains(txn) {
            want = bundle.clone();
        }
    }

    // -- grading: every live replica replays to the same state -----------
    let cluster = fleet.log.cluster_mut();
    let leader = cluster
        .leader()
        .ok_or_else(|| FlexError::Consensus(format!("seed {seed}: no leader after settling")))?;
    let leader_digest = match state_digest(&cluster.committed(leader)?) {
        Ok(digest) => Some(digest),
        Err(e) => {
            diverged = true;
            violations.push(format!("leader {leader} replays garbage: {e}"));
            None
        }
    };
    let leader_commit = cluster.commit_index(leader)?;
    for i in 0..CONTROLLERS {
        if !cluster.is_alive(i) || i == leader {
            continue;
        }
        let commit = cluster.commit_index(i)?;
        if commit < leader_commit {
            violations.push(format!(
                "node {i} commit {commit} never caught leader commit {leader_commit}"
            ));
            continue;
        }
        match state_digest(&cluster.committed(i)?) {
            Ok(digest) if Some(digest) == leader_digest => {}
            Ok(digest) => {
                diverged = true;
                violations.push(format!(
                    "node {i} replay digest {digest:016x} disagrees with leader"
                ));
            }
            Err(e) => {
                diverged = true;
                violations.push(format!("node {i} replays garbage: {e}"));
            }
        }
    }

    // -- grading: storage counters match the scenario's story ------------
    let mut counters = StorageCounters::default();
    for i in 0..CONTROLLERS {
        counters.merge(cluster.storage(i)?.counters());
    }
    if crc_checks {
        match schedule.scenario {
            StorageScenario::CrashMidAppend => {
                if counters.torn_truncations == 0 {
                    violations.push("mid-append trip never produced a torn-tail truncation".into());
                }
            }
            StorageScenario::BitRotInColdLog => {
                if counters.checksum_truncations == 0 || counters.mid_log_rot == 0 {
                    violations.push(format!(
                        "cold-log rot not detected (checksum_truncations {}, mid_log_rot {})",
                        counters.checksum_truncations, counters.mid_log_rot
                    ));
                }
                if counters.catchup_demotions == 0 {
                    violations.push("cold-log rot did not demote the victim to catch-up".into());
                }
            }
            StorageScenario::RotInSnapshot => {
                if counters.snapshot_fallbacks == 0 {
                    violations.push("rotted snapshot never fell back a generation".into());
                }
            }
            StorageScenario::NoSpaceDuringCompaction => {
                if counters.nospace == 0 {
                    violations.push("capped snapshot disk never counted a NoSpace".into());
                }
            }
            StorageScenario::LaggingFsync => {
                if counters.fsync_lag == SimDuration::ZERO {
                    violations.push("lagging fsync charged no latency".into());
                }
            }
            StorageScenario::TornTailOnFailover => {}
        }
    }

    // -- the network converges on one program and still moves packets ----
    let settle = recovery_finished
        .map(|t| t + SimDuration::from_secs(2))
        .unwrap_or_default()
        .max(SimTime::from_secs(8));
    fleet.settle(settle, &mut violations);
    for d in devices {
        match fleet.device(d).program() {
            Some(p) if *p.bundle() == want => {}
            Some(_) => violations.push(format!("{d} runs the wrong program (mixed network)")),
            None => violations.push(format!("{d} lost its program entirely")),
        }
    }
    let delivered = fleet.old_xor_new_probe(settle, seed, "", &mut violations);
    if delivered == 0 {
        violations.push("no post-scenario traffic delivered".into());
    }

    Ok(StorageReport {
        schedule,
        arm,
        diverged,
        counters,
        delivered,
        replay_records,
        violations,
    })
}

type Agg = fn(&[&StorageReport]) -> u64;
const TORN: Agg = |c| total(c, |r| r.counters.torn_truncations);
const CRC: Agg = |c| total(c, |r| r.counters.checksum_truncations);
const FALLBACKS: Agg = |c| total(c, |r| r.counters.snapshot_fallbacks);
const NOSPACE: Agg = |c| total(c, |r| r.counters.nospace);
const DEMOTIONS: Agg = |c| total(c, |r| r.counters.catchup_demotions);
const DIVERGED: Agg = |c| count(c, |r| r.diverged) as u64;

/// Seeds pinned as CRC-off divergence oracles: both rot scenarios in
/// both of their first two rotations (seed mod 6 == 2 → cold-log rot,
/// seed mod 6 == 3 → snapshot rot).
const ORACLE_SEEDS: [u64; 4] = [2, 3, 8, 9];

/// The E21 experiment.
pub fn suite() -> Suite<StorageReport> {
    Suite {
        name: "storage",
        id: "E21",
        title: "durable control state: torn writes, bit rot, full disks, lagging fsync",
        claim: "runtime reprogramming is only as safe as the control state that \
                survives the power cut; the Raft log and intent WAL must recover \
                from torn tails, detect rot before replaying it, and compact \
                without ever losing an acked record",
        sweep_note: "(scenario = seed mod 6), checksums on",
        run,
        cohort_title: "scenario",
        cohorts: StorageScenario::ALL
            .iter()
            .map(StorageScenario::label)
            .collect(),
        cohort_of: |r| {
            let scenario = r.schedule.scenario;
            StorageScenario::ALL
                .iter()
                .position(|s| *s == scenario)
                .expect("a listed scenario")
        },
        columns: vec![
            col("converged", |c| count(c, |r| r.passed()).to_string()),
            col("torn trunc", |c| TORN(c).to_string()),
            col("crc trunc", |c| CRC(c).to_string()),
            col("snap fallbk", |c| FALLBACKS(c).to_string()),
            col("nospace", |c| NOSPACE(c).to_string()),
            col("catchup dem", |c| DEMOTIONS(c).to_string()),
        ],
        totals: Some(|all| {
            format!(
                "across the sweep: {} torn tails truncated at the \
                 fsync barrier, {} checksum truncations, \
                 {} snapshot-generation fallbacks, {} \
                 NoSpace refusals handled, {} catch-up demotions, \
                 {} replica divergences (must be 0)",
                TORN(all),
                CRC(all),
                FALLBACKS(all),
                NOSPACE(all),
                DEMOTIONS(all),
                DIVERGED(all),
            )
        }),
        oracle: Some(Oracle {
            seeds: &ORACLE_SEEDS,
            bites: |r| r.diverged,
            intro: |_, _| {
                format!(
                    "oracle seeds {ORACLE_SEEDS:?}: CRC checks OFF must still diverge \
                     (regression check that the rot still bites)"
                )
            },
            detail: Some(|off| {
                format!(
                    "replayed {} records, {} violations",
                    off.replay_records,
                    off.violations.len()
                )
            }),
            soft: "no longer diverge with CRC checks off — the rot has lost its \
                   teeth; retune the schedule or re-pin the oracles.",
        }),
        summary: Some(Summary {
            experiment: "e21_storage",
            head: |t| {
                vec![
                    ("converged", t.passed.to_string()),
                    ("torn_truncations", TORN(t.on).to_string()),
                    ("checksum_truncations", CRC(t.on).to_string()),
                    ("snapshot_fallbacks", FALLBACKS(t.on).to_string()),
                    ("nospace_refusals", NOSPACE(t.on).to_string()),
                    ("catchup_demotions", DEMOTIONS(t.on).to_string()),
                    ("divergences_on", DIVERGED(t.on).to_string()),
                    ("oracle_seeds", format!("{ORACLE_SEEDS:?}")),
                    ("oracles_still_diverge", t.oracles_hold.to_string()),
                ]
            },
            cohort: vec![
                col("converged", |c| count(c, |r| r.passed()).to_string()),
                col("torn_truncations", |c| TORN(c).to_string()),
                col("checksum_truncations", |c| CRC(c).to_string()),
                col("snapshot_fallbacks", |c| FALLBACKS(c).to_string()),
                col("nospace_refusals", |c| NOSPACE(c).to_string()),
                col("catchup_demotions", |c| DEMOTIONS(c).to_string()),
            ],
            tail: |_| Vec::new(),
        }),
        verdict: "checksums-on runs replayed to one state (every torn tail \
                  truncated at its barrier, every rotted replica demoted or rolled \
                  back a generation, zero divergence); wrote E21_summary.json",
        failed_note: " (checksums on)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_seed_zero_passes_with_protections_on() {
        let report = run(0, Arm::Protected).expect("harness runs");
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn cold_log_rot_seed_diverges_with_checksums_off() {
        // Seed 2 is the pinned oracle: scenario BitRotInColdLog.
        let on = run(2, Arm::Protected).expect("harness runs");
        assert!(on.passed(), "violations: {:?}", on.violations);
        let off = run(2, Arm::Ablated).expect("harness runs");
        assert!(off.diverged, "rot with CRC off must diverge");
    }
}
