//! Differential tests for the intent log's replay state (`DESIGN.md` §8,
//! "Replay state").
//!
//! `ReplicatedIntentLog::replay` folds each committed command into one
//! incrementally maintained state that every reader shares. These tests
//! drive random interleavings of appends (every record kind), failovers,
//! revives, compactions, message loss and disk rot — three in four
//! histories with record checksums armed, one in four with them off, so
//! rot replicates — and after **every step** compare that state with
//! from-scratch oracles kept here: the record-by-record loops `recover`,
//! `compact_records`, `replay_digest`, `digests_from_log` and
//! `resume_rollouts` each ran over the whole decoded log before the fold
//! existed, over a fresh decode of `RaftCluster::committed(leader)`.
//! Every history ends with the idempotency signature: a second `recover`
//! is a no-op.

use flexnet_controller::storage::NodeStorage;
use flexnet_controller::{
    compact_records, recover, replay_digest, resume_rollouts, IntendedStore, IntentRecord,
    LossyFabric, ReplicatedIntentLog, RetryPolicy, RolloutDirectory,
};
use flexnet_sim::disk::DiskFaultPlan;
use flexnet_sim::{Simulation, Topology};
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const CONTROLLERS: usize = 3;
const STEPS: usize = 48;

// ---------------------------------------------------------------------
// The from-scratch oracles: each reader's own loop, as it stood before
// the fold.
// ---------------------------------------------------------------------

/// `records()`: decode everything the leader committed, barriers aside.
fn oracle_records(commands: &[String]) -> Result<Vec<IntentRecord>> {
    commands
        .iter()
        .filter(|s| !s.starts_with("barrier"))
        .map(|s| IntentRecord::decode(s))
        .collect()
}

/// `recover`'s replay: last 2PC phase record and last device list per
/// transaction.
type RecoveryMaps = (BTreeMap<u64, IntentRecord>, BTreeMap<u64, Vec<u64>>);

fn oracle_recovery_maps(records: &[IntentRecord]) -> RecoveryMaps {
    let mut last: BTreeMap<u64, IntentRecord> = BTreeMap::new();
    let mut participants: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for rec in records {
        match rec {
            IntentRecord::Intent { txn, devices } | IntentRecord::Prepared { txn, devices } => {
                participants.insert(*txn, devices.clone());
            }
            IntentRecord::IntendedState { .. }
            | IntentRecord::RolloutStarted { .. }
            | IntentRecord::WaveCommitted { .. }
            | IntentRecord::RolloutAborted { .. }
            | IntentRecord::RolloutCompleted { .. }
            | IntentRecord::RolledBack { .. }
            | IntentRecord::Compacted { .. } => continue,
            _ => {}
        }
        last.insert(rec.txn(), rec.clone());
    }
    (last, participants)
}

fn in_doubt(rec: &IntentRecord) -> bool {
    matches!(
        rec,
        IntentRecord::Intent { .. }
            | IntentRecord::Prepared { .. }
            | IntentRecord::FlipScheduled { .. }
    )
}

fn rollout_or_txn(rec: &IntentRecord) -> u64 {
    match rec {
        IntentRecord::RolloutStarted { rollout, .. }
        | IntentRecord::WaveCommitted { rollout, .. }
        | IntentRecord::RolloutAborted { rollout, .. }
        | IntentRecord::RolloutCompleted { rollout }
        | IntentRecord::RolledBack { rollout } => *rollout,
        other => other.txn(),
    }
}

/// `compact_records`.
fn oracle_compact_records(records: &[IntentRecord]) -> Vec<IntentRecord> {
    let mut max_txn = 0u64;
    let mut intended: BTreeMap<u64, IntentRecord> = BTreeMap::new();
    let mut txns: BTreeMap<u64, (Vec<IntentRecord>, bool)> = BTreeMap::new();
    for rec in records {
        max_txn = max_txn.max(rec.txn());
        match rec {
            IntentRecord::IntendedState { device, .. } => {
                intended.insert(*device, rec.clone());
            }
            IntentRecord::Compacted { .. } => {}
            _ => {
                let terminal = matches!(
                    rec,
                    IntentRecord::Committed { .. }
                        | IntentRecord::Aborted { .. }
                        | IntentRecord::RolloutCompleted { .. }
                        | IntentRecord::RolledBack { .. }
                );
                let slot = txns
                    .entry(rollout_or_txn(rec))
                    .or_insert_with(|| (Vec::new(), false));
                slot.0.push(rec.clone());
                slot.1 = terminal;
            }
        }
    }
    let mut out = vec![IntentRecord::Compacted { txn: max_txn }];
    out.extend(intended.into_values());
    for (_, (history, terminal)) in txns {
        if terminal {
            out.extend(history.into_iter().last());
        } else {
            out.extend(history);
        }
    }
    out
}

/// `replay_digest`.
fn oracle_replay_digest(records: &[IntentRecord]) -> u64 {
    let mut max_txn = 0u64;
    let mut intended: BTreeMap<u64, String> = BTreeMap::new();
    let mut finals: BTreeMap<u64, String> = BTreeMap::new();
    for rec in records {
        max_txn = max_txn.max(rec.txn());
        match rec {
            IntentRecord::IntendedState { device, .. } => {
                intended.insert(*device, rec.encode());
            }
            IntentRecord::Compacted { .. } => {}
            _ => {
                finals.insert(rollout_or_txn(rec), rec.encode());
            }
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(&max_txn.to_le_bytes());
    for (dev, line) in &intended {
        eat(&dev.to_le_bytes());
        eat(line.as_bytes());
    }
    for (id, line) in &finals {
        eat(&id.to_le_bytes());
        eat(line.as_bytes());
    }
    h
}

/// `IntendedStore::digests_from_log`.
fn oracle_intended_digests(records: &[IntentRecord]) -> BTreeMap<NodeId, u64> {
    let mut digests = BTreeMap::new();
    for rec in records {
        if let IntentRecord::IntendedState { device, digest, .. } = rec {
            digests.insert(NodeId(*device as u32), *digest);
        }
    }
    digests
}

/// `resume_rollouts`' scan: `(rollout, verdict already journaled?)` of
/// every rollout without a terminal record.
fn oracle_owed_rollouts(records: &[IntentRecord]) -> Vec<(u64, bool)> {
    let mut states: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
    for rec in records {
        match rec {
            IntentRecord::RolloutStarted { rollout, .. } => {
                states.insert(*rollout, (false, false));
            }
            IntentRecord::RolloutAborted { rollout, .. } => {
                if let Some(s) = states.get_mut(rollout) {
                    s.0 = true;
                }
            }
            IntentRecord::RolloutCompleted { rollout } | IntentRecord::RolledBack { rollout } => {
                if let Some(s) = states.get_mut(rollout) {
                    s.1 = true;
                }
            }
            _ => {}
        }
    }
    states
        .into_iter()
        .filter(|(_, (_, terminal))| !terminal)
        .map(|(rollout, (aborted, _))| (rollout, aborted))
        .collect()
}

// ---------------------------------------------------------------------
// The check run after every step.
// ---------------------------------------------------------------------

fn same_error<T: std::fmt::Debug>(got: Result<T>, want: &FlexError, what: &str, ctx: &str) {
    match got {
        Err(got) => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{ctx}: {what}"),
        Ok(v) => panic!("{ctx}: {what} read past an undecodable command: {v:?}"),
    }
}

/// Compares every read of `log` with its oracle. Returns the decoded
/// records, or `None` while the leader's prefix does not decode (or there
/// is no leader).
fn check(log: &mut ReplicatedIntentLog, ctx: &str) -> Option<Vec<IntentRecord>> {
    let Some(leader) = log.cluster_mut().leader() else {
        assert!(
            matches!(log.records(), Err(FlexError::NoLeader { .. })),
            "{ctx}"
        );
        return None;
    };
    let commands = log.cluster_mut().committed(leader).expect("leader exists");
    let records = match oracle_records(&commands) {
        Ok(records) => records,
        Err(want) => {
            // Never skipped, never cached past: every read, every time.
            for _ in 0..2 {
                same_error(log.records(), &want, "records", ctx);
                same_error(log.replay().map(|_| ()), &want, "replay", ctx);
                same_error(IntendedStore::digests_from_log(log), &want, "digests", ctx);
            }
            return None;
        }
    };
    assert_eq!(log.records().expect("decodes"), records, "{ctx}: records");

    let replay = log.replay().expect("decodes");
    assert_eq!(replay.records(), records, "{ctx}: replay records");
    let max_id = records.iter().map(IntentRecord::txn).max().unwrap_or(0);
    assert_eq!(replay.max_id(), max_id, "{ctx}: max id");

    let (last, participants) = oracle_recovery_maps(&records);
    let want_open: Vec<u64> = last
        .iter()
        .filter(|(_, rec)| in_doubt(rec))
        .map(|(txn, _)| *txn)
        .collect();
    let got_open: Vec<u64> = replay
        .open()
        .filter(|id| replay.last(*id).is_some_and(in_doubt))
        .collect();
    assert_eq!(got_open, want_open, "{ctx}: open transactions");
    for (txn, rec) in &last {
        assert_eq!(replay.last(*txn), Some(rec), "{ctx}: last record of {txn}");
    }
    for txn in &want_open {
        let want = participants.get(txn).map_or(&[][..], Vec::as_slice);
        assert_eq!(
            replay.participants(*txn),
            want,
            "{ctx}: participants of {txn}"
        );
    }

    let summary = oracle_compact_records(&records);
    assert_eq!(replay.summary(), summary, "{ctx}: summary");
    assert_eq!(compact_records(&records), summary, "{ctx}: compact_records");
    let digest = oracle_replay_digest(&records);
    assert_eq!(replay.digest(), digest, "{ctx}: digest");
    assert_eq!(replay_digest(&records), digest, "{ctx}: replay_digest");
    assert_eq!(replay_digest(&summary), digest, "{ctx}: summary digest");

    // Read while `replay` is still borrowed: a nested read is served from
    // the same, already current, fold.
    assert_eq!(
        IntendedStore::digests_from_log(log).expect("decodes"),
        oracle_intended_digests(&records),
        "{ctx}: intended digests"
    );
    Some(records)
}

// ---------------------------------------------------------------------
// The generator: protocol-shaped record streams (ids never reused, no
// record after a terminal one) with every kind in them.
// ---------------------------------------------------------------------

struct Journal {
    next_id: u64,
    /// Open transactions and how far each got (0 = intent, 1 = prepared,
    /// 2 = flip scheduled).
    txns: Vec<(u64, u8)>,
    /// Open rollouts: (id, waves committed, aborted).
    rollouts: Vec<(u64, u32, bool)>,
    devices: [u64; 3],
}

impl Journal {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn some_devices(&self, rng: &mut StdRng) -> Vec<u64> {
        self.devices
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.7))
            .collect()
    }

    fn next(&mut self, rng: &mut StdRng) -> IntentRecord {
        match rng.gen_range(0..12u32) {
            0..=1 => {
                let txn = self.fresh_id();
                self.txns.push((txn, 0));
                IntentRecord::Intent {
                    txn,
                    devices: self.some_devices(rng),
                }
            }
            2..=5 if !self.txns.is_empty() => {
                let at = rng.gen_range(0..self.txns.len());
                let (txn, phase) = self.txns[at];
                if phase < 2 && rng.gen_bool(0.2) {
                    self.txns.remove(at);
                    return IntentRecord::Aborted { txn };
                }
                self.txns[at].1 += 1;
                match phase {
                    0 => IntentRecord::Prepared {
                        txn,
                        devices: self.some_devices(rng),
                    },
                    1 => IntentRecord::FlipScheduled {
                        txn,
                        commit_at: SimTime::from_nanos(rng.gen_range(0..5_000_000_000u64)),
                    },
                    _ => {
                        self.txns.remove(at);
                        IntentRecord::Committed { txn }
                    }
                }
            }
            6 => {
                let rollout = self.fresh_id();
                self.rollouts.push((rollout, 0, false));
                IntentRecord::RolloutStarted {
                    rollout,
                    waves: vec![
                        vec![self.devices[0]],
                        vec![self.devices[1], self.devices[2]],
                    ],
                }
            }
            7..=8 if !self.rollouts.is_empty() => {
                let at = rng.gen_range(0..self.rollouts.len());
                let (rollout, waves, aborted) = self.rollouts[at];
                if aborted {
                    self.rollouts.remove(at);
                    IntentRecord::RolledBack { rollout }
                } else if waves == 2 {
                    self.rollouts.remove(at);
                    IntentRecord::RolloutCompleted { rollout }
                } else if rng.gen_bool(0.3) {
                    self.rollouts[at].2 = true;
                    IntentRecord::RolloutAborted {
                        rollout,
                        wave: waves + 1,
                        guard: "loss-delta".into(),
                    }
                } else {
                    self.rollouts[at].1 += 1;
                    IntentRecord::WaveCommitted {
                        rollout,
                        wave: waves + 1,
                        txn: self.fresh_id(),
                    }
                }
            }
            9 => IntentRecord::Compacted { txn: self.next_id },
            _ => IntentRecord::IntendedState {
                txn: if rng.gen_bool(0.5) { 0 } else { self.next_id },
                device: self.devices[rng.gen_range(0..3usize)],
                digest: rng.gen(),
            },
        }
    }
}

// ---------------------------------------------------------------------
// One seeded history.
// ---------------------------------------------------------------------

fn storages(seed: u64, crc_checks: bool) -> Vec<NodeStorage> {
    (0..CONTROLLERS as u64)
        .map(|i| {
            let node_seed = seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            NodeStorage::with_plans(
                DiskFaultPlan::seeded(node_seed),
                DiskFaultPlan::seeded(node_seed ^ 0x4A2D_0001),
                None,
                node_seed,
                crc_checks,
            )
        })
        .collect()
}

fn revive_all(log: &mut ReplicatedIntentLog) {
    let cluster = log.cluster_mut();
    for i in 0..CONTROLLERS {
        if !cluster.is_alive(i) {
            cluster.revive(i).expect("node exists");
        }
    }
}

/// Flips one bit in one committed command on `victim`'s disk and brings
/// the node back through its recovery scrub.
fn rot_and_revive(log: &mut ReplicatedIntentLog, victim: usize, rng: &mut StdRng) {
    let cluster = log.cluster_mut();
    if cluster.is_alive(victim) {
        cluster.kill(victim).expect("node exists");
    }
    let wal = cluster.storage_mut(victim).expect("node exists").wal_mut();
    let (from, until) = (wal.base_record(), wal.next_record());
    if from < until {
        wal.rot_payload(rng.gen_range(from..until));
    }
    cluster.revive(victim).expect("node exists");
}

/// Which corners a history reached (the pinned set must reach them all).
#[derive(Debug, Default)]
struct Coverage {
    failovers: u32,
    compactions: u32,
    rots: u32,
    undecodable_reads: u32,
    resolved: usize,
    resumed: usize,
}

fn run_history(seed: u64) -> Coverage {
    let mut seen = Coverage::default();
    let crc_checks = seed % 4 != 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = ReplicatedIntentLog::new_with(CONTROLLERS, seed, storages(seed, crc_checks))
        .expect("cluster elects");
    let (topo, nodes) = Topology::host_nic_switch_line();
    let devices = [nodes[1], nodes[2], nodes[3]];
    let mut journal = Journal {
        next_id: 0,
        txns: Vec::new(),
        rollouts: Vec::new(),
        devices: devices.map(|d| u64::from(d.0)),
    };

    for step in 0..STEPS {
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0..100u32) {
            0..=59 => {
                // A lossy cluster may depose the leader mid-append; the
                // oracle reads the cluster, not this journal.
                let _ = log.append(&journal.next(&mut rng));
            }
            60..=69 => {
                revive_all(&mut log);
                if log.kill_leader().is_ok() && log.elect().is_err() {
                    // A catch-up-only survivor cannot win: heal and retry.
                    revive_all(&mut log);
                    let _ = log.elect();
                }
                seen.failovers += 1;
            }
            70..=76 => revive_all(&mut log),
            77..=84 => {
                let before = check(&mut log, &ctx);
                if let (Some(records), Ok(report)) = (before, log.compact()) {
                    if !report.compacted.is_empty() {
                        let summary = oracle_compact_records(&records);
                        assert_eq!(report.summary_len, summary.len(), "{ctx}: summary length");
                        seen.compactions += 1;
                    }
                }
            }
            85..=89 => log.cluster_mut().drop_prob = [0.0, 0.1, 0.2][rng.gen_range(0..3usize)],
            90..=94 => {
                let victim = rng.gen_range(0..CONTROLLERS);
                if log.cluster_mut().leader() != Some(victim) {
                    rot_and_revive(&mut log, victim, &mut rng);
                    seen.rots += 1;
                }
            }
            _ => log
                .cluster_mut()
                .run_for(SimDuration::from_millis(300), SimDuration::from_millis(10)),
        }
        if check(&mut log, &ctx).is_none() && log.cluster_mut().leader().is_some() {
            seen.undecodable_reads += 1;
        }
    }

    // Heal, fail over once more, and run the recovery idempotency check.
    let ctx = format!("seed {seed} recovery");
    log.cluster_mut().drop_prob = 0.0;
    revive_all(&mut log);
    log.cluster_mut()
        .run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
    if log.elect().is_err() {
        return seen;
    }
    let mut sim = Simulation::new(topo);
    let mut fabric = LossyFabric::reliable();
    let policy = RetryPolicy::default();
    let targets = BTreeMap::new();
    let Some(before) = check(&mut log, &ctx) else {
        // The prefix does not decode: recovery is a typed error too.
        let err = recover(
            &mut sim,
            &mut log,
            &targets,
            &devices,
            SimTime::from_secs(100),
            &mut fabric,
            &policy,
        )
        .expect_err("recovery cannot resolve an undecodable log");
        assert!(matches!(err, FlexError::Consensus(_)), "{ctx}: {err:?}");
        return seen;
    };
    let (last, _) = oracle_recovery_maps(&before);
    let want_resolved: Vec<u64> = last
        .iter()
        .filter(|(_, rec)| in_doubt(rec))
        .map(|(txn, _)| *txn)
        .collect();
    let first = recover(
        &mut sim,
        &mut log,
        &targets,
        &devices,
        SimTime::from_secs(100),
        &mut fabric,
        &policy,
    )
    .expect("recovery runs");
    let resolved: Vec<u64> = first.resolutions.iter().map(|(txn, _)| *txn).collect();
    assert_eq!(resolved, want_resolved, "{ctx}: resolved in id order");
    seen.resolved = resolved.len();
    let after = check(&mut log, &ctx).expect("still decodes");
    assert!(
        oracle_recovery_maps(&after)
            .0
            .values()
            .all(|rec| !in_doubt(rec)),
        "{ctx}: a transaction is still in doubt"
    );
    let second = recover(
        &mut sim,
        &mut log,
        &targets,
        &devices,
        first.finished_at,
        &mut fabric,
        &policy,
    )
    .expect("recovery runs twice");
    assert!(second.is_noop(), "{ctx}: second recover changed {second:?}");

    // Rollout resume finds exactly the rollouts the log leaves open.
    let owed = oracle_owed_rollouts(&after);
    let resumed = resume_rollouts(
        &mut sim,
        &mut log,
        &RolloutDirectory::new(),
        second.finished_at,
        &mut fabric,
        &policy,
    )
    .expect("resume runs");
    let got: Vec<(u64, bool)> = resumed
        .iter()
        .map(|r| (r.rollout, !r.aborted_now))
        .collect();
    assert_eq!(got, owed, "{ctx}: owed rollouts");
    seen.resumed = got.len();
    let settled = check(&mut log, &ctx).expect("still decodes");
    assert!(oracle_owed_rollouts(&settled).is_empty(), "{ctx}");
    seen
}

/// Pinned histories, replayed before any novel one. Between them they
/// reach every corner: failover, compaction, rot under checksums (0), an
/// undecodable prefix that a later leader change heals (3, 7), and one
/// that stays to the end, where recovery is the typed error (19).
const PINNED: [u64; 4] = [0, 3, 7, 19];

#[test]
fn pinned_histories_agree_with_the_from_scratch_oracles() {
    let mut all = Coverage::default();
    let mut ended_undecodable = 0;
    for seed in PINNED {
        let seen = run_history(seed);
        ended_undecodable += u32::from(seen.undecodable_reads > 0 && seen.resolved == 0);
        all.failovers += seen.failovers;
        all.compactions += seen.compactions;
        all.rots += seen.rots;
        all.undecodable_reads += seen.undecodable_reads;
        all.resolved += seen.resolved;
        all.resumed += seen.resumed;
    }
    assert!(
        all.failovers > 0
            && all.compactions > 0
            && all.rots > 0
            && all.undecodable_reads > 0
            && all.resolved > 0
            && all.resumed > 0
            && ended_undecodable > 0,
        "the pinned histories no longer reach every corner: {all:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// After every step of any history the incrementally folded replay
    /// state equals what folding the leader's whole committed prefix from
    /// scratch gives — records, open set, last records, participants,
    /// summary, digest, intended digests, and the error on a prefix that
    /// does not decode — and recovery over it is idempotent.
    #[test]
    fn any_history_folds_to_what_replaying_from_scratch_gives(seed in 0u64..1_000_000) {
        run_history(seed);
    }
}
