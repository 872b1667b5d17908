//! Property tests for crash-consistent durable control state (ISSUE 9,
//! experiment E21):
//!
//! - the recovery scrub is a *projection*: scrubbing the bytes it kept
//!   changes nothing (truncation is idempotent), and scanning any crash
//!   prefix of the synced region yields a record-exact prefix of what
//!   was appended — never a phantom record, never a reordering;
//! - `compact_records` preserves replay semantics: the snapshot summary
//!   plus any log tail digests identically to the full log, and
//!   compaction is idempotent;
//! - `NodeStorage::recover` replays exactly the tail after the snapshot
//!   point — recovery work is O(tail), not O(history);
//! - the full storage-chaos harness converges for *any* seed with
//!   checksums armed.

use flexnet_bench::suites::storage;
use flexnet_bench::{Arm, Report};
use flexnet_controller::storage::{encode_entry, encode_record, scrub, NodeStorage};
use flexnet_controller::wal::IntentRecord;
use flexnet_types::SimTime;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Arbitrary WAL payloads: raft log entries with arbitrary terms and
/// commands (including empty and non-ASCII ones).
fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        (0u64..1000, "[a-z0-9 ]{0,24}").prop_map(|(term, cmd)| encode_entry(term, &cmd)),
        0..24,
    )
}

fn arb_record() -> impl Strategy<Value = IntentRecord> {
    let devices = proptest::collection::vec(1u64..16, 0..6);
    prop_oneof![
        (1u64..64, devices.clone())
            .prop_map(|(txn, devices)| IntentRecord::Intent { txn, devices }),
        (1u64..64, devices).prop_map(|(txn, devices)| IntentRecord::Prepared { txn, devices }),
        (1u64..64, any::<u32>()).prop_map(|(txn, ns)| IntentRecord::FlipScheduled {
            txn,
            commit_at: SimTime::from_nanos(u64::from(ns)),
        }),
        (1u64..64).prop_map(|txn| IntentRecord::Committed { txn }),
        (1u64..64).prop_map(|txn| IntentRecord::Aborted { txn }),
        (1u64..64, 1u64..16, any::<u64>()).prop_map(|(txn, device, digest)| {
            IntentRecord::IntendedState { txn, device, digest }
        }),
    ]
}

proptest! {
    /// Scrubbing the verified prefix of a scrub is a no-op: same
    /// records, nothing further to truncate. Recovery can run any
    /// number of times (crash during recovery included) and lands on
    /// the same log.
    #[test]
    fn scrub_then_truncate_is_idempotent(
        payloads in arb_payloads(),
        cut_back in 0usize..64,
        flip in (any::<bool>(), 0usize..4096, 0u8..8),
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        for p in &payloads {
            bytes.extend(encode_record(p));
        }
        // Damage the image arbitrarily: drop a suffix (torn tail) and
        // optionally flip one bit (rot).
        let cut = bytes.len().saturating_sub(cut_back);
        bytes.truncate(cut);
        let (do_flip, pos, bit) = flip;
        if do_flip && !bytes.is_empty() {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        let first = scrub(&bytes, 0, true);
        bytes.truncate(first.valid_bytes);
        let second = scrub(&bytes, 0, true);
        prop_assert_eq!(&second.payloads, &first.payloads);
        prop_assert_eq!(second.valid_bytes, first.valid_bytes);
        prop_assert!(!second.truncated, "second scrub must be clean");
        prop_assert!(second.fault.is_none());
    }

    /// A crash exposes an arbitrary prefix of the synced bytes. Whatever
    /// the cut, the scrub recovers an exact record-prefix of what was
    /// appended: every verified payload matches the original at its
    /// position, and a mid-record cut costs exactly the in-flight
    /// record, never a synced predecessor.
    #[test]
    fn any_crash_prefix_recovers_an_exact_record_prefix(
        payloads in arb_payloads(),
        cut_back in 0usize..4096,
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        for p in &payloads {
            bytes.extend(encode_record(p));
        }
        let cut = bytes.len().saturating_sub(cut_back);
        let out = scrub(&bytes[..cut], 0, true);
        prop_assert!(out.payloads.len() <= payloads.len(), "no phantom records");
        for (i, got) in out.payloads.iter().enumerate() {
            prop_assert_eq!(got, &payloads[i], "record {} must match", i);
        }
        // The verified prefix may fall short of the cut only by the one
        // torn record the cut bisected.
        if out.payloads.len() < payloads.len() {
            let next_full = out.valid_bytes + encode_record(&payloads[out.payloads.len()]).len();
            prop_assert!(cut < next_full, "a fully-synced record may never be dropped");
        }
    }

    /// The snapshot summary replays to the same recovery state as the
    /// prefix it folded: for any split point, digest(summary + tail) ==
    /// digest(full log). This is the invariant that makes compaction
    /// safe to run at any committed index.
    #[test]
    fn snapshot_plus_tail_replays_to_the_full_log_digest(
        records in proptest::collection::vec(arb_record(), 0..40),
        split in 0usize..40,
    ) {
        use flexnet_controller::{compact_records, replay_digest};
        let split = split.min(records.len());
        let mut folded = compact_records(&records[..split]);
        folded.extend(records[split..].iter().cloned());
        prop_assert_eq!(replay_digest(&folded), replay_digest(&records));
        // Compaction is idempotent: folding a summary changes nothing.
        let summary = compact_records(&records);
        prop_assert_eq!(compact_records(&summary), summary);
    }

    /// Recovery replay is O(tail): after compacting through an arbitrary
    /// point, a crash+recover replays exactly the entries behind the
    /// snapshot — no re-read of folded history, no catch-up demotion.
    #[test]
    fn recovery_replays_exactly_the_tail_after_the_snapshot(
        n in 1usize..40,
        at_frac in 0u32..=100,
    ) {
        let mut storage = NodeStorage::fault_free(7);
        let cmds: Vec<String> = (0..n).map(|i| format!("cmd {i}")).collect();
        for (i, cmd) in cmds.iter().enumerate() {
            storage.sync_log(i as u64, &[(1, cmd.clone())]).expect("append");
        }
        let at = (n * at_frac as usize) / 100;
        storage
            .compact_snapshot(at as u64, 1, &cmds[..at])
            .expect("compact");
        storage.crash();
        let rec = storage.recover();
        prop_assert_eq!(rec.base_index, at as u64);
        prop_assert_eq!(rec.entries.len(), n - at, "replay is the tail, exactly");
        for (i, (term, cmd)) in rec.entries.iter().enumerate() {
            prop_assert_eq!(*term, 1u64);
            prop_assert_eq!(cmd, &cmds[at + i]);
        }
        prop_assert!(!rec.needs_catchup, "clean recovery must keep its vote");
    }
}

proptest! {
    // Each case is a full storage-chaos scenario (crash/rot/failover/
    // recovery/grading), so keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With checksums armed, *any* seed converges: torn tails truncate
    /// at the fsync barrier, rot demotes or falls back a generation,
    /// and every replica replays to the leader's digest.
    #[test]
    fn any_seed_replays_to_one_state(seed in 0u64..1_000_000) {
        let report = storage::run(seed, Arm::Protected).expect("harness runs");
        prop_assert!(
            report.passed(),
            "seed {} ({}): {:?}",
            seed,
            report.schedule.scenario.label(),
            report.violations
        );
        prop_assert!(report.delivered > 0, "traffic must flow after healing");
    }
}
