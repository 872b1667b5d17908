//! Read cost of the intent log's replay state (`DESIGN.md` §8, "Replay
//! state"): once a log is quiesced, what the control plane reads from it
//! costs the same whether 64 or 1 024 resolved transactions lie behind it.
//!
//! Counted in heap allocations, at both sizes: a `recover` that finds
//! nothing in doubt, the id allocator's high-water mark (`elect`'s
//! derivation), and `IntendedStore::digests_from_log` allocate the *same*
//! number of blocks; `records()` — the one read that is O(history) by
//! contract — allocates its `Vec` and the device lists inside it, and no
//! command `String`. (Before the fold every one of them cloned and
//! re-parsed each committed command.)
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use flexnet_controller::{
    recover, IntendedStore, IntentRecord, LossyFabric, ReplicatedIntentLog, RetryPolicy,
};
use flexnet_sim::{Simulation, Topology};
use flexnet_types::{NodeId, SimTime};
use std::collections::BTreeMap;

/// Transactions between two compactions while the history is written.
const COMPACT_EVERY: u64 = 48;

/// What the reads of one quiesced log allocated.
#[derive(Debug, PartialEq, Eq)]
struct ReadCost {
    recover: u64,
    max_id: u64,
    intended_digests: u64,
}

fn quiesced_log_read_cost(resolved: u64) -> ReadCost {
    let (topo, nodes) = Topology::host_nic_switch_line();
    let devices = [nodes[1], nodes[2], nodes[3]];
    let ids: Vec<u64> = devices.iter().map(|d| u64::from(d.0)).collect();
    let mut sim = Simulation::new(topo);
    let mut log = ReplicatedIntentLog::new(3, 9).expect("cluster elects");

    for txn in 1..=resolved {
        for rec in [
            IntentRecord::Intent {
                txn,
                devices: ids.clone(),
            },
            IntentRecord::Prepared {
                txn,
                devices: ids.clone(),
            },
            IntentRecord::FlipScheduled {
                txn,
                commit_at: SimTime::from_secs(txn),
            },
            IntentRecord::IntendedState {
                txn,
                device: ids[(txn % 3) as usize],
                digest: txn,
            },
            IntentRecord::Committed { txn },
        ] {
            log.append(&rec).expect("append commits");
        }
        if txn % COMPACT_EVERY == 0 {
            log.compact().expect("compaction runs");
        }
    }
    // A failover on top: the successor reads the log it inherits.
    log.kill_leader().expect("leader dies");
    log.elect().expect("successor elected");

    let mut fabric = LossyFabric::reliable();
    let policy = RetryPolicy::default();
    let targets = BTreeMap::new();
    let mut recover_at = |at: u64, log: &mut ReplicatedIntentLog| {
        recover(
            &mut sim,
            log,
            &targets,
            &devices,
            SimTime::from_secs(at),
            &mut fabric,
            &policy,
        )
        .expect("recovery runs")
    };
    let first = recover_at(5_000, &mut log);
    assert!(first.is_noop(), "every transaction was resolved: {first:?}");

    let (recover_allocs, second) = counting_alloc::count(|| recover_at(6_000, &mut log));
    assert!(second.is_noop());
    let (max_id_allocs, max_id) =
        counting_alloc::count(|| log.replay().expect("log decodes").max_id());
    assert_eq!(max_id, resolved);
    let (digest_allocs, digests) =
        counting_alloc::count(|| IntendedStore::digests_from_log(&log).expect("log decodes"));
    let want: BTreeMap<NodeId, u64> = (resolved - 2..=resolved)
        .map(|txn| (devices[(txn % 3) as usize], txn))
        .collect();
    assert_eq!(digests, want);

    let (records_allocs, records) = counting_alloc::count(|| log.records().expect("log decodes"));
    let device_lists = records
        .iter()
        .filter(|r| {
            matches!(
                r,
                IntentRecord::Intent { .. } | IntentRecord::Prepared { .. }
            )
        })
        .count() as u64;
    assert!(
        records.len() as u64 > resolved,
        "the summary keeps a record per resolved transaction"
    );
    assert_eq!(
        records_allocs,
        1 + device_lists,
        "records() of {} records allocates its Vec and {device_lists} device lists, \
         never a command String",
        records.len()
    );

    ReadCost {
        recover: recover_allocs,
        max_id: max_id_allocs,
        intended_digests: digest_allocs,
    }
}

#[test]
fn quiesced_log_reads_cost_the_same_at_any_history_length() {
    let short = quiesced_log_read_cost(64);
    let long = quiesced_log_read_cost(1_024);
    assert_eq!(short.max_id, 0, "the high-water mark is a field read");
    assert_eq!(
        short, long,
        "reads of a quiesced log must not depend on how much history lies behind it"
    );
}
