//! Old-XOR-new across a path, measured.
//!
//! The two-phase commit aligns every participant's flip at one instant
//! (`max(ready_at)`), so each device serves a packet with exactly one
//! version. A packet in flight at that instant can still meet the old
//! program at one hop and the new one at the next: the guarantee is per
//! device, not per path (Reitblatt et al.'s per-packet consistency is the
//! stronger one). This test pins how many delivered packets do so when a
//! transaction reprograms all four leaves of the benchmark fabric under
//! cross-pod load. The count is what a path-consistent design must bring
//! to zero; until then a change that moves it says so.

#[path = "common/fabric.rs"]
mod fabric;

use fabric::{cross_pod_flow, leaf_spine_fabric};
use flexnet_controller::{transactional_reconfig, TxnOutcome};
use flexnet_sim::{generate, FlowSpec};
use flexnet_types::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;

#[test]
fn a_transaction_over_every_leaf_mixes_versions_on_the_paths_in_flight_at_its_flip() {
    let (mut sim, _spines, leaves, hosts) = leaf_spine_fabric();
    sim.metrics.keep_packets = true;
    // The flip lands about 90 ms after the transaction starts; the load
    // covers it.
    let (start, load) = (SimTime::from_millis(5), SimDuration::from_millis(120));
    let flows: Vec<FlowSpec> = (0..hosts.len())
        .map(|i| cross_pod_flow(&hosts, i, 20_000, SimTime::ZERO, load))
        .collect();
    sim.load(generate(&flows, 7));

    sim.run(start);
    let version =
        |sim: &flexnet_sim::Simulation, n: NodeId| sim.topo.node(n).unwrap().device.version();
    let old: BTreeMap<NodeId, _> = leaves.iter().map(|&l| (l, version(&sim, l))).collect();
    let firewall = flexnet_apps::security::firewall(128).expect("firewall builds");
    let targets: Vec<_> = leaves.iter().map(|&l| (l, firewall.clone())).collect();
    let txn = transactional_reconfig(&mut sim, &targets, start);
    assert_eq!(txn.outcome, TxnOutcome::Committed, "{:?}", txn.reason);
    let commit_at = txn
        .commit_at
        .expect("a committed transaction has a flip instant");
    sim.run_to_completion();
    let new: BTreeMap<NodeId, _> = leaves.iter().map(|&l| (l, version(&sim, l))).collect();
    assert!(
        leaves.iter().all(|l| new[l] == old[l].next()),
        "every leaf flipped once"
    );

    let delivered = &sim.metrics.delivered_packets;
    let mixed = delivered
        .iter()
        .filter(|pkt| {
            let at =
                |when: &BTreeMap<NodeId, _>| pkt.trace.iter().any(|(n, v)| when.get(n) == Some(v));
            at(&old) && at(&new)
        })
        .count();
    let flipped_after = delivered
        .iter()
        .filter(|p| p.ingress_time >= commit_at)
        .count();
    println!(
        "{} delivered, {flipped_after} injected after the flip at {commit_at}, {mixed} on mixed paths",
        delivered.len()
    );
    assert_eq!(sim.metrics.total_lost(), 0, "the change is hitless");
    // Two packets crossed their source leaf before the flip and their
    // destination leaf after it.
    assert_eq!(
        mixed, 2,
        "pinned: a changed count is a changed flip alignment or path model"
    );
}
