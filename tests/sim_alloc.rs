//! Allocation budget for the simulation event core.
//!
//! A warmed-up `Simulation::run` on the benchmark's leaf-spine fabric must
//! make **at most one heap allocation per two device hops**: the event
//! heap moves 24-byte keys, payloads park in a reused slab, the hop count
//! is engine state, node, link and route lookups are index arithmetic,
//! `Device::process` runs on the device's persistent VM scratch, and a
//! field store writes a flat `(Sym, u64)` slot in place. What is left is
//! the packet's own growing audit trail (two growths over five hops) and
//! the metrics' sample vectors. (The loop made about 3.4 allocations per
//! hop before the event core was rebuilt and 0.6 while the router's TTL
//! store allocated its field name.)
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/fabric.rs"]
mod fabric;

use fabric::{cross_pod_flow, leaf_spine_fabric};
use flexnet_sim::{generate, FlowSpec, Simulation};
use flexnet_types::{SimDuration, SimTime};

#[test]
fn warmed_up_leaf_spine_run_allocates_at_most_once_per_two_hops() {
    let (mut sim, _spines, _leaves, hosts) = leaf_spine_fabric();

    // 16 cross-pod flows, one 1 ms slice at a time (~1.6 k packets each).
    let slice = SimDuration::from_millis(1);
    let mut flows: Vec<FlowSpec> = (0..hosts.len())
        .map(|i| cross_pod_flow(&hosts, i, 100_000, SimTime::ZERO, slice))
        .collect();
    let hops =
        |sim: &Simulation| -> u64 { sim.topo.nodes().map(|n| n.device.stats().processed).sum() };

    let mut measured = (0, 0);
    for n in 0..4u64 {
        let start = SimTime::from_nanos(n * slice.as_nanos());
        flows.iter_mut().for_each(|f| f.start = start);
        sim.load(generate(&flows, n));
        // Three warm-up slices grow every reused buffer — event heap and
        // slab, VM scratch, metrics vectors; the last one's count is kept.
        let before = hops(&sim);
        let (allocs, ()) = counting_alloc::count(|| sim.run(start + slice));
        measured = (allocs, hops(&sim) - before);
    }
    sim.run_to_completion();

    let (allocs, hops) = measured;
    assert_eq!(
        sim.metrics.delivered, sim.metrics.sent,
        "{:?}",
        sim.metrics.losses
    );
    assert!(
        hops > 5_000,
        "the measured slice carried traffic: {hops} hops"
    );
    assert!(
        2 * allocs <= hops,
        "{allocs} allocations over {hops} hops ({:.2} per hop)",
        allocs as f64 / hops as f64
    );
}
