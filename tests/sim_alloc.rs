//! Allocation budget for the simulation event core.
//!
//! A warmed-up `Simulation::run` on the benchmark's leaf-spine fabric must
//! make **at most 0.21 heap allocations per device hop**, whether or
//! not delivered packets are kept. A packet is parked once in the
//! in-flight table and borrowed there by every device; an event is 32
//! bytes inline in a lane or the heap; the hop count is engine state;
//! node, link and route lookups are index arithmetic; `Device::process`
//! runs on the device's persistent VM scratch; a field store writes one
//! value of the packet's header stack in place; and a kept packet is moved
//! into `delivered_packets`, not cloned. What is left is one reservation of the
//! packet's audit trail when it is injected — one per five hops here — and
//! the doubling of the metrics' vectors: 1 665 allocations over 8 293 hops
//! (1 663 while `Metrics` kept every latency sample in one vector, which
//! doubled as rarely but grew with the packets; the same 1 665 when a
//! packet's headers became one buffer of values, which `generate` builds
//! outside the counted window). (By count the loop made
//! 0.4 per hop while the trail grew twice per flight, 1.6 with
//! `keep_packets` while every delivery was a six-allocation clone, and 3.4
//! before the event core was first rebuilt.)
//!
//! A second phase holds `Metrics` itself to a bounded store: a million
//! deliveries and losses within 10 ms of simulated time allocate exactly
//! what a hundred thousand do.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/fabric.rs"]
mod fabric;

use fabric::{cross_pod_flow, leaf_spine_fabric};
use flexnet_sim::{generate, FlowSpec, LossKind, Metrics, Simulation};
use flexnet_types::{Packet, SimDuration, SimTime};

/// `(allocations, hops)` of the fourth 1 ms slice of 16 cross-pod flows
/// (~1.6 k packets a slice) on a fresh fabric.
fn measured_slice(keep_packets: bool) -> (u64, u64) {
    let (mut sim, _spines, _leaves, hosts) = leaf_spine_fabric();
    sim.metrics.keep_packets = keep_packets;
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
        // Three warm-up slices grow every reused buffer — packet table,
        // lanes and heaps, VM scratch, metrics vectors; the last one's
        // count is kept.
        let before = hops(&sim);
        let (allocs, ()) = counting_alloc::count(|| sim.run(start + slice));
        measured = (allocs, hops(&sim) - before);
    }
    sim.run_to_completion();
    assert_eq!(
        sim.metrics.delivered, sim.metrics.sent,
        "{:?}",
        sim.metrics.losses
    );
    let kept = sim.metrics.delivered_packets.len() as u64;
    assert_eq!(kept, if keep_packets { sim.metrics.sent } else { 0 });
    measured
}

/// Allocations of `calls` deliveries and losses (one in sixteen), spread
/// evenly over `[1 ms, 11 ms)` of simulated time, into a fresh `Metrics`.
/// Latencies take ~50 buckets between 30 and 40 µs, every one of which each
/// slot sees at either call count.
fn metrics_allocs(calls: u64) -> u64 {
    let mut m = Metrics::default();
    let (allocs, ()) = counting_alloc::count(|| {
        for i in 0..calls {
            let at = SimTime::from_nanos(1_000_000 + i * 10_000_000 / calls);
            if i % 16 == 0 {
                m.record_lost(LossKind::QueueDrop, at);
                continue;
            }
            // No headers, no fields, no trail: building it allocates nothing.
            let mut pkt = Packet::new(i, Vec::new(), 0);
            pkt.ingress_time = SimTime::from_nanos(at.as_nanos() - 30_000 - (i * 7919) % 10_000);
            m.record_delivered(pkt, at);
        }
    });
    assert_eq!(m.delivered + m.total_lost(), calls);
    assert_eq!(
        m.timeseries().len(),
        2,
        "[1 ms, 11 ms) spans two 10 ms buckets"
    );
    allocs
}

#[test]
fn warmed_up_leaf_spine_run_allocates_at_most_once_per_four_hops() {
    for keep_packets in [false, true] {
        let (allocs, hops) = measured_slice(keep_packets);
        println!("keep_packets {keep_packets}: {allocs} allocations over {hops} hops");
        assert!(
            hops > 5_000,
            "the measured slice carried traffic: {hops} hops"
        );
        assert!(
            100 * allocs <= 21 * hops,
            "keep_packets {keep_packets}: {allocs} allocations over {hops} hops ({:.3} per hop)",
            allocs as f64 / hops as f64
        );
    }
    let (small, large) = (metrics_allocs(100_000), metrics_allocs(1_000_000));
    println!("Metrics: {small} allocations for 100 k events, {large} for 1 M");
    assert_eq!(
        small, large,
        "the metrics store grows with simulated time, not with events"
    );
}
