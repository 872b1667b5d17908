//! Zero-allocation guarantee for the burst hot path (tentpole satellite).
//!
//! After warmup, pumping a packet ring through [`ForwardingGraph::run`] in
//! bursts — the path `flexbench`'s `dev_acl` drives — must perform **zero
//! heap allocations**: the packet ring is mutated in place (traces cleared,
//! not reallocated), the graph's lanes reuse their capacity, and the
//! device's VM scratch persists across bursts. The counting
//! `#[global_allocator]` of `common/counting_alloc.rs` tallies every
//! `alloc`/`realloc` inside the measured window; the steady-state pump must
//! tally none.
//!
//! This file holds exactly one test so no sibling test thread can
//! allocate inside the counting window.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use flexnet_dataplane::{Architecture, Device, ForwardingGraph, StateEncoding};
use flexnet_types::{NodeId, Packet, SimTime};

/// Carries 2048 packets of `ring` through `dev` in bursts of 256 (a burst
/// never wraps the ring), returning how many results came back.
fn pump(graph: &mut ForwardingGraph, dev: &mut Device, ring: &mut [Packet]) -> usize {
    let mut results = 0;
    for _ in 0..2048 / ring.len() {
        for burst in ring.chunks_mut(256) {
            // `record_processing` appends to the trace; clearing keeps the
            // reused ring's memory flat instead of ever-growing.
            burst.iter_mut().for_each(|pkt| pkt.trace.clear());
            results += graph
                .run(dev, burst, SimTime::ZERO)
                .expect("burst runs")
                .results
                .len();
        }
    }
    results
}

#[test]
fn steady_state_burst_pump_performs_zero_allocations() {
    // The bench's ACL workload: the firewall gallery program (map guard +
    // exact-match table + counter) on the default dRMT device, bytecode
    // engine.
    let bundle = flexnet_apps::security::firewall(64).expect("firewall builds");
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(bundle).expect("installs");

    let mut ring: Vec<Packet> = (0..512u64)
        .map(|i| Packet::tcp(i, (i % 251) as u32, (i % 17) as u32, 1, 80, 0))
        .collect();
    let mut graph = ForwardingGraph::standard();

    // Warmup: grows every reused buffer (results, traces, VM scratch) to
    // steady-state capacity.
    for _ in 0..3 {
        pump(&mut graph, &mut dev, &mut ring);
    }

    let (allocs, packets) = counting_alloc::count(|| pump(&mut graph, &mut dev, &mut ring));
    assert_eq!(packets, 2048);
    assert_eq!(
        allocs, 0,
        "steady-state pump must not allocate (counted {allocs} allocations \
         across 2048 packets)"
    );
}
