//! Zero-allocation guarantee for the burst hot path (tentpole satellite).
//!
//! After warmup, one [`BurstDriver::pump`] over a device must perform
//! **zero heap allocations**: the packet ring is mutated in place, the
//! result vector and per-burst log reuse their capacity, and the device's
//! VM scratch persists across bursts. The counting `#[global_allocator]`
//! of `common/counting_alloc.rs` tallies every `alloc`/`realloc` inside the
//! measured window; the steady-state pump must tally none.
//!
//! The wire entry cannot be allocation-free — it builds the packets — but
//! it must add nothing of its own: a warmed-up
//! [`ForwardingGraph::run_sealed`] over clean frames allocates exactly
//! what parsing those frames and stamping each packet's first trace entry
//! allocates.
//!
//! This file holds exactly one test so no sibling test thread can
//! allocate inside the counting window.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use flexnet_dataplane::{
    encode_wire, open_frame, parse_wire, seal_frame, Architecture, Device, ForwardingGraph,
    StateEncoding,
};
use flexnet_sim::BurstDriver;
use flexnet_types::{NodeId, Packet, SimTime};

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

    let ring: Vec<Packet> = (0..512u64)
        .map(|i| Packet::tcp(i, (i % 251) as u32, (i % 17) as u32, 1, 80, 0))
        .collect();
    let mut drv = BurstDriver::new(ring, 256);

    // Warmup: grows every reused buffer (results, log, traces, VM scratch,
    // egress lanes) to steady-state capacity.
    for _ in 0..3 {
        drv.pump(&mut dev, 2048, SimTime::ZERO).expect("warmup pump");
    }

    let (allocs, totals) = counting_alloc::count(|| drv.pump(&mut dev, 2048, SimTime::ZERO));
    let totals = totals.expect("measured pump");
    assert_eq!(totals.packets, 2048);
    assert_eq!(
        allocs, 0,
        "steady-state pump must not allocate (counted {allocs} allocations \
         across 2048 packets)"
    );

    // The wire entry, same device: 256 clean sealed frames per burst.
    let frames: Vec<Vec<u8>> = (0..256u64)
        .map(|i| seal_frame(&encode_wire(&Packet::tcp(i, (i % 251) as u32, 7, 1, 80, 0))))
        .collect();
    let mut graph = ForwardingGraph::standard();
    for _ in 0..3 {
        graph
            .run_sealed(&mut dev, &frames, 0, SimTime::ZERO)
            .expect("warmup burst");
    }
    // What building the packets costs by itself: the parse, and the trace
    // entry each packet's first hop pushes onto an empty `Packet.trace`.
    let (version, node) = (dev.version(), dev.id());
    let (floor, _) = counting_alloc::count(|| {
        for (i, frame) in frames.iter().enumerate() {
            let body = open_frame(frame).expect("clean frame");
            let mut pkt = parse_wire(body, i as u64).expect("well-formed body");
            pkt.record_processing(node, version);
            std::hint::black_box(&pkt);
        }
    });
    let (allocs, admitted) = counting_alloc::count(|| {
        graph
            .run_sealed(&mut dev, &frames, 0, SimTime::ZERO)
            .map(|lanes| lanes.results.len())
    });
    assert_eq!(admitted.expect("measured burst"), frames.len());
    assert_eq!(
        allocs, floor,
        "a steady-state sealed burst must allocate only its packets \
         ({floor} allocations for {} frames)",
        frames.len()
    );
}
