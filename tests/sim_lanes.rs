//! Pinned fingerprints for the event queue's fall-backs.
//!
//! The engine keeps a time-ordered source's events on a lane (the loaded
//! schedule, each link) and everything else — commands, hand-scheduled
//! injections, any event that would land out of order on its lane — in a
//! general heap; `(at, seq)` alone decides the pop order whichever
//! container an event sits in. These scenarios, on the benchmark's
//! leaf-spine fabric (see `common/fabric.rs`), are the cases where an
//! event cannot simply be appended to its lane: overlapping and unsorted
//! `load`s, injections scheduled at a loaded entry's instant, a link whose
//! `latency`/`bandwidth_bps`/`busy_until` are edited mid-run so later
//! packets overtake earlier ones, a link connected after
//! `Simulation::new`, and faults under traffic. Every constant was
//! captured on the commit *before* the queue was rebuilt (one
//! `BinaryHeap` of keys over a slab of payloads, delivered packets
//! cloned into `delivered_packets`), so a drift in pop order, in loss
//! accounting, or in what a kept packet holds fails here. The p50 and p99
//! were re-pinned when `Metrics` moved to bounded latency histograms (each
//! is now its bucket's upper bound, less than 1/128 above the exact value);
//! the histogram's exact sum, min and max and an FNV over its buckets were
//! pinned with them, so a latency change the exact percentiles caught still
//! fails here.
//! `tests/sim_pinned.rs` pins the plain path.

#[path = "common/fabric.rs"]
mod fabric;

use fabric::{cross_pod_flow, leaf_spine_fabric};
use flexnet_sim::{generate, Command, Departure, FlowSpec, LossKind, Simulation};
use flexnet_types::{NodeId, SimDuration, SimTime};

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Everything a run reports, folded small enough to pin.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    sent: u64,
    delivered: u64,
    losses: Vec<(LossKind, u64)>,
    latency_mean_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    /// The latency histogram's exact sum, min and max, and an FNV over
    /// its `(bucket, count)` pairs: together as strict as the exact
    /// percentiles pinned before the histogram.
    latency_sum_ns: u128,
    latency_min_ns: u64,
    latency_max_ns: u64,
    latency_buckets: u64,
    /// Rows of `version_counts`, and an FNV over `(node, version, count)`.
    version_rows: usize,
    versions: u64,
    /// FNV over `delivered_packets` ids, in delivery order.
    order: u64,
    /// FNV over every kept packet's ingress time, metadata and trace.
    kept: u64,
}

fn fingerprint(sim: &Simulation) -> Fingerprint {
    let m = &sim.metrics;
    assert!(sim.errors.is_empty(), "{:?}", &sim.errors[..]);
    assert_eq!(m.delivered_packets.len() as u64, m.delivered);
    let ns = |d: Option<SimDuration>| d.map_or(0, |d| d.as_nanos());
    let latencies = m.latencies();
    let mut latency_buckets = FNV_OFFSET;
    for (bucket, n) in latencies.buckets() {
        fnv(&mut latency_buckets, bucket);
        fnv(&mut latency_buckets, n);
    }
    let (mut versions, mut order, mut kept) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for ((node, version), n) in &m.version_counts {
        [node.raw() as u64, version.0, *n]
            .iter()
            .for_each(|v| fnv(&mut versions, *v));
    }
    for pkt in &m.delivered_packets {
        fnv(&mut order, pkt.id);
        fnv(&mut kept, pkt.ingress_time.as_nanos());
        fnv(&mut kept, pkt.wire_len() as u64);
        fnv(
            &mut kept,
            pkt.metadata.get("dst_node").copied().unwrap_or(u64::MAX),
        );
        fnv(&mut kept, pkt.trace.len() as u64);
        for (node, version) in &pkt.trace {
            fnv(&mut kept, node.raw() as u64);
            fnv(&mut kept, version.0);
        }
    }
    Fingerprint {
        sent: m.sent,
        delivered: m.delivered,
        losses: m.losses.iter().map(|(k, n)| (*k, *n)).collect(),
        latency_mean_ns: ns(m.latency_mean()),
        p50_ns: ns(m.latency_percentile(50.0)),
        p99_ns: ns(m.latency_percentile(99.0)),
        latency_sum_ns: latencies.sum(),
        latency_min_ns: latencies.min().unwrap_or(0),
        latency_max_ns: latencies.max().unwrap_or(0),
        latency_buckets,
        version_rows: m.version_counts.len(),
        versions,
        order,
        kept,
    }
}

fn fabric() -> (Simulation, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let (mut sim, spines, leaves, hosts) = leaf_spine_fabric();
    sim.metrics.keep_packets = true;
    (sim, spines, leaves, hosts)
}

const fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// One schedule of all 16 cross-pod flows; ids offset so that several
/// schedules in one run stay distinguishable in the order fingerprint.
fn schedule(
    hosts: &[NodeId],
    mean_pps: u64,
    start: SimTime,
    duration: SimDuration,
    seed: u64,
) -> Vec<Departure> {
    let flows: Vec<FlowSpec> = (0..hosts.len())
        .map(|i| cross_pod_flow(hosts, i, mean_pps, start, duration))
        .collect();
    let mut departures = generate(&flows, seed);
    for d in &mut departures {
        d.packet.id += seed * 1_000_000;
    }
    departures
}

/// Whether some delivered packet left before one injected earlier by the
/// same host.
fn some_flow_was_reordered(sim: &Simulation) -> bool {
    let mut last: std::collections::BTreeMap<NodeId, SimTime> = Default::default();
    sim.metrics.delivered_packets.iter().any(|pkt| {
        let src = pkt.trace[0].0;
        let prev = last.insert(src, pkt.ingress_time);
        prev.is_some_and(|t| t > pkt.ingress_time)
    })
}

#[test]
fn overlapping_loads_interleave_by_time() {
    let (mut sim, _spines, _leaves, hosts) = fabric();
    let ms = SimDuration::from_millis(1);
    // The second schedule starts inside the first; the third is loaded
    // mid-run, before the tails of both.
    sim.load(schedule(&hosts, 200_000, us(1000), ms, 1));
    sim.load(schedule(&hosts, 200_000, us(1500), ms, 2));
    sim.run(us(1800));
    assert!(sim.metrics.sent > 3_000 && sim.metrics.delivered > 0);
    sim.load(schedule(&hosts, 200_000, us(1900), ms, 3));
    sim.run_to_completion();
    assert_eq!(sim.now(), SimTime::MAX);
    assert_eq!(fingerprint(&sim), overlapping_loads());
}

#[test]
fn an_unsorted_load_fires_in_time_order() {
    let (mut sim, _spines, _leaves, hosts) = fabric();
    let mut departures = schedule(&hosts, 300_000, us(1000), SimDuration::from_millis(1), 4);
    let n = departures.len();
    assert!(n > 4_000);
    for i in 0..n {
        departures.swap(i, (i * 7919 + 13) % n);
    }
    assert!(departures.windows(2).any(|w| w[0].at > w[1].at));
    sim.load(departures);
    sim.run_to_completion();
    assert!(
        !some_flow_was_reordered(&sim),
        "the schedule's order is restored"
    );
    assert_eq!(fingerprint(&sim), unsorted_load());
}

#[test]
fn equal_instant_injections_interleave_with_loaded_entries_in_schedule_order() {
    let (mut sim, _spines, _leaves, hosts) = fabric();
    let at = us(1000);
    let mut pool = schedule(&hosts, 400_000, at, SimDuration::from_micros(100), 5);
    assert!(pool.len() > 400);
    for d in &mut pool {
        (d.at, d.packet.ingress_time) = (at, at);
    }
    let program = |src: &str| flexnet_apps::build(src).expect("program builds");
    let drop_all = program("program d kind any { handler ingress(pkt) { drop(); } }");
    let fwd_all = program("program f kind any { handler ingress(pkt) { forward(0); } }");
    // One instant; hand-scheduled injections, loaded entries and program
    // changes on the injecting hosts alternate, so which packets meet the
    // dropping program depends on `seq` order across both containers.
    let mut pool = pool.into_iter();
    for step in 0..40u32 {
        let bundle = if step % 2 == 0 { &drop_all } else { &fwd_all };
        sim.schedule(
            at,
            Command::Install {
                node: hosts[step as usize % 3],
                bundle: bundle.clone(),
            },
        );
        for d in pool.by_ref().take(3) {
            sim.schedule(
                at,
                Command::Inject {
                    node: d.node,
                    packet: d.packet,
                },
            );
        }
        sim.load(pool.by_ref().take(5).collect());
    }
    sim.load(pool.collect());
    sim.run_to_completion();
    assert!(sim.metrics.losses[&LossKind::PolicyDrop] > 0);
    assert_eq!(fingerprint(&sim), equal_instants());
}

#[test]
fn an_edited_link_lets_later_packets_overtake() {
    let (mut sim, _spines, leaves, hosts) = fabric();
    // Leaf 0's uplinks start slow and long: a backlog builds and the link
    // holds hundreds of packets in flight.
    let uplinks: Vec<_> = [100, 101]
        .iter()
        .map(|port| sim.topo.node(leaves[0]).expect("leaf exists").ports[port])
        .collect();
    for &id in &uplinks {
        let link = sim.topo.link_mut(id).expect("uplink exists");
        link.latency = SimDuration::from_micros(400);
        link.bandwidth_bps = 1_000_000_000;
    }
    sim.load(schedule(
        &hosts,
        900_000,
        us(1000),
        SimDuration::from_millis(2),
        6,
    ));
    sim.run(us(2000));
    // Mid-run the links become what the rest of the fabric is, and forget
    // their backlog: what is sent now arrives before what is in flight.
    for &id in &uplinks {
        let link = sim.topo.link_mut(id).expect("uplink exists");
        link.latency = SimDuration::from_micros(2);
        link.bandwidth_bps = 40_000_000_000;
        link.busy_until = SimTime::ZERO;
    }
    sim.run_to_completion();
    assert!(some_flow_was_reordered(&sim));
    assert!(sim.metrics.losses[&LossKind::QueueDrop] > 0);
    assert_eq!(fingerprint(&sim), edited_link());
}

#[test]
fn a_link_connected_after_construction_carries_traffic() {
    let (mut sim, _spines, _leaves, hosts) = fabric();
    sim.load(schedule(
        &hosts,
        200_000,
        us(1000),
        SimDuration::from_millis(1),
        7,
    ));
    sim.run(us(1500));
    // A direct cable between host 0 and its peer, mid-run.
    sim.topo
        .connect(
            hosts[0],
            1,
            hosts[4],
            1,
            SimDuration::from_micros(3),
            10_000_000_000,
        )
        .expect("hosts exist");
    sim.recompute_routes();
    sim.run_to_completion();
    let direct = |trace: &[(NodeId, _)]| trace.len() == 2 && trace[0].0 == hosts[0];
    let kept = &sim.metrics.delivered_packets;
    assert!(kept.iter().any(|p| direct(&p.trace)));
    assert!(kept
        .iter()
        .any(|p| p.trace.len() == 5 && p.trace[0].0 == hosts[0]));
    assert_eq!(fingerprint(&sim), late_link());
}

#[test]
fn faults_under_traffic_lose_what_they_must() {
    let (mut sim, spines, leaves, hosts) = fabric();
    sim.load(schedule(
        &hosts,
        300_000,
        us(1000),
        SimDuration::from_millis(3),
        8,
    ));
    let uplink = sim.topo.node(leaves[1]).expect("leaf exists").ports[&100];
    let cut = |up| Command::SetLinkState { link: uplink, up };
    sim.schedule(us(1400), cut(false));
    sim.schedule(us(1800), cut(true));
    sim.schedule(us(2200), Command::CrashDevice { node: spines[0] });
    sim.schedule(us(2600), Command::RestartDevice { node: spines[0] });
    sim.schedule(us(3000), Command::CrashDevice { node: leaves[2] });
    sim.schedule(us(3300), Command::RestartDevice { node: leaves[2] });
    sim.run(us(3500));
    // A link that fails without the routing substrate hearing of it.
    let silent = sim.topo.node(leaves[3]).expect("leaf exists").ports[&100];
    sim.topo.link_mut(silent).expect("uplink exists").up = false;
    sim.run(us(3700));
    sim.topo.link_mut(silent).expect("uplink exists").up = true;
    sim.run_to_completion();
    for kind in [LossKind::DeviceDown, LossKind::NoRoute, LossKind::LinkDown] {
        assert!(sim.metrics.losses.contains_key(&kind), "{kind:?}");
    }
    assert_eq!(fingerprint(&sim), faults());
}

// -- captured on the parent commit ------------------------------------------

fn overlapping_loads() -> Fingerprint {
    Fingerprint {
        sent: 9744,
        delivered: 9744,
        losses: vec![],
        latency_mean_ns: 31536,
        p50_ns: 31615,
        p99_ns: 31871,
        latency_sum_ns: 307287653,
        latency_min_ns: 31510,
        latency_max_ns: 32229,
        latency_buckets: 5068437078849372021,
        version_rows: 21,
        versions: 5676738662119266852,
        order: 7388940765526750373,
        kept: 15653086208946642663,
    }
}
fn unsorted_load() -> Fingerprint {
    Fingerprint {
        sent: 4751,
        delivered: 4751,
        losses: vec![],
        latency_mean_ns: 31530,
        p50_ns: 31615,
        p99_ns: 31871,
        latency_sum_ns: 149802604,
        latency_min_ns: 31510,
        latency_max_ns: 32159,
        latency_buckets: 17499604951437138427,
        version_rows: 21,
        versions: 11760360176484992079,
        order: 14957964356806807875,
        kept: 16925401069063163729,
    }
}
fn equal_instants() -> Fingerprint {
    Fingerprint {
        sent: 623,
        delivered: 530,
        losses: vec![(LossKind::PolicyDrop, 93)],
        latency_mean_ns: 35536,
        p50_ns: 35583,
        p99_ns: 41727,
        latency_sum_ns: 18834540,
        latency_min_ns: 31510,
        latency_max_ns: 42132,
        latency_buckets: 4383480451094024423,
        version_rows: 36,
        versions: 7620159855325268757,
        order: 9186627285793643347,
        kept: 9985260230926016602,
    }
}
fn edited_link() -> Fingerprint {
    Fingerprint {
        sent: 28876,
        delivered: 28578,
        losses: vec![(LossKind::QueueDrop, 298)],
        latency_mean_ns: 105750,
        p50_ns: 31615,
        p99_ns: 863250,
        latency_sum_ns: 3022126796,
        latency_min_ns: 31510,
        latency_max_ns: 863250,
        latency_buckets: 17337562812941772758,
        version_rows: 21,
        versions: 14425354062716008808,
        order: 10107043770061152489,
        kept: 3696033924542361834,
    }
}
fn late_link() -> Fingerprint {
    Fingerprint {
        sent: 3266,
        delivered: 3266,
        losses: vec![],
        latency_mean_ns: 31401,
        p50_ns: 31615,
        p99_ns: 31743,
        latency_sum_ns: 102556781,
        latency_min_ns: 27043,
        latency_max_ns: 41697,
        latency_buckets: 16536956250154785924,
        version_rows: 21,
        versions: 16771187549840329151,
        order: 10363146628514506971,
        kept: 6357594808109362147,
    }
}
fn faults() -> Fingerprint {
    Fingerprint {
        sent: 14526,
        delivered: 13482,
        losses: vec![
            (LossKind::NoRoute, 742),
            (LossKind::DeviceDown, 33),
            (LossKind::LinkDown, 269),
        ],
        latency_mean_ns: 31531,
        p50_ns: 31615,
        p99_ns: 31871,
        latency_sum_ns: 425113912,
        latency_min_ns: 31510,
        latency_max_ns: 36696,
        latency_buckets: 3496081340072318677,
        version_rows: 24,
        versions: 16085410768056681225,
        order: 8364896555289270556,
        kept: 16915069306829165113,
    }
}
