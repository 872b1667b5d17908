//! The pinned leaf-spine scenario shared by `sim_pinned.rs` and
//! `sym_order.rs`: one seeded ~10 k-packet run with a hitless leaf
//! reconfiguration, a spine-link cut, a spine reboot and a leaf reboot
//! landing mid-traffic, and the figures it must reproduce.

use super::fabric::{cross_pod_flow, leaf_spine_fabric};
use flexnet_sim::{generate, Command, FlowSpec, LossKind};
use flexnet_types::{NodeId, ProgramVersion, SimDuration, SimTime};

/// Runs the seeded scenario and asserts every pinned figure.
pub fn assert_seeded_leaf_spine_run_matches_pinned_numbers() {
    let (mut sim, spines, leaves, hosts) = leaf_spine_fabric();

    // A steady trickle for the whole run plus a 0.2 ms burst that loads
    // every host to 60 % of its 5 Mpps, so device and link queues build.
    let ms = SimTime::from_millis;
    let flows: Vec<FlowSpec> = (0..hosts.len())
        .flat_map(|i| {
            [
                cross_pod_flow(&hosts, i, 2_100, ms(1), SimDuration::from_millis(150)),
                cross_pod_flow(&hosts, i, 1_500_000, ms(20), SimDuration::from_micros(200)),
            ]
        })
        .collect();
    sim.load(generate(&flows, 12));

    // Control and faults under live traffic: a hitless change on leaf 0
    // (flips ~0.1 s later, inside the run), leaf 1 loses its uplink to
    // spine 0 for a while, spine 0 reboots, leaf 2 reboots.
    sim.schedule(
        ms(5),
        Command::RuntimeReconfig {
            node: leaves[0],
            bundle: flexnet_apps::security::firewall(32).expect("firewall builds"),
        },
    );
    let uplink = sim.topo.node(leaves[1]).expect("leaf exists").ports[&100];
    sim.schedule(
        ms(40),
        Command::SetLinkState {
            link: uplink,
            up: false,
        },
    );
    sim.schedule(
        ms(60),
        Command::SetLinkState {
            link: uplink,
            up: true,
        },
    );
    sim.schedule(ms(70), Command::CrashDevice { node: spines[0] });
    sim.schedule(ms(80), Command::RestartDevice { node: spines[0] });
    sim.schedule(ms(100), Command::CrashDevice { node: leaves[2] });
    sim.schedule(ms(105), Command::RestartDevice { node: leaves[2] });
    sim.run_to_completion();

    let m = &sim.metrics;
    assert!(sim.errors.is_empty(), "{:?}", &sim.errors[..]);
    assert_eq!(m.sent, SENT);
    assert_eq!(m.delivered, DELIVERED);
    let losses: Vec<(LossKind, u64)> = m.losses.iter().map(|(k, n)| (*k, *n)).collect();
    assert_eq!(losses, LOSSES);
    assert_eq!(
        m.latency_mean(),
        Some(SimDuration::from_nanos(LATENCY_MEAN_NS))
    );
    assert_eq!(
        m.latency_percentile(50.0),
        Some(SimDuration::from_nanos(P50_NS))
    );
    assert_eq!(
        m.latency_percentile(99.0),
        Some(SimDuration::from_nanos(P99_NS))
    );
    let versions: Vec<(u32, u64, u64)> = m
        .version_counts
        .iter()
        .map(|((NodeId(n), ProgramVersion(v)), c)| (*n, *v, *c))
        .collect();
    assert_eq!(versions, VERSION_COUNTS);
    let flips: Vec<SimTime> = sim.reconfig_reports.iter().map(|r| r.2.ready_at).collect();
    assert_eq!(flips, [SimTime::from_millis(85)]);
}

const SENT: u64 = 9935;
const DELIVERED: u64 = 9866;
/// Hosts behind the rebooting leaf have nowhere to send for 5 ms.
const LOSSES: &[(LossKind, u64)] = &[(LossKind::NoRoute, 69)];
const LATENCY_MEAN_NS: u64 = 31_625;
const P50_NS: u64 = 31_510;
const P99_NS: u64 = 32_525;
/// `(node, program version, packets)` over delivered packets' traces:
/// spines 0–1, leaves 2–5 (leaf 2 flips to version 2 at 85 ms; a reboot
/// bumps the version too), hosts 6–21.
const VERSION_COUNTS: &[(u32, u64, u64)] = &[
    (0, 1, 6887),
    (0, 2, 2324),
    (1, 1, 655),
    (2, 1, 3779),
    (2, 2, 1101),
    (3, 1, 4973),
    (4, 1, 4197),
    (4, 2, 789),
    (5, 1, 4893),
    (6, 0, 1222),
    (7, 0, 1245),
    (8, 0, 1194),
    (9, 0, 1219),
    (10, 0, 1235),
    (11, 0, 1261),
    (12, 0, 1248),
    (13, 0, 1229),
    (14, 0, 1264),
    (15, 0, 1263),
    (16, 0, 1257),
    (17, 0, 1202),
    (18, 0, 1251),
    (19, 0, 1247),
    (20, 0, 1203),
    (21, 0, 1192),
];
