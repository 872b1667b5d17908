//! The benchmark's fabric, for the simulation event-core tests:
//! `Topology::leaf_spine(2, 4, 4)` with `firewall(64)` on the leaves and
//! `l3_router(256)` on the spines, and cross-pod Poisson TCP flows.

use flexnet_sim::{FlowSpec, Pattern, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime};

/// The simulation plus its `(spines, leaves, hosts)`.
pub fn leaf_spine_fabric() -> (Simulation, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let (topo, spines, leaves, hosts) = Topology::leaf_spine(2, 4, 4);
    let mut sim = Simulation::new(topo);
    let firewall = flexnet_apps::security::firewall(64).expect("firewall builds");
    let router = flexnet_apps::routing::l3_router(256).expect("router builds");
    for (nodes, bundle) in [(&leaves, &firewall), (&spines, &router)] {
        for &node in nodes {
            let dev = &mut sim.topo.node_mut(node).expect("node exists").device;
            dev.install(bundle.clone()).expect("installs");
        }
    }
    (sim, spines, leaves, hosts)
}

/// Host `i`'s flow of minimum-size TCP packets to the host one pod over.
pub fn cross_pod_flow(
    hosts: &[NodeId],
    i: usize,
    mean_pps: u64,
    start: SimTime,
    duration: SimDuration,
) -> FlowSpec {
    let (src, dst) = (hosts[i], hosts[(i + 4) % hosts.len()]);
    FlowSpec {
        src_node: src,
        dst_node: dst,
        src_ip: 0x0a00_0000 | src.raw(),
        dst_ip: 0x0a00_0000 | dst.raw(),
        src_port: 1024 + i as u16,
        dst_port: 80,
        proto: 6,
        pattern: Pattern::Poisson { mean_pps },
        start,
        duration,
        payload: 0,
    }
}
