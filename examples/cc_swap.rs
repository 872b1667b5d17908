//! Live infrastructure customization (paper §1.1): swap the congestion-
//! control stack — host, NIC, and switch components together — at runtime,
//! using the fungible-datapath splitter to place each component at its
//! tier.
//!
//! Run with: `cargo run --example cc_swap`

use flexnet::apps::cc;
use flexnet::prelude::*;

fn main() {
    println!("== Live CC customization ==\n");

    // The vertical stack: host -> NIC -> switch -> NIC -> host.
    let (topo, [h1, n1, sw, n2, h2]) = Topology::host_nic_switch_line();

    // Describe the DCTCP datapath as a logical chain; the compiler decides
    // which physical device hosts each component (paper §3.1).
    let dctcp = LogicalDatapath::new(
        "cc/dctcp",
        vec![
            Component::new("cc_host", cc::dctcp_host().unwrap()),
            Component::new("ecn_switch", cc::ecn_marking(50).unwrap()),
        ],
    );
    let mut path: Vec<TargetView> = [h1, n1, sw, n2, h2]
        .iter()
        .map(|&n| TargetView::of_device(&topo.node(n).unwrap().device))
        .collect();
    let split = split_datapath(&dctcp, &mut path).expect("splits");
    println!("DCTCP placement:");
    for (comp, node) in &split.placement.assignments {
        println!("  {comp:<12} -> {node}");
    }
    println!("  estimated added latency: {}\n", split.est_latency);

    // Drive the network: install the placed components, run traffic.
    let mut sim = Simulation::new(topo);
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: split.placement.node_of("cc_host").unwrap(),
            bundle: cc::dctcp_host().unwrap(),
        },
    );
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: split.placement.node_of("ecn_switch").unwrap(),
            bundle: cc::ecn_marking(50).unwrap(),
        },
    );
    let flow = FlowSpec {
        proto: 6,
        ..FlowSpec::udp_cbr(
            h1,
            h2,
            20_000,
            SimTime::from_millis(1),
            SimDuration::from_secs(4),
        )
    };
    sim.load(generate(&[flow], 5));

    // Workload shifts at t=2s: the operator swaps to an HPCC-like stack —
    // NIC-based rate control — without stopping traffic.
    sim.schedule(
        SimTime::from_secs(2),
        Command::RuntimeReconfig {
            node: n1,
            bundle: cc::hpcc_nic().unwrap(),
        },
    );
    sim.schedule(
        SimTime::from_secs(2),
        Command::RuntimeReconfig {
            node: sw,
            bundle: flexnet::apps::routing::l3_router(64).unwrap(),
        },
    );

    sim.run_to_completion();

    println!("After the runtime swap at t=2s:");
    println!(
        "  sent {}, delivered {}, lost {} (hitless: {})",
        sim.metrics.sent,
        sim.metrics.delivered,
        sim.metrics.total_lost(),
        sim.metrics.total_lost() == 0
    );
    for (t, node, rep) in &sim.reconfig_reports {
        println!("  reconfig at {t} on {node}: {} ops, {}", rep.ops, rep.duration);
    }
    let nic_dev = &sim.topo.node(n1).unwrap().device;
    println!(
        "  NIC now runs `{}` (version {})",
        nic_dev.program().unwrap().bundle().program.name,
        nic_dev.version()
    );
    let host_dev = &sim.topo.node(h1).unwrap().device;
    println!(
        "  host DCTCP window after run: {} segments",
        host_dev.program().unwrap().state.reg_read("cwnd", 0)
    );
}
