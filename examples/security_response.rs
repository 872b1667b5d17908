//! Real-time security (paper §1.1): a SYN flood hits, the controller
//! summons a defense into the network at runtime, scales it with the attack
//! volume, and retires it once the attack subsides.
//!
//! Run with: `cargo run --example security_response`

use flexnet::apps::security;
use flexnet::prelude::*;
use flexnet_bench::scale::{ElasticScaler, ScalingPolicy};

fn main() {
    println!("== Real-time security response ==\n");

    let (topo, sw, hosts) = Topology::single_switch(3);
    let victim = hosts[0];
    let attacker_entry = hosts[2];
    let mut sim = Simulation::new(topo);

    // Baseline: plain routing, no defense resident (no static footprint).
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: flexnet::apps::routing::l3_router(64).unwrap(),
        },
    );

    // Legitimate traffic throughout.
    let legit = FlowSpec::udp_cbr(
        hosts[1],
        victim,
        5_000,
        SimTime::from_millis(1),
        SimDuration::from_secs(6),
    );
    sim.load(generate(&[legit], 1));

    // The attack: 50k SYNs/s for two seconds, starting at t=1s.
    let victim_ip = 0x0a00_0000 | victim.raw();
    sim.load(syn_flood(
        attacker_entry,
        victim,
        victim_ip,
        50_000,
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
        7,
    ));

    // Controller playbook (the pilot, §3.4): detection at t=1.05s (attack
    // telemetry crosses the threshold), defense summoned at runtime.
    let defense = security::syn_defense(100, 1_000).unwrap();
    sim.schedule(
        SimTime::from_millis(1050),
        Command::RuntimeReconfig {
            node: sw,
            bundle: defense,
        },
    );

    // Elastic scaling decisions as the attack ramps and subsides.
    let mut scaler = ElasticScaler::new(
        ScalingPolicy {
            per_replica_pps: 20_000,
            ..ScalingPolicy::default()
        },
        1,
    );
    for (t_ms, offered) in [
        (1_100u64, 55_000u64), // attack at full blast
        (2_000, 55_000),
        (3_100, 5_000), // attack over
        (4_000, 5_000),
    ] {
        let d = scaler.observe(offered, SimTime::from_millis(t_ms));
        println!(
            "t={:>4}ms offered={:>6} pps -> replicas {} ({d:?})",
            t_ms,
            offered,
            scaler.replicas()
        );
    }

    // Attack subsides; defense retired at t=4s (resources reclaimed).
    sim.schedule(
        SimTime::from_secs(4),
        Command::RuntimeReconfig {
            node: sw,
            bundle: flexnet::apps::routing::l3_router(64).unwrap(),
        },
    );

    sim.run_to_completion();

    let attack_dropped = sim
        .metrics
        .losses
        .get(&LossKind::PolicyDrop)
        .copied()
        .unwrap_or(0);
    println!("\nAttack packets dropped by the summoned defense: {attack_dropped}");
    println!(
        "Legitimate delivery: {} of {} sent (loss sources: {:?})",
        sim.metrics.delivered, sim.metrics.sent, sim.metrics.losses
    );
    println!(
        "Reconfigurations performed: {} (all hitless, total transition time {})",
        sim.reconfig_reports.len(),
        sim.reconfig_reports
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, _, r)| acc + r.duration)
    );
    let final_util = sim.topo.node(sw).unwrap().device.utilization();
    println!(
        "Switch utilization after retiring the defense: {:.1}% (resources reclaimed)",
        final_util * 100.0
    );
}
