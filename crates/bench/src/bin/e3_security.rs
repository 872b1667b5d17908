//! E3 — Real-time security: summoning, scaling, and retiring a defense
//! (paper §1.1).
//!
//! "Runtime programmable defenses can be summoned into the network
//! on-the-fly and retired when attacks subside. Such defenses are also
//! elastic, capable of scaling, replicating, and migrating to other
//! locations based on changing attack strengths and patterns."
//!
//! A SYN flood of varying intensity hits a victim. We compare
//! time-to-mitigation and attack leakage for (a) FlexNet runtime injection
//! and (b) the compile-time redeploy baseline, then show the elastic
//! scaler tracking the attack volume.

use flexnet::apps::security;
use flexnet::prelude::*;
use flexnet_bench::scale::{ElasticScaler, ScalingPolicy};
use flexnet_bench::{header, row, sep};

const DETECTION_DELAY_MS: u64 = 50;

fn run_attack(mode: &str, attack_pps: u64) -> (u64, u64, SimDuration, SimDuration) {
    let (topo, sw, hosts) = Topology::single_switch(3);
    let victim = hosts[0];
    let mut sim = Simulation::new(topo);
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: flexnet::apps::routing::l3_router(64).unwrap(),
        },
    );
    // Legit background traffic.
    sim.load(generate(
        &[FlowSpec::udp_cbr(
            hosts[1],
            victim,
            2_000,
            SimTime::from_millis(1),
            SimDuration::from_secs(5),
        )],
        1,
    ));
    // Attack: starts at t=1s, lasts 3s.
    let victim_ip = 0x0a00_0000 | victim.raw();
    let attack = syn_flood(
        hosts[2],
        victim,
        victim_ip,
        attack_pps,
        SimTime::from_secs(1),
        SimDuration::from_secs(3),
        7,
    );
    let attack_total = attack.len() as u64;
    sim.load(attack);

    // Defense deployment at detection time (attack start + detection delay).
    let deploy_at = SimTime::from_millis(1_000 + DETECTION_DELAY_MS);
    let defense = security::syn_defense(50, 500).unwrap();
    let mitigated_at = match mode {
        "flexnet" => {
            sim.schedule(
                deploy_at,
                Command::RuntimeReconfig {
                    node: sw,
                    bundle: defense,
                },
            );
            sim.run_to_completion();
            sim.reconfig_reports[0].2.ready_at
        }
        _ => {
            sim.schedule(
                deploy_at,
                Command::Reflash {
                    node: sw,
                    bundle: defense,
                },
            );
            sim.run_to_completion();
            sim.reconfig_reports[0].2.ready_at
        }
    };
    let time_to_mitigate = mitigated_at.saturating_since(SimTime::from_secs(1));

    // Attack packets that reached the victim = delivered with attack mark.
    // We approximate from totals: delivered minus legit offered-and-kept.
    let legit_total = 10_000u64; // 2kpps x 5s
    let legit_lost = sim
        .metrics
        .losses
        .get(&LossKind::Refused)
        .copied()
        .unwrap_or(0)
        .min(legit_total);
    let attack_leaked = sim
        .metrics
        .delivered
        .saturating_sub(legit_total - legit_lost);
    let legit_downtime = sim.metrics.disruption_window().unwrap_or(SimDuration::ZERO);
    (
        attack_leaked,
        attack_total,
        time_to_mitigate,
        legit_downtime,
    )
}

fn main() {
    header(
        "E3",
        "real-time security response",
        "defenses summoned on-the-fly, elastic with attack volume, retired after \
         (paper \u{a7}1.1)",
    );

    println!("\n--- time-to-mitigate and attack leakage vs attack intensity ---\n");
    row(&[
        "attack-pps",
        "system",
        "mitigate-in",
        "leaked",
        "of-attack",
        "legit-downtime",
    ]);
    sep(6);
    for attack_pps in [10_000u64, 50_000, 100_000] {
        for mode in ["flexnet", "reflash"] {
            let (leaked, total, ttm, downtime) = run_attack(mode, attack_pps);
            row(&[
                &attack_pps.to_string(),
                mode,
                &ttm.to_string(),
                &leaked.to_string(),
                &total.to_string(),
                &downtime.to_string(),
            ]);
        }
        sep(6);
    }

    println!("\n--- elastic scaling follows the attack (per-replica 20 kpps) ---\n");
    let mut scaler = ElasticScaler::new(
        ScalingPolicy {
            per_replica_pps: 20_000,
            min_replicas: 0,
            ..ScalingPolicy::default()
        },
        1,
    );
    row(&["t", "attack-pps", "replicas", "decision"]);
    sep(4);
    let profile: &[(u64, u64)] = &[
        (0, 0),
        (1_000, 10_000),
        (2_000, 60_000),
        (3_000, 140_000),
        (4_000, 60_000),
        (5_000, 5_000),
        (6_000, 0),
        (7_000, 0),
    ];
    for (ms, pps) in profile {
        let d = scaler.observe(*pps, SimTime::from_millis(*ms));
        row(&[
            &format!("{}ms", ms),
            &pps.to_string(),
            &scaler.replicas().to_string(),
            &format!("{d:?}"),
        ]);
    }
    println!(
        "\nshape check: FlexNet mitigates in ~{}ms (detection + sub-second \
         reconfig) with zero legitimate downtime; redeploy takes ~25s, and any \
         attack it \"stops\" during that window it stops only by refusing ALL \
         traffic — legitimate service is down the whole time. Replicas track \
         the attack and drop to zero when it ends (defense retired).",
        DETECTION_DELAY_MS + 100
    );
}
