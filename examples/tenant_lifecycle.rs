//! Tenant extensions (paper §1.1/§3 scenario): tenants arrive with custom
//! FlexBPF extensions, the controller validates and composes them onto the
//! infrastructure program with VLAN isolation, and departures reclaim
//! resources — all through hitless runtime reconfiguration.
//!
//! Run with: `cargo run --example tenant_lifecycle`

use flexnet::apps;
use flexnet::prelude::*;

fn main() {
    println!("== Tenant lifecycle ==\n");

    // Infrastructure program: routing + a provided dRPC migration service.
    let infra = parse_source(
        "program infra kind switch {
           counter total;
           service provide migrate_state(dst: u32);
           handler ingress(pkt) { count(total); forward(0); }
         }",
    )
    .map(|f| ProgramBundle {
        headers: f.headers,
        program: f.programs.into_iter().next().unwrap(),
    })
    .unwrap();

    let (topo, sw, hosts) = Topology::single_switch(4);
    let mut sim = Simulation::new(topo);
    let mut controller = Controller::new(infra.clone(), sw, SimTime::ZERO).unwrap();
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: infra,
        },
    );

    // Background traffic across the whole run.
    let flow = FlowSpec::udp_cbr(
        hosts[0],
        hosts[1],
        10_000,
        SimTime::from_millis(1),
        SimDuration::from_secs(5),
    );
    sim.load(generate(&[flow], 3));

    // t=1s: tenant 1 arrives with a firewall extension.
    let (vlan1, composed) = controller
        .tenant_arrive(TenantId(1), apps::security::firewall(64).unwrap(), SimTime::from_secs(1))
        .expect("tenant 1 admitted");
    println!("tenant1 admitted on {vlan1}; composed program has {} states", composed.program.states.len());
    sim.schedule(
        SimTime::from_secs(1),
        Command::RuntimeReconfig {
            node: sw,
            bundle: composed,
        },
    );

    // t=2s: tenant 2 arrives with a heavy-hitter telemetry extension.
    let (vlan2, composed) = controller
        .tenant_arrive(
            TenantId(2),
            apps::telemetry::heavy_hitter(128, 1000).unwrap(),
            SimTime::from_secs(2),
        )
        .expect("tenant 2 admitted");
    println!("tenant2 admitted on {vlan2}");
    sim.schedule(
        SimTime::from_secs(2),
        Command::RuntimeReconfig {
            node: sw,
            bundle: composed,
        },
    );

    // A malicious tenant referencing infrastructure state is rejected.
    let evil = parse_source("program evil { handler ingress(pkt) { count(total); } }")
        .map(|f| ProgramBundle {
            headers: f.headers,
            program: f.programs.into_iter().next().unwrap(),
        })
        .unwrap();
    match controller.tenant_arrive(TenantId(666), evil, SimTime::from_secs(2)) {
        Err(e) => println!("tenant666 rejected by access control: {e}"),
        Ok(_) => unreachable!("access control must reject"),
    }

    // t=3s: tenant 1 departs; its elements are reclaimed.
    let composed = controller.tenant_depart(TenantId(1)).unwrap();
    sim.schedule(
        SimTime::from_secs(3),
        Command::RuntimeReconfig {
            node: sw,
            bundle: composed,
        },
    );
    println!("tenant1 departed; VLAN released and resources reclaimed");

    sim.run_to_completion();

    println!(
        "\nTraffic: sent {}, delivered {}, lost {} (hitless churn)",
        sim.metrics.sent,
        sim.metrics.delivered,
        sim.metrics.total_lost()
    );
    println!(
        "Reconfigurations: {}; switch program versions seen by packets: {:?}",
        sim.reconfig_reports.len(),
        sim.metrics.versions_seen(sw)
    );
    let dev = &sim.topo.node(sw).unwrap().device;
    let program = dev.program().unwrap();
    println!(
        "Final composed program: {} tables, {} states (tenant2's remain: {})",
        program.bundle().program.tables.len(),
        program.bundle().program.states.len(),
        program.bundle().program.state("t2_counts").is_some()
    );
    println!(
        "Apps registry: {} running apps; tenant2 telemetry registered: {}",
        controller.apps.running(),
        controller
            .apps
            .lookup(&AppUri::new("tenant2", "heavy_hitter").unwrap())
            .is_some()
    );
}
