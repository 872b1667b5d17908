//! Deterministic integration tests for the ISSUE acceptance scenarios:
//!
//! (a) a device crash during the prepare phase of a transactional hitless
//!     reconfiguration aborts the transaction with zero packet loss and a
//!     full rollback on the surviving participants;
//! (b) after a controller-fabric partition heals, the failure detector
//!     recovers within a bounded time and control operations succeed again;
//! (c) dRPC invocations succeed under ≤30% control-message loss via
//!     retry with exponential backoff.

use flexnet_controller::core::{Controller, Health, HealthEvent};
use flexnet_controller::drpc::{ExecutionSite, ServiceRegistry};
use flexnet_controller::retry::{invoke_with_retry, LossyFabric, RetryPolicy};
use flexnet_controller::txn::{transactional_reconfig, TxnOutcome};
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_sim::workload::{generate, FlowSpec};
use flexnet_sim::{Command, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime};

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

fn v1() -> ProgramBundle {
    bundle("program app kind any { handler ingress(pkt) { forward(0); } }")
}

fn v2() -> ProgramBundle {
    bundle(
        "program app kind any {
           counter c;
           handler ingress(pkt) { count(c); forward(0); }
         }",
    )
}

/// (a) Crash during prepare: the transaction aborts, live traffic sees
/// zero loss, and the surviving participant is rolled back exactly.
#[test]
fn crash_during_prepare_aborts_with_zero_packet_loss() {
    let (topo, sw, hosts) = Topology::single_switch(3);
    let mut sim = Simulation::new(topo);
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: v1(),
        },
    );
    // 2 kpps from host 0 to host 1 for 2 s, through the switch.
    sim.load(generate(
        &[FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            2000,
            SimTime::from_millis(1),
            SimDuration::from_secs(2),
        )],
        7,
    ));
    // Run the first half, then a bystander participant (host 2's device,
    // off the traffic path) crashes just before the transaction.
    sim.run(SimTime::from_secs(1));
    let t1 = SimTime::from_secs(1);
    sim.topo.node_mut(hosts[2]).unwrap().device.crash(t1);

    // Transactional reconfig spanning the switch and the crashed device:
    // the switch prepares its shadow, the crashed device fails prepare,
    // the coordinator rolls the switch back.
    let before = sim.topo.node(sw).unwrap().device.program().unwrap().clone();
    let version_before = sim.topo.node(sw).unwrap().device.version();
    let targets = vec![(sw, v2()), (hosts[2], v2())];
    let report = transactional_reconfig(&mut sim, &targets, t1);
    assert_eq!(report.outcome, TxnOutcome::Aborted);
    assert_eq!(report.prepared, 1, "only the switch prepared");
    assert!(report.reason.as_deref().unwrap().contains("unavailable"));
    let rollback = report.rollback_latency.unwrap();
    assert!(
        rollback <= SimDuration::from_millis(100),
        "rollback latency bounded, got {rollback}"
    );

    // The switch is exactly as before the transaction.
    let dev = &sim.topo.node(sw).unwrap().device;
    assert!(!dev.reconfig_in_progress());
    let after = dev.program().unwrap();
    assert_eq!(after.bundle(), before.bundle(), "program image restored");
    assert_eq!(dev.version(), version_before, "no version flip");

    // Traffic never noticed: every packet of the 2 s flow is delivered.
    sim.run_to_completion();
    assert_eq!(sim.metrics.total_lost(), 0, "{:?}", sim.metrics.losses);
    assert_eq!(sim.metrics.delivered, sim.metrics.sent);
}

/// (b) A controller-fabric partition makes every device look dead; once
/// the partition heals the detector recovers within one sweep period plus
/// `suspect_after`, and transactional control works again.
#[test]
fn partition_heal_recovers_within_bound() {
    let (topo, sw, _hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    sim.topo.node_mut(sw).unwrap().device.install(v1()).unwrap();
    let infra = bundle(
        "program infra kind switch {
           service provide migrate_state(dst: u32);
           handler ingress(pkt) { forward(0); }
         }",
    );
    let mut c = Controller::new(infra, sw, SimTime::ZERO).unwrap();

    let period = SimDuration::from_millis(50);
    let heal_at = SimTime::from_secs(2);
    let mut healthy = LossyFabric::reliable();
    let mut partitioned = LossyFabric::new(1.0, 5);
    let mut dead_seen_at = None;
    let mut recovered_at = None;
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(3) {
        // The partition swallows every heartbeat during [1 s, 2 s).
        let partitioned_now = t >= SimTime::from_secs(1) && t < heal_at;
        let fabric = if partitioned_now {
            &mut partitioned
        } else {
            &mut healthy
        };
        for (node, event) in c.sweep_heartbeats(&sim, fabric, t) {
            if node == sw && event == HealthEvent::Graded(Health::Dead) {
                dead_seen_at.get_or_insert(t);
            }
            if node == sw && event == HealthEvent::Graded(Health::Healthy) && dead_seen_at.is_some()
            {
                recovered_at.get_or_insert(t);
            }
        }
        t += period;
    }
    let dead_seen_at = dead_seen_at.expect("partitioned switch declared dead");
    assert!(
        dead_seen_at < heal_at,
        "death detected during the partition"
    );
    let recovered_at = recovered_at.expect("switch recovered after heal");
    let recovery = recovered_at.saturating_since(heal_at);
    assert!(
        recovery <= period + SimDuration::from_millis(150),
        "recovery bounded by one sweep + suspect window, got {recovery}"
    );

    // Control works again after the heal: a transaction commits.
    let report = transactional_reconfig(&mut sim, &[(sw, v2())], recovered_at);
    assert_eq!(report.outcome, TxnOutcome::Committed);
}

/// (c) dRPC with retry/backoff succeeds despite 30% message loss.
#[test]
fn drpc_survives_30_percent_message_loss() {
    let mut reg = ServiceRegistry::new();
    reg.register("migrate_state", NodeId(0), 1, ExecutionSite::DataPlane)
        .unwrap();
    let mut fabric = LossyFabric::new(0.3, 2024);
    let policy = RetryPolicy {
        max_attempts: 16,
        deadline: SimDuration::from_secs(120),
        ..RetryPolicy::default()
    };
    let mut retried = 0u32;
    for i in 0..500u64 {
        let out = invoke_with_retry(
            &mut reg,
            &mut fabric,
            &policy,
            "migrate_state",
            NodeId(1),
            &[i],
            2,
            SimTime::from_millis(i),
        );
        assert!(out.is_ok(), "call {i} failed: {:?}", out.result);
        if out.attempts > 1 {
            retried += 1;
        }
    }
    assert!(
        retried > 100,
        "loss forced retries ({retried} calls retried)"
    );
    let seen = fabric.dropped as f64 / (fabric.dropped + fabric.delivered) as f64;
    assert!((0.25..0.35).contains(&seen), "observed loss rate {seen}");
}
