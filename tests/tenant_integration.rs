//! Tenant churn end to end: controller composition → hitless device
//! reconfiguration → live traffic isolation (paper §1.1 "Tenant
//! extensions" and the §3 deployment scenario).

use flexnet::apps;
use flexnet::prelude::*;

fn infra() -> ProgramBundle {
    let file = parse_source(
        "program infra kind switch {
           counter total;
           service provide migrate_state(dst: u32);
           handler ingress(pkt) { count(total); forward(0); }
         }",
    )
    .unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

#[test]
fn tenant_churn_is_hitless_and_isolated() {
    let (topo, sw, hosts) = Topology::single_switch(3);
    let mut sim = Simulation::new(topo);
    let mut ctl = Controller::new(infra(), sw, SimTime::ZERO).unwrap();
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: infra(),
        },
    );
    sim.load(generate(
        &[FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            5_000,
            SimTime::from_millis(1),
            SimDuration::from_secs(4),
        )],
        9,
    ));

    // Tenant 1 brings a firewall at t=1s; tenant 2 a rate limiter at t=2s.
    let (v1, composed) = ctl
        .tenant_arrive(TenantId(1), apps::security::firewall(32).unwrap(), SimTime::from_secs(1))
        .unwrap();
    sim.schedule(
        SimTime::from_secs(1),
        Command::RuntimeReconfig {
            node: sw,
            bundle: composed,
        },
    );
    let (v2, composed) = ctl
        .tenant_arrive(
            TenantId(2),
            apps::security::rate_limiter(1000, 16).unwrap(),
            SimTime::from_secs(2),
        )
        .unwrap();
    assert_ne!(v1, v2);
    sim.schedule(
        SimTime::from_secs(2),
        Command::RuntimeReconfig {
            node: sw,
            bundle: composed,
        },
    );

    // Tenant 1 departs at t=3s.
    let composed = ctl.tenant_depart(TenantId(1)).unwrap();
    sim.schedule(
        SimTime::from_secs(3),
        Command::RuntimeReconfig {
            node: sw,
            bundle: composed,
        },
    );

    sim.run_to_completion();
    assert!(sim.errors.is_empty(), "{:?}", sim.errors);
    assert_eq!(sim.metrics.total_lost(), 0, "churn must be hitless");
    assert_eq!(sim.metrics.delivered, 20_000);

    // Final program retains tenant 2's elements only.
    let prog = &sim.topo.node(sw).unwrap().device.program().unwrap().bundle().program;
    assert!(prog.state("t2_throttled").is_some());
    assert!(prog.state("t1_blocked").is_none());
    // Versions: install + 3 reconfigs.
    assert_eq!(sim.metrics.versions_seen(sw).len(), 4);
}

#[test]
fn tenant_traffic_only_hits_its_own_guard() {
    // Tenant 1's firewall blocks src 77 — but only for VLAN-tagged tenant-1
    // traffic; untagged infra traffic from the same source passes.
    let (topo, sw, _hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    let mut ctl = Controller::new(infra(), sw, SimTime::ZERO).unwrap();
    let (vlan, composed) = ctl
        .tenant_arrive(TenantId(1), apps::security::firewall(32).unwrap(), SimTime::ZERO)
        .unwrap();
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: composed,
        },
    );
    sim.run(SimTime::from_millis(1));

    // Seed tenant 1's blocklist.
    {
        let dev = &mut sim.topo.node_mut(sw).unwrap().device;
        dev.program_mut()
            .unwrap()
            .state
            .map_put("t1_blocked", 77, 1)
            .unwrap();
    }

    let mk = |id, tagged: bool| {
        let mut p = Packet::tcp(id, 77, 2, 3, 80, 0x10);
        if tagged {
            p.insert_header(flexnet_types::Header::vlan(vlan.0 as u64), Some("eth"));
        }
        p.metadata.insert("dst_node".into(), 1);
        p
    };

    let dev = &mut sim.topo.node_mut(sw).unwrap().device;
    let mut tenant_pkt = mk(1, true);
    assert_eq!(
        dev.process(&mut tenant_pkt, SimTime::from_millis(2)).unwrap().verdict,
        Verdict::Drop,
        "tenant's own traffic is filtered by its extension"
    );
    let mut infra_pkt = mk(2, false);
    assert_eq!(
        dev.process(&mut infra_pkt, SimTime::from_millis(2)).unwrap().verdict,
        Verdict::Forward(0),
        "untagged traffic bypasses the tenant guard"
    );
}

#[test]
fn churn_trace_drives_many_tenants() {
    // Run a Poisson churn trace through the controller; composition must
    // stay valid and the VLAN allocator must never double-assign.
    let mut ctl = Controller::new(infra(), NodeId(0), SimTime::ZERO).unwrap();
    let events = tenant_churn(
        4.0,
        SimDuration::from_secs(3),
        SimDuration::from_secs(10),
        17,
    );
    assert!(!events.is_empty());
    let mut peak = 0usize;
    for (t, ev) in events {
        match ev {
            ChurnEvent::Arrive(id) => {
                ctl.tenant_arrive(
                    TenantId(id),
                    apps::telemetry::heavy_hitter(32, 100).unwrap(),
                    t,
                )
                .unwrap();
            }
            ChurnEvent::Depart(id) => {
                ctl.tenant_depart(TenantId(id)).unwrap();
            }
        }
        let live = ctl.tenants.tenants();
        peak = peak.max(live.len());
        // VLANs unique among live tenants.
        let vlans: std::collections::BTreeSet<_> = live
            .iter()
            .map(|t| ctl.tenants.vlan_of(*t).unwrap())
            .collect();
        assert_eq!(vlans.len(), live.len(), "VLAN double-assignment");
    }
    assert!(peak >= 2, "trace should overlap tenants (peak {peak})");
    // The final composed program still certifies.
    let (bundle, _) = ctl.tenants.composed().unwrap();
    let reg = HeaderRegistry::with_user_headers(&bundle.headers).unwrap();
    check_program(&bundle.program, &reg).unwrap();
    verify_program(&bundle.program, &reg).unwrap();
}

fn probe_extension() -> ProgramBundle {
    apps::build(
        "program probe kind any {
           counter seen;
           service provide probe(x: u32);
           handler ingress(pkt) { count(seen); }
         }",
    )
    .unwrap()
}

/// The controller's tenant-facing books: tenants, VLANs, apps by URI and
/// status, service names.
fn books(ctl: &Controller) -> String {
    let tenants = ctl.tenants.tenants();
    let vlans: Vec<_> = tenants.iter().map(|t| ctl.tenants.vlan_of(*t)).collect();
    let services: Vec<_> = ctl.services.services().map(|s| (&s.name, s.provider, s.arity, s.site)).collect();
    let probe_app = AppUri::new(&TenantId(5).to_string(), "probe").unwrap();
    format!(
        "{tenants:?} {vlans:?} running={} probe={:?} {services:?}",
        ctl.apps.running(),
        ctl.apps.lookup(&probe_app).map(|a| a.status),
    )
}

#[test]
fn a_rejected_arrival_leaves_every_registry_as_it_was() {
    use flexnet_controller::ExecutionSite;
    let node = NodeId(1);
    let mut ctl = Controller::new(infra(), node, SimTime::ZERO).unwrap();
    ctl.tenant_arrive(TenantId(1), apps::security::firewall(32).unwrap(), SimTime::ZERO).unwrap();
    // The operator already runs a service under the name tenant 5's
    // `probe` would be namespaced to.
    ctl.services.register("t5_probe", node, 1, ExecutionSite::ControlPlane).unwrap();
    let before = books(&ctl);
    let composed_before = ctl.tenants.composed().unwrap();

    let err = ctl.tenant_arrive(TenantId(5), probe_extension(), SimTime::from_secs(1)).unwrap_err();
    assert!(matches!(&err, FlexError::Conflict(m) if m.contains("t5_probe")), "{err}");
    assert_eq!(books(&ctl), before, "nothing was admitted, registered or taken");
    assert_eq!(ctl.tenants.composed().unwrap(), composed_before);

    // The refusal is not sticky: once the name is free the same arrival
    // goes through, on the VLAN the rejected attempt did not consume.
    ctl.services.unregister("t5_probe").unwrap();
    let (vlan, _) = ctl.tenant_arrive(TenantId(5), probe_extension(), SimTime::from_secs(2)).unwrap();
    assert_eq!(vlan, VlanId(101));
    assert_eq!(ctl.services.discover("t5_probe").unwrap().site, ExecutionSite::DataPlane);
}

#[test]
fn a_departure_unregisters_only_what_the_tenant_registered() {
    use flexnet_controller::ExecutionSite;
    let node = NodeId(1);
    let mut ctl = Controller::new(infra(), node, SimTime::ZERO).unwrap();
    ctl.tenant_arrive(TenantId(5), probe_extension(), SimTime::ZERO).unwrap();
    // Operator services that merely look like tenant 5's.
    ctl.services.register("t5_audit", node, 0, ExecutionSite::ControlPlane).unwrap();
    ctl.services.register("t5_probe_mirror", node, 1, ExecutionSite::ControlPlane).unwrap();

    ctl.tenant_depart(TenantId(5)).unwrap();
    assert!(ctl.services.discover("t5_probe").is_none(), "the tenant's own is gone");
    assert!(ctl.services.discover("t5_audit").is_some(), "the operator's stay");
    assert!(ctl.services.discover("t5_probe_mirror").is_some());
    assert!(ctl.services.discover("migrate_state").is_some());
}
