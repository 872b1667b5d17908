//! End-to-end reconfiguration semantics across the full stack
//! (language → device → simulator), exercising the paper's §2 claims.

use flexnet::prelude::*;
use flexnet_types::Sym;

fn forwarding() -> ProgramBundle {
    flexnet::apps::routing::l3_router(64).unwrap()
}

fn counting() -> ProgramBundle {
    ProgramBundle::new(
        parse_program(
            "program counting kind any {
               counter seen;
               handler ingress(pkt) { count(seen); forward(0); }
             }",
        )
        .unwrap(),
    )
}

fn traffic(src: NodeId, dst: NodeId, pps: u64, secs: u64) -> Vec<flexnet_sim::Departure> {
    generate(
        &[FlowSpec::udp_cbr(
            src,
            dst,
            pps,
            SimTime::from_millis(1),
            SimDuration::from_secs(secs),
        )],
        42,
    )
}

#[test]
fn hitless_reconfig_zero_loss_under_load() {
    let (topo, sw, hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: forwarding(),
        },
    );
    sim.load(traffic(hosts[0], hosts[1], 10_000, 3));
    sim.schedule(
        SimTime::from_millis(1500),
        Command::RuntimeReconfig {
            node: sw,
            bundle: counting(),
        },
    );
    sim.run_to_completion();

    assert_eq!(sim.metrics.sent, 30_000);
    assert_eq!(
        sim.metrics.delivered, 30_000,
        "losses: {:?}",
        sim.metrics.losses
    );
    assert_eq!(sim.metrics.total_lost(), 0);

    // The paper's timing claim: the transition completed within a second.
    let (_, _, rep) = &sim.reconfig_reports[0];
    assert!(rep.duration < SimDuration::from_secs(1));

    // Consistency: exactly two program versions processed packets, and the
    // new program's counter saw exactly the packets stamped with v2.
    let versions = sim.metrics.versions_seen(sw);
    assert_eq!(versions.len(), 2);
    let new_version_count = sim
        .metrics
        .version_counts
        .get(&(sw, versions[1]))
        .copied()
        .unwrap();
    let seen = sim
        .topo
        .node(sw)
        .unwrap()
        .device
        .program()
        .unwrap()
        .state
        .counter_read("seen");
    assert_eq!(seen, new_version_count);
}

#[test]
fn reflash_baseline_disrupts_the_same_change() {
    let (topo, sw, hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    sim.schedule(
        SimTime::ZERO,
        Command::Install {
            node: sw,
            bundle: forwarding(),
        },
    );
    sim.load(traffic(hosts[0], hosts[1], 1_000, 40));
    sim.schedule(
        SimTime::from_secs(2),
        Command::Reflash {
            node: sw,
            bundle: counting(),
        },
    );
    sim.run_to_completion();

    let refused = sim
        .metrics
        .losses
        .get(&LossKind::Refused)
        .copied()
        .unwrap_or(0);
    assert!(
        refused >= 25_000,
        "downtime should refuse ~30s of 1kpps: {refused}"
    );
    assert!(sim.metrics.disruption_window().unwrap() >= SimDuration::from_secs(24));
}

#[test]
fn unsafe_inplace_ablation_shows_why_atomicity_matters() {
    // Build a change whose intermediate states are observable: the old
    // program forwards everything; the new program drops TCP dport 80.
    // In-place, the handler flips *after* the state/table ops, so packets
    // mid-transition see partially-applied programs; with the shadow+flip
    // design, behaviour switches at one instant.
    let old = ProgramBundle::new(
        parse_program("program app kind any { handler ingress(pkt) { forward(0); } }").unwrap(),
    );
    let new = ProgramBundle::new(
        parse_program(
            "program app kind any {
               counter blocked;
               handler ingress(pkt) {
                 if (valid(tcp) && tcp.dport == 80) { count(blocked); drop(); }
                 forward(0);
               }
             }",
        )
        .unwrap(),
    );

    // Hitless path: behaviour is old until ready_at, new after.
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(old.clone()).unwrap();
    let rep = dev
        .begin_runtime_reconfig(new.clone(), SimTime::ZERO)
        .unwrap();
    let mid = SimTime::from_nanos(rep.ready_at.as_nanos() / 2);
    let mut p = Packet::tcp(1, 1, 2, 3, 80, 0x10);
    assert_eq!(
        dev.process(&mut p, mid).unwrap().verdict,
        Verdict::Forward(0),
        "old semantics before the flip"
    );
    let mut p2 = Packet::tcp(2, 1, 2, 3, 80, 0x10);
    assert_eq!(
        dev.process(&mut p2, rep.ready_at).unwrap().verdict,
        Verdict::Drop,
        "new semantics after the flip"
    );

    // Ablation: in-place application exposes an intermediate program
    // (counter installed, handler still old).
    let mut dev2 = Device::new(
        NodeId(2),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev2.install(old).unwrap();
    let rep2 = dev2.begin_unsafe_inplace(new, SimTime::ZERO).unwrap();
    assert!(rep2.ops >= 2);
    let state_op = dev2.cost_model().state_op;
    let mid2 = SimTime::ZERO + state_op + SimDuration::from_nanos(1);
    let mut p3 = Packet::tcp(3, 1, 2, 3, 80, 0x10);
    let r = dev2.process(&mut p3, mid2).unwrap();
    let has_counter = dev2.program().unwrap().state.has("blocked");
    assert!(
        has_counter && r.verdict == Verdict::Forward(0),
        "mixed program observed: new state present but old handler ran"
    );
}

#[test]
fn parser_reconfig_enables_new_protocol_mid_stream() {
    // A VXLAN-aware program arrives at runtime; before it, VXLAN headers
    // are invisible (carried opaquely); after, the program matches on vni.
    let vxlan_aware = {
        let file = parse_source(
            "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
             program app kind any {
               counter tunnel;
               handler ingress(pkt) {
                 if (valid(vxlan) && vxlan.vni == 7) { count(tunnel); drop(); }
                 forward(0);
               }
             }",
        )
        .unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    };
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(ProgramBundle::new(
        parse_program("program app kind any { handler ingress(pkt) { forward(0); } }").unwrap(),
    ))
    .unwrap();

    let mk_pkt = |id| {
        let mut p = Packet::udp(id, 1, 2, 3, 4789);
        p.push_header(flexnet_types::Header::new("vxlan", [("vni", 7u64)]));
        p
    };

    // Before: invisible -> forwarded.
    let mut before = mk_pkt(1);
    assert_eq!(
        dev.process(&mut before, SimTime::ZERO).unwrap().verdict,
        Verdict::Forward(0)
    );
    let vxlan = Sym::intern("vxlan");
    assert!(
        before.header_sym(vxlan).is_some(),
        "opaque header preserved"
    );

    let rep = dev
        .begin_runtime_reconfig(vxlan_aware, SimTime::ZERO)
        .unwrap();
    // After: the parser extracts vxlan and the program drops vni 7.
    let mut after = mk_pkt(2);
    assert_eq!(
        dev.process(&mut after, rep.ready_at).unwrap().verdict,
        Verdict::Drop
    );
    assert!(dev.parser().can_parse("vxlan"));
}
