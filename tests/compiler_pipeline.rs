//! Integration: the full compile pipeline — patch DSL → diff → fungible
//! placement → live deployment — across crates.

use flexnet::apps;
use flexnet::prelude::*;
use flexnet_lang::diff::diff_bundles;

#[test]
fn patch_to_live_device_pipeline() {
    // 1. A running firewall on a device.
    let base = apps::security::firewall(64).unwrap();
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(base.clone()).unwrap();

    // 2. An incremental patch (the zero-day hardening from the app library).
    let patch = parse_patch(apps::security::firewall_hardening_patch()).unwrap();
    let patched = apply_patch(&base, &patch).unwrap();

    // 3. Re-certify and diff to runtime ops.
    let reg = HeaderRegistry::with_user_headers(&patched.headers).unwrap();
    check_program(&patched.program, &reg).unwrap();
    verify_program(&patched.program, &reg).unwrap();
    let ops = diff_bundles(&base, &patched);
    assert!(
        ops.len() >= 3,
        "meter + counter + handler + table default: {ops:?}"
    );

    // 4. Apply hitlessly; behaviour flips at ready_at.
    let rep = dev.begin_runtime_reconfig(patched, SimTime::ZERO).unwrap();
    assert!(rep.duration < SimDuration::from_secs(1));
    let mut pre = Packet::tcp(1, 7, 2, 3, 80, 0x10);
    assert_eq!(
        dev.process(&mut pre, SimTime::ZERO).unwrap().verdict,
        Verdict::Forward(0),
        "old default-allow before the flip"
    );
    let mut post = Packet::tcp(2, 7, 2, 3, 80, 0x10);
    assert_eq!(
        dev.process(&mut post, rep.ready_at).unwrap().verdict,
        Verdict::Drop,
        "patched default-deny after the flip"
    );
}

#[test]
fn fungible_compilation_over_a_real_fabric() {
    // A leaf-spine fabric; fill a leaf with an unused telemetry program,
    // then place a workload that only fits after GC.
    let (topo, spines, leaves, _hosts) = Topology::leaf_spine(2, 2, 2);
    let mut targets: Vec<TargetView> = spines
        .iter()
        .chain(leaves.iter())
        .map(|&n| TargetView::of_device(&topo.node(n).unwrap().device))
        .collect();

    // Artificially occupy most of every device with "dead" programs.
    let mut reclaimable = Vec::new();
    for t in &mut targets {
        let hog = ResourceVec::of(
            ResourceKind::SramKb,
            t.free.get(ResourceKind::SramKb) * 9 / 10,
        );
        t.free = t.free.saturating_sub(&hog);
        reclaimable.push(flexnet_compiler::Reclaimable {
            node: t.node,
            name: format!("dead_telemetry_{}", t.node),
            canonical_demand: hog,
        });
    }

    // A set of components that exceeds the post-hog capacity.
    let comps: Vec<Component> = (0..4)
        .map(|i| {
            Component::new(
                &format!("fw{i}"),
                apps::security::firewall(400_000).unwrap(),
            )
        })
        .collect();

    // One-shot (non-fungible) fails…
    let one_shot = FungibleOptions {
        reclaimable: reclaimable.clone(),
        one_shot: true,
    };
    assert!(compile_fungible(&comps, &targets, &one_shot).is_err());

    // …the fungible loop reclaims and succeeds.
    let opts = FungibleOptions {
        reclaimable,
        one_shot: false,
    };
    let out = compile_fungible(&comps, &targets, &opts).unwrap();
    assert!(out.iterations >= 2);
    assert!(!out.reclaimed.is_empty());
    assert_eq!(out.placement.len(), 4);
}

#[test]
fn incremental_recompile_touches_less_than_full() {
    let comps: Vec<Component> = (0..8)
        .map(|i| {
            Component::new(
                &format!("app{i}"),
                apps::telemetry::heavy_hitter(2048, 100).unwrap(),
            )
        })
        .collect();
    let targets: Vec<TargetView> = (0..3)
        .map(|i| TargetView::fresh(NodeId(i), Architecture::drmt_default()))
        .collect();
    let mut working = targets.clone();
    let old = pack(&comps, &mut working, PackStrategy::FirstFitDecreasing).unwrap();

    // Change: one app grows, one is added.
    let mut new_comps = comps.clone();
    new_comps[2] = Component::new("app2", apps::telemetry::heavy_hitter(65_536, 100).unwrap());
    new_comps.push(Component::new(
        "app8",
        apps::telemetry::heavy_hitter(2048, 100).unwrap(),
    ));

    let inc = recompile_incremental(&old, &comps, &new_comps, &targets, None).unwrap();
    let full = recompile_full(&old, &new_comps, &targets).unwrap();
    assert!(inc.churn() <= full.churn());
    assert!(
        inc.kept.len() >= 7,
        "unchanged apps stay put: {:?}",
        inc.kept
    );
    assert!(inc.added.contains(&"app8".to_string()));
}

#[test]
fn whole_stack_datapath_deploys_and_processes() {
    // Deploy a 3-component datapath (host CC, NIC telemetry, switch ECN)
    // across the vertical line, then push each component to its device and
    // pass a packet through the chain.
    let (topo, nodes) = Topology::host_nic_switch_line();
    let dp = LogicalDatapath::new(
        "stack",
        vec![
            Component::new("host_cc", apps::cc::dctcp_host().unwrap()),
            Component::new("nic_rate", apps::cc::hpcc_nic().unwrap()),
            Component::new("sw_ecn", apps::cc::ecn_marking(10).unwrap()),
        ],
    );
    let mut views: Vec<TargetView> = nodes
        .iter()
        .map(|&n| TargetView::of_device(&topo.node(n).unwrap().device))
        .collect();
    let split = split_datapath(&dp, &mut views).unwrap();

    let mut sim = Simulation::new(topo);
    for (comp, bundle) in [
        ("host_cc", apps::cc::dctcp_host().unwrap()),
        ("nic_rate", apps::cc::hpcc_nic().unwrap()),
        ("sw_ecn", apps::cc::ecn_marking(10).unwrap()),
    ] {
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: split.placement.node_of(comp).unwrap(),
                bundle,
            },
        );
    }
    let flow = FlowSpec {
        proto: 6,
        ..FlowSpec::udp_cbr(
            nodes[0],
            nodes[4],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_millis(100),
        )
    };
    sim.load(generate(&[flow], 4));
    sim.run_to_completion();
    assert_eq!(sim.metrics.delivered, 100, "errors: {:?}", sim.errors);
    // Every delivered packet crossed all five devices.
    assert!(
        sim.metrics
            .version_counts
            .keys()
            .map(|(n, _)| *n)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            >= 5
    );
}
