//! Property tests for the fault/transaction layer (companion to
//! `properties.rs`):
//!
//! - an aborted reconfiguration restores the *exact* pre-reconfig program,
//!   table entries, and state, at any abort point with any accumulated
//!   runtime state;
//! - under injected faults (mid-transition aborts, link flaps), no packet
//!   is ever processed by a half-committed program — verdicts and observed
//!   program versions always match pure-old or pure-new semantics.

use flexnet::prelude::*;
use flexnet_lang::ast::ActionCall;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

fn base() -> ProgramBundle {
    bundle(
        "program app kind any {
           counter c;
           table t {
             key { ipv4.src : exact; }
             action deny() { drop(); }
             size 64;
           }
           handler ingress(pkt) { count(c); apply t; forward(1); }
         }",
    )
}

fn target() -> ProgramBundle {
    bundle(
        "program app kind any {
           counter c;
           counter audited;
           map seen : map<u32, u8>[256];
           table t {
             key { ipv4.src : exact; }
             action deny() { drop(); }
             size 64;
           }
           handler ingress(pkt) {
             count(c); count(audited);
             map_put(seen, ipv4.src, 1);
             apply t; forward(2);
           }
         }",
    )
}

proptest! {
    /// Whatever entries and state accumulated before the transition, and
    /// wherever in the transition window the abort lands, the device comes
    /// back bit-identical to its pre-reconfig self — and stays there.
    #[test]
    fn abort_restores_exact_pre_reconfig_device(
        entries in prop::collection::btree_map(0u64..256, 0u64..2, 0..8),
        warm in prop::collection::vec((0u32..256, 1u64..1000), 0..24),
        abort_pct in 1u64..100,
    ) {
        let mut dev = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        dev.install(base()).unwrap();
        for key in entries.keys() {
            dev.add_entry(
                "t",
                TableEntry::exact(&[*key], ActionCall { action: "deny".into(), args: vec![] }),
            ).unwrap();
        }
        // Accumulate counter state with arbitrary traffic.
        for (i, (src, id)) in warm.iter().enumerate() {
            let mut pkt = Packet::tcp(*id, *src, 2, 3, 4, 0);
            dev.process(&mut pkt, SimTime::from_micros(i as u64)).unwrap();
        }

        let before = dev.program().unwrap();
        let before_bundle = before.bundle().clone();
        let before_tables = before.tables.clone();
        let before_state = before.state.snapshot();
        let before_version = dev.version();

        let t0 = SimTime::from_secs(1);
        let rep = dev.begin_runtime_reconfig(target(), t0).unwrap();
        let span = rep.duration.as_nanos().max(1);
        // Traffic mid-transition still runs the old program (and mutates
        // the old counter — that mutation must survive the abort).
        let mid = t0 + SimDuration::from_nanos(span * abort_pct / 200);
        let mut mid_pkt = Packet::tcp(9999, 77, 2, 3, 4, 0);
        let mid_result = dev.process(&mut mid_pkt, mid).unwrap();
        prop_assert_eq!(mid_result.version, before_version);
        // The expected post-abort state is the live (old-program) state
        // just before the abort — including the mid-transition mutation.
        let expected_state = dev.program().unwrap().state.snapshot();
        prop_assert!(expected_state != before_state, "mid packet counted");

        let abort_at = t0 + SimDuration::from_nanos(span * abort_pct / 100);
        let abort_rep = dev.abort_reconfig(abort_at).unwrap();
        prop_assert_eq!(abort_rep.outcome, ReconfigOutcome::Aborted);

        let after = dev.program().unwrap();
        prop_assert_eq!(after.bundle(), &before_bundle, "program image restored");
        prop_assert_eq!(&after.tables, &before_tables, "table entries restored");
        prop_assert_eq!(after.state.snapshot(), expected_state, "state restored");
        prop_assert_eq!(dev.version(), before_version, "no version flip");
        prop_assert!(!dev.reconfig_in_progress());

        // The flip must not resurrect later: tick far past the old
        // ready_at and re-check the program image.
        dev.tick(rep.ready_at + SimDuration::from_secs(10));
        prop_assert_eq!(dev.program().unwrap().bundle(), &before_bundle);
        prop_assert_eq!(dev.version(), before_version);

        // And the device is not wedged: a fresh transition still works.
        let rep2 = dev.begin_runtime_reconfig(target(), abort_at + SimDuration::from_secs(1));
        prop_assert!(rep2.is_ok());
    }
}

proptest! {
    // Each case runs a full 3 s simulation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Old-XOR-new under faults: drive traffic through a switch while a
    /// hitless reconfiguration runs and a random fault (mid-transition
    /// abort, link flap, or none) is injected. Every delivered packet was
    /// processed by exactly the old or the new program version — never a
    /// half-committed hybrid — and an abort leaves only the old version
    /// observable.
    #[test]
    fn no_packet_sees_a_half_committed_program(
        seed in 0u64..1000,
        fault in 0usize..3,
        reconfig_ms in 1200u64..1800,
    ) {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(SimTime::ZERO, Command::Install { node: sw, bundle: base() });
        sim.load(generate(
            &[FlowSpec::udp_cbr(
                hosts[0],
                hosts[1],
                2000,
                SimTime::from_millis(1),
                SimDuration::from_secs(3),
            )],
            seed,
        ));
        // Run past the install so the pre-reconfig version is observable.
        sim.run(SimTime::from_millis(1));
        let old_version = sim.topo.node(sw).unwrap().device.version();
        sim.schedule(
            SimTime::from_millis(reconfig_ms),
            Command::RuntimeReconfig { node: sw, bundle: target() },
        );
        let aborted = fault == 0;
        match fault {
            0 => {
                // Abort shortly after the transition begins (well inside
                // any plausible transition window).
                FaultPlan::new(seed)
                    .abort_reconfig(
                        SimTime::from_millis(reconfig_ms) + SimDuration::from_micros(50),
                        sw,
                    )
                    .apply(&mut sim);
            }
            1 => {
                let cut = sim.topo.node(sw).unwrap().ports[&1];
                FaultPlan::new(seed)
                    .flap_link(
                        cut,
                        SimTime::from_millis(reconfig_ms - 100),
                        SimTime::from_millis(reconfig_ms + 200),
                        SimDuration::from_millis(20),
                    )
                    .apply(&mut sim);
            }
            _ => {}
        }
        sim.run_to_completion();

        let versions = sim.metrics.versions_seen(sw);
        prop_assert!(!versions.is_empty());
        if aborted {
            prop_assert_eq!(
                versions,
                vec![old_version],
                "after an abort only the old program ever serves"
            );
        } else {
            prop_assert!(versions.len() <= 2, "at most old and new: {versions:?}");
            prop_assert_eq!(versions[0], old_version);
        }
    }
}
