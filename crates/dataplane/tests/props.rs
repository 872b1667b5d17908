//! Property tests for the data-plane substrates: state-encoding invariants,
//! meter conformance, and allocator conservation. Table lookups are held
//! to the reference scan in the workspace's `tests/table_lookup.rs`.

use flexnet_dataplane::{ArchAllocator, Architecture, DeviceState, StateEncoding};
use flexnet_lang::ast::{StateDecl, StateKind};
use flexnet_types::{ResourceKind, ResourceVec, SimTime};
use proptest::prelude::*;

fn map_decl(size: u64) -> StateDecl {
    StateDecl {
        name: "m".into(),
        kind: StateKind::Map {
            key_width: 64,
            value_width: 64,
        },
        size,
    }
}

#[derive(Debug, Clone)]
enum MapOp {
    Put(u64, u64),
    Del(u64),
    Get(u64),
}

fn arb_map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, any::<u64>()).prop_map(|(k, v)| MapOp::Put(k, v)),
            (0u64..64).prop_map(MapOp::Del),
            (0u64..64).prop_map(MapOp::Get),
        ],
        0..100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every encoding keeps the map within its declared capacity, and a
    /// `get` never invents a value that was not the last `put` for that key.
    #[test]
    fn map_encodings_respect_capacity_and_last_write(
        ops in arb_map_ops(),
        cap in 1u64..32,
        enc_idx in 0usize..3,
    ) {
        let enc = [
            StateEncoding::RegisterArray,
            StateEncoding::FlowInstructionSet,
            StateEncoding::StatefulTable,
        ][enc_idx];
        let mut s = DeviceState::from_decls(&[map_decl(cap).into()], enc);
        let m = s.map_slot("m").unwrap();
        let mut model = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                MapOp::Put(k, v) => {
                    s.map_put_at(m, *k, *v);
                    model.insert(*k, *v);
                }
                MapOp::Del(k) => {
                    s.map_del_at(m, *k);
                    model.remove(k);
                }
                MapOp::Get(k) => {
                    if let Some(v) = s.map_get_at(m, *k) {
                        // Encodings may *lose* entries (collisions,
                        // eviction) but must never fabricate or go stale
                        // past the last write.
                        prop_assert_eq!(Some(&v), model.get(k));
                    }
                }
            }
            prop_assert!(s.map_len("m") as u64 <= cap, "capacity exceeded");
        }
        // Exact encodings only lose entries to eviction; with few distinct
        // keys and enough capacity they are exact.
        if enc != StateEncoding::RegisterArray && model.len() as u64 <= cap {
            let distinct: std::collections::BTreeSet<u64> = ops
                .iter()
                .filter_map(|o| match o {
                    MapOp::Put(k, _) => Some(*k),
                    _ => None,
                })
                .collect();
            if distinct.len() as u64 <= cap {
                for (k, v) in &model {
                    prop_assert_eq!(s.map_get_at(m, *k), Some(*v));
                }
            }
        }
    }

    /// Snapshot/restore into the same declarations loses nothing for exact
    /// encodings with adequate capacity.
    #[test]
    fn snapshot_restore_preserves_exact_state(
        entries in prop::collection::btree_map(any::<u64>(), any::<u64>(), 0..16),
    ) {
        let mut a = DeviceState::from_decls(&[map_decl(64).into()], StateEncoding::StatefulTable);
        for (k, v) in &entries {
            a.map_put_at(0, *k, *v);
        }
        let snap = a.snapshot();
        let mut b = DeviceState::from_decls(&[map_decl(64).into()], StateEncoding::FlowInstructionSet);
        b.restore(&snap);
        for (k, v) in &entries {
            prop_assert_eq!(b.map_get_at(0, *k), Some(*v));
        }
    }

    /// A meter never admits more than burst + rate*time packets.
    #[test]
    fn meter_conformance_bound(
        rate in 1u64..10_000,
        burst in 1u64..100,
        duration_ms in 1u64..200,
    ) {
        let mut s = DeviceState::from_decls(
            &[StateDecl {
                name: "lim".into(),
                kind: StateKind::Meter {
                    rate_pps: rate,
                    burst,
                },
                size: 1,
            }.into()],
            StateEncoding::StatefulTable,
        );
        // Offer 10x the fair share, evenly spaced.
        let offered = (rate * duration_ms / 1000 + burst) * 10 + 20;
        let mut admitted = 0u64;
        for i in 0..offered {
            s.now = SimTime::from_nanos(i * duration_ms * 1_000_000 / offered.max(1));
            if s.meter_check_at(0, 1) {
                admitted += 1;
            }
        }
        let bound = burst + rate * duration_ms / 1000 + 1;
        prop_assert!(
            admitted <= bound,
            "admitted {admitted} > bound {bound} (rate {rate}, burst {burst}, {duration_ms}ms)"
        );
    }

    /// The allocator conserves resources: free(alloc(x)) restores exactly
    /// the prior availability, in any interleaving.
    #[test]
    fn allocator_conservation(
        demands in prop::collection::vec((1u64..200, 0u64..40), 1..12),
    ) {
        let mut alloc = ArchAllocator::new(Architecture::drmt_default());
        let before = alloc.available();
        let mut placed = Vec::new();
        for (i, (sram, slots)) in demands.iter().enumerate() {
            let d = ResourceVec::from_pairs([
                (ResourceKind::SramKb, *sram),
                (ResourceKind::ActionSlots, *slots),
            ]);
            if alloc.alloc(format!("e{i}").into(), &d, 0).is_ok() {
                placed.push(format!("e{i}"));
            }
        }
        for name in &placed {
            alloc.free(name).unwrap();
        }
        prop_assert_eq!(alloc.available(), before);
        prop_assert_eq!(alloc.used(), ResourceVec::new());
    }
}

// ---------------------------------------------------------------------------
// One footprint per program, however it reached the device
// ---------------------------------------------------------------------------

/// An install, a hitless or 2PC flip, a reflash and a quarantine fallback
/// place and parse a program as a fresh install of it does, and a program
/// the device refuses changes nothing.
mod footprint {
    use flexnet_dataplane::{Architecture, Device, StateEncoding, TxnTag};
    use flexnet_lang::diff::ProgramBundle;
    use flexnet_lang::parser::parse_source;
    use flexnet_types::{FlexError, NodeId, Packet, ResourceVec, SimDuration, SimTime};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const A: &str = "program a kind any {
        table ta { key { ipv4.src : exact; } size 16; }
        handler ingress(pkt) { apply ta; forward(1); } }";
    const B: &str = "header foo { fields { x: 8; } follows udp when udp.dport == 4789; }
        program b kind any { counter c;
        table tb { key { ipv4.src : exact; } size 16; }
        handler ingress(pkt) { count(c); apply tb; forward(1); } }";
    const C: &str = "header foo { fields { x: 8; } follows udp when udp.dport == 4789; }
        header bar { fields { y: 16; z: 8; } follows udp when udp.dport == 6081; }
        program c kind any {
        table ta { key { ipv4.src : exact; } size 16; }
        table tb { key { ipv4.src : exact; } size 64; }
        handler ingress(pkt) { apply ta; apply tb; forward(2); } }";
    /// Table `tb` again, and a map it divides by: 0 for every source not in
    /// the map, so every packet traps.
    const ROGUE: &str = "program rogue kind any { map d : map<u32, u32>[64];
        table tb { key { ipv4.src : exact; } size 16; }
        handler ingress(pkt) { apply tb; let x = 1000 / map_get(d, ipv4.src); forward(1); } }";
    /// Too big for a switch.
    const HUGE: &str = "program huge kind any {
        table big { key { ipv4.src : exact; } size 100000000; }
        handler ingress(pkt) { apply big; forward(1); } }";
    /// Not a program a host runs.
    const SWITCH: &str = "program s kind switch { handler ingress(pkt) { forward(3); } }";
    /// Every user header a program above declares.
    const HEADERS: [&str; 2] = ["foo", "bar"];

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        let program = file.programs.into_iter().next().unwrap();
        ProgramBundle {
            headers: file.headers,
            program,
        }
    }

    fn device(arch: Architecture) -> Device {
        Device::new(NodeId(1), arch, StateEncoding::StatefulTable)
    }

    /// Placed names (parser states included) and resources in use.
    fn footprint(d: &Device) -> (Vec<String>, ResourceVec) {
        (
            d.allocator().placed().map(str::to_owned).collect(),
            d.used(),
        )
    }

    /// A dRMT device running `src`.
    fn running(src: &str) -> Device {
        let mut d = device(Architecture::drmt_default());
        d.install(bundle(src)).unwrap();
        d
    }

    /// The footprint of a fresh dRMT device after installing `src`.
    fn installed(src: &str) -> (Vec<String>, ResourceVec) {
        footprint(&running(src))
    }

    /// Runs a hitless change to its flip.
    fn flip_to(d: &mut Device, src: &str, now: SimTime) -> SimTime {
        let ready = d.begin_runtime_reconfig(bundle(src), now).unwrap().ready_at;
        d.tick(ready);
        assert!(!d.reconfig_in_progress());
        ready
    }

    #[test]
    fn a_refused_install_leaves_the_running_program_placed_and_parsed() {
        let mut d = running(B);
        let (before, digest) = (footprint(&d), d.config_digest());
        let err = d.install(bundle(HUGE)).unwrap_err();
        assert!(matches!(err, FlexError::ResourceExhausted { .. }), "{err}");
        assert_eq!((footprint(&d), d.config_digest()), (before, digest));
        assert!(d.parser().can_parse("foo"));
    }

    #[test]
    fn a_reflash_places_and_parses_its_program_as_an_install_does() {
        let mut d = running(A);
        let ready = d.begin_reflash(bundle(B), SimTime::ZERO).unwrap().ready_at;
        d.tick(ready);
        assert_eq!(d.program().unwrap().bundle(), &bundle(B));
        assert_eq!(footprint(&d), installed(B));
        assert!(d.parser().can_parse("foo"));
    }

    #[test]
    fn a_quarantine_fallback_holds_its_own_placement() {
        let mut d = running(A);
        let at = flip_to(&mut d, ROGUE, SimTime::ZERO);
        for i in 0..16u64 {
            d.process(&mut Packet::tcp(i, i as u32, 20, 1, 80, 0), at)
                .unwrap();
        }
        assert!(d.quarantined());
        assert_eq!(d.program().unwrap().bundle(), &bundle(A));
        assert_eq!(
            footprint(&d),
            installed(A),
            "A's placement, not the rogue's"
        );
        // The rogue's `tb` is gone, so a change that adds it back is admitted.
        flip_to(&mut d, B, at + SimDuration::from_secs(1));
        assert_eq!(footprint(&d), installed(B));
    }

    #[test]
    fn an_install_and_a_hitless_change_give_one_footprint() {
        let mut d = running(A);
        flip_to(&mut d, B, SimTime::ZERO);
        assert_eq!(footprint(&d), installed(B));
        assert_eq!(
            installed(B).0,
            ["c", "foo", "ingress", "tb"],
            "the parser state is placed"
        );
        assert!(d.parser().can_parse("foo"));
        // And back: the flip frees and un-parses what it removes.
        flip_to(&mut d, A, SimTime::from_secs(1));
        assert_eq!(footprint(&d), installed(A));
        assert!(!d.parser().can_parse("foo"));
    }

    #[test]
    fn every_entry_refuses_a_kind_the_device_does_not_run() {
        let refused =
            |e: FlexError| matches!(e, FlexError::Compile(m) if m.contains("not supported"));
        let mut d = device(Architecture::host_default());
        d.install(bundle(A)).unwrap();
        let before = (footprint(&d), d.version());
        assert!(refused(d.install(bundle(SWITCH)).unwrap_err()));
        assert!(refused(
            d.begin_runtime_reconfig(bundle(SWITCH), SimTime::ZERO)
                .unwrap_err()
        ));
        assert!(refused(
            d.begin_reflash(bundle(SWITCH), SimTime::ZERO).unwrap_err()
        ));
        assert_eq!(
            (d.reconfig_in_progress(), footprint(&d), d.version()),
            (false, before.0, before.1)
        );
    }

    /// With nothing pending, the device holds what a fresh device of its
    /// architecture holds after installing the active program (nothing,
    /// with none), and parses exactly the active program's user headers.
    fn check(d: &Device) -> Result<(), String> {
        if d.reconfig_in_progress() {
            return Ok(());
        }
        let mut fresh = Device::new(
            NodeId(9),
            d.architecture().clone(),
            StateEncoding::StatefulTable,
        );
        if let Some(p) = d.program() {
            fresh
                .install(p.bundle().clone())
                .map_err(|e| format!("fresh install: {e}"))?;
        }
        if footprint(d) != footprint(&fresh) {
            return Err(format!(
                "holds {:?}, a fresh install {:?}",
                footprint(d),
                footprint(&fresh)
            ));
        }
        let declared = |h| {
            d.program()
                .is_some_and(|p| p.bundle().headers.iter().any(|x| x.name == h))
        };
        match HEADERS
            .into_iter()
            .find(|h| d.parser().can_parse(h) != declared(*h))
        {
            Some(h) => Err(format!("parses `{h}`: {}", d.parser().can_parse(h))),
            None => Ok(()),
        }
    }

    /// One seeded history of installs, hitless and 2PC changes, reflashes,
    /// crashes and trap storms on one device, checked after every step.
    fn history(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let archs = [
            Architecture::drmt_default(),
            Architecture::tiled_default(),
            Architecture::host_default(),
        ];
        let mut d = device(archs[rng.gen_range(0..archs.len())].clone());
        let (mut now, mut txn, mut log) = (SimTime::from_secs(1), 0, Vec::new());
        for _ in 0..40 {
            let src = [A, B, C, ROGUE, HUGE, SWITCH][rng.gen_range(0..6usize)];
            let target = bundle(src);
            let name = target.program.name.clone();
            let tag = |txn_id| TxnTag { txn_id, epoch: 1 };
            let step = match rng.gen_range(0..12u64) {
                0 | 1 => format!("install {name}: {}", d.install(target).is_ok()),
                2 | 3 => format!(
                    "hitless {name}: {}",
                    d.begin_runtime_reconfig(target, now).is_ok()
                ),
                4 => format!("abort: {}", d.abort_reconfig(now).is_ok()),
                5 => {
                    txn += 1;
                    format!(
                        "prepare {name}: {}",
                        d.prepare_txn_reconfig(target, now, tag(txn)).is_ok()
                    )
                }
                6 => format!("commit: {:?}", d.commit_txn(tag(txn), now)),
                7 => format!(
                    "abort txn: {:?}",
                    d.abort_txn(tag(txn), now).map(|r| r.is_some())
                ),
                8 => format!("reflash {name}: {}", d.begin_reflash(target, now).is_ok()),
                9 => {
                    d.crash(now);
                    format!("crash + restart: {}", d.restart(now).is_ok())
                }
                10 => {
                    // 16 trapping packets fill the sandbox's minimum window.
                    for i in 0..16u64 {
                        let _ = d.process(&mut Packet::tcp(i, i as u32, 20, 1, 80, 0), now);
                    }
                    format!("storm: quarantined {}", d.quarantined())
                }
                _ => {
                    now += SimDuration::from_secs(rng.gen_range(0..40u64));
                    d.tick(now);
                    format!("tick to {now}")
                }
            };
            now += SimDuration::from_millis(rng.gen_range(0..400u64));
            log.push(step);
            check(&d).map_err(|e| {
                format!(
                    "seed {seed}, {}: {e}\n  {}",
                    d.arch_class(),
                    log.join("\n  ")
                )
            })?;
        }
        Ok(())
    }

    #[test]
    fn a_device_holds_what_a_fresh_install_of_its_program_holds() {
        for seed in 0..300 {
            if let Err(e) = history(seed) {
                panic!("{e}");
            }
        }
    }
}
