//! Property tests for the data-plane substrates: state-encoding invariants,
//! table lookup vs. a reference scan, meter conformance, and allocator
//! conservation.

use flexnet_dataplane::{
    ArchAllocator, Architecture, DeviceState, KeyMatch, StateEncoding, TableEntry, TableInstance,
};
use flexnet_lang::ast::{
    ActionCall, ActionDecl, FieldPath, MatchKind, StateDecl, StateKind, TableDecl, TableKey,
};
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
        let mut model = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                MapOp::Put(k, v) => {
                    s.map_put("m", *k, *v).unwrap();
                    model.insert(*k, *v);
                }
                MapOp::Del(k) => {
                    s.map_del("m", *k);
                    model.remove(k);
                }
                MapOp::Get(k) => {
                    if let Some(v) = s.map_get("m", *k) {
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
                    prop_assert_eq!(s.map_get("m", *k), Some(*v));
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
            a.map_put("m", *k, *v).unwrap();
        }
        let snap = a.snapshot();
        let mut b = DeviceState::from_decls(&[map_decl(64).into()], StateEncoding::FlowInstructionSet);
        b.restore(&snap);
        for (k, v) in &entries {
            prop_assert_eq!(b.map_get("m", *k), Some(*v));
        }
    }

    /// Table lookup equals a reference linear scan with the same
    /// priority/specificity rule.
    #[test]
    fn lookup_matches_reference_scan(
        entries in prop::collection::vec(
            (any::<u32>(), 0u8..=32, -8i32..8),
            1..20,
        ),
        key in any::<u32>(),
    ) {
        let decl = TableDecl {
            name: "t".into(),
            keys: vec![TableKey {
                field: FieldPath::Header("ipv4".into(), "dst".into()),
                match_kind: MatchKind::Lpm,
            }],
            actions: vec![ActionDecl {
                name: "a".into(),
                params: vec![("x".into(), 32)],
                body: vec![],
            }],
            default_action: None,
            size: 64,
        };
        let mut table = TableInstance::new(decl.into());
        for (i, (value, len, prio)) in entries.iter().enumerate() {
            table
                .insert(TableEntry {
                    matches: vec![KeyMatch::Lpm {
                        value: *value as u64,
                        prefix_len: *len,
                        width: 32,
                    }],
                    priority: *prio,
                    action: ActionCall {
                        action: "a".into(),
                        args: vec![i as u64],
                    },
                })
                .unwrap();
        }
        let hw = table.lookup(&[key as u64]).map(|e| e.action.args[0]);
        // Reference: filter matches, max by (priority, prefix len).
        let reference = entries
            .iter()
            .enumerate()
            .filter(|(_, (value, len, _))| {
                if *len == 0 {
                    true
                } else {
                    (key >> (32 - *len as u32)) == (*value >> (32 - *len as u32))
                }
            })
            .max_by_key(|(_, (_, len, prio))| (*prio, *len))
            .map(|(i, _)| i as u64);
        prop_assert_eq!(hw, reference);
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
            if s.meter_check("lim", 1) {
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
            if alloc.alloc(&format!("e{i}"), &d, 0).is_ok() {
                placed.push(format!("e{i}"));
            }
        }
        for name in &placed {
            alloc.free(name).unwrap();
        }
        prop_assert_eq!(alloc.available(), before);
        prop_assert!(alloc.used().is_zero());
    }
}
