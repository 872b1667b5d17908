//! The carry rule of a hitless flip, held to its reference.
//!
//! Whatever the device does at the flip, the incoming program must hold
//! exactly what a fresh instance of the target holds after
//! `state.restore(&old.state.snapshot())` and an insert of every entry of
//! every table passing `entries_carry_over` — the rule as it was first
//! written, kept here as `reference`. Random program pairs (objects added,
//! removed, kept, resized, kind-changed; tables kept and modified), random
//! populated state and entries, all three encodings.

use flexnet::prelude::*;
use flexnet_dataplane::{entries_carry_over, InstalledProgram};
use flexnet_lang::ast::ActionCall;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ENCODINGS: [StateEncoding; 3] = [
    StateEncoding::RegisterArray,
    StateEncoding::FlowInstructionSet,
    StateEncoding::StatefulTable,
];

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

/// The first-written carry rule: a fresh instance of `target` restored
/// from `old`'s logical snapshot, with the entries of every table `target`
/// declares unchanged re-inserted one by one.
fn reference(
    old: &InstalledProgram,
    target: ProgramBundle,
    enc: StateEncoding,
) -> InstalledProgram {
    let mut fresh = InstalledProgram::new(target, enc).unwrap();
    fresh.state.restore(&old.state.snapshot());
    for table in old.tables.iter() {
        if entries_carry_over(&table.decl, &fresh.bundle().program) {
            let dst = fresh.tables.get_mut(&table.decl.name).unwrap();
            for e in &table.entries {
                dst.insert(e.clone()).unwrap();
            }
        }
    }
    fresh
}

fn device(enc: StateEncoding) -> Device {
    Device::new(NodeId(1), Architecture::host_default(), enc)
}

/// Flips `d` to `target` hitlessly and returns what the reference says the
/// incoming program must hold.
fn flip(d: &mut Device, target: ProgramBundle) -> InstalledProgram {
    let t0 = SimTime::from_secs(1);
    let rep = d.begin_runtime_reconfig(target.clone(), t0).unwrap();
    assert_eq!(rep.outcome, ReconfigOutcome::InFlight);
    let expected = reference(d.program().unwrap(), target, d.encoding());
    d.tick(rep.ready_at);
    expected
}

fn assert_same(got: &InstalledProgram, want: &InstalledProgram, what: &str) {
    assert_eq!(got.bundle(), want.bundle(), "{what}: program");
    assert_eq!(got.state, want.state, "{what}: state, object for object");
    assert_eq!(
        got.tables, want.tables,
        "{what}: tables, entries and indexes"
    );
    assert_eq!(got.config_digest(), want.config_digest(), "{what}: digest");
}

// ---------------------------------------------------------------------------
// Random pairs
// ---------------------------------------------------------------------------

/// One state object of a generated program: (kind tag, size or burst).
type Obj = (u8, u64);

/// One table of a generated program: (size, ternary key?, second action?).
type Tab = (u64, bool, bool);

fn random_obj(rng: &mut StdRng) -> Obj {
    let sizes = [1, 2, 4, 8, 64];
    (
        rng.gen_range(0..4u64) as u8,
        sizes[rng.gen_range(0..5u64) as usize],
    )
}

fn random_tab(rng: &mut StdRng) -> Tab {
    (
        [2, 8][rng.gen_range(0..2u64) as usize],
        rng.gen_bool(0.3),
        rng.gen_bool(0.5),
    )
}

fn source(states: &[Option<Obj>], tables: &[Option<Tab>]) -> ProgramBundle {
    let mut decls = String::new();
    let mut applies = String::new();
    for (i, s) in states.iter().enumerate() {
        match s {
            Some((0, _)) => decls += &format!("counter s{i};\n"),
            Some((1, n)) => decls += &format!("register s{i} : u64[{n}];\n"),
            Some((2, n)) => decls += &format!("map s{i} : map<u32, u64>[{n}];\n"),
            Some((_, n)) => decls += &format!("meter s{i} rate 1000 burst {n};\n"),
            None => {}
        }
    }
    for (i, t) in tables.iter().enumerate() {
        let Some((size, ternary, two)) = t else {
            continue;
        };
        let kind = if *ternary { "ternary" } else { "exact" };
        let second = if *two {
            "action pass() { forward(2); }"
        } else {
            ""
        };
        decls += &format!(
            "table t{i} {{ key {{ ipv4.src : {kind}; }} action deny() {{ drop(); }} {second} size {size}; }}\n"
        );
        applies += &format!("apply t{i};\n");
    }
    bundle(&format!(
        "program p kind any {{ {decls} handler ingress(pkt) {{ {applies} forward(1); }} }}"
    ))
}

/// Writes to everything `states` and `tables` declare, through the same
/// calls the packet path and the control plane make.
fn populate(d: &mut Device, states: &[Option<Obj>], tables: &[Option<Tab>], rng: &mut StdRng) {
    let p = d.program_mut().unwrap();
    for (i, s) in states.iter().enumerate() {
        let name = format!("s{i}");
        match s {
            Some((0, _)) => {
                p.state
                    .counter_add(&name, rng.gen_range(0..9u64), rng.gen_range(0..999u64))
            }
            Some((1, n)) => {
                for _ in 0..rng.gen_range(0..2 * n) {
                    p.state
                        .reg_write(&name, rng.gen_range(0..*n), rng.gen_range(1..u64::MAX));
                }
            }
            Some((2, n)) => {
                // Three times the capacity from a narrow key range: evicts
                // under the exact stores, collides under register arrays;
                // reads reorder the LRU, deletes leave holes.
                for _ in 0..rng.gen_range(0..3 * n + 1) {
                    let key = rng.gen_range(0..4 * n);
                    match rng.gen_range(0..6u64) {
                        0 => p.state.map_del(&name, key),
                        1 => drop(p.state.map_get(&name, key)),
                        _ => p
                            .state
                            .map_put(&name, key, rng.gen_range(0..99u64))
                            .unwrap(),
                    }
                }
            }
            Some((_, _)) => {
                p.state.now = SimTime::from_nanos(rng.gen_range(0..1_000_000u64));
                for _ in 0..rng.gen_range(0..6u64) {
                    p.state.meter_check(&name, rng.gen_range(0..3u64));
                }
            }
            None => {}
        }
    }
    for (i, t) in tables.iter().enumerate() {
        let Some((size, ternary, two)) = t else {
            continue;
        };
        let table = p.tables.get_mut(&format!("t{i}")).unwrap();
        for _ in 0..rng.gen_range(0..*size + 2) {
            let key = rng.gen_range(0..6u64);
            let matches = if *ternary && rng.gen_bool(0.5) {
                vec![KeyMatch::Ternary {
                    value: key,
                    mask: rng.gen_range(0..8u64),
                }]
            } else {
                vec![KeyMatch::Exact(key)]
            };
            if rng.gen_bool(0.2) {
                table.remove(&matches);
                continue;
            }
            let action = if *two && rng.gen_bool(0.5) {
                "pass"
            } else {
                "deny"
            };
            let action = ActionCall {
                action: action.into(),
                args: vec![],
            };
            let entry = TableEntry {
                matches,
                priority: rng.gen_range(0..3u64) as i32,
                action,
            };
            let _ = table.insert(entry); // a full table refuses; that is fine
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_flip_builds_what_restore_and_reinsert_build(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = ENCODINGS[rng.gen_range(0..3u64) as usize];
        let mut states: Vec<Option<Obj>> =
            (0..6).map(|_| rng.gen_bool(0.7).then(|| random_obj(&mut rng))).collect();
        let mut tables: Vec<Option<Tab>> =
            (0..3).map(|_| rng.gen_bool(0.7).then(|| random_tab(&mut rng))).collect();
        let mut d = device(enc);
        d.install(source(&states, &tables)).unwrap();
        // Three flips in a row: the second and third start from carried state.
        for round in 0..3 {
            populate(&mut d, &states, &tables, &mut rng);
            for s in states.iter_mut() {
                *s = match (rng.gen_range(0..10u64), *s) {
                    (0, _) => None,                                    // removed (or stays absent)
                    (1, _) => Some(random_obj(&mut rng)),              // added, resized or kind-changed
                    (2, Some((kind, _))) => Some((kind, random_obj(&mut rng).1)), // resized
                    (_, kept) => kept,
                };
            }
            for t in tables.iter_mut() {
                *t = match (rng.gen_range(0..8u64), *t) {
                    (0, _) => None,
                    (1, _) => Some(random_tab(&mut rng)),
                    (_, kept) => kept,
                };
            }
            let expected = flip(&mut d, source(&states, &tables));
            assert_same(d.program().unwrap(), &expected, &format!("seed {seed} {enc:?} round {round}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Directed cases
// ---------------------------------------------------------------------------

fn one_map(cap: u64) -> ProgramBundle {
    bundle(&format!(
        "program p kind any {{ map m : map<u32, u64>[{cap}]; handler ingress(pkt) {{ forward(1); }} }}"
    ))
}

/// An exact store at capacity comes out of the flip re-stamped in key
/// order: the next insert evicts the smallest key, whatever the insertion
/// or access order was before.
#[test]
fn a_map_at_capacity_is_restamped_in_key_order() {
    for enc in [
        StateEncoding::FlowInstructionSet,
        StateEncoding::StatefulTable,
    ] {
        let mut d = device(enc);
        d.install(one_map(4)).unwrap();
        let state = &mut d.program_mut().unwrap().state;
        for key in [7, 3, 9, 5] {
            state.map_put("m", key, key * 10).unwrap();
        }
        state.map_get("m", 3); // newest under LRU, untouched under FIFO
                               // Same map, one more counter: the map is carried as declared.
        let target = bundle(
            "program p kind any { map m : map<u32, u64>[4]; counter c;
               handler ingress(pkt) { forward(1); } }",
        );
        let expected = flip(&mut d, target);
        assert_same(d.program().unwrap(), &expected, &format!("{enc:?}"));
        let state = &mut d.program_mut().unwrap().state;
        state.map_put("m", 1, 1).unwrap();
        assert_eq!(
            state.map_get("m", 3),
            None,
            "{enc:?}: the smallest key went first"
        );
        assert_eq!(
            state.map_get("m", 7),
            Some(70),
            "{enc:?}: not the first inserted"
        );

        // Shrinking keeps the largest keys (the last re-put).
        let expected = flip(&mut d, one_map(2));
        assert_same(d.program().unwrap(), &expected, &format!("{enc:?} shrunk"));
        let state = &mut d.program_mut().unwrap().state;
        assert_eq!(
            (state.map_get("m", 7), state.map_get("m", 9)),
            (Some(70), Some(90))
        );
        assert_eq!(state.map_len("m"), 2);
    }
}

/// A register-array map keeps its slots when the size stays and is
/// re-hashed in key order when it changes; the dropped-insert tally of the
/// old program does not cross.
#[test]
fn a_colliding_register_array_map_is_carried_slot_for_slot() {
    let mut d = device(StateEncoding::RegisterArray);
    d.install(one_map(4)).unwrap();
    let state = &mut d.program_mut().unwrap().state;
    for key in (0..32).rev() {
        state.map_put("m", key, key + 100).unwrap();
    }
    assert!(
        state.counter_read("__dropped_inserts") > 0,
        "32 keys into 4 slots collide"
    );
    let held = state.map_len("m");

    let same_size = bundle(
        "program p kind any { map m : map<u32, u64>[4]; counter c;
           handler ingress(pkt) { forward(1); } }",
    );
    let expected = flip(&mut d, same_size);
    assert_same(d.program().unwrap(), &expected, "same size");
    let state = &d.program().unwrap().state;
    assert_eq!(state.map_len("m"), held);
    assert_eq!(state.counter_read("__dropped_inserts"), 0);

    let expected = flip(&mut d, one_map(8));
    assert_same(d.program().unwrap(), &expected, "grown");
    let expected = flip(&mut d, one_map(2));
    assert_same(d.program().unwrap(), &expected, "shrunk");
}

/// A meter declared in both programs restarts with full buckets. That is
/// today's behaviour — bucket levels are not part of `LogicalState`, so no
/// flip has ever carried them — and not a judgement that it is right:
/// carrying them is a model change with re-pinned recordings, its own PR.
#[test]
fn a_meter_declared_in_both_programs_is_fresh_after_the_flip() {
    let metered = |port: u16| {
        bundle(&format!(
            "program p kind any {{ meter lim rate 1 burst 2;
               handler ingress(pkt) {{ forward({port}); }} }}"
        ))
    };
    for enc in ENCODINGS {
        let mut d = device(enc);
        d.install(metered(1)).unwrap();
        let state = &mut d.program_mut().unwrap().state;
        state.now = SimTime::from_secs(5);
        assert!(state.meter_check("lim", 7) && state.meter_check("lim", 7));
        assert!(!state.meter_check("lim", 7), "the bucket is drained");

        let expected = flip(&mut d, metered(2));
        assert_same(d.program().unwrap(), &expected, &format!("{enc:?}"));
        let state = &mut d.program_mut().unwrap().state;
        state.now = SimTime::from_secs(5);
        assert!(
            state.meter_check("lim", 7),
            "{enc:?}: a fresh bucket admits again"
        );
    }
}
