//! Resync properties (`DESIGN.md` §9): over seeded fleets whose devices
//! restart or lose and gain table entries behind the controller's back,
//!
//! - every resync converges: each device's digest equals intent after it;
//! - a device that runs its intended image is repaired in place — no
//!   shadow, no flip, its program version untouched — and the report
//!   names exactly the tables whose entries differed;
//! - on a lossless fabric a resync sends at most what one that shipped a
//!   shadow and replayed every intended entry would (a probe, a begin and
//!   one upsert per intended entry); under loss it still converges.

use flexnet_controller::{
    IntendedStore, LossyFabric, ReplicatedIntentLog, ResyncOutcome, Resyncer, RetryPolicy,
};
use flexnet_dataplane::{Device, TableEntry};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_sim::{diverged, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two tables, so that a loss in one leaves the other's digest alone.
fn program() -> ProgramBundle {
    let file = parse_source(
        "program app kind any {
           counter hits;
           table acl {
             key { ipv4.src : exact; }
             action deny() { drop(); }
             action allow() { forward(1); }
             default allow();
             size 32;
           }
           table watch {
             key { ipv4.dst : exact; }
             action mark() { count(hits); }
             size 32;
           }
           handler ingress(pkt) { apply watch; apply acl; forward(1); }
         }",
    )
    .expect("parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

const TABLES: [(&str, &str); 2] = [("acl", "deny"), ("watch", "mark")];

fn entry(table: usize, key: u64) -> TableEntry {
    let action = ActionCall {
        action: TABLES[table].1.into(),
        args: vec![],
    };
    TableEntry::exact(&[key], action)
}

fn device(sim: &mut Simulation, node: NodeId) -> &mut Device {
    &mut sim.topo.node_mut(node).expect("leaf").device
}

/// A leaf-spine fleet whose leaves run `program()` with a seeded set of
/// entries, recorded as intent.
fn fleet(rng: &mut StdRng, seed: u64) -> (Simulation, Vec<NodeId>, IntendedStore) {
    let (topo, _spines, leaves, _hosts) = Topology::leaf_spine(2, 4, 1);
    let mut sim = Simulation::new(topo);
    let mut log = ReplicatedIntentLog::new(3, seed).expect("cluster elects");
    let mut store = IntendedStore::new();
    for &leaf in &leaves {
        device(&mut sim, leaf).install(program()).expect("installs");
        store
            .commit_target(&mut log, 0, leaf, program())
            .expect("intent recorded");
        for _ in 0..rng.gen_range(0..6u32) {
            let (table, key) = (rng.gen_range(0..2usize), rng.gen_range(0..16u64));
            device(&mut sim, leaf)
                .add_entry(TABLES[table].0, entry(table, key))
                .expect("fits");
            store
                .record_entry(&mut log, leaf, TABLES[table].0, entry(table, key))
                .expect("recorded");
        }
    }
    (sim, leaves, store)
}

/// Restarts some leaves and makes others lose or gain an entry.
fn disturb(rng: &mut StdRng, sim: &mut Simulation, leaves: &[NodeId]) {
    for (i, &leaf) in leaves.iter().enumerate() {
        let dev = device(sim, leaf);
        match rng.gen_range(0..4u32) {
            0 => {}
            1 => {
                let at = SimTime::from_millis(100 + i as u64);
                dev.crash(at);
                dev.restart(at + SimDuration::from_millis(5))
                    .expect("restarts");
            }
            2 => {
                let table = rng.gen_range(0..2usize);
                let key = rng.gen_range(0..16u64);
                dev.remove_entry(TABLES[table].0, &entry(table, key).matches)
                    .expect("table");
            }
            _ => {
                let table = rng.gen_range(0..2usize);
                let key = rng.gen_range(16..32u64);
                dev.add_entry(TABLES[table].0, entry(table, key))
                    .expect("fits");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_resync_converges_in_place_and_sends_no_more_than_a_reprovision(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut sim, leaves, store) = fleet(&mut rng, seed);
        disturb(&mut rng, &mut sim, &leaves);
        let before: Vec<_> = leaves
            .iter()
            .map(|&leaf| {
                let dev = &sim.topo.node(leaf).unwrap().device;
                let levels = dev.digest_levels().expect("a program runs");
                (dev.version(), levels.tables)
            })
            .collect();
        let intended: Vec<Vec<u64>> = leaves
            .iter()
            .map(|&leaf| {
                let rec = store.get(leaf).unwrap();
                let digest = |t: &str| {
                    let held = rec.entries().filter(|(name, _)| *name == t).map(|(_, e)| e);
                    flexnet_dataplane::table_digest(t, held)
                };
                TABLES.iter().map(|(t, _)| digest(t)).collect()
            })
            .collect();

        let lossy = seed % 2 == 1;
        let mut fabric = if lossy { LossyFabric::new(0.2, seed) } else { LossyFabric::reliable() };
        let mut resyncer = Resyncer::default();
        let (now, policy) = (SimTime::from_secs(1), RetryPolicy::default());
        let reports = resyncer
            .resync_all(&mut sim, &store, &leaves, now, &mut fabric, &policy, None)
            .expect("every resync completes");
        prop_assert!(diverged(&sim, &store.intended_digests()).is_empty(), "seed {}", seed);
        for report in &reports {
            let at = leaves.iter().position(|l| *l == report.node).unwrap();
            let (version, tables) = &before[at];
            let dev = &sim.topo.node(report.node).unwrap().device;
            prop_assert_eq!(dev.version(), *version, "{}: nothing flipped", report.node);
            prop_assert!(!dev.reconfig_in_progress());
            let differ: Vec<&str> = TABLES
                .iter()
                .zip(tables.iter().zip(&intended[at]))
                .filter(|(_, (got, want))| got != want)
                .map(|((t, _), _)| *t)
                .collect();
            prop_assert_eq!(&report.tables, &differ, "{}: the tables that differed", report.node);
            let held = store.get(report.node).unwrap().entries().count() as u32;
            match report.outcome {
                ResyncOutcome::AlreadyConverged => prop_assert!(differ.is_empty()),
                ResyncOutcome::Repaired { .. } => prop_assert!(!differ.is_empty()),
                other => prop_assert!(false, "{}: {:?}", report.node, other),
            }
            if !lossy {
                let reprovision = if differ.is_empty() { 1 } else { 2 + held };
                let sent = report.messages;
                prop_assert!(sent <= reprovision, "{}: {} messages", report.node, sent);
            }
        }
    }
}

/// `program()` with the `watch` table resized and a counter more: a
/// change whose flip carries `acl`'s entries and not `watch`'s.
fn program_v2() -> ProgramBundle {
    let src = program()
        .program
        .to_source()
        .replace("size 32;\n    }\n  handler", "size 64;\n    }\n  handler");
    let mut v2 = ProgramBundle {
        headers: Vec::new(),
        program: parse_source(&src).expect("parses").programs.remove(0),
    };
    let extra = parse_source("program p kind any { counter more; }").expect("parses");
    let more = extra.programs[0].states[0].clone();
    v2.program.states.push(more);
    v2
}

/// The resync's code-mismatch path end to end: a leaf prepares the new
/// program, crashes before its flip while the coordinator commits, and
/// restarts on its old image. Intent is the new program with an entry in
/// each table; the resync reprovisions the leaf through a shadow and a
/// flip from the image it runs to intent's, and then sets the tables
/// intent holds.
#[test]
fn a_leaf_that_lost_its_prepared_shadow_is_reprovisioned_to_intent() {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut sim, leaves, mut store) = fleet(&mut rng, 7);
    let mut log = ReplicatedIntentLog::new(3, 7).expect("cluster elects");
    let leaf = leaves[0];
    let old_digest = device(&mut sim, leaf).config_digest();

    // Phase 1 on the leaf; the decision is made and intent follows it.
    let tag = flexnet_dataplane::TxnTag {
        txn_id: 1,
        epoch: 1,
    };
    let at = SimTime::from_millis(10);
    device(&mut sim, leaf)
        .prepare_txn_reconfig(program_v2(), at, tag)
        .expect("prepares");
    store
        .commit_target(&mut log, 1, leaf, program_v2())
        .expect("intent recorded");
    for (table, key) in [(0, 3), (1, 4)] {
        store
            .record_entry(&mut log, leaf, TABLES[table].0, entry(table, key))
            .expect("recorded");
    }
    // The shadow dies with the leaf's memory; it comes back on v1.
    let dev = device(&mut sim, leaf);
    dev.crash(at + SimDuration::from_millis(1));
    dev.restart(at + SimDuration::from_millis(5))
        .expect("restarts");
    assert!(!dev.reconfig_in_progress());
    assert_ne!(dev.config_digest(), store.digest(leaf).unwrap());
    assert_ne!(old_digest, store.digest(leaf).unwrap());

    let mut fabric = LossyFabric::reliable();
    let (now, policy) = (SimTime::from_secs(1), RetryPolicy::default());
    let reports = Resyncer::default()
        .resync_all(&mut sim, &store, &[leaf], now, &mut fabric, &policy, None)
        .expect("the resync completes");
    let report = &reports[0];
    assert!(
        matches!(
            report.outcome,
            ResyncOutcome::Reprovisioned { entries: 2, .. }
        ),
        "{:?}",
        report.outcome
    );
    assert_eq!(report.tables, ["acl", "watch"]);
    assert_eq!(report.messages, 3, "the probe, the begin and one repair");
    let dev = device(&mut sim, leaf);
    assert!(!dev.reconfig_in_progress());
    assert_eq!(dev.config_digest(), store.digest(leaf).unwrap());
    assert_eq!(
        dev.program().unwrap().bundle(),
        &program_v2(),
        "the leaf runs intent's program"
    );
    assert!(diverged(&sim, &store.intended_digests()).is_empty());
}
