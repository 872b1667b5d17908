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
