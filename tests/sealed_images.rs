//! Sealed program images (`DESIGN.md` §18):
//!
//! - whatever happens to a device — installs, entry churn, hitless flips,
//!   aborts, in-place ops, restarts, quarantine fallbacks — its memoised
//!   `config_digest()` equals the from-scratch `config_digest_of`, and
//!   the intended-state store's digest equals it on the controller side;
//! - one committed transaction seals and compiles each distinct target
//!   once, and every device and the store share that one image;
//! - one operation plans each distinct (active image, target image) pair
//!   once; a device with no image identity to share under — patched in
//!   place, or handed a raw bundle — gets a plan of its own and the same
//!   report, and a rejected begin on one device costs the others nothing;
//! - sealing moved no check: bad targets abort where and how they did,
//!   duplicate prepares re-ack without sealing, restarts keep the image;
//! - intent and device apply the same entry carry-over rule;
//! - the seal folds the printed program without building it: the digest
//!   is still FNV-1a over the bytes `to_source()` returns, and those bytes
//!   still parse back to the program.

use flexnet::prelude::*;
use flexnet_controller::txn::LoggedTxnOutcome;
use flexnet_controller::{
    logged_transactional_reconfig, IntendedDevice, IntendedStore, IntentRecord, LoggedTxnReport,
    ReplicatedIntentLog,
};
use flexnet_dataplane::{
    config_digest_of, root_digest, InstalledProgram, ProgramImage, ReconfigPlan, ReconfigReport,
    SealTarget, SealedTargets, TxnTag, EMPTY_CONFIG_DIGEST,
};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::{diff_bundles, ReconfigOp};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[path = "common/gallery.rs"]
mod gallery_programs;

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

/// An ACL of `size` entries in front of `counters + 1` counters.
fn gate(counters: usize, size: usize) -> ProgramBundle {
    let decls: String = (0..=counters).map(|i| format!("counter c{i};\n")).collect();
    let counts: String = (0..=counters).map(|i| format!("count(c{i});\n")).collect();
    bundle(&format!(
        "program app kind any {{
           {decls}
           table acl {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             action allow() {{ forward(1); }}
             default allow();
             size {size};
           }}
           handler ingress(pkt) {{ {counts} apply acl; forward(1); }}
         }}"
    ))
}

/// `gate` with a second table, `watch`, sized apart from `acl` so that a
/// flip can carry one table and start the other empty.
fn two_tables(counters: usize, acl: usize, watch: usize) -> ProgramBundle {
    let decls: String = (0..=counters).map(|i| format!("counter c{i};\n")).collect();
    bundle(&format!(
        "program app kind any {{
           {decls}
           table acl {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             action allow() {{ forward(1); }}
             default allow();
             size {acl};
           }}
           table watch {{
             key {{ ipv4.dst : exact; }}
             action mark() {{ count(c0); }}
             size {watch};
           }}
           handler ingress(pkt) {{ apply watch; apply acl; forward(1); }}
         }}"
    ))
}

fn tableless() -> ProgramBundle {
    bundle("program app kind any { counter c0; handler ingress(pkt) { count(c0); forward(1); } }")
}

/// Verifies, then divides by an absent map value on every packet.
fn trapping() -> ProgramBundle {
    bundle(
        "program app kind any {
           map d : map<u32, u32>[64];
           handler ingress(pkt) { let x = 1000 / map_get(d, ipv4.src); forward(1); }
         }",
    )
}

fn ill_typed() -> ProgramBundle {
    bundle("program app kind any { handler ingress(pkt) { count(nosuch); forward(1); } }")
}

fn unverifiable() -> ProgramBundle {
    bundle(
        "program app kind any {
           register r : u64[16];
           handler ingress(pkt) { reg_write(r, hash(ipv4.src), 1); forward(1); }
         }",
    )
}

fn deny(key: u64) -> TableEntry {
    let action = ActionCall {
        action: "deny".into(),
        args: vec![],
    };
    TableEntry::exact(&[key], action)
}

/// The digest recomputed from nothing but the device's visible bundle and
/// entries.
fn reference_digest(dev: &Device) -> u64 {
    let Some(p) = dev.program() else {
        return EMPTY_CONFIG_DIGEST;
    };
    let entries: Vec<(String, TableEntry)> = p
        .tables()
        .iter()
        .flat_map(|t| t.entries().iter().map(|e| (t.decl.name.clone(), e.clone())))
        .collect();
    config_digest_of(p.bundle(), &entries)
}

/// The store's digest for `rec` recomputed from nothing but its image and
/// entries.
fn intended_reference(rec: &IntendedDevice) -> u64 {
    let entries: Vec<(String, TableEntry)> = rec
        .entries()
        .map(|(t, e)| (t.to_string(), e.clone()))
        .collect();
    config_digest_of(rec.image().bundle(), &entries)
}

/// A device and the controller's record of it, driven side by side.
struct Pair {
    dev: Device,
    store: IntendedStore,
    log: ReplicatedIntentLog,
    /// Whether every change since the last install reached both sides.
    in_sync: bool,
    now: SimTime,
}

const NODE: NodeId = NodeId(1);

impl Pair {
    /// The store's kept digest of `NODE` against the reference over its
    /// image and entries: what a `commit_target` or `record_entry` must
    /// leave behind.
    fn check_store(&self, step: &str) -> std::result::Result<(), TestCaseError> {
        let rec = self.store.get(NODE).expect("intent was recorded");
        prop_assert_eq!(
            self.store.digest(NODE),
            Some(intended_reference(rec)),
            "{}",
            step
        );
        Ok(())
    }

    fn check(&self, step: &str) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(
            self.dev.config_digest(),
            reference_digest(&self.dev),
            "device, {}",
            step
        );
        let levels = self.dev.digest_levels();
        let root = levels.map_or(EMPTY_CONFIG_DIGEST, |l| root_digest(l.code, l.tables));
        prop_assert_eq!(root, self.dev.config_digest(), "device levels, {}", step);
        if let Some(rec) = self.store.get(NODE) {
            let want = intended_reference(rec);
            prop_assert_eq!(self.store.digest(NODE), Some(want), "store, {}", step);
            if self.in_sync {
                prop_assert_eq!(want, self.dev.config_digest(), "store vs device, {}", step);
            }
        }
        Ok(())
    }

    fn install(&mut self, target: ProgramBundle) -> std::result::Result<(), TestCaseError> {
        self.dev.install(target.clone()).unwrap();
        // A fresh install wipes the device's entries; intent starts over.
        self.store = IntendedStore::new();
        self.store
            .commit_target(&mut self.log, 0, NODE, target)
            .unwrap();
        self.in_sync = true;
        self.check_store("install")
    }

    /// Records `entry` in the store after the device took it.
    fn record(&mut self, table: &str, entry: TableEntry) -> std::result::Result<(), TestCaseError> {
        // Intent may be on another program by now.
        let recorded = self
            .store
            .record_entry(&mut self.log, NODE, table, entry)
            .is_ok();
        self.in_sync &= recorded;
        if recorded {
            self.check_store("record_entry")?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The memoised digests — the device's root, each of its tables', and
    /// the store's — never drift from the from-scratch reference: read
    /// before and after every op, so a memo a route forgot to clear is
    /// caught stale. Programs hold two tables, entries go to either, and a
    /// flip may carry one table and rebuild the other.
    #[test]
    fn digests_equal_the_reference_after_any_history(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Pair {
            dev: Device::new(NODE, Architecture::drmt_default(), StateEncoding::StatefulTable),
            store: IntendedStore::new(),
            log: ReplicatedIntentLog::new(3, seed).unwrap(),
            in_sync: true,
            now: SimTime::from_secs(1),
        };
        w.check("empty")?;
        w.install(two_tables(0, 16, 8))?;
        w.check("first install")?;
        for step in 0..24 {
            w.check("before the op")?;
            w.now += SimDuration::from_secs(2);
            let now = w.now;
            let counters = rng.gen_range(0..3u64) as usize;
            let target = match rng.gen_range(0..8u64) {
                0 => tableless(),
                1 => gate(counters, 16),
                2 => two_tables(counters, 32, 8),
                3 => two_tables(counters, 16, 16),
                _ => two_tables(counters, 16, 8),
            };
            let table = ["acl", "watch"][rng.gen_range(0..2usize)];
            let action = ActionCall {
                action: if table == "acl" { "deny" } else { "mark" }.into(),
                args: vec![],
            };
            let entry = TableEntry::exact(&[rng.gen_range(0..8u64)], action);
            // A second storm in a row leaves no fallback: reinstall.
            let what = match rng.gen_range(0..10u64) {
                _ if w.dev.program().is_none() => {
                    w.install(target)?;
                    "install on the transparent default"
                }
                0 => {
                    w.install(target)?;
                    "install"
                }
                1 | 2 => {
                    if w.dev.add_entry(table, entry.clone()).is_ok() {
                        w.record(table, entry)?;
                    }
                    "add_entry"
                }
                9 => {
                    let tables = w.dev.program_mut().unwrap().tables_mut();
                    if tables.get_mut(table).is_some_and(|t| t.insert(entry.clone()).is_ok()) {
                        w.record(table, entry)?;
                    }
                    "entry inserted through tables_mut"
                }
                3 => {
                    let gone = w.dev.remove_entry(table, &entry.matches);
                    // The store has no removal: intent keeps the entry.
                    w.in_sync &= gone.unwrap_or(0) == 0;
                    "remove_entry"
                }
                // A refused change is a no-op on both sides.
                4 | 5 => match w.dev.begin_runtime_reconfig(target.clone(), now) {
                    Ok(rep) => {
                        w.check("hitless shadow pending")?;
                        w.dev.tick(rep.ready_at);
                        w.store.commit_target(&mut w.log, step, NODE, target).unwrap();
                        w.check_store("commit_target")?;
                        "hitless flip"
                    }
                    Err(_) => "hitless change refused",
                },
                6 => {
                    if let Ok(rep) = w.dev.begin_runtime_reconfig(target, now) {
                        w.dev.abort_reconfig(now + rep.duration).unwrap();
                    }
                    "abort"
                }
                7 => {
                    let ops = diff_bundles(w.dev.program().unwrap().bundle(), &target);
                    w.dev.begin_unsafe_inplace(target, now).unwrap();
                    w.in_sync = false;
                    let mut t = now;
                    for op in &ops {
                        t += w.dev.cost_model().op_duration(op);
                        w.dev.tick(t);
                        w.check("after one in-place op")?;
                    }
                    w.dev.tick(t); // an empty diff still has to be closed
                    prop_assert!(!w.dev.reconfig_in_progress());
                    "unsafe in place"
                }
                _ if rng.gen_range(0..2u64) == 0 => {
                    w.dev.crash(now);
                    w.dev.restart(now + SimDuration::from_millis(5)).unwrap();
                    w.in_sync = false;
                    "crash + restart"
                }
                _ => {
                    // Ship a rogue program and storm it until the device
                    // falls back to the image it ran before: 16 trapping
                    // packets fill the sandbox's minimum window.
                    if let Ok(rep) = w.dev.begin_runtime_reconfig(trapping(), now) {
                        w.dev.tick(rep.ready_at);
                        for i in 0..16u64 {
                            let mut pkt = Packet::tcp(i, i as u32, 20, 1, 80, 0);
                            w.dev.process(&mut pkt, rep.ready_at).unwrap();
                        }
                        prop_assert!(w.dev.quarantined());
                        w.in_sync = false;
                    }
                    "quarantine fallback"
                }
            };
            w.check(what)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Structure: one seal, one compile, shared by ownership
// ---------------------------------------------------------------------------

struct Fleet {
    sim: Simulation,
    leaves: Vec<NodeId>,
    log: ReplicatedIntentLog,
    store: IntendedStore,
}

fn fleet() -> Fleet {
    let (topo, _spines, leaves, _hosts) = Topology::leaf_spine(2, 8, 1);
    let mut sim = Simulation::new(topo);
    let mut log = ReplicatedIntentLog::new(3, 5).unwrap();
    let mut store = IntendedStore::new();
    for leaf in &leaves {
        let dev = &mut sim.topo.node_mut(*leaf).unwrap().device;
        dev.install(gate(0, 16)).unwrap();
        store
            .commit_target(&mut log, 0, *leaf, gate(0, 16))
            .unwrap();
    }
    Fleet {
        sim,
        leaves,
        log,
        store,
    }
}

fn run_txn(f: &mut Fleet, targets: &[(NodeId, ProgramBundle)]) -> LoggedTxnReport {
    let report = logged_transactional_reconfig(
        &mut f.sim,
        targets,
        SimTime::from_secs(1),
        &mut LossyFabric::reliable(),
        &RetryPolicy::default(),
        &mut f.log,
        None,
        Some(&mut f.store),
        None,
    )
    .unwrap();
    if let Some(at) = report.commit_at {
        for (node, _) in targets {
            f.sim.topo.node_mut(*node).unwrap().device.tick(at);
        }
    }
    report
}

fn image_of(f: &Fleet, node: NodeId) -> Arc<ProgramImage> {
    let p = f.sim.topo.node(node).unwrap().device.program().unwrap();
    p.image().expect("sealed").clone()
}

#[test]
fn one_transaction_seals_and_compiles_each_distinct_target_once() {
    let mut f = fleet();
    let four = f.leaves[..4].to_vec();
    let targets: Vec<_> = four.iter().map(|n| (*n, gate(1, 16))).collect();
    assert_eq!(
        run_txn(&mut f, &targets).outcome,
        LoggedTxnOutcome::Committed
    );
    let first = image_of(&f, four[0]);
    let code = |f: &Fleet, n: NodeId| {
        let p = f.sim.topo.node(n).unwrap().device.program().unwrap();
        p.compiled().expect("compiled at prepare") as *const _
    };
    for n in &four {
        assert!(
            Arc::ptr_eq(&image_of(&f, *n), &first),
            "{n} shares the one image"
        );
        assert!(
            Arc::ptr_eq(f.store.get(*n).unwrap().image(), &first),
            "store, {n}"
        );
        assert_eq!(
            code(&f, *n),
            code(&f, four[0]),
            "{n} shares the one bytecode"
        );
        assert_eq!(f.store.digest(*n), Some(image_of(&f, *n).code_digest()));
    }
    assert_eq!(first.bundle(), &gate(1, 16));

    // Two distinct bundles, interleaved: exactly two images.
    let mixed: Vec<_> = f.leaves[4..8]
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, gate(1 + i % 2, 16)))
        .collect();
    assert_eq!(run_txn(&mut f, &mixed).outcome, LoggedTxnOutcome::Committed);
    let images: Vec<_> = mixed.iter().map(|(n, _)| image_of(&f, *n)).collect();
    assert!(Arc::ptr_eq(&images[0], &images[2]) && Arc::ptr_eq(&images[1], &images[3]));
    assert!(!Arc::ptr_eq(&images[0], &images[1]));
    assert!(
        !Arc::ptr_eq(&images[0], &first),
        "sharing is per transaction"
    );
}

/// A tenant header arrives, leaves and arrives again by transaction: each
/// round's devices share one image and one bytecode, their parsers accept
/// exactly what the image declares, and a packet carrying the header is
/// matched while it is visible and carried through untouched while not.
#[test]
fn transactions_add_remove_and_readd_a_tenant_header_on_shared_images() {
    let tagged = || {
        bundle(
            "header tun { fields { id: 16; } follows udp when udp.dport == 4789; }
             program app kind any {
               counter c0;
               handler ingress(pkt) {
                 if (valid(tun) && tun.id == 7) { count(c0); drop(); }
                 forward(1);
               }
             }",
        )
    };
    let mut f = fleet();
    let four = f.leaves[..4].to_vec();
    let mut tunnelled = Packet::udp(1, 1, 2, 3, 4789);
    tunnelled.push_header(flexnet_types::Header::new("tun", [("id", 7)]));
    for (round, (target, visible)) in [(tagged(), true), (gate(0, 16), false), (tagged(), true)]
        .into_iter()
        .enumerate()
    {
        let targets: Vec<_> = four.iter().map(|n| (*n, target.clone())).collect();
        assert_eq!(
            run_txn(&mut f, &targets).outcome,
            LoggedTxnOutcome::Committed
        );
        let first = image_of(&f, four[0]);
        assert_eq!(first.bundle(), &target);
        for n in &four {
            assert!(Arc::ptr_eq(&image_of(&f, *n), &first), "round {round}: {n}");
            let want = f.store.digest(*n);
            let dev = &mut f.sim.topo.node_mut(*n).unwrap().device;
            assert_eq!(dev.parser().can_parse("tun"), visible, "round {round}: {n}");
            assert_eq!(Some(dev.config_digest()), want, "round {round}: {n}");
            assert_eq!(
                dev.config_digest(),
                reference_digest(dev),
                "round {round}: {n}"
            );
            let mut pkt = tunnelled.clone();
            let verdict = dev
                .process(&mut pkt, SimTime::from_secs(2))
                .unwrap()
                .verdict;
            let expected = if visible {
                Verdict::Drop
            } else {
                Verdict::Forward(1)
            };
            assert_eq!(verdict, expected, "round {round}: {n}");
            assert_eq!(stack(&pkt), stack(&tunnelled), "round {round}: {n}");
        }
    }
}

/// Traps the active program of `node` until the device quarantines it.
fn quarantine(f: &mut Fleet, node: NodeId) {
    let dev = &mut f.sim.topo.node_mut(node).unwrap().device;
    for i in 0..64 {
        let mut pkt = Packet::tcp(1000 + i, 5, 20, 1, 80, 0);
        dev.process(&mut pkt, SimTime::from_secs(2)).unwrap();
        if dev.quarantined() {
            return;
        }
    }
    panic!("{node}: 64 trapping packets did not quarantine the program");
}

/// One state layout per image: every device on an image holds the image's
/// layout, a flip hands the incoming program its target image's, and the
/// outgoing program — the quarantine fallback — keeps its own image's.
#[test]
fn every_device_on_an_image_and_its_fallback_share_the_images_layout() {
    let mut f = fleet();
    let four = f.leaves[..4].to_vec();
    let layout = |f: &Fleet, n: NodeId| {
        f.sim
            .topo
            .node(n)
            .unwrap()
            .device
            .program()
            .unwrap()
            .state
            .layout()
            .clone()
    };
    let on = |image: &Arc<ProgramImage>| image.layout().clone();

    let targets: Vec<_> = four.iter().map(|n| (*n, gate(1, 16))).collect();
    assert_eq!(
        run_txn(&mut f, &targets).outcome,
        LoggedTxnOutcome::Committed
    );
    let first = image_of(&f, four[0]);
    let targets: Vec<_> = four.iter().map(|n| (*n, trapping())).collect();
    assert_eq!(
        run_txn(&mut f, &targets).outcome,
        LoggedTxnOutcome::Committed
    );
    let second = image_of(&f, four[0]);
    for n in &four {
        assert!(
            Arc::ptr_eq(&layout(&f, *n), &on(&second)),
            "{n}: the image's layout after the flip"
        );
        quarantine(&mut f, *n);
        assert!(
            Arc::ptr_eq(&image_of(&f, *n), &first),
            "{n}: back on the outgoing image"
        );
        assert!(
            Arc::ptr_eq(&layout(&f, *n), &on(&first)),
            "{n}: and on its layout"
        );
    }
}

/// A collision in a register-array map is tallied beside the layout, not
/// in it: two devices on one image still share the image's layout after
/// their packets collided, and `__dropped_inserts` reads and snapshots as a
/// counter that appears with the first collision.
#[test]
fn a_packet_never_changes_the_shared_layout() {
    let image = ProgramImage::seal(bundle(
        "program app kind any {
           map seen : map<u32, u64>[2];
           handler ingress(pkt) { map_put(seen, ipv4.src, 1); forward(1); }
         }",
    ))
    .unwrap();
    let mut devs: Vec<Device> = (0..2)
        .map(|i| {
            let mut d = Device::new(
                NodeId(i),
                Architecture::drmt_default(),
                StateEncoding::RegisterArray,
            );
            d.install(image.clone()).unwrap();
            d
        })
        .collect();
    for (i, dev) in devs.iter_mut().enumerate() {
        let state = || &dev.program().unwrap().state;
        assert_eq!(state().counter_read("__dropped_inserts"), 0);
        assert!(!state()
            .snapshot()
            .counters
            .contains_key("__dropped_inserts"));
        for src in 0..16 * (i as u32 + 1) {
            let mut pkt = Packet::tcp(src as u64, src, 20, 1, 80, 0);
            assert_eq!(
                dev.process(&mut pkt, SimTime::ZERO).unwrap().verdict,
                Verdict::Forward(1)
            );
        }
        let state = &dev.program().unwrap().state;
        let dropped = state.counter_read("__dropped_inserts");
        assert_eq!(
            dropped,
            16 * (i as u64 + 1) - state.map_len("seen") as u64,
            "device {i}"
        );
        assert_eq!(state.snapshot().counters["__dropped_inserts"], (dropped, 0));
        assert!(
            state.counter_slot("__dropped_inserts").is_none(),
            "not a slot of the layout"
        );
    }
    for dev in &devs {
        assert!(Arc::ptr_eq(
            dev.program().unwrap().state.layout(),
            image.layout()
        ));
    }
}

// ---------------------------------------------------------------------------
// One plan per (active image, target image) pair
// ---------------------------------------------------------------------------

/// What `begin_runtime_reconfig` reported before plans existed: the diff of
/// what the device runs against the target, priced by the device's own
/// cost model.
fn report_from_scratch(dev: &Device, target: &ProgramBundle, now: SimTime) -> ReconfigReport {
    let ops = diff_bundles(dev.program().unwrap().bundle(), target);
    let duration = dev.cost_model().plan_duration(&ops);
    ReconfigReport {
        mode: ReconfigMode::RuntimeHitless,
        ops: ops.len(),
        duration,
        ready_at: now + duration,
        outcome: ReconfigOutcome::InFlight,
    }
}

/// Placement (parser states included) and resource use of a device.
fn footprint(d: &Device) -> (Vec<String>, ResourceVec) {
    let placed = d.allocator().placed().map(str::to_owned).collect();
    (placed, d.used())
}

fn device_on(node: u32, arch: Architecture, image: &Arc<ProgramImage>) -> Device {
    let mut d = Device::new(NodeId(node), arch, StateEncoding::StatefulTable);
    d.install(image.clone()).unwrap();
    d
}

#[test]
fn one_operation_plans_each_active_target_pair_once() {
    let a = ProgramImage::seal(gate(0, 16)).unwrap();
    let b = ProgramImage::seal(gate(2, 16)).unwrap();
    let target = gate(1, 32);
    // Three on image A — on three architectures, so three cost models —
    // and one on image B.
    let mut devs = [
        device_on(0, Architecture::drmt_default(), &a),
        device_on(1, Architecture::rmt_default(), &a),
        device_on(2, Architecture::host_default(), &a),
        device_on(3, Architecture::drmt_default(), &b),
    ];
    let mut sealed = SealedTargets::default();
    let now = SimTime::from_secs(1);
    for (i, dev) in devs.iter_mut().enumerate() {
        let tag = TxnTag {
            txn_id: 5,
            epoch: 1,
        };
        let expected = report_from_scratch(dev, &target, now);
        let got = dev
            .prepare_txn_reconfig(sealed.target(&target), now, tag)
            .unwrap();
        assert_eq!(
            got, expected,
            "device {i}: report, ready_at and ops as without a plan"
        );
    }
    let probe = [ReconfigOp::RemoveTable("t".into())];
    let price = |d: &Device| d.cost_model().plan_duration(&probe);
    assert_ne!(
        price(&devs[0]),
        price(&devs[2]),
        "the durations came from different cost models"
    );

    // Asking again hands back the plans the prepares were made from: one
    // for the three on A, one for B (that the four prepares made exactly
    // these two is `image.rs`'s unit test, which can count them).
    let plans: Vec<Arc<ReconfigPlan>> = devs
        .iter()
        .map(|d| sealed.target(&target).into_plan(d.program()).unwrap())
        .collect();
    assert!(Arc::ptr_eq(&plans[0], &plans[1]) && Arc::ptr_eq(&plans[0], &plans[2]));
    assert!(
        !Arc::ptr_eq(&plans[0], &plans[3]),
        "a different active image, a different plan"
    );
    drop(sealed);
    assert_eq!(
        Arc::strong_count(&plans[0]),
        3 + 3,
        "past its operation a plan is held by these handles and by the \
         devices it prepared, until their flip"
    );

    // Every shadow is the one target image, whichever plan brought it.
    for dev in devs.iter_mut() {
        assert!(dev
            .commit_txn(
                TxnTag {
                    txn_id: 5,
                    epoch: 1
                },
                now
            )
            .unwrap());
        dev.tick(now + SimDuration::from_secs(60));
    }
    assert_eq!(Arc::strong_count(&plans[0]), 3, "a flip lets its plan go");
    let image = |d: &Device| d.program().unwrap().image().unwrap().clone();
    assert!(devs
        .iter()
        .all(|d| Arc::ptr_eq(&image(d), &image(&devs[0]))));
    assert_eq!(image(&devs[0]).bundle(), &target);
}

#[test]
fn a_device_without_an_image_identity_gets_a_plan_of_its_own_and_the_same_report() {
    let a = ProgramImage::seal(gate(0, 16)).unwrap();
    let target = gate(1, 32);
    let now = SimTime::from_secs(1);
    let mut sealed = SealedTargets::default();
    let mut shared = device_on(0, Architecture::drmt_default(), &a);
    let with_plan = shared
        .begin_runtime_reconfig(sealed.target(&target), now)
        .unwrap();
    let the_plan = sealed.target(&target).into_plan(shared.program()).unwrap();

    // A raw bundle and a bare image: sealed or not, no operation to share in.
    let mut raw = device_on(1, Architecture::drmt_default(), &a);
    assert_eq!(
        raw.begin_runtime_reconfig(target.clone(), now).unwrap(),
        with_plan
    );
    let mut bare = device_on(2, Architecture::drmt_default(), &a);
    let image = ProgramImage::seal(target.clone()).unwrap();
    assert_eq!(bare.begin_runtime_reconfig(image, now).unwrap(), with_plan);

    // Patched in place, then patched back: the same program as `a`, but no
    // longer the image — the operation's plan for `a` is not for it.
    let mut patched = device_on(3, Architecture::drmt_default(), &a);
    let p = patched.program_mut().unwrap();
    let extra = gate(1, 16).program.states[1].clone();
    p.apply_op(&ReconfigOp::AddState(extra)).unwrap();
    p.apply_op(&ReconfigOp::RemoveState("c1".into())).unwrap();
    assert!(p.image().is_none() && p.bundle() == a.bundle());
    let expected = report_from_scratch(&patched, &target, now);
    assert_eq!(expected, with_plan, "same program, same change");
    let private = sealed.target(&target).into_plan(patched.program()).unwrap();
    assert!(!Arc::ptr_eq(&private, &the_plan));
    assert_eq!(
        Arc::strong_count(&private),
        1,
        "not kept: there is nobody to share it with"
    );
    assert_eq!(
        patched
            .begin_runtime_reconfig(sealed.target(&target), now)
            .unwrap(),
        expected
    );

    for dev in [&mut shared, &mut raw, &mut bare, &mut patched] {
        dev.tick(with_plan.ready_at);
        assert_eq!(dev.program().unwrap().bundle(), &target);
        assert_eq!(dev.config_digest(), reference_digest(dev));
    }
}

/// A target that must never be asked for anything.
struct Untouchable;

impl SealTarget for Untouchable {
    fn into_image(self) -> Result<Arc<ProgramImage>> {
        panic!("asked for the image")
    }
    fn into_plan(self, _: Option<&InstalledProgram>) -> Result<Arc<ReconfigPlan>> {
        panic!("asked for the plan")
    }
}

#[test]
fn a_duplicate_prepare_asks_for_neither_image_nor_plan() {
    let a = ProgramImage::seal(gate(0, 16)).unwrap();
    let mut dev = device_on(0, Architecture::drmt_default(), &a);
    let tag = TxnTag {
        txn_id: 9,
        epoch: 0,
    };
    let target = gate(1, 16);
    let mut sealed = SealedTargets::default();
    let first = dev
        .prepare_txn_reconfig(sealed.target(&target), SimTime::from_secs(1), tag)
        .unwrap();
    let again = dev
        .prepare_txn_reconfig(Untouchable, SimTime::from_secs(2), tag)
        .unwrap();
    assert_eq!((again.ready_at, again.ops), (first.ready_at, first.ops));
    dev.crash(SimTime::from_secs(3));
    let err = dev
        .prepare_txn_reconfig(Untouchable, SimTime::from_secs(4), tag)
        .unwrap_err();
    assert!(matches!(err, FlexError::Unavailable(_)), "{err:?}");
}

#[test]
fn a_begin_rejected_on_one_device_leaves_it_clean_and_the_shared_plan_usable() {
    let a = ProgramImage::seal(gate(0, 16)).unwrap();
    // Frees `acl`, then asks for more than device 2 has left.
    let target = gate(1, 1 << 16);
    let mut devs: Vec<Device> = (0..4)
        .map(|i| device_on(i, Architecture::drmt_default(), &a))
        .collect();
    let ballast = devs[2].capacity().saturating_sub(&devs[2].used());
    let ballast =
        ResourceVec::from_pairs([(ResourceKind::SramKb, ballast.get(ResourceKind::SramKb))]);
    devs[2]
        .allocator_mut()
        .alloc("ballast".into(), &ballast, 0)
        .unwrap();
    let before = footprint(&devs[2]);
    let digest = devs[2].config_digest();

    let mut sealed = SealedTargets::default();
    let now = SimTime::from_secs(1);
    let tag = TxnTag {
        txn_id: 6,
        epoch: 1,
    };
    let expected = report_from_scratch(&devs[0], &target, now);
    for (i, dev) in devs.iter_mut().enumerate() {
        let got = dev.prepare_txn_reconfig(sealed.target(&target), now, tag);
        if i == 2 {
            let err = got.unwrap_err();
            assert!(matches!(err, FlexError::ResourceExhausted { .. }), "{err}");
        } else {
            assert_eq!(got.unwrap(), expected, "device {i}");
        }
    }
    assert!(!devs[2].reconfig_in_progress());
    assert_eq!(
        footprint(&devs[2]),
        before,
        "placement, use and parser untouched"
    );
    assert_eq!(devs[2].config_digest(), digest);

    // Without the ballast the same plan — device 2's refusal changed
    // nothing in it — still serves device 2.
    let plan = sealed.target(&target).into_plan(devs[2].program()).unwrap();
    assert!(Arc::ptr_eq(
        &plan,
        &sealed.target(&target).into_plan(devs[3].program()).unwrap()
    ));
    devs[2].allocator_mut().free("ballast").unwrap();
    let got = devs[2]
        .prepare_txn_reconfig(sealed.target(&target), now, tag)
        .unwrap();
    assert_eq!(got, expected);
}

// ---------------------------------------------------------------------------
// No check moved
// ---------------------------------------------------------------------------

#[test]
fn bad_targets_abort_as_that_devices_prepare() {
    for (bad, is_expected) in [
        (
            ill_typed(),
            (|e| matches!(e, FlexError::Type(_))) as fn(&FlexError) -> bool,
        ),
        (unverifiable(), |e| matches!(e, FlexError::Verify(_))),
    ] {
        let mut f = fleet();
        let (a, b) = (f.leaves[0], f.leaves[1]);
        let tag = TxnTag {
            txn_id: 77,
            epoch: 0,
        };
        let dev = &mut f.sim.topo.node_mut(b).unwrap().device;
        let err = dev
            .prepare_txn_reconfig(bad.clone(), SimTime::ZERO, tag)
            .unwrap_err();
        assert!(is_expected(&err), "{err:?}");
        assert!(!dev.reconfig_in_progress());

        let before = f.log.records().unwrap().len();
        let report = run_txn(&mut f, &[(a, gate(1, 16)), (b, bad)]);
        assert_eq!(report.outcome, LoggedTxnOutcome::Aborted);
        assert_eq!(report.prepared, vec![a], "the good target prepared first");
        let devices = vec![a.0 as u64, b.0 as u64];
        assert_eq!(
            f.log.records().unwrap()[before..],
            [
                IntentRecord::Intent {
                    txn: report.txn,
                    devices: devices.into()
                },
                IntentRecord::Aborted { txn: report.txn },
            ]
        );
        let why = &f.sim.errors.last().unwrap().1;
        assert!(
            why.contains(&format!("prepare on {b} failed: {err}")),
            "{why}"
        );
        for n in [a, b] {
            let dev = &f.sim.topo.node(n).unwrap().device;
            assert!(!dev.reconfig_in_progress(), "{n} rolled back");
            assert_eq!(dev.program().unwrap().bundle(), &gate(0, 16));
        }
    }
}

#[test]
fn duplicate_prepare_re_acks_without_sealing_and_a_down_device_never_asks() {
    let mut f = fleet();
    let dev = &mut f.sim.topo.node_mut(f.leaves[0]).unwrap().device;
    let tag = TxnTag {
        txn_id: 9,
        epoch: 0,
    };
    let first = dev
        .prepare_txn_reconfig(gate(1, 16), SimTime::from_secs(1), tag)
        .unwrap();
    let mut asked = false;
    let mut never = || {
        asked = true;
        ProgramImage::seal(ill_typed())
    };
    let again = dev
        .prepare_txn_reconfig(&mut never, SimTime::from_secs(2), tag)
        .unwrap();
    assert_eq!(
        again.ready_at, first.ready_at,
        "the transition clock did not restart"
    );
    dev.crash(SimTime::from_secs(3));
    let err = dev
        .prepare_txn_reconfig(&mut never, SimTime::from_secs(4), tag)
        .unwrap_err();
    assert!(matches!(err, FlexError::Unavailable(_)), "{err:?}");
    assert!(!asked, "neither a re-ack nor a refusal seals the target");
}

#[test]
fn restart_keeps_the_image_and_rebuilds_the_rest_lazily() {
    let mut f = fleet();
    let a = f.leaves[0];
    let shared = image_of(&f, a);
    let dev = &mut f.sim.topo.node_mut(a).unwrap().device;
    let flashed = dev.program().unwrap().compiled().unwrap() as *const _;
    dev.add_entry("acl", deny(7)).unwrap();
    dev.crash(SimTime::from_secs(1));
    dev.restart(SimTime::from_secs(2)).unwrap();
    let p = dev.program().unwrap();
    assert!(
        Arc::ptr_eq(p.image().unwrap(), &shared),
        "the flashed image survives"
    );
    assert!(p.tables().get("acl").unwrap().is_empty(), "entries wiped");
    assert!(
        p.compiled().is_none(),
        "bytecode dropped with the old slots"
    );
    let mut pkt = Packet::tcp(1, 7, 20, 1, 80, 0);
    dev.process(&mut pkt, SimTime::from_secs(3)).unwrap();
    let rebuilt = dev
        .program()
        .unwrap()
        .compiled()
        .expect("rebuilt on first use");
    assert_eq!(
        rebuilt as *const _, flashed,
        "taken back from the image, not recompiled"
    );
}

// ---------------------------------------------------------------------------
// Carry-over: intent follows the device
// ---------------------------------------------------------------------------

#[test]
fn a_transaction_that_modifies_a_table_leaves_intent_and_device_agreeing() {
    let mut f = fleet();
    let leaf = f.leaves[0];
    let dev = &mut f.sim.topo.node_mut(leaf).unwrap().device;
    dev.add_entry("acl", deny(7)).unwrap();
    f.store
        .record_entry(&mut f.log, leaf, "acl", deny(7))
        .unwrap();

    // Declaration unchanged: the entry crosses the flip on both sides.
    assert_eq!(
        run_txn(&mut f, &[(leaf, gate(1, 16))]).outcome,
        LoggedTxnOutcome::Committed
    );
    let dev = &f.sim.topo.node(leaf).unwrap().device;
    assert_eq!(f.store.get(leaf).unwrap().entries().count(), 1);
    assert_eq!(f.store.digest(leaf), Some(dev.config_digest()));

    // `size 16` → `size 32`: the device's shadow starts the table empty,
    // and so must intent — no resync pass is needed to agree.
    assert_eq!(
        run_txn(&mut f, &[(leaf, gate(1, 32))]).outcome,
        LoggedTxnOutcome::Committed
    );
    let dev = &f.sim.topo.node(leaf).unwrap().device;
    assert!(dev.table("acl").unwrap().is_empty());
    assert_eq!(f.store.get(leaf).unwrap().entries().count(), 0);
    assert_eq!(f.store.digest(leaf), Some(dev.config_digest()));
    assert_eq!(
        IntendedStore::digests_from_log(&f.log).unwrap()[&leaf],
        dev.config_digest(),
        "the journaled digest is the one the device reports"
    );
}

// ---------------------------------------------------------------------------
// The streamed program digest
// ---------------------------------------------------------------------------

/// The three `ctl_txn` tenant flavours, varied by `i`.
fn tenant_flavour(i: u64) -> ProgramBundle {
    bundle(&match i % 3 {
        0 => format!(
            "program meter{i} kind any {{
               counter seen;
               map hits : map<u32, u32>[64];
               handler ingress(pkt) {{
                 count(seen);
                 let c = map_get(hits, ipv4.src) + {i};
                 map_put(hits, ipv4.src, c);
                 if (c > 4000) {{ drop(); }} else {{ meta.m = ~c; }}
               }}
             }}"
        ),
        1 => format!(
            "header probe{i} {{ fields {{ hop: 8; stamp: 48; }} follows udp when udp.dport == {i}; }}
             program acl{i} kind any {{
               counter denied;
               table rules {{
                 key {{ ipv4.src : exact; tcp.dport : exact; }}
                 action deny() {{ count(denied); drop(); }}
                 action pass() {{ }}
                 default pass();
                 size 32;
               }}
               handler ingress(pkt) {{
                 if (valid(tcp) && tcp.dport == {i}) {{ apply rules; }}
               }}
             }}"
        ),
        _ => format!(
            "program sketch{i} kind any {{
               register row : u64[256];
               counter updates;
               handler ingress(pkt) {{
                 let i = hash(ipv4.src, ipv4.dst, {i}) % 256;
                 reg_write(row, i, reg_read(row, i) + 1);
                 count(updates);
               }}
             }}"
        ),
    })
}

/// Every gallery program, and the composed programs of 1…8 tenants.
#[test]
fn the_streamed_digest_is_fnv_of_the_printed_source_which_parses_back() {
    let infra = bundle(
        "program infra kind switch {
           counter total;
           service provide migrate_state(dst: u32);
           handler ingress(pkt) { count(total); forward(0); }
         }",
    );
    let mut programs = gallery_programs::gallery();
    let mut tenants = flexnet_controller::TenantManager::new(infra);
    for t in 1..=8u64 {
        tenants
            .arrive(TenantId(t as u32), tenant_flavour(t))
            .unwrap();
        programs.push(("composed", tenants.composed().unwrap().0));
    }
    assert_eq!(programs.len(), 14 + 8);

    for (name, b) in programs {
        let source = b.program.to_source();
        let mut streamed = String::new();
        b.program.write_source(&mut streamed).unwrap();
        assert_eq!(streamed, source, "{name}: one writer");
        let reparsed = parse_source(&source).unwrap();
        assert_eq!(
            reparsed.programs,
            vec![b.program.clone()],
            "{name}: round trip"
        );

        let fnv1a = |h: u64, bytes: &[u8]| {
            bytes.iter().fold(h, |h, b| {
                (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let headers = b.headers.iter().map(|h| format!("{h:?}"));
        let printed: String = headers.chain([source]).collect();
        let expected = fnv1a(0xcbf2_9ce4_8422_2325, printed.as_bytes());
        assert_eq!(
            config_digest_of(&b, &[]),
            expected,
            "{name}: reference digest"
        );
        let image = ProgramImage::seal(b).unwrap();
        assert_eq!(image.code_digest(), expected, "{name}: sealed digest");
    }
}

/// A packet's header stack, for comparison.
fn stack(p: &Packet) -> Vec<flexnet_types::HeaderRef<'_>> {
    p.headers().collect()
}
