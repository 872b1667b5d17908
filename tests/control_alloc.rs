//! Allocation budget for the control path.
//!
//! A program's declarations sit behind `Arc`s from the parser to
//! `last_good` (DESIGN.md §23), a tenant's VLAN guard — condition and
//! guarded body — is shared, a composition copies no rename list, and a
//! device's state names live in its image's layout (§13), so a control
//! operation allocates for what it changes — the newcomer's fragment, one
//! merged `ingress` handler, the vectors of pointers and values — not for
//! the tenants it leaves alone. A plan names its placements once and every
//! allocator keys them by that pointer, so an allocator's clone copies
//! pointers, and a begin clones nothing: it records what it added, for an
//! abort to take back. The checks that make a bundle an image borrow the
//! program's names and the built-in headers are one static table (§18), so
//! a seal allocates the image and little else. Counts are exact and
//! seed-free (a lossless fabric, fixed sources):
//!
//! | measured here                                    | budget | now | before one assembly per churn | before shared guards | before borrowed names | before layouts and blocks | before declarations |
//! |--------------------------------------------------|-------:|----:|------------------------------:|---------------------:|----------------------:|--------------------------:|--------------------:|
//! | one `ctl_txn`-shaped op, mean of ops 16–39       |    470 | 442 |                           507 |                  838 |                 1 141 |                     1 681 |               3 402 |
//! | … of which the departure and the arrival         |     92 |  86 |                           102 |                  272 |                   277 |                       493 |                   — |
//! | … of which the four devices' `tick` to the flip  |     64 |  45 |                            45 |                   45 |                    45 |                       196 |                   — |
//! | one device's `allocator().clone()`               |      3 |   2 |                             4 |                   22 |                     — |                         — |                   — |
//! | departure and arrival at 64 live tenants         |    100 |  95 |                           120 |                1 528 |                     — |                         — |                   — |
//! | `ProgramBundle::clone()` of the 8-tenant bundle  |      8 |   5 |                             5 |                    5 |                     5 |                         5 |                 228 |
//! | `==` of that bundle against its clone            |      0 |   0 |                             0 |                    0 |                     0 |                         0 |                   0 |
//! | `diff_bundles` of two successive compositions    |     16 |   4 |                             4 |                    4 |                     4 |                         4 |                 187 |
//! | `ProgramImage::seal` of a clone of that bundle   |     24 |  21 |                            32 |                   32 |                   253 |                         — |                   — |
//! | seal + plan against the predecessor, 8 tenants   |     40 |  35 |                            49 |                    — |                     — |                         — |                   — |
//! | … at 64 tenants (at most twice the 8-tenant row) |     70 |  44 |                           171 |                    — |                     — |                         — |                   — |
//! | `apps::build` of one tenant source (`sketch41`)  |     52 |  48 |                            52 |                   52 |                   111 |                         — |                   — |
//!
//! The last five columns count before a departure stopped composing, the
//! verifier's `if`s reused their copies of the locals (the seal rows at 64
//! tenants grew with the merged `ingress`, one copy per tenant guard), the
//! allocator kept its placements in one vector, the lexer reserved its
//! tokens, and a begin recorded its additions instead of copying the
//! placement (in a boxed pending change: one allocation) and the flip read
//! its removals off the plan's ops, before `if` conditions were shared, the composition
//! report dropped its rename list and placements were named once per plan
//! (commit `41816c2`), before the checker, the verifier and the header
//! registry borrowed names (`91e328c`), before the image owned its state
//! layout and `if` branches were shared blocks (`ab0a1ba`), and before
//! declarations were shared (`73c325c`). The 64-tenant rows churn a
//! controller alone (ops 80–103 after 64 arrivals); their growth over the
//! 8-tenant row is the composed vectors' growth.
//!
//! The op is `flexbench`'s `ctl_txn` op: parse + check + verify a tenant
//! source, the oldest of 8 tenants departs and the new one arrives, the
//! composition is copied once per target, `logged_transactional_reconfig`
//! ships it to 4 of 8 leaves with journal, intended-state store and
//! failure detector, and every target is ticked to the flip.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/tenants.rs"]
mod tenants;

use counting_alloc::count;
use flexnet::apps;
use flexnet::prelude::*;
use flexnet_controller::txn::LoggedTxnOutcome;
use flexnet_controller::{logged_transactional_reconfig, IntendedStore, ReplicatedIntentLog};
use flexnet_dataplane::{ProgramImage, SealTarget, SealedTargets};
use flexnet_lang::diff::diff_bundles;
use std::collections::VecDeque;
use tenants::{churn, churn_keeping, tenant_source, INFRA};

const TARGETS: usize = 4;

struct World {
    sim: Simulation,
    leaves: Vec<NodeId>,
    ctl: Controller,
    log: ReplicatedIntentLog,
    store: IntendedStore,
    fabric: LossyFabric,
    live: VecDeque<TenantId>,
    clock: SimTime,
}

impl World {
    fn new() -> World {
        let infra = apps::build(INFRA).unwrap();
        let (topo, _spines, leaves, _hosts) = Topology::leaf_spine(2, 8, 1);
        let mut sim = Simulation::new(topo);
        for leaf in &leaves {
            let dev = &mut sim.topo.node_mut(*leaf).unwrap().device;
            dev.install(infra.clone()).unwrap();
        }
        World {
            sim,
            ctl: Controller::new(infra, leaves[0], SimTime::ZERO).unwrap(),
            leaves,
            log: ReplicatedIntentLog::new(3, 5).unwrap(),
            store: IntendedStore::new(),
            fabric: LossyFabric::reliable(),
            live: VecDeque::new(),
            clock: SimTime::from_millis(1),
        }
    }

    /// One closed-loop control op; returns the composition it shipped and
    /// the allocations of its tenant churn and of its flips.
    fn op(&mut self, op: u64, src: &str) -> (ProgramBundle, Phases) {
        let now = self.clock;
        // The front end: parse, header registry, check, verify.
        let extension = apps::build(src).unwrap();
        let (churned, composed) =
            count(|| churn(&mut self.ctl, &mut self.live, op, extension, now));

        let targets: Vec<(NodeId, ProgramBundle)> = (0..TARGETS)
            .map(|j| {
                (
                    self.leaves[(op as usize + j) % self.leaves.len()],
                    composed.clone(),
                )
            })
            .collect();
        let report = logged_transactional_reconfig(
            &mut self.sim,
            &targets,
            now,
            &mut self.fabric,
            &RetryPolicy::default(),
            &mut self.log,
            None,
            Some(&mut self.store),
            Some(&self.ctl.detector),
        )
        .unwrap();
        assert_eq!(report.outcome, LoggedTxnOutcome::Committed);
        self.sim.reconfig_reports.clear();
        let commit_at = report.commit_at.unwrap();
        let (flips, ()) = count(|| {
            for (node, _) in &targets {
                self.sim
                    .topo
                    .node_mut(*node)
                    .unwrap()
                    .device
                    .tick(commit_at);
            }
        });
        for (node, _) in &targets {
            let dev = &self.sim.topo.node(*node).unwrap().device;
            assert!(!dev.reconfig_in_progress());
            assert_eq!(Some(dev.config_digest()), self.store.digest(*node));
        }
        self.clock = commit_at.max(report.finished_at) + SimDuration::from_millis(1);
        (
            composed,
            Phases {
                churn: churned,
                flips,
            },
        )
    }
}

/// The mean allocations of the departure and the arrival of ops 16–39
/// after `keep` tenants went live, on a controller alone.
fn churn_allocations(keep: usize) -> u64 {
    let infra = apps::build(INFRA).unwrap();
    let mut ctl = Controller::new(infra, NodeId(1), SimTime::ZERO).unwrap();
    let mut live = VecDeque::new();
    let mut measured = 0;
    for op in 0..keep as u64 + 40 {
        let extension = apps::build(&tenant_source(op)).unwrap();
        let now = SimTime::from_millis(op + 1);
        let (allocs, _) = count(|| churn_keeping(keep, &mut ctl, &mut live, op, extension, now));
        if op >= keep as u64 + 16 {
            measured += allocs;
        }
    }
    measured / 24
}

/// The allocations of what a coordinator's prepare does with a churn op's
/// composition at `keep` live tenants: seal it and plan the change from a
/// device on the previous op's composition.
fn seal_against_predecessor(keep: usize) -> u64 {
    let infra = apps::build(INFRA).unwrap();
    let mut ctl = Controller::new(infra, NodeId(1), SimTime::ZERO).unwrap();
    let mut live = VecDeque::new();
    let (mut previous, mut last) = (None, None);
    for op in 0..keep as u64 + 40 {
        let extension = apps::build(&tenant_source(op)).unwrap();
        let now = SimTime::from_millis(op + 1);
        let composed = churn_keeping(keep, &mut ctl, &mut live, op, extension, now);
        previous = last.replace(composed);
    }
    let (previous, last) = (previous.unwrap(), last.unwrap());
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(previous).unwrap();
    let (allocs, plan) = count(|| {
        SealedTargets::default()
            .target(&last)
            .into_plan(dev.program())
    });
    plan.unwrap();
    allocs
}

/// Allocations of two phases of one op.
#[derive(Default)]
struct Phases {
    /// The oldest tenant's departure and the newcomer's arrival.
    churn: u64,
    /// The four devices' `tick` to the flip.
    flips: u64,
}

#[test]
fn a_control_operation_allocates_for_what_it_changes() {
    let mut w = World::new();
    let (mut measured, mut phases, mut previous, mut last) = (0, Phases::default(), None, None);
    for op in 0..40u64 {
        let src = tenant_source(op);
        let (allocs, (composed, op_phases)) = count(|| w.op(op, &src));
        if op >= 16 {
            measured += allocs;
            phases.churn += op_phases.churn;
            phases.flips += op_phases.flips;
        }
        previous = last.replace(composed);
    }
    let (per_op, churn, flips) = (measured / 24, phases.churn / 24, phases.flips / 24);
    println!("control op: {per_op} allocations (mean of ops 16-39): depart + arrive {churn}, 4-flip tick {flips}");
    assert!(per_op <= 470, "{per_op} allocations per control op");
    assert!(churn <= 92, "{churn} allocations per depart + arrive");
    assert!(flips <= 64, "{flips} allocations per 4-flip tick");

    // One device's allocator: the rollback snapshot a begin kept before it
    // recorded its additions instead.
    let dev = &w.sim.topo.node(w.leaves[0]).unwrap().device;
    let (allocs, snapshot) = count(|| dev.allocator().clone());
    println!(
        "allocator clone: {allocs} ({} placements)",
        snapshot.placed().count()
    );
    assert!(
        allocs <= 3,
        "{allocs} allocations to clone a device's allocator"
    );

    // Churn at 64 live tenants: the fragments are shared, so only the
    // composed vectors grow with the set.
    let churn_64 = churn_allocations(64);
    println!("depart + arrive at 64 tenants: {churn_64}");
    assert!(
        churn_64 <= 100,
        "{churn_64} allocations per depart + arrive at 64 tenants"
    );

    // Two successive 8-tenant compositions: one tenant left, one arrived.
    let (previous, last) = (previous.unwrap(), last.unwrap());
    assert_eq!(
        last.program.states.len(),
        15,
        "the infrastructure's and eight tenants'"
    );
    let (allocs, copy) = count(|| last.clone());
    println!("bundle clone: {allocs}");
    assert!(allocs <= 8, "{allocs} allocations to clone the composition");
    let (allocs, equal) = count(|| copy == last);
    assert!(equal && allocs == 0, "{allocs} allocations to compare it");
    let (allocs, ops) = count(|| diff_bundles(&previous, &last));
    println!(
        "diff of successive compositions: {allocs} allocations, {} ops",
        ops.len()
    );
    assert!(ops.len() >= 4, "{ops:?}");
    assert!(
        allocs <= 16,
        "{allocs} allocations to diff successive compositions"
    );

    // What the coordinator does with a target: seal a copy of it.
    let (allocs, image) = count(|| ProgramImage::seal(last.clone()));
    image.unwrap();
    println!("seal of the 8-tenant composition: {allocs}");
    assert!(allocs <= 24, "{allocs} allocations to seal the composition");
    // Seal and plan against the predecessor: what grows with the tenants
    // the op leaves alone is the vectors the image and the plan keep.
    let (seal_8, seal_64) = (seal_against_predecessor(8), seal_against_predecessor(64));
    println!("seal + plan against the predecessor: {seal_8} at 8 tenants, {seal_64} at 64");
    assert!(
        seal_8 <= 40,
        "{seal_8} allocations to seal and plan at 8 tenants"
    );
    assert!(
        seal_64 <= 2 * seal_8,
        "{seal_64} allocations to seal and plan at 64 tenants, {seal_8} at 8"
    );
    // The front end of one op: parse, header registry, check, verify.
    let src = tenant_source(41);
    let (allocs, built) = count(|| apps::build(&src));
    built.unwrap();
    println!("front end of one tenant source: {allocs}");
    assert!(
        allocs <= 52,
        "{allocs} allocations to build one tenant source"
    );
}
