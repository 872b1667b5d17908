//! Allocation budget for the control path.
//!
//! A program's declarations sit behind `Arc`s from the parser to
//! `last_good` (DESIGN.md §23), so a control operation allocates for what
//! it changes — the newcomer's fragment, one merged `ingress` handler, the
//! vectors of pointers — not for the eight tenants it leaves alone. Counts
//! are exact and seed-free (a lossless fabric, fixed sources):
//!
//! | measured here                                   | budget |   now | parent `73c325c` |
//! |-------------------------------------------------|-------:|------:|-----------------:|
//! | one `ctl_txn`-shaped op, mean of ops 16–39      |  1 800 | 1 681 |            3 402 |
//! | `ProgramBundle::clone()` of the 8-tenant bundle |      8 |     5 |              228 |
//! | `==` of that bundle against its clone           |      0 |     0 |                0 |
//! | `diff_bundles` of two successive compositions   |     16 |     4 |              187 |
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

use counting_alloc::count;
use flexnet::apps;
use flexnet::prelude::*;
use flexnet_controller::txn::LoggedTxnOutcome;
use flexnet_controller::{logged_transactional_reconfig, IntendedStore, ReplicatedIntentLog};
use flexnet_lang::diff::diff_bundles;
use std::collections::VecDeque;

const INFRA: &str = "program infra kind switch {
   counter total;
   service provide migrate_state(dst: u32);
   handler ingress(pkt) { count(total); forward(0); }
 }";
const TENANTS: usize = 8;
const TARGETS: usize = 4;

/// A tenant extension of one of three flavours; every constant comes from
/// the op number.
fn tenant_source(op: u64) -> String {
    match op % 3 {
        0 => format!(
            "program meter{op} kind any {{
               counter seen;
               map hits : map<u32, u32>[{size}];
               handler ingress(pkt) {{
                 count(seen);
                 let c = map_get(hits, ipv4.src) + {inc};
                 map_put(hits, ipv4.src, c);
                 if (c > {limit}) {{ drop(); }}
               }}
             }}",
            size = 64 << (op % 3),
            inc = 1 + op % 4,
            limit = 1000 + op * 977,
        ),
        1 => format!(
            "program acl{op} kind any {{
               counter denied;
               table rules {{
                 key {{ ipv4.src : exact; tcp.dport : exact; }}
                 action deny() {{ count(denied); drop(); }}
                 action pass() {{ }}
                 default pass();
                 size {size};
               }}
               handler ingress(pkt) {{
                 if (valid(tcp) && tcp.dport == {port}) {{ apply rules; }}
               }}
             }}",
            size = 16 << (op % 3),
            port = 1 + op * 131,
        ),
        _ => format!(
            "program sketch{op} kind any {{
               register row : u64[{width}];
               counter updates;
               handler ingress(pkt) {{
                 let i = hash(ipv4.src, ipv4.dst, {salt}) % {width};
                 reg_write(row, i, reg_read(row, i) + 1);
                 count(updates);
               }}
             }}",
            width = 128 << (op % 3),
            salt = op * 7919 % 65_536,
        ),
    }
}

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

    /// One closed-loop control op; returns the composition it shipped.
    fn op(&mut self, op: u64, src: &str) -> ProgramBundle {
        let now = self.clock;
        // The front end: parse, header registry, check, verify.
        let extension = apps::build(src).unwrap();
        if self.live.len() >= TENANTS {
            let oldest = self.live.pop_front().unwrap();
            self.ctl.tenant_depart(oldest).unwrap();
        }
        let tenant = TenantId(op as u32 % 64 + 1);
        let (_vlan, composed) = self.ctl.tenant_arrive(tenant, extension, now).unwrap();
        self.live.push_back(tenant);

        let targets: Vec<(NodeId, ProgramBundle)> = (0..TARGETS)
            .map(|j| (self.leaves[(op as usize + j) % self.leaves.len()], composed.clone()))
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
        for (node, _) in &targets {
            let dev = &mut self.sim.topo.node_mut(*node).unwrap().device;
            dev.tick(commit_at);
            assert!(!dev.reconfig_in_progress());
            assert_eq!(Some(dev.config_digest()), self.store.digest(*node));
        }
        self.clock = commit_at.max(report.finished_at) + SimDuration::from_millis(1);
        composed
    }
}

#[test]
fn a_control_operation_allocates_for_what_it_changes() {
    let mut w = World::new();
    let (mut measured, mut previous, mut last) = (0, None, None);
    for op in 0..40u64 {
        let src = tenant_source(op);
        let (allocs, composed) = count(|| w.op(op, &src));
        if op >= 16 {
            measured += allocs;
        }
        previous = last.replace(composed);
    }
    let per_op = measured / 24;
    println!("control op: {per_op} allocations (mean of ops 16-39)");
    assert!(per_op <= 1_800, "{per_op} allocations per control op");

    // Two successive 8-tenant compositions: one tenant left, one arrived.
    let (previous, last) = (previous.unwrap(), last.unwrap());
    assert_eq!(last.program.states.len(), 15, "the infrastructure's and eight tenants'");
    let (allocs, copy) = count(|| last.clone());
    println!("bundle clone: {allocs}");
    assert!(allocs <= 8, "{allocs} allocations to clone the composition");
    let (allocs, equal) = count(|| copy == last);
    assert!(equal && allocs == 0, "{allocs} allocations to compare it");
    let (allocs, ops) = count(|| diff_bundles(&previous, &last));
    println!("diff of successive compositions: {allocs} allocations, {} ops", ops.len());
    assert!(ops.len() >= 4, "{ops:?}");
    assert!(allocs <= 16, "{allocs} allocations to diff successive compositions");
}
