//! Pinned numbers for the simulation event core.
//!
//! One seeded ~10 k-packet run on the benchmark's leaf-spine fabric (see
//! `common/fabric.rs`), 16 cross-pod Poisson host pairs, with a hitless
//! leaf reconfiguration, a spine-link cut, a spine reboot and a leaf
//! reboot landing mid-traffic. Every figure (in `common/pinned.rs`) was
//! captured on the commit *before* the event core was rebuilt (key heap
//! over a slab, dense node/link/route tables, engine-owned hop count), so
//! any drift in `(at, seq)` pop order, routing after a fault, queueing or
//! loss accounting fails here rather than as a silently different
//! experiment table.

#[path = "common/fabric.rs"]
mod fabric;
#[path = "common/pinned.rs"]
mod pinned;

#[test]
fn seeded_leaf_spine_run_matches_parent_commit_numbers() {
    pinned::assert_seeded_leaf_spine_run_matches_pinned_numbers();
}
