//! The chaos vocabulary the controller shares with its suites: the
//! two-phase-commit crash points ([`CrashPhase`]) and the anti-entropy
//! convergence check ([`diverged`]). Seeds expand through
//! `flexnet_types::hash::{mix, mix_next}`.
//!
//! The seeded schedules themselves — which phase a coordinator dies in,
//! which devices restart, how lossy the fabric is — belong to the one
//! suite each serves (`flexnet_bench::suites`), which expands a seed
//! through the fixture's draw helper.

use crate::engine::Simulation;
use flexnet_types::NodeId;
use std::collections::BTreeMap;

/// Where in the two-phase-commit protocol the coordinator is killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashPhase {
    /// After the `Intent` record is durable, before any prepare is sent.
    AfterIntent,
    /// After some (but not all) participants prepared shadows.
    MidPrepare,
    /// After the `Prepared` record is durable, before the flip decision.
    AfterPrepared,
    /// After the `FlipScheduled` record is durable, before every commit
    /// command reached its participant.
    AfterFlipScheduled,
}

impl CrashPhase {
    /// All phases, in protocol order.
    pub const ALL: [CrashPhase; 4] = [
        CrashPhase::AfterIntent,
        CrashPhase::MidPrepare,
        CrashPhase::AfterPrepared,
        CrashPhase::AfterFlipScheduled,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            CrashPhase::AfterIntent => "after-intent",
            CrashPhase::MidPrepare => "mid-prepare",
            CrashPhase::AfterPrepared => "after-prepared",
            CrashPhase::AfterFlipScheduled => "after-flip-scheduled",
        }
    }
}

/// The convergence check at the heart of anti-entropy: which of the
/// devices in `intended` report a configuration digest different from
/// their intended-state digest? An empty return means the network is
/// digest-equal to the controller's intent — every chaos seed must end
/// this way.
pub fn diverged(sim: &Simulation, intended: &BTreeMap<NodeId, u64>) -> Vec<NodeId> {
    intended
        .iter()
        .filter(|(node, want)| {
            sim.topo
                .node(**node)
                .map(|n| n.device.config_digest() != **want)
                .unwrap_or(true)
        })
        .map(|(node, _)| *node)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diverged_flags_digest_mismatch_and_unknown_nodes() {
        let (topo, sw, _hosts) = crate::topology::Topology::single_switch(2);
        let sim = Simulation::new(topo);
        let actual = sim.topo.node(sw).unwrap().device.config_digest();
        let mut intended = BTreeMap::new();
        intended.insert(sw, actual);
        assert!(diverged(&sim, &intended).is_empty(), "digest-equal");
        intended.insert(sw, actual ^ 1);
        assert_eq!(diverged(&sim, &intended), vec![sw], "mismatch flagged");
        let ghost = NodeId(9999);
        intended.insert(sw, actual);
        intended.insert(ghost, 0);
        assert_eq!(diverged(&sim, &intended), vec![ghost], "unknown diverges");
    }
}
