//! State replication and failover: experiment E10's replication groups.
//!
//! Paper §3.4: "To detect and tolerate device failures, the FlexNet
//! controller replicates important network state in a logical datapath
//! across multiple physical devices. State consistency is ensured via state
//! replication and update protocols."
//!
//! A [`ReplicationGroup`] tracks a primary, its replicas, and which
//! *epoch* of the primary's logical state each replica has applied.
//! Failover promotes the replica with the freshest epoch, and reports how
//! many epochs of updates were lost (zero when synchronization kept up).

use flexnet_types::{FlexError, NodeId, Result};
use std::collections::BTreeMap;

/// A replicated-state group for one app.
#[derive(Debug, Clone)]
pub struct ReplicationGroup {
    /// Current primary device.
    pub primary: NodeId,
    /// Replica devices.
    pub replicas: Vec<NodeId>,
    /// Epoch counter: bumped on every primary-side snapshot cut.
    epoch: u64,
    /// Replica → last applied epoch.
    applied: BTreeMap<NodeId, u64>,
}

/// The outcome of a failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverReport {
    /// The failed node.
    pub failed: NodeId,
    /// The promoted replica.
    pub promoted: NodeId,
    /// Epochs of updates lost (primary epoch − promoted replica's epoch).
    pub lost_epochs: u64,
}

impl ReplicationGroup {
    /// A group with the given primary and replicas.
    pub fn new(primary: NodeId, replicas: Vec<NodeId>) -> ReplicationGroup {
        let applied = replicas.iter().map(|r| (*r, 0)).collect();
        ReplicationGroup {
            primary,
            replicas,
            epoch: 0,
            applied,
        }
    }

    /// Cuts a new snapshot epoch at the primary (callers then copy the
    /// snapshot to replicas and record each application).
    pub fn cut_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Records that `replica` applied snapshot `epoch`.
    pub fn record_applied(&mut self, replica: NodeId, epoch: u64) -> Result<()> {
        if !self.replicas.contains(&replica) {
            return Err(FlexError::NotFound(format!(
                "{replica} is not a replica of this group"
            )));
        }
        let e = self.applied.entry(replica).or_insert(0);
        *e = (*e).max(epoch);
        Ok(())
    }

    /// Handles the failure of a node. If the primary failed, the freshest
    /// replica is promoted; if a replica failed, it is removed.
    pub fn fail_node(&mut self, failed: NodeId) -> Result<Option<FailoverReport>> {
        if failed == self.primary {
            let promoted = self
                .replicas
                .iter()
                .max_by_key(|r| self.applied.get(r).copied().unwrap_or(0))
                .copied()
                .ok_or_else(|| FlexError::Consensus("primary failed with no replicas".into()))?;
            let promoted_epoch = self.applied.get(&promoted).copied().unwrap_or(0);
            let lost = self.epoch - promoted_epoch;
            self.replicas.retain(|r| *r != promoted);
            self.applied.remove(&promoted);
            let report = FailoverReport {
                failed,
                promoted,
                lost_epochs: lost,
            };
            self.primary = promoted;
            self.epoch = promoted_epoch;
            Ok(Some(report))
        } else if self.replicas.contains(&failed) {
            self.replicas.retain(|r| *r != failed);
            self.applied.remove(&failed);
            Ok(None)
        } else {
            Err(FlexError::NotFound(format!("{failed} is not in the group")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_promotes_freshest_replica() {
        let mut g = ReplicationGroup::new(NodeId(1), vec![NodeId(2), NodeId(3)]);
        let e1 = g.cut_epoch();
        g.record_applied(NodeId(2), e1).unwrap();
        let e2 = g.cut_epoch();
        g.record_applied(NodeId(3), e2).unwrap();
        // Node 3 has epoch 2, node 2 only epoch 1.
        let report = g.fail_node(NodeId(1)).unwrap().unwrap();
        assert_eq!(report.promoted, NodeId(3));
        assert_eq!(report.lost_epochs, 0);
        assert_eq!(g.primary, NodeId(3));
        assert_eq!(g.replicas, vec![NodeId(2)]);
    }

    #[test]
    fn failover_reports_lost_epochs_when_stale() {
        let mut g = ReplicationGroup::new(NodeId(1), vec![NodeId(2)]);
        g.cut_epoch();
        g.cut_epoch();
        g.cut_epoch(); // replica never applied any
        let report = g.fail_node(NodeId(1)).unwrap().unwrap();
        assert_eq!(report.lost_epochs, 3);
    }

    #[test]
    fn replica_failure_is_silent() {
        let mut g = ReplicationGroup::new(NodeId(1), vec![NodeId(2), NodeId(3)]);
        assert_eq!(g.fail_node(NodeId(2)).unwrap(), None);
        assert_eq!(g.replicas, vec![NodeId(3)]);
        assert!(g.fail_node(NodeId(9)).is_err());
    }

    #[test]
    fn primary_failure_without_replicas_is_fatal() {
        let mut g = ReplicationGroup::new(NodeId(1), vec![]);
        assert!(g.fail_node(NodeId(1)).is_err());
    }

    #[test]
    fn record_applied_unknown_replica_rejected() {
        let mut g = ReplicationGroup::new(NodeId(1), vec![NodeId(2)]);
        assert!(g.record_applied(NodeId(9), 1).is_err());
    }
}
