//! # flexnet-controller — real-time network control (paper §3.4)
//!
//! The control plane of the FlexNet reproduction:
//!
//! - [`core`] — the [`core::Controller`] facade: plans program bundles and
//!   placements, delegates effecting them to runtime reconfiguration.
//! - [`apps`] — URI-named app registry ("application-centric abstractions
//!   … as first-class primitives").
//! - [`tenant`] — tenant arrival/departure with VLAN allocation and
//!   composition-based access control.
//! - [`migrate`] — control-plane vs. in-data-plane state migration (the
//!   count-min-sketch argument of §3.4).
//! - [`scale`] — elastic scaling with hysteresis and cooldown.
//! - [`drpc`] — data-plane RPC registry, discovery, and latency model.
//! - [`retry`] — lossy control fabric, retry policies with exponential
//!   backoff and deadlines, and the one controller→device command
//!   channel [`txn`], [`recovery`] and [`resync`] send through (retry,
//!   exactly-once ack cache, node lookup, message/time accounting).
//! - [`txn`] — transactional network-wide reconfiguration (two-phase
//!   commit with rollback): two drivers, plain and journaled, over one
//!   set of prepare / abort / commit steps that [`recovery`] shares.
//! - [`replicate`] — replicated state groups with epoch-based failover.
//! - [`raft`] — simulated Raft for physically distributed controllers.
//! - [`wal`] — the replicated write-ahead intent log for crash-recovery.
//! - [`recovery`] — the recovery coordinator: log replay, epoch fencing,
//!   in-doubt transaction resolution, orphan-shadow sweep.
//! - [`resync`] — device restart recovery: the replicated intended-state
//!   store, digest-based anti-entropy, and the rate-limited hitless
//!   reconciler.
//! - [`rollout`] — canary rollouts: wave-by-wave deployment with SLO
//!   guards, gray-failure detection, and automatic journaled rollback.
//! - [`storage`] — crash-consistent durable control state: checksummed
//!   segmented WALs and snapshot generations over simulated disks, the
//!   recovery scrub (torn-tail truncation, mid-log-rot demotion), and
//!   intent log compaction.
//!
//! The overload-protection pieces ([`retry::RetryBudget`],
//! [`drpc::BreakerSet`], [`core::AdmissionQueue`], [`core::TokenBucket`],
//! [`core::OverloadGovernor`]) and the adversarial-fabric pieces
//! ([`retry::LossyFabric::deliver_cmd`], the monotone
//! [`core::FailureDetector`], [`core::Health::Unreachable`]) live in the
//! modules above. This crate ships no test rigs: the seeded chaos suites
//! that drive all of it end to end (experiments E13–E21) are
//! `flexnet_bench::suites`, swept by the `chaos` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod core;
pub mod drpc;
pub mod migrate;
pub mod raft;
pub mod recovery;
pub mod replicate;
pub mod resync;
pub mod retry;
pub mod rollout;
pub mod scale;
pub mod storage;
pub mod tenant;
pub mod txn;
pub mod wal;

pub use crate::core::{
    AdmissionQueue, Controller, ControllerMode, FailureDetector, Health, HealthEvent,
    OverloadGovernor, QueueStats, TokenBucket, WorkClass, WorkItem,
};
pub use apps::{AppRecord, AppRegistry, AppStatus};
pub use drpc::{BreakerSet, BreakerState, CircuitBreaker, ExecutionSite, Invocation, ServiceRegistry};
pub use migrate::{Migration, MigrationReport, MigrationStrategy};
pub use raft::{CommittedView, RaftCluster, Role};
pub use replicate::{FailoverReport, ReplicationGroup};
pub use retry::{
    invoke_with_retry, with_retry, Adversary, Delivery, LossyFabric, RetryBudget,
    RetryOutcome, RetryPolicy,
};
pub use scale::{ElasticScaler, ScaleDecision, ScalingPolicy};
pub use recovery::{recover, RecoveryReport, TxnResolution};
pub use rollout::{
    resume_rollouts, run_rollout, RolloutCrash, RolloutDirectory,
    RolloutOutcome, RolloutPlan, RolloutReport, RolloutResume, SloBreach, SloGuards,
};
pub use resync::{
    IntendedDevice, IntendedStore, ProgramClass, ResyncOutcome, ResyncReport, Resyncer,
};
pub use tenant::TenantManager;
pub use txn::{
    logged_transactional_reconfig, transactional_reconfig, transactional_reconfig_over,
    LoggedTxnReport, TxnOutcome, TxnReport,
};
pub use storage::{
    compact_records, replay_digest, state_digest, NodeStorage, ScrubOutcome, SegmentedWal,
    SnapshotStore, StorageCounters,
};
pub use wal::{CompactionReport, IntentRecord, ReplayState, ReplicatedIntentLog};
