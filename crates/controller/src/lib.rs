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
//!   backoff and deadlines.
//! - [`txn`] — transactional network-wide reconfiguration (two-phase
//!   commit with rollback).
//! - [`replicate`] — replicated state groups with epoch-based failover.
//! - [`raft`] — simulated Raft for physically distributed controllers.
//! - [`wal`] — the replicated write-ahead intent log for crash-recovery.
//! - [`recovery`] — the recovery coordinator: log replay, epoch fencing,
//!   in-doubt transaction resolution, orphan-shadow sweep.
//! - [`chaos`] — deterministic coordinator-crash scenarios with global
//!   invariant checks (experiment E13).
//! - [`resync`] — device restart recovery: the replicated intended-state
//!   store, digest-based anti-entropy, and the rate-limited hitless
//!   reconciler (experiment E14).
//! - [`rollout`] — canary rollouts: wave-by-wave deployment with SLO
//!   guards, gray-failure detection, and automatic journaled rollback
//!   (experiment E15).
//! - [`overload`] — the overload-protection layer end to end: retry
//!   budgets + jitter + circuit breakers + priority load shedding +
//!   graceful degradation, exercised by the seeded metastability chaos
//!   harness (experiment E17).
//! - [`adversary`] — the adversarial fabric end to end: frame checksums,
//!   idempotency-token dedup, heartbeat monotonicity, and the
//!   `Unreachable`-vs-`Dead` split-brain guard under corruption,
//!   duplication, reordering, and one-way partitions (experiment E20).
//! - [`storage`] — crash-consistent durable control state: checksummed
//!   segmented WALs and snapshot generations over simulated disks, the
//!   recovery scrub (torn-tail truncation, mid-log-rot demotion), intent
//!   log compaction, and the storage-chaos harness (experiment E21).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod apps;
pub mod chaos;
pub mod core;
pub mod drpc;
pub mod migrate;
pub mod overload;
pub mod raft;
pub mod recovery;
pub mod replicate;
pub mod resync;
pub mod retry;
pub mod rollout;
pub mod sandbox;
pub mod scale;
pub mod storage;
pub mod tenant;
pub mod txn;
pub mod wal;

pub use adversary::{
    run_adversarial_seed, run_adversarial_seed_with, AdversaryProtections, AdversaryReport,
};
pub use crate::core::{
    AdmissionQueue, Controller, ControllerMode, FailureDetector, Health, HealthEvent,
    OverloadGovernor, QueueStats, TokenBucket, WorkClass, WorkItem,
};
pub use apps::{AppRecord, AppRegistry, AppStatus};
pub use drpc::{BreakerSet, BreakerState, CircuitBreaker, ExecutionSite, Invocation, ServiceRegistry};
pub use migrate::{Migration, MigrationReport, MigrationStrategy};
pub use overload::{run_overload_seed, OverloadReport, OverloadScenario, Protections};
pub use raft::{CommittedView, RaftCluster, Role};
pub use replicate::{FailoverReport, ReplicationGroup};
pub use retry::{
    invoke_with_retry, with_retry, with_retry_adversarial, with_retry_budgeted, Adversary,
    Delivery, Jitter, LossyFabric, RetryBudget, RetryOutcome, RetryPolicy,
};
pub use scale::{ElasticScaler, ScaleDecision, ScalingPolicy};
pub use chaos::{run_chaos_seed, ChaosReport};
pub use recovery::{recover, RecoveryReport, TxnResolution};
pub use sandbox::{run_sandbox_seed, SandboxReport};
pub use rollout::{
    resume_rollouts, run_canary_seed, run_rollout, run_rollout_governed, CanaryReport,
    RolloutCrash, RolloutDirectory, RolloutOutcome, RolloutPlan, RolloutReport, RolloutResume,
    SloBreach, SloGuards,
};
pub use resync::{
    run_resync_seed, IntendedDevice, IntendedStore, ProgramClass, ResyncChaosReport,
    ResyncOutcome, ResyncReport, Resyncer,
};
pub use tenant::TenantManager;
pub use txn::{
    logged_transactional_reconfig, transactional_reconfig, transactional_reconfig_over,
    LoggedTxnReport, TxnOutcome, TxnReport,
};
pub use storage::{
    compact_records, replay_digest, run_storage_seed, run_storage_seed_with, state_digest,
    NodeStorage, ScrubOutcome, SegmentedWal, SnapshotStore, StorageCounters, StorageProtections,
    StorageReport,
};
pub use wal::{CompactionReport, IntentRecord, ReplayState, ReplicatedIntentLog};
