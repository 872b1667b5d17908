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
//! - [`drpc`] — data-plane RPC registry, discovery, and latency model.
//! - [`retry`] — lossy control fabric, retry policies with exponential
//!   backoff and deadlines, and the one controller→device command
//!   channel [`txn`], [`recovery`] and [`resync`] send through (retry,
//!   exactly-once ack cache, node lookup, message/time accounting).
//! - [`txn`] — transactional network-wide reconfiguration (two-phase
//!   commit with rollback): two drivers, plain and journaled, over one
//!   set of prepare / abort / commit steps that [`recovery`] shares.
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
//! The controller's defences against overload and a hostile fabric are
//! the ones its control path runs: the resync [`core::TokenBucket`], the
//! monotone [`core::FailureDetector`] (widened under overload, grading a
//! one-way partition [`core::Health::Unreachable`]) and the exactly-once
//! [`retry`] channel. This crate ships no test rigs: the seeded chaos
//! suites that drive all of it end to end (experiments E13–E21) are
//! `flexnet_bench::suites`, swept by the `chaos` binary — and the models
//! only one suite needs live beside it there (the E17 retry budget,
//! breakers, admission queue and governor; the E20 fabric adversary).
//! The same holds for the models only one experiment reaches: E3's
//! elastic scaler and E10's replication groups are
//! `flexnet_bench::{scale, replicate}`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod core;
pub mod drpc;
pub mod migrate;
pub mod raft;
pub mod recovery;
pub mod resync;
pub mod retry;
pub mod rollout;
pub mod storage;
pub mod tenant;
pub mod txn;
pub mod wal;

pub use crate::core::{Controller, FailureDetector, Health, HealthEvent, TokenBucket};
pub use apps::{AppRecord, AppRegistry, AppStatus};
pub use drpc::{ExecutionSite, Invocation, ServiceRegistry};
pub use migrate::{Migration, MigrationReport, MigrationStrategy};
pub use raft::{CommittedView, RaftCluster, Role};
pub use recovery::{recover, RecoveryReport, TxnResolution};
pub use resync::{
    IntendedDevice, IntendedStore, ProgramClass, ResyncOutcome, ResyncReport, Resyncer,
};
pub use retry::{invoke_with_retry, with_retry, LossyFabric, RetryOutcome, RetryPolicy};
pub use rollout::{
    resume_rollouts, run_rollout, RolloutCrash, RolloutOutcome, RolloutPlan, RolloutReport,
    RolloutResume, SloBreach, SloGuards,
};
pub use storage::{NodeStorage, ScrubOutcome, SegmentedWal, SnapshotStore, StorageCounters};
pub use tenant::TenantManager;
pub use txn::{
    logged_transactional_reconfig, transactional_reconfig, transactional_reconfig_over,
    LoggedTxnReport, TxnOutcome, TxnReport,
};
pub use wal::{
    compact_records, replay_digest, state_digest, CompactionReport, IntentRecord, ReplayState,
    ReplicatedIntentLog,
};
