//! # flexnet-sim — the discrete-event network simulator substrate
//!
//! FlexNet's experiments need a network that carries live traffic *while*
//! being reprogrammed. This crate provides it:
//!
//! - [`topology`] — hosts/NICs/switches wrapping `flexnet-dataplane`
//!   devices, links with latency/bandwidth/queues, and builders for the
//!   shapes the experiments use.
//! - [`workload`] — deterministic traffic generators (CBR, Poisson, on-off,
//!   SYN flood) and a tenant-churn trace generator.
//! - [`engine`] — the event loop: packets hop through devices while timed
//!   [`engine::Command`]s reprogram them mid-flight.
//! - [`metrics`] — loss accounting by cause, latency percentiles, delivery
//!   timeseries, disruption windows, and per-version packet counts (used to
//!   check the paper's old-XOR-new consistency claim).
//! - [`faults`] — deterministic fault schedules ([`faults::FaultPlan`]).
//! - [`disk`] — simulated disks with seeded tears, rot and fsync lag.
//! - [`chaos`] — the two-phase-commit crash points, the seed-expansion
//!   hash and the digest convergence check. The seeded chaos schedules
//!   live with the suites that expand them, in `flexnet_bench::suites`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod disk;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod topology;
pub mod workload;

pub use chaos::{diverged, CrashPhase};
pub use disk::{DiskFaultPlan, DiskStats, SimDisk};
pub use engine::{Command, LogBuffer, Simulation, DEFAULT_LOG_CAP};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{Bucket, LossKind, Metrics, WindowDelta, WindowStats};
pub use topology::{Link, Node, NodeKind, Topology};
pub use workload::{generate, syn_flood, tenant_churn, ChurnEvent, Departure, FlowSpec, Pattern};
