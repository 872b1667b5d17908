//! # flexnet-dataplane — runtime-reconfigurable device models
//!
//! The data-plane substrate of the FlexNet reproduction ("A Vision for
//! Runtime Programmable Networks", HotNets '21). In place of the paper's
//! hardware targets (Spectrum/Tofino/Trident4 ASICs, SmartNICs, host
//! kernels) this crate provides behaviourally-faithful simulators:
//!
//! - [`arch`] — RMT, dRMT, tiled/elastic-pipe, SmartNIC, and host resource
//!   models with architecture-specific fungibility (paper §3.3 i–iv).
//! - [`table`] — the match/action engine (exact/LPM/ternary/range).
//! - [`state`] — stateful-state encodings (registers, flow instruction
//!   sets, stateful tables) behind a virtualized logical K/V layer (§3.1).
//! - [`parser`] — the parser graph with runtime state add/remove (§2).
//! - [`device`] — the device: placement, statistics, and the one packet
//!   loop every entry ([`device::Device::process`], the forwarding graph,
//!   the wire entries) drives: one
//!   per-packet body around the one engine, the bytecode executor (the
//!   reference interpreter it is held to lives in the tests).
//! - [`image`] — sealed program images (checked and verified once, shared
//!   by `Arc`) and the configuration digest memoised on them.
//! - [`reconfig`] — hitless runtime reconfiguration (shadow program +
//!   atomic version flip), the drain/reflash compile-time baseline, and an
//!   unsafe in-place ablation (§2). The Mantis- and HyPer4-style
//!   approximations of §1.1 are experiment E2's, and live beside it in
//!   `flexnet-bench`.
//! - [`cost`] — per-architecture latency/reconfiguration/energy models.
//! - [`wire`] — the raw-bytes wire codec behind the device's one wire
//!   admission step (checksum → parse → exact per-offender billing), which
//!   [`device::Device::process_bytes`] and
//!   [`device::Device::process_sealed_bytes`] share.
//! - [`graph`] — the device's one burst entry,
//!   [`graph::ForwardingGraph::run`], over reusable burst lanes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
pub mod cost;
pub mod device;
pub mod graph;
pub mod image;
pub mod parser;
pub mod reconfig;
pub mod state;
pub mod table;
pub mod wire;

pub use arch::{ArchAllocator, ArchClass, Architecture, Location};
pub use cost::CostModel;
pub use device::{
    Device, DeviceStats, InstalledProgram, ProcessResult, SandboxConfig, DEDUP_WINDOW,
    EMPTY_CONFIG_DIGEST, TRAP_WINDOW,
};
pub use graph::{BurstLanes, ForwardingGraph};
pub use image::{
    config_digest_of, root_digest, table_digest, DigestLevels, ProgramImage, SealTarget,
    SealedTargets,
};
pub use parser::ParserGraph;
pub use reconfig::{
    entries_carry_over, ReconfigMode, ReconfigOutcome, ReconfigPlan, ReconfigReport, TxnTag,
};
pub use state::{DeviceState, LogicalState, StateEncoding};
pub use table::{KeyMatch, TableEntry, TableInstance, TableSet, BURST_MISS};
pub use wire::{encode_wire, flip_bits, frame_checksum, open_frame, parse_wire, seal_frame};
