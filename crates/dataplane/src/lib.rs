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
//!   loop every entry ([`device::Device::process`],
//!   [`device::Device::process_burst`], the wire entries) drives: one
//!   per-packet body, with [`device::ExecMode`] selecting only the engine
//!   inside it (the bytecode executor, or the reference interpreter).
//! - [`image`] — sealed program images (checked and verified once, shared
//!   by `Arc`) and the configuration digest memoised on them.
//! - [`reconfig`] — hitless runtime reconfiguration (shadow program +
//!   atomic version flip), the drain/reflash compile-time baseline, and an
//!   unsafe in-place ablation (§2).
//! - [`baseline`] — Mantis- and HyPer4-style approximations (§1.1).
//! - [`cost`] — per-architecture latency/reconfiguration/energy models.
//! - [`wire`] — the raw-bytes wire codec behind the device's one wire
//!   admission step (checksum → parse → exact per-offender billing), which
//!   [`device::Device::process_bytes`],
//!   [`device::Device::process_sealed_bytes`] and
//!   [`device::Device::process_sealed_burst`] share.
//! - [`graph`] — the burst hot path: exec → emit (sealed-frame admission
//!   in exec's place on the wire entry) over reusable burst lanes, built
//!   on [`device::Device::process_burst`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
pub mod baseline;
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
pub use baseline::{Hyper4Device, MantisDevice};
pub use cost::CostModel;
pub use device::{
    Device, DeviceStats, ExecMode, FrameOutcome, InstalledProgram, ProcessResult, SandboxConfig,
    DEDUP_WINDOW, EMPTY_CONFIG_DIGEST,
};
pub use graph::{BurstLanes, ForwardingGraph};
pub use image::{config_digest_of, ProgramImage, SealTarget, SealedTargets};
pub use parser::ParserGraph;
pub use reconfig::{
    entries_carry_over, ReconfigMode, ReconfigOutcome, ReconfigPlan, ReconfigReport, TxnTag,
};
pub use state::{DeviceState, LogicalState, StateEncoding};
pub use table::{KeyMatch, TableEntry, TableInstance, TableSet, BURST_MISS};
pub use wire::{encode_wire, flip_bits, frame_checksum, open_frame, parse_wire, seal_frame};
